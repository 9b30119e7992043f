"""Permuted randomisation blocks and exportable randomisation lists.

A block realises a stage ratio as a uniformly random ordering of exactly those
per-arm counts (restricted randomisation: no binomial drift), and a list of
blocks round-trips through a plain CSV for use with standard randomisation
systems.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ArmId, default_arms
from .mapping import RatioVector

__all__ = ["RandomisationBlock", "generate_block", "export_list", "import_list"]

CSV_HEADER = ["position", "stage", "arm_label", "block_id", "seed_tag"]


@dataclass(frozen=True)
class RandomisationBlock:
    """One stage's concrete assignment sequence."""

    stage_index: int
    assignments: tuple[ArmId, ...]
    seed_tag: str = ""

    def counts(self, k: int) -> tuple[int, ...]:
        tally = [0] * k
        for arm in self.assignments:
            tally[arm.index] += 1
        return tuple(tally)


def generate_block(
    ratio: RatioVector,
    rng: np.random.Generator,
    arms: tuple[ArmId, ...] | None = None,
    stage_index: int = 1,
    seed_tag: str = "",
) -> RandomisationBlock:
    """Uniformly random permutation of the multiset implied by the ratio."""
    if ratio.total == 0:
        raise ValueError("cannot build a block from an all-zero ratio")
    if arms is None:
        arms = default_arms(len(ratio))
    if len(arms) != len(ratio):
        raise ValueError(f"{len(arms)} arms vs ratio of length {len(ratio)}")
    pool = np.repeat(np.arange(len(ratio)), ratio.counts)
    order = rng.permutation(pool)
    return RandomisationBlock(
        stage_index=stage_index,
        assignments=tuple(arms[i] for i in order),
        seed_tag=seed_tag,
    )


def export_list(blocks: list[RandomisationBlock], path: str | Path) -> None:
    """Write blocks as CSV (UTF-8, LF) with one row per assignment position.

    Positions run 1..N across the whole list; block_id is the 1-based block
    index. Re-importing reproduces the assignments bit-exactly.
    """
    if not blocks:
        raise ValueError("no blocks to export")
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            position = 0
            for block_id, block in enumerate(blocks, start=1):
                for arm in block.assignments:
                    position += 1
                    writer.writerow(
                        [position, block.stage_index, arm.label, block_id, block.seed_tag]
                    )
    except OSError as exc:
        raise OSError(f"cannot write randomisation list to {path}: {exc}") from exc


def import_list(
    path: str | Path, arms: tuple[ArmId, ...] | None = None
) -> list[RandomisationBlock]:
    """Read a randomisation list written by export_list.

    Positions must run 1..N in file order, stages must be at least 1, and
    every row of a block must carry the block's stage and seed tag; a
    violation raises ValueError naming the file and line.
    """
    path = Path(path)
    if arms is None:
        arms = default_arms()
    by_label = {arm.label: arm for arm in arms}
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected header {header}")
            rows = list(reader)
    except OSError as exc:
        raise OSError(f"cannot read randomisation list from {path}: {exc}") from exc

    blocks: list[RandomisationBlock] = []
    current: list[ArmId] = []
    current_meta: tuple[int, str] | None = None
    current_id: int | None = None
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 columns, got {len(row)}")
        position, stage, arm_label, block_id, seed_tag = row
        if arm_label not in by_label:
            raise ValueError(f"{path}:{lineno}: unknown arm label {arm_label!r}")
        try:
            bid, stage_index = int(block_id), int(stage)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: block_id and stage must be integers, "
                f"got {block_id!r} and {stage!r}"
            ) from None
        expected = lineno - 1
        if position != str(expected):
            raise ValueError(
                f"{path}:{lineno}: position {position!r}, expected {expected}: "
                "positions must run 1..N in order"
            )
        if stage_index < 1:
            raise ValueError(f"{path}:{lineno}: stage {stage_index} below 1")
        if current_id is not None and bid != current_id:
            blocks.append(
                RandomisationBlock(current_meta[0], tuple(current), current_meta[1])
            )
            current = []
        elif current_id is not None and (stage_index, seed_tag) != current_meta:
            raise ValueError(
                f"{path}:{lineno}: block {bid} row has stage {stage_index} and "
                f"seed tag {seed_tag!r}, but the block began with stage "
                f"{current_meta[0]} and seed tag {current_meta[1]!r}"
            )
        current_id = bid
        current_meta = (stage_index, seed_tag)
        current.append(by_label[arm_label])
    if current:
        blocks.append(
            RandomisationBlock(current_meta[0], tuple(current), current_meta[1])
        )
    if not blocks:
        raise ValueError(f"{path}: empty randomisation list")
    return blocks
