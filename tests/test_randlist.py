from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from radapt.core import ArmId, default_arms
from radapt.mapping import RatioVector
from radapt.randlist import (
    CSV_HEADER,
    RandomisationBlock,
    export_list,
    generate_block,
    import_list,
)

ratios = st.lists(st.integers(0, 6), min_size=2, max_size=4).filter(
    lambda c: sum(c) > 0
)


class TestGenerateBlock:
    def test_balanced_block_is_multiset_permutation(self, rng):
        block = generate_block(RatioVector((2, 2, 2)), rng)
        labels = sorted(arm.label for arm in block.assignments)
        assert labels == ["C", "C", "T1", "T1", "T2", "T2"]

    def test_zero_count_arm_excluded(self, rng):
        block = generate_block(RatioVector((2, 0, 6)), rng, stage_index=3)
        assert all(arm.label != "T1" for arm in block.assignments)
        assert block.counts(3) == (2, 0, 6)
        assert block.stage_index == 3

    @given(counts=ratios, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_counts_invariance(self, counts, seed):
        # restricted randomisation: realised counts equal the ratio exactly
        ratio = RatioVector(tuple(counts))
        arms = tuple(
            ArmId(index=i, role="Active", label=f"A{i}") for i in range(len(counts))
        )
        block = generate_block(ratio, np.random.default_rng(seed), arms=arms)
        assert block.counts(len(counts)) == ratio.counts

    def test_deterministic_given_seed(self):
        a = generate_block(RatioVector((2, 3, 3)), np.random.default_rng(11))
        b = generate_block(RatioVector((2, 3, 3)), np.random.default_rng(11))
        assert a == b

    def test_zero_ratio_rejected(self, rng):
        with pytest.raises(ValueError, match="all-zero"):
            generate_block(RatioVector((0, 0, 0)), rng)

    def test_arm_count_mismatch(self, rng):
        with pytest.raises(ValueError, match="arms"):
            generate_block(RatioVector((1, 1)), rng, arms=default_arms())

    def test_seed_tag_carried(self, rng):
        block = generate_block(RatioVector((2, 2, 2)), rng, seed_tag="s1")
        assert block.seed_tag == "s1"


class TestFirstPositionLaw:
    def test_matches_ratio_shares(self):
        # first assignment of a uniform multiset permutation follows the
        # ratio shares: 2:3:3 -> (0.25, 0.375, 0.375)
        rng = np.random.default_rng(404)
        ratio = RatioVector((2, 3, 3))
        hits = Counter(
            generate_block(ratio, rng).assignments[0].index for _ in range(10_000)
        )
        for arm, share in enumerate((0.25, 0.375, 0.375)):
            assert abs(hits[arm] / 10_000 - share) < 0.02


class TestOrderingUniformity:
    # draw count reduced from the design target of 1e6 to keep the suite
    # fast; cells stay well above the chi-square validity floor
    DRAWS = 150_000

    @pytest.mark.parametrize("counts", [(2, 1, 3), (2, 3, 3)])
    def test_all_orderings_equally_likely(self, counts):
        rng = np.random.default_rng(505)
        ratio = RatioVector(counts)
        seen = Counter(
            tuple(arm.index for arm in generate_block(ratio, rng).assignments)
            for _ in range(self.DRAWS)
        )
        from math import factorial

        n_orderings = factorial(sum(counts))
        for c in counts:
            n_orderings //= factorial(c)
        assert len(seen) == n_orderings
        result = chisquare(list(seen.values()))
        assert result.pvalue > 0.001


class TestExportImport:
    def _blocks(self):
        arms = default_arms()
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        return [
            generate_block(RatioVector((2, 2, 2)), rngs[0], stage_index=1, seed_tag="a"),
            generate_block(RatioVector((2, 1, 3)), rngs[1], stage_index=2, seed_tag="b"),
            generate_block(RatioVector((2, 0, 6)), rngs[2], stage_index=3, seed_tag="c"),
        ]

    def test_single_block_layout(self, tmp_path, rng):
        path = tmp_path / "list.csv"
        export_list([generate_block(RatioVector((2, 2, 2)), rng)], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 7
        positions = [int(line.split(",")[0]) for line in lines[1:]]
        assert positions == [1, 2, 3, 4, 5, 6]
        assert all(line.split(",")[3] == "1" for line in lines[1:])

    def test_round_trip_bit_exact(self, tmp_path):
        blocks = self._blocks()
        path = tmp_path / "list.csv"
        export_list(blocks, path)
        recovered = import_list(path)
        assert recovered == blocks
        second = tmp_path / "again.csv"
        export_list(recovered, second)
        assert second.read_bytes() == path.read_bytes()

    def test_positions_run_across_blocks(self, tmp_path):
        path = tmp_path / "list.csv"
        export_list(self._blocks(), path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines] == list(range(1, 21))

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no blocks"):
            export_list([], tmp_path / "x.csv")

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            import_list(path)

    def test_unknown_arm_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\n1,1,T9,1,\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="T9"):
            import_list(path)

    @pytest.mark.parametrize("row", ["1,1,C,x,", "1,two,C,1,"])
    def test_non_integer_field_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\n1,1,C,1,\n" + row + "\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match=r"bad\.csv:3: block_id and stage"):
            import_list(path)

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            import_list(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(CSV_HEADER) + "\n1,1,C\n", encoding="utf-8")
        with pytest.raises(ValueError, match="columns"):
            import_list(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(OSError, match="nowhere.csv"):
            import_list(tmp_path / "nowhere.csv")

    def _write(self, tmp_path, *rows):
        path = tmp_path / "list.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\n" + "".join(r + "\n" for r in rows),
            encoding="utf-8",
        )
        return path

    @pytest.mark.parametrize("stage", ["0", "-2"])
    def test_stage_below_one_rejected(self, tmp_path, stage):
        path = self._write(tmp_path, "1,1,C,1,", f"2,{stage},T1,2,")
        with pytest.raises(ValueError, match=rf"list\.csv:3: stage {stage} below 1"):
            import_list(path)

    @pytest.mark.parametrize(
        "rows, line",
        [
            (("9,1,C,1,", "3,1,T1,1,"), 2),  # does not start at 1
            (("1,1,C,1,", "3,1,T1,1,"), 3),  # skips a position
            (("2,1,C,1,", "1,1,T1,1,"), 2),  # runs backwards
        ],
    )
    def test_positions_out_of_order_rejected(self, tmp_path, rows, line):
        path = self._write(tmp_path, *rows)
        with pytest.raises(ValueError, match=rf"list\.csv:{line}: position .* 1\.\.N"):
            import_list(path)

    @pytest.mark.parametrize(
        "second, field", [("2,2,T1,1,a", "stage 2"), ("2,1,T1,1,b", "seed tag 'b'")]
    )
    def test_block_with_mixed_stage_or_tag_rejected(self, tmp_path, second, field):
        path = self._write(tmp_path, "1,1,C,1,a", second)
        with pytest.raises(ValueError, match=rf"list\.csv:3: block 1 row has .*{field}"):
            import_list(path)

    def test_reported_defect_rejected(self, tmp_path):
        # positions 9 and 3, stages 0 and -2, one block: once imported
        # silently as a single block with stage_index -2
        path = self._write(tmp_path, "9,0,C,1,", "3,-2,T1,1,")
        with pytest.raises(ValueError, match=r"list\.csv:2: "):
            import_list(path)
