import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import rankcred as rc
from rankcred.domain import HIGHEST_OF_TIES, MIDRANK, rank_span

from conftest import make_dataset
from oracles import pairwise_rank


# small integers and a mix of signed zeros, so that runs of exact ties are common
tied_values = st.lists(
    st.one_of(st.integers(-4, 4).map(float), st.sampled_from([0.0, -0.0])), max_size=30
)


class TestRankOf:
    def test_strictly_ordered(self):
        assert list(rc.rank_of([0.400, 0.378, 0.156])) == [3, 2, 1]

    def test_baseball_midranks(self, baseball):
        r = rc.rank_of(baseball.y, MIDRANK)
        # Berry and Spencer tie at 13.5; the five .222 hitters share midrank 6
        expected = [18, 17, 16, 15, 13.5, 13.5, 12, 11, 9.5, 9.5, 6, 6, 6, 6, 6, 3, 2, 1]
        assert list(r) == expected

    def test_highest_of_ties(self):
        assert list(rc.rank_of([0.222, 0.222], HIGHEST_OF_TIES)) == [2, 2]
        assert list(rc.rank_of([0.3, 0.222, 0.222], HIGHEST_OF_TIES)) == [3, 2, 2]

    def test_rejects_non_finite(self):
        with pytest.raises(rc.DomainError):
            rc.rank_of([1.0, np.nan])

    def test_unknown_tie_rule(self):
        with pytest.raises(rc.DomainError):
            rc.rank_of([1.0, 2.0], "banana")

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30, unique=True))
    def test_matches_pairwise_count_oracle(self, values):
        assert np.array_equal(rc.rank_of(values), pairwise_rank(values))

    @given(
        st.lists(st.integers(-1000, 1000), min_size=2, max_size=20),
        st.integers(-500, 500),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    @settings(max_examples=60)
    def test_shift_scale_invariance(self, values, shift, scale):
        # integer-valued floats keep the arithmetic exact, so ties are preserved
        base = rc.rank_of(values)
        assert np.array_equal(rc.rank_of(np.array(values, dtype=float) * scale + shift), base)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=25))
    def test_midrank_sum_conserved(self, values):
        m = len(values)
        assert rc.rank_of(values).sum() == pytest.approx(m * (m + 1) / 2, abs=1e-9)

    @given(tied_values)
    @settings(max_examples=300)
    def test_bitwise_equal_to_scipy_rankdata(self, values):
        for tie_rule, method in ((MIDRANK, "average"), (HIGHEST_OF_TIES, "max")):
            expected = rankdata(values, method=method).astype(float)
            got = rc.rank_of(values, tie_rule)
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()


class TestRankSpan:
    @given(tied_values)
    @settings(max_examples=200)
    @example([0.0, -1.0, -0.0, 0.0, 2.0])  # lo = [2, 1, 2, 2, 5], hi = [4, 1, 4, 4, 5]
    def test_matches_counts(self, values):
        # a value's tie run spans ranks #(v < x) + 1 .. #(v <= x)
        v = np.array(values)
        lo, hi = rank_span(v)
        assert lo.tolist() == [int(np.sum(v < x)) + 1 for x in v]
        assert hi.tolist() == [int(np.sum(v <= x)) for x in v]

    def test_fresh_import_leaves_scipy_stats_unloaded(self, tmp_path):
        # the package runs on numpy alone: a fresh process that imports it and
        # runs an HB elliptical mahal fit, kww and a one-cell study loads no
        # scipy module at all
        src = str(Path(rc.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        (tmp_path / "sim.json").write_text(
            '{"n_reps": 1, "a_grid": [1.0], "beta1_grid": [0.0], "samples": 200}'
        )
        code = textwrap.dedent(
            """
            import sys
            import rankcred
            from rankcred.cli import run_command
            data = rankcred.__file__.replace("__init__.py", "data/baseball.csv")
            fit = ["--model", "hb", "--set", "elliptical", "--weights", "mahal"]
            assert run_command(["fit", data, *fit, "--samples", "500", "--out", "fit"]) == 0
            assert run_command(["kww", data, "--out", "kww"]) == 0
            assert run_command(["simulate", "--config", "sim.json", "--out", "sim.csv"]) == 0
            print(sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy.")))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestValidation:
    def test_gold_ranks_match_table(self, baseball):
        xi = baseball.gold_ranks()
        expected = [18, 15, 13, 3, 12, 11, 7, 2, 10, 5, 8.5, 6, 16, 8.5, 4, 14, 17, 1]
        assert list(xi) == expected

    def test_needs_two_entities(self):
        with pytest.raises(rc.DomainError, match="at least 2"):
            make_dataset([1.0], [1.0])

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(rc.DomainError, match="entity 'e2': sampling variance d=0.0 must be > 0"):
            make_dataset([1.0, 2.0], [1.0, 0.0])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(rc.DomainError, match="duplicate entity id 'b'"):
            rc.Dataset(["a", "b", "c", "b"], [1.0, 2.0, 3.0, 4.0], [1.0] * 4)

    def test_gold_all_or_none(self):
        # a Dataset's gold is a full column or None, so only parsing can meet a partial one
        with pytest.raises(rc.DomainError, match="row 3, column 'gold'.*all entities or none"):
            rc.parse_csv_text("id,y,d,gold\na,1,1,0.5\nb,2,1,\nc,3,1,\n")
        no_gold = rc.parse_csv_text("id,y,d,gold\na,1,1,\nb,2,1,\n")
        assert not no_gold.has_gold
        with pytest.raises(rc.DomainError, match="no gold-standard values"):
            no_gold.gold_ranks()

    def test_covariate_length_mismatch(self):
        # x is an m x p table (one covariate too), gold one value per entity
        for x, gold, column in (
            ([1.0, 2.0], None, "x"),
            ([[1.0], [2.0], [3.0]], None, "x"),
            (None, [0.5], "gold"),
        ):
            with pytest.raises(rc.DomainError, match=f"column '{column}': shape"):
                rc.Dataset(["a", "b"], [1.0, 2.0], [1.0, 1.0], x=x, gold=gold)

    def test_rejects_non_finite_y(self):
        with pytest.raises(rc.DomainError, match="entity 'a': non-finite y=inf"):
            rc.Dataset(["a", "b"], [float("inf"), 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("column", ["d", "x2", "gold"])
    def test_non_finite_names_entity_and_column(self, column):
        d, x, gold = np.ones(3), np.zeros((3, 2)), np.zeros(3)
        {"d": d, "x2": x[:, 1], "gold": gold}[column][1] = np.nan
        with pytest.raises(rc.DomainError, match=f"entity 'b': non-finite {column}=nan"):
            rc.Dataset(["a", "b", "c"], [1.0, 2.0, 3.0], d, x=x, gold=gold)

    def test_array_accessors(self, baseball):
        assert baseball.m == 18
        assert baseball.p == 0
        assert baseball.y[0] == pytest.approx(0.400)
        assert baseball.d[0] == pytest.approx(0.4 * 0.6 / 45)
        assert baseball.has_gold
        assert baseball.gold[-1] == pytest.approx(0.200)

    def test_columns_built_once_and_read_only(self):
        x = np.array([[0.0], [0.5], [1.0]])
        ds = rc.Dataset(["e0", "e1", "e2"], [0, 1, 2], [1.0] * 3, x=x, gold=[0, -1, -2])
        for name in ("y", "d", "x", "gold"):
            column = getattr(ds, name)
            assert column.dtype == float
            assert getattr(ds, name) is column
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 7.0
        # the dataset holds copies: the caller's arrays stay writeable and apart
        x[0, 0] = 7.0
        assert ds.x[0, 0] == 0.0
