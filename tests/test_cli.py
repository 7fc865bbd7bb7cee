import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rankcred as rc
from rankcred.cli import run_command
from rankcred import cli, rankdist
from rankcred.fileio import emit_dataset, format_matrix, write_matrix_csv, write_rows_csv
from rankcred.rankdist import DS_TOL

from conftest import HB_FACTORIZATION, count_factorizations, make_dataset, wide_dataset
from conftest import spy_covariances, spy_distance_passes
from oracles import plot_data_reference

DATA_CSV = """id,y,d,gold
a,0.40,0.004,0.35
b,0.35,0.005,0.33
c,0.30,0.004,0.31
d,0.25,0.005,0.28
e,0.20,0.004,0.24
"""


FIXTURE = str(Path(rc.__file__).parent / "data" / "baseball.csv")


def run_module(cwd, *argv, **env):
    """`python -m rankcred.cli *argv` in a fresh process from `cwd`, this
    source tree first on PYTHONPATH and `env` added to the environment."""
    src = str(Path(rc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rankcred.cli", *argv],
        cwd=cwd, env={**os.environ, **env, "PYTHONPATH": path}, capture_output=True, text=True,
    )


@pytest.fixture
def data_path(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text(DATA_CSV)
    return p


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def csv_reference(header, rows):
    """UTF-8 bytes of the csv module writing `header` and `rows`, every
    non-string value as float in %.12g."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else "%.12g" % float(v) for v in row])
    return out.getvalue().encode("utf-8")


class TestFileio:
    def test_round_trip(self):
        ds = rc.parse_csv_text(DATA_CSV)
        assert rc.parse_csv_text(emit_dataset(ds)) == ds

    def test_round_trip_with_covariates(self):
        ds = make_dataset([0.1, 0.2, 0.3], [0.01, 0.02, 0.01], x=[(1.0,), (2.0,), (3.0,)])
        assert rc.parse_csv_text(emit_dataset(ds)) == ds

    @given(
        rows=st.lists(
            st.tuples(
                st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1),
                st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False),
                st.floats(min_value=1e-300, max_value=1e300),
                st.floats(-1e6, 1e6),
                st.floats(-1e6, 1e6),
                st.floats(-1e6, 1e6),
            ),
            min_size=2,
            max_size=8,
            unique_by=lambda r: r[0],
        ),
        p=st.integers(0, 2),
        has_gold=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_parse_emit_round_trip(self, rows, p, has_gold):
        # emit writes 12 significant digits: one pass moves every value by
        # less than a unit in its 12th digit, and a second pass changes nothing
        ids, y, d, x1, x2, gold = zip(*rows)
        ds = rc.Dataset(
            ids, y, d, x=np.column_stack([x1, x2])[:, :p], gold=gold if has_gold else None
        )
        once = rc.parse_csv_text(emit_dataset(ds))
        assert once.ids == ds.ids
        assert (once.p, once.has_gold) == (ds.p, ds.has_gold)
        for a, b in ((once.y, ds.y), (once.d, ds.d), (once.x, ds.x)):
            assert np.allclose(a, b, rtol=1e-11, atol=0)
        if has_gold:
            assert np.allclose(once.gold, ds.gold, rtol=1e-11, atol=0)
        assert emit_dataset(once) == emit_dataset(ds)
        assert rc.parse_csv_text(emit_dataset(once)) == once

    def test_path_and_text_both_work(self, data_path):
        assert rc.parse_dataset(data_path) == rc.parse_csv_text(DATA_CSV)
        assert rc.parse_dataset(str(data_path)) == rc.parse_csv_text(DATA_CSV)

    def test_header_only_text(self):
        with pytest.raises(rc.DomainError, match="no data rows found"):
            rc.parse_csv_text("id,y,d")

    def test_comma_in_path(self, tmp_path):
        p = tmp_path / "results,v2.csv"
        p.write_text(DATA_CSV)
        assert rc.parse_dataset(str(p)) == rc.parse_csv_text(DATA_CSV)
        assert rc.parse_dataset(p) == rc.parse_csv_text(DATA_CSV)
        assert run_command(["kww", str(p), "--out", str(tmp_path / "out")]) == 0
        assert len(read_csv(tmp_path / "out" / "kww_ranksets.csv")) == 6

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + DATA_CSV.encode("utf-8"))
        assert rc.parse_dataset(p) == rc.parse_csv_text(DATA_CSV)

    def test_byte_order_mark_in_text(self):
        # the text `open(path, encoding="utf-8")` returns for a spreadsheet export
        assert rc.parse_csv_text("\ufeff" + DATA_CSV) == rc.parse_csv_text(DATA_CSV)
        with pytest.raises(rc.DomainError, match="missing required column 'id'"):
            rc.parse_csv_text("\ufeff\ufeff" + DATA_CSV)  # only one is skipped

    def test_format_matrix_rows(self):
        probs = np.array([[0.5, 0.5, 0.0], [1 / 3, 2 / 3, 0.0], [1 / 6, 0.0, 5 / 6]])
        assert format_matrix(probs) == [
            "0.5,0.5,0",
            "0.333333333333,0.666666666667,0",
            "0.166666666667,0,0.833333333333",
        ]

    def test_writers_match_csv_module(self, tmp_path):
        ids = ["plain", "comma,id", 'quote"id', "Zoë", " lead"]
        probs = np.array(
            [
                [1 / 3, 1e-300, 0.0, 2 / 3, 1.0],
                [0.1, 0.2, -0.0, 1e-17, 0.7],
                [5e-324, 0.25, 0.5, 0.125, 0.125],
            ]
        )
        write_matrix_csv(tmp_path / "m.csv", format_matrix(probs), ids)
        expected = csv_reference(["rank"] + ids, [[k + 1, *p] for k, p in enumerate(probs)])
        assert (tmp_path / "m.csv").read_bytes() == expected

        header = ["id", "int", "float", "tiny", "np_int", "text"]
        rows = [
            ["comma,id", 3, np.float64(0.1), 1e-300, np.int64(7), ""],
            ['quote"id', 10**13, np.float64(-0.0), 2 / 3, np.intp(0), "a,b"],
            ["Zoë", -12, np.float64(123456789.123456), 5e-324, np.int64(-1), 'say "hi"'],
        ]
        write_rows_csv(tmp_path / "r.csv", header, rows)
        assert (tmp_path / "r.csv").read_bytes() == csv_reference(header, rows)

    def test_column_order_free(self):
        reordered = "d,gold,y,id\n0.004,0.35,0.40,a\n0.005,0.33,0.35,b\n"
        ds = rc.parse_csv_text(reordered)
        assert ds.ids == ["a", "b"]
        assert ds.y[0] == 0.40

    def test_missing_column_message(self):
        with pytest.raises(rc.DomainError, match="missing required column 'd'"):
            rc.parse_csv_text("id,y\na,0.1\n")

    def test_bad_value_names_row_and_column(self):
        with pytest.raises(rc.DomainError, match="row 3, column 'y'"):
            rc.parse_csv_text("id,y,d\na,0.1,0.01\nb,oops,0.01\n")

    @pytest.mark.parametrize("text, row", [
        ("id,y,d\n\na,1,1\nb,x,1\n", 4),
        ("id,y,d\na,1,1\n\n\nb,x,1\n", 5),
    ])
    def test_blank_lines_count_as_rows(self, text, row):
        with pytest.raises(rc.DomainError, match=f"^row {row}, column 'y': 'x' is not a number$"):
            rc.parse_csv_text(text)

    def test_blank_lines_hold_no_entity(self):
        ds = rc.parse_csv_text("id,y,d\n\na,1,1\n\nb,2,1\n\n")
        assert ds.ids == ["a", "b"]

    @pytest.mark.parametrize("header, name", [("id,y,d,y", "y"), ("id,y,d, id ", "id"), ("x1,id,y,d,x1", "x1")])
    def test_repeated_column_rejected(self, header, name):
        with pytest.raises(rc.DomainError, match=f"^header names column '{name}' more than once$"):
            rc.parse_csv_text(f"{header}\na,1,1,5\nb,2,1,6\n")

    def test_nonconsecutive_covariates(self):
        with pytest.raises(rc.DomainError, match="consecutive"):
            rc.parse_csv_text("id,y,d,x2\na,0.1,0.01,1.0\nb,0.2,0.01,2.0\n")

    def test_nonpositive_d(self):
        with pytest.raises(rc.DomainError, match="must be > 0"):
            rc.parse_csv_text("id,y,d\na,0.1,0.0\nb,0.2,0.01\n")

    @pytest.mark.parametrize("row, n", [("b,2", 2), ("b,2,1,9", 4)])
    def test_ragged_row_named(self, row, n):
        with pytest.raises(rc.DomainError, match=f"^row 3: {n} fields, but the header has 3$"):
            rc.parse_csv_text(f"id,y,d\na,1,1\n{row}\nc,3,1\n")

    def test_bundled_baseball(self, baseball):
        assert baseball.m == 18
        assert baseball.has_gold
        assert baseball.y[0] == pytest.approx(0.400)
        assert np.allclose(baseball.d, baseball.y * (1 - baseball.y) / 45, atol=5e-13)


class TestKwwCommand:
    def test_artifacts(self, data_path, tmp_path):
        out = tmp_path / "out"
        code = run_command(["kww", str(data_path), "--alpha", "0.1", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "kww_ranksets.csv")
        assert rows[0] == ["id", "L", "U", "rank_lo", "rank_hi", "eps_kww"]
        assert len(rows) == 6
        ks = rc.rank_confidence_set(rc.parse_csv_text(DATA_CSV), 0.1)
        for i, row in enumerate(rows[1:]):
            assert int(row[3]) == ks.rank_lo[i]
            assert int(row[4]) == ks.rank_hi[i]
            assert float(row[1]) == pytest.approx(ks.intervals[i, 0], abs=1e-12)
            assert float(row[5]) >= 0.0  # gold column present -> eps filled

    def test_no_gold_leaves_eps_blank(self, tmp_path):
        p = tmp_path / "ng.csv"
        p.write_text("id,y,d\na,0.1,0.01\nb,0.2,0.01\n")
        out = tmp_path / "out"
        assert run_command(["kww", str(p), "--out", str(out)]) == 0
        rows = read_csv(out / "kww_ranksets.csv")
        assert rows[1][5] == ""


class TestFitCommand:
    def run_fit(self, data_path, out, *extra):
        args = [
            "fit", str(data_path), "--samples", "2000", "--burnin", "300",
            "--seed", "3", "--out", str(out), *extra,
        ]
        return run_command(args)

    def test_ub_cartesian_artifacts(self, data_path, tmp_path):
        out = tmp_path / "out"
        assert self.run_fit(data_path, out, "--model", "ub") == 0
        matrix = read_csv(out / "rank_matrix.csv")
        assert matrix[0] == ["rank", "a", "b", "c", "d", "e"]
        probs = np.array([[float(v) for v in row[1:]] for row in matrix[1:]])
        # doubly stochastic survives the 12-significant-digit serialization
        assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

        summary = read_csv(out / "rank_summary.csv")
        assert summary[0] == [
            "id", "y", "observed_rank", "expected_rank", "rank_q05",
            "rank_q50", "rank_q95", "gold_rank", "exp_abs_dev",
        ]
        exp_ranks = [float(r[3]) for r in summary[1:]]
        assert sum(exp_ranks) == pytest.approx(15.0, abs=1e-6)
        for r in summary[1:]:
            assert 1 <= int(r[4]) <= int(r[5]) <= int(r[6]) <= 5

        size = json.loads((out / "size_report.json").read_text())
        assert size["geometry"] == "cartesian"
        assert size["volume"] > 0
        assert len(size["per_side_lengths"]) == 5

        post = json.loads((out / "posterior_summary.json").read_text())
        assert post["model"] == "UB"
        assert "a_mean" not in post
        assert post["tese_direct"] == pytest.approx(
            rc.tese([0.40, 0.35, 0.30, 0.25, 0.20], [0.35, 0.33, 0.31, 0.28, 0.24]),
            rel=1e-9,
        )
        # Monte Carlo mean of the UB draws, centered on y_a
        assert post["mean"]["a"] == pytest.approx(0.40, abs=0.01)

    def test_rank_quantiles_at_exact_mass(self, data_path, tmp_path, monkeypatch):
        # a column's running mass that equals q exactly stops at that rank,
        # as np.searchsorted's left side does
        probs = np.zeros((5, 5))
        probs[:2, 0] = [0.05, 0.95]
        probs[:3, 1] = [0.25, 0.25, 0.5]
        probs[1:3, 2] = [0.95, 0.05]
        probs[3, 3] = probs[4, 4] = 1.0
        dist = rc.RankCredibleDistribution(probs=probs, model="UB")
        monkeypatch.setattr(cli.rankdist, "build_distribution", lambda *args, **kw: dist)
        out = tmp_path / "out"
        assert self.run_fit(data_path, out, "--model", "ub") == 0
        got = [[int(v) for v in r[4:7]] for r in read_csv(out / "rank_summary.csv")[1:]]
        reference = [
            [int(np.searchsorted(np.cumsum(col), q)) + 1 for q in (0.05, 0.5, 0.95)]
            for col in probs.T
        ]
        assert got == reference == [[1, 2, 2], [1, 2, 3], [2, 2, 2], [4, 4, 4], [5, 5, 5]]

    def test_hb_elliptical_artifacts(self, data_path, tmp_path):
        out = tmp_path / "out"
        assert self.run_fit(data_path, out, "--model", "hb", "--set", "elliptical", "--weights", "mahal") == 0
        size = json.loads((out / "size_report.json").read_text())
        assert size["geometry"] == "elliptical"
        assert size["cutoff"] > 0
        post = json.loads((out / "posterior_summary.json").read_text())
        assert post["model"] == "HB"
        assert post["a_mean"] > 0
        assert post["a_median"] > 0
        # shrinkage: HB means are pulled toward the common level
        means = [post["mean"][k] for k in ("a", "b", "c", "d", "e")]
        assert np.std(means) < np.std([0.40, 0.35, 0.30, 0.25, 0.20])

    @pytest.mark.parametrize("samples", ["10", "12", "18", "19"])
    def test_hb_elliptical_with_fewer_draws_than_entities(self, tmp_path, capsys, samples):
        # S <= m = 18: the covariance of the draws is singular, so its factor
        # fails; S = m + 1 draws all lie at squared distance m, so the cutoff
        # drops draws by rounding
        out = tmp_path / "out"
        data = Path(rc.__file__).parent / "data" / "baseball.csv"
        argv = ["fit", str(data), "--model", "hb", "--set", "elliptical", "--samples", samples]
        assert run_command([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: an HB dispersion needs S > m + 1 draws: S={samples}, m=18\n"
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["5", "12", "19"])
    def test_hb_box_mahal_with_too_few_draws(self, tmp_path, capsys, samples):
        # the box's mahal weights read the same dispersion: at S = m + 1 every
        # draw's distance is m, so the weights would be the equal ones
        out = tmp_path / "out"
        argv = ["fit", FIXTURE, "--model", "hb", "--weights", "mahal", "--samples", samples]
        assert run_command([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: an HB dispersion needs S > m + 1 draws: S={samples}, m=18\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, geometry, samples",
        [("hb", "cartesian", "12"), ("ub", "elliptical", "12"), ("hb", "elliptical", "20")],
    )
    def test_few_draws_accepted(self, tmp_path, model, geometry, samples):
        # only an HB dispersion reads the draws' covariance; S = m + 2 makes its distances differ
        data = Path(rc.__file__).parent / "data" / "baseball.csv"
        argv = ["fit", str(data), "--model", model, "--set", geometry, "--samples", samples]
        assert run_command([*argv, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "model, geometry, weights, expected",
        [
            ("hb", "elliptical", "equal", 1),
            ("hb", "elliptical", "mahal", 1),
            ("hb", "cartesian", "mahal", 1),
            ("hb", "cartesian", "equal", 0),
            ("ub", "elliptical", "mahal", 0),
            ("ub", "cartesian", "mahal", 0),
        ],
    )
    def test_one_factorization_per_fit(self, tmp_path, monkeypatch, model, geometry, weights, expected):
        # selection, weights and size all read one factor of the dispersion;
        # UB's dispersion diag(d) is never factored
        calls = count_factorizations(monkeypatch, 18)
        data = Path(rc.__file__).parent / "data" / "baseball.csv"
        argv = ["fit", str(data), "--model", model, "--set", geometry, "--weights", weights]
        assert run_command([*argv, "--samples", "2000", "--out", str(tmp_path / "out")]) == 0
        assert calls == (HB_FACTORIZATION if expected else [])

    @pytest.mark.parametrize("model", ["hb", "ub"])
    @pytest.mark.parametrize(
        "geometry, weights, expected",
        [("cartesian", "mahal", 1), ("cartesian", "equal", 0), ("elliptical", "mahal", 1),
         ("elliptical", "equal", 1)],
    )
    def test_distance_passes_per_fit(self, tmp_path, monkeypatch, model, geometry, weights, expected):
        # an ellipse makes one pass over all draws and its mahal weights read
        # it; a box makes one only for mahal weights
        passes = spy_distance_passes(monkeypatch)
        argv = ["fit", FIXTURE, "--model", model, "--set", geometry, "--weights", weights]
        assert run_command([*argv, "--samples", "2000", "--out", str(tmp_path / "out")]) == 0
        assert passes == [2000] * expected

    def test_rank_quantiles_count_ranks_as_integers(self, tmp_path):
        # equal weights over K draws: rank quantile q of entity i is the first
        # rank k that K q or more selected draws give i or a better one, here
        # counted in integers.  At seed 1, F. Howard (index 2) holds rank <= 13
        # in exactly half of the 45,000 draws, where the column's running float
        # sum lands one ulp below 0.5
        out = tmp_path / "out"
        argv = ["fit", FIXTURE, "--model", "hb", "--set", "elliptical", "--seed", "1"]
        assert run_command([*argv, "--weights", "equal", "--out", str(out)]) == 0
        ds = rc.parse_dataset(FIXTURE)
        draws = rc.gibbs_hb(ds, 50000, 1)
        sel = rc.Fit(ds, draws).select("elliptical", 0.1)
        theta = draws.theta[sel.indices]
        assert sel.K == 45000 and not (np.diff(np.sort(theta, axis=1), axis=1) == 0).any()
        ranks = np.argsort(np.argsort(theta, axis=1), axis=1) + 1  # (K, m), in 1..m
        k = np.arange(1, 19)
        counts = (ranks[:, None, :] <= k[:, None]).sum(axis=0)  # (rank k, entity i)
        assert 2 * counts[12, 2] == sel.K
        reference = [np.argmax(100 * counts >= percent * sel.K, axis=0) + 1 for percent in (5, 50, 95)]
        got = np.array([[int(v) for v in r[4:7]] for r in read_csv(out / "rank_summary.csv")[1:]])
        assert np.array_equal(got.T, reference)
        assert got[2, 1] == 13

    @pytest.mark.parametrize("geometry", ["cartesian", "elliptical"])
    def test_size_report_past_double_range(self, tmp_path, geometry):
        # m = 1000 as fit-ub-wide generates its data: exp(log volume)
        # overflows a double, so the volume is null and log_volume holds it
        rng = np.random.default_rng([1, 1000])
        x, d = rng.uniform(0.0, 1.0, 1000), rng.uniform(0.5, 2.0, 1000)
        _, ds = rc.generate_instance(x, 0.2, 0.4, 1.0, d, rng)
        data = tmp_path / "wide.csv"
        data.write_text(emit_dataset(ds))
        out = tmp_path / "out"
        argv = ["fit", str(data), "--model", "ub", "--set", geometry, "--samples", "2000"]
        assert run_command([*argv, "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 4
        size = json.loads((out / "size_report.json").read_text())
        assert size["volume"] is None
        assert math.log(sys.float_info.max) < size["log_volume"] < math.inf
        assert math.log(size["vol_mth_root"]) == pytest.approx(size["log_volume"] / 1000, rel=1e-9)

    def test_ub_fit_skips_covariance(self, data_path, tmp_path, monkeypatch):
        # a UB fit writes only the posterior mean, so it forms no covariance
        covariances = spy_covariances(monkeypatch)
        out = tmp_path / "out"
        assert self.run_fit(data_path, out, "--model", "ub", "--set", "elliptical") == 0
        assert covariances == []
        post = json.loads((out / "posterior_summary.json").read_text())
        draws = rc.sample_ub(rc.parse_dataset(data_path), 2000, seed=3)
        means = [float("%.12g" % v) for v in draws.theta.mean(axis=0)]
        assert [post["mean"][k] for k in ("a", "b", "c", "d", "e")] == means
        assert "a_mean" not in post

    @pytest.mark.parametrize("weighting, formed", [("equal", []), ("mahal", [2000])], ids=["equal", "mahal"])
    def test_hb_box_fit_covariance(self, data_path, tmp_path, monkeypatch, weighting, formed):
        # the default fit's box and equal weights need no dispersion, so no
        # covariance; mahal weights form it once, for the dispersion
        covariances = spy_covariances(monkeypatch)
        assert self.run_fit(data_path, tmp_path / "out", "--weights", weighting) == 0
        assert covariances == formed

    def test_non_ascii_ids_round_trip(self, tmp_path):
        ids = ["Zoë", "東京", "a,b", 'q"t', "plain"]
        ys = [0.4, 0.35, 0.3, 0.25, 0.2]
        ds = rc.Dataset(ids, ys, [0.004] * len(ids))
        p = tmp_path / "data.csv"
        p.write_text(emit_dataset(ds), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["fit", str(p), "--model", "ub", "--samples", "2000", "--plot-data"]
        assert run_command([*argv, "--out", str(out)]) == 0
        with open(out / "rank_matrix.csv", newline="", encoding="utf-8") as f:
            assert next(csv.reader(f)) == ["rank"] + ids
        with open(out / "rank_summary.csv", newline="", encoding="utf-8") as f:
            assert [row[0] for row in csv.reader(f)][1:] == ids
        post = json.loads((out / "posterior_summary.json").read_text(encoding="utf-8"))
        assert sorted(post["mean"]) == sorted(ids)

    def test_reruns_byte_identical(self, data_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        self.run_fit(data_path, out1, "--model", "hb", "--plot-data")
        self.run_fit(data_path, out2, "--model", "hb", "--plot-data")
        names = sorted(p.name for p in out1.iterdir())
        assert names == [
            "plot_data.csv", "posterior_summary.json", "rank_matrix.csv", "rank_summary.csv",
            "size_report.json",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_burnin_flag_ignored(self, data_path, tmp_path):
        with_flag, without = tmp_path / "o1", tmp_path / "o2"
        self.run_fit(data_path, with_flag, "--model", "hb")
        args = ["fit", str(data_path), "--samples", "2000", "--seed", "3", "--model", "hb"]
        assert run_command([*args, "--out", str(without)]) == 0
        for name in ("rank_matrix.csv", "rank_summary.csv", "size_report.json", "posterior_summary.json"):
            assert (with_flag / name).read_bytes() == (without / name).read_bytes()

    def test_no_intercept_without_covariates(self, data_path, tmp_path, capsys):
        argv = ["fit", str(data_path), "--model", "hb", "--no-intercept", "--out", str(tmp_path)]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--no-intercept" in err and "x1..xp" in err

    def test_no_intercept_with_ub(self, data_path, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["fit", str(data_path), "--model", "ub", "--no-intercept", "--out", str(out)]
        assert run_command(argv) == 1
        assert capsys.readouterr().err.startswith("error: --no-intercept applies to --model hb")
        assert not out.exists()

    def test_module_entry_point(self, data_path, tmp_path):
        # `python -m rankcred.cli` runs the same main() as the installed script
        out = tmp_path / "out"
        proc = run_module(tmp_path, "fit", str(data_path), "--samples", "2000", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "posterior_summary.json", "rank_matrix.csv", "rank_summary.csv", "size_report.json",
        ]

    def test_plot_data(self, data_path, tmp_path):
        out = tmp_path / "out"
        assert self.run_fit(data_path, out, "--model", "ub", "--plot-data") == 0
        rows = read_csv(out / "plot_data.csv")
        assert rows[0] == ["kind", "id", "rank", "value"]
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"kww_range", "observed_rank", "credible_cell", "gold_rank"}
        cells = [r for r in rows[1:] if r[0] == "credible_cell"]
        assert all(0 < float(r[3]) <= 1 for r in cells)
        # per-entity credible masses serialize to 1
        for ident in ("a", "b", "c", "d", "e"):
            mass = sum(float(r[3]) for r in cells if r[1] == ident)
            assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("with_gold", [False, True])
    def test_plot_data_matches_csv_module(self, tmp_path, with_gold):
        ids = ["plain", "comma,id", 'quote"id', "Zoë", " lead", "new\nline", "cr\rid", "50%", "p%sq"]
        m = len(ids)
        gold = [i % 4 for i in range(m)] if with_gold else None
        ds = rc.Dataset(ids, range(m), [0.5] * m, gold=gold)
        fit = rc.Fit(ds, rc.sample_ub(ds, 2000, seed=1))
        dist = fit.distribution(fit.select("elliptical", 0.1), rc.MAHALANOBIS_EXP)
        assert (dist.probs == 0).any() and ((dist.probs > 0) & (dist.probs < 1)).any()
        ranks = rc.rank_confidence_set(ds, 0.1, rc.INDEPENDENCE)
        cli._write_plot_data(tmp_path / "plot.csv", ds, dist, format_matrix(dist.probs), ranks)
        assert (tmp_path / "plot.csv").read_bytes() == plot_data_reference(ds, dist, 0.1)


class TestSimulateCommand:
    def test_simulate(self, tmp_path):
        cfg = {
            "a_grid": [0.01],
            "beta1_grid": [0.0],
            "d": [0.01] * 5,
            "n_reps": 1,
            "seed": 2,
            "samples": 200,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results.csv"
        assert run_command(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == [
            "a", "beta1", "method", "geometry", "weighting",
            "avg_exp_abs_dev", "vol_mth_root", "avg_length", "n_reps",
        ]
        assert len(rows) == 1 + 9
        methods = {r[2] for r in rows[1:]}
        assert methods == {"KWW", "UB", "HB"}

    def test_bad_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert run_command(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_out_directory_fails_before_the_study(self, tmp_path, capsys, monkeypatch):
        # an existing directory as --out is rejected before any replication
        studies = []
        monkeypatch.setattr(cli, "run_study", lambda cfg: studies.append(cfg) or [])
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"n_reps": 1}))
        (tmp_path / "out").mkdir()
        argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert run_command(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: --out {argv[-1]!r} is a directory")
        assert studies == []
        assert list((tmp_path / "out").iterdir()) == []

    def test_retired_burnin_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"n_reps": 1, "burnin": 500}))
        assert run_command(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
        assert "burnin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_reps", "2"),
            ("a_grid", 5),
            ("samples", 2.5),
            ("samples", 18),
            ("n_reps", True),
            ("alpha", False),
            ("a_grid", [0.1, True]),
            ("a_grid", []),
            ("beta1_grid", []),
            # json.dumps writes these as NaN and Infinity, which json.load reads
            ("a_grid", [math.nan]),
            ("beta0", math.inf),
            ("beta1_grid", [0.0, -math.inf]),
        ],
    )
    def test_mistyped_value(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert run_command(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}=")

    @pytest.mark.parametrize("config", ["5", "null", '"abc"', '["n_reps"]'])
    def test_config_not_an_object(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(config)
        assert run_command(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: simulation config must be a JSON object, got {config}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only input errors map to exit 1; a TypeError is a bug and surfaces
        def broken(cfg):
            raise TypeError("broken study")

        monkeypatch.setattr("rankcred.cli.run_study", broken)
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"n_reps": 1}))
        with pytest.raises(TypeError, match="broken study"):
            run_command(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")])

    def test_malformed_json(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text("{not json")
        assert run_command(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1


class TestExitCodes:
    def test_usage_error(self):
        assert run_command(["fit"]) == 2
        assert run_command(["frobnicate"]) == 2

    def test_missing_file(self, tmp_path):
        assert run_command(["kww", str(tmp_path / "nope.csv")]) == 1

    def test_domain_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,y,d\na,0.1,-1\n")
        assert run_command(["kww", str(p)]) == 1

    @pytest.mark.parametrize("command", ["fit", "kww"])
    def test_ragged_row(self, tmp_path, capsys, command):
        p = tmp_path / "ragged.csv"
        p.write_text("id,y,d\na,1\nb,2,1\nc,3,1\n")
        assert run_command([command, str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: row 2: 2 fields, but the header has 3\n"

    @pytest.mark.parametrize("command", ["fit", "kww"])
    def test_repeated_column(self, tmp_path, capsys, command):
        p = tmp_path / "repeated.csv"
        p.write_text("id,y,d,y\na,1,1,5\nb,2,1,6\nc,3,1,7\n")
        assert run_command([command, str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: header names column 'y' more than once\n"
        assert not (tmp_path / "out").exists()


SIM = ["simulate", "--config", "sim.json", "--out", "out"]


@pytest.mark.parametrize(
    "files, argv, message",
    [
        (
            {},
            ["fit", FIXTURE, "--model", "hb", "--set", "elliptical", "--samples", "18", "--out", "out"],
            "an HB dispersion needs S > m + 1 draws: S=18, m=18",
        ),
        ({"ragged.csv": "id,y,d\na,1\nb,2,1\nc,3,1\n"}, ["fit", "ragged.csv", "--out", "out"], "row 2"),
        ({"sim.json": '{"n_reps": "2"}'}, SIM, "n_reps="),
        ({"sim.json": '{"n_reps": true}'}, SIM, "n_reps="),
        ({"sim.json": '{"a_grid": []}'}, SIM, "a_grid="),
        ({"sim.json": '{"a_grid": [NaN]}'}, SIM, "a_grid=(nan,) must be finite"),
        ({"sim.json": "5"}, SIM, "simulation config must be a JSON object"),
        ({"sim.json": "null"}, SIM, "simulation config must be a JSON object"),
        ({"sim.json": '"abc"'}, SIM, "simulation config must be a JSON object"),
        ({"sim.json": '["n_reps"]'}, SIM, "simulation config must be a JSON object"),
        ({}, ["fit", FIXTURE, "--seed", "-1", "--out", "out"], "seed=-1 must be >= 0"),
        ({"sim.json": '{"seed": -1}'}, SIM, "seed=-1 must be >= 0"),
        ({"two.csv": "id,y,d\na,1,1\nb,2,1\n"}, ["fit", "two.csv", "--out", "out"], "propriety guard"),
        (
            {},
            ["fit", FIXTURE, "--alpha", "0.9999", "--samples", "100", "--out", "out"],
            "S(1-alpha) = 0.01 < 1",
        ),
        # one HB draw: the box finds no draw to select before anything summarizes it
        ({}, ["fit", FIXTURE, "--samples", "1", "--out", "out"], "S(1-alpha) = 0.9 < 1"),
        ({}, ["kww", FIXTURE, "--alpha", "2", "--out", "out"], "alpha=2.0 must be in (0, 1)"),
        (
            {},
            ["fit", FIXTURE, "--model", "ub", "--samples", "2000", "--alpha", "1e-17", "--plot-data",
             "--out", "out"],
            "alpha=1e-17 is too small for m=18",
        ),
        ({}, ["kww", FIXTURE, "--alpha", "1e-17", "--out", "out"], "alpha=1e-17 is too small for m=18"),
        (
            {"sim.json": '{"n_reps": 1}'},
            ["simulate", "--config", "sim.json", "--out", "missing/out"],
            "--out 'missing/out': no such directory",
        ),
        # an --out that names a file is refused before the dataset is read
        (
            {"taken": "", "ragged.csv": "id,y,d\na,1\n"},
            ["fit", "ragged.csv", "--out", "taken"],
            "--out 'taken': 'taken' is not a directory",
        ),
        ({"taken": ""}, ["fit", FIXTURE, "--out", "taken/out"], "--out 'taken/out': 'taken' is not a"),
        ({"taken": ""}, ["kww", FIXTURE, "--out", "taken"], "--out 'taken': 'taken' is not a directory"),
    ],
    ids=[
        "hb-elliptical-few-draws", "ragged-row", "mistyped-value", "bool-count", "empty-grid",
        "nan-grid", "config-int", "config-null", "config-string", "config-array",
        "fit-negative-seed", "simulate-negative-seed", "hb-propriety", "no-draw-selected",
        "hb-one-draw",
        "kww-alpha", "fit-plot-data-tiny-alpha", "kww-tiny-alpha", "simulate-missing-directory",
        "fit-out-file", "fit-out-under-file", "kww-out-file",
    ],
)
def test_input_error_in_subprocess(tmp_path, files, argv, message):
    # `python -m rankcred.cli` from a fresh directory: an input error exits 1
    # with one error line, no traceback and no output
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = run_module(tmp_path, *argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


UB_MAHAL = ["--model", "ub", "--set", "elliptical", "--weights", "mahal", "--plot-data"]


@pytest.mark.parametrize(
    "m, argv, n_files",
    [
        (18, ["--samples", "2000"], 4),
        (18, [*UB_MAHAL, "--samples", "2000", "--seed", "7"], 5),
        # 300 entities: the rank order needs 9 index bits and a uint16 dtype
        (300, [*UB_MAHAL, "--samples", "5000", "--seed", "3"], 5),
        (400, ["--model", "ub", "--set", "cartesian", "--samples", "3000", "--seed", "3"], 4),
        # HB on one covariate: q = 1 through x alone, then q = 2 with the intercept
        (300, ["--model", "hb", "--samples", "2000", "--seed", "5", "--no-intercept"], 4),
        (300, ["--model", "hb", "--samples", "2000", "--seed", "5"], 4),
    ],
    ids=["fixture-hb", "fixture-ub-plot", "wide300-ub-plot", "wide400-ub-box", "wide300-hb-q1",
         "wide300-hb-q2"],
)
def test_same_seed_rerun_in_subprocess(tmp_path, m, argv, n_files):
    # two fresh processes with one seed write the same bytes
    data = FIXTURE
    if m != 18:
        data = "wide.csv"
        (tmp_path / data).write_text(emit_dataset(wide_dataset(m, m)))
    for out in ("o1", "o2"):
        proc = run_module(tmp_path, "fit", data, *argv, "--out", out)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    names = sorted(p.name for p in (tmp_path / "o1").iterdir())
    assert len(names) == n_files
    assert names == sorted(p.name for p in (tmp_path / "o2").iterdir())
    for name in names:
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()
    if m == 400:
        # the box's volume overflows a double: null, with log_volume finite
        size = json.loads((tmp_path / "o1" / "size_report.json").read_text())
        assert size["volume"] is None and math.isfinite(size["log_volume"])


@pytest.mark.parametrize("cred_set", ["cartesian", "elliptical"])
def test_blas_thread_count_keeps_bytes(tmp_path, cred_set):
    # the fixture's HB mahal fits write the same bytes with OpenBLAS at 1 and
    # 2 threads; HB fits with a dense dispersion at m >= 100 need not (README)
    argv = ["fit", FIXTURE, "--model", "hb", "--set", cred_set, "--weights", "mahal",
            "--seed", "1", "--plot-data"]
    for threads in ("1", "2"):
        proc = run_module(tmp_path, *argv, "--out", threads, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(names) == 5 and names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_simulate_in_subprocess(tmp_path):
    # two cells (a = 0.1, beta1 in {0, 0.4}) of 9 rows each, plus the header
    (tmp_path / "sim.json").write_text('{"a_grid": [0.1], "n_reps": 1, "samples": 500}')
    proc = run_module(tmp_path, "simulate", "--config", "sim.json", "--out", "sim.csv")
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert (tmp_path / "sim.csv").read_text().count("\n") == 19
