import math

import numpy as np
import pytest

import rankcred as rc
from rankcred import kww, rankdist
from rankcred.simlab import RESULT_COLUMNS, run_cell

from conftest import HB_FACTORIZATION, count_factorizations, spy_distance_passes


class TestSimConfig:
    def test_defaults_use_baseball_variances(self, baseball):
        cfg = rc.SimConfig()
        assert cfg.m == 18
        assert np.allclose(cfg.d, baseball.d)

    def test_m_follows_d(self):
        cfg = rc.SimConfig(d=(0.1, 0.2, 0.3, 0.4))
        assert cfg.m == 4
        with pytest.raises(AttributeError):
            cfg.m = 5

    def test_validation(self):
        with pytest.raises(rc.DomainError):
            rc.SimConfig(n_reps=0)
        with pytest.raises(rc.DomainError):
            rc.SimConfig(a_grid=(0.1, -0.5))
        # every replication fits an HB ellipse, which needs more than m + 1 draws
        with pytest.raises(rc.DomainError, match=r"samples=19 must be > m \+ 1 = 19"):
            rc.SimConfig(samples=19)
        with pytest.raises(rc.DomainError, match=r"samples=4 must be > m \+ 1 = 4"):
            rc.SimConfig(samples=4, d=(0.1, 0.2, 0.3), beta1_grid=(0.0,))
        assert rc.SimConfig(samples=5, d=(0.1, 0.2, 0.3), beta1_grid=(0.0,)).samples == 5
        # an HB fit needs m > q + 1: q = 2 design columns where beta1 != 0, else 1
        with pytest.raises(
            rc.DomainError, match=r"d holds m=3 .* beta1_grid=\(0.0, 0.4\) needs m > q \+ 1 = 3"
        ):
            rc.SimConfig(d=(0.1, 0.2, 0.3))
        with pytest.raises(
            rc.DomainError, match=r"d holds m=2 .* beta1_grid=\(0.0,\) needs m > q \+ 1 = 2"
        ):
            rc.SimConfig(d=(0.1, 0.2), beta1_grid=(0.0,))
        # a JSON boolean is no number, and a grid needs a value
        with pytest.raises(rc.DomainError, match="n_reps=True must be int"):
            rc.SimConfig(n_reps=True)
        with pytest.raises(rc.DomainError, match="alpha=False must be float"):
            rc.SimConfig(alpha=False)
        with pytest.raises(rc.DomainError, match=r"d=\(0.1, True\) must be"):
            rc.SimConfig(d=(0.1, True))
        for name in ("a_grid", "beta1_grid", "d"):
            with pytest.raises(rc.DomainError, match=rf"{name}=\(\) must hold at least one value"):
                rc.SimConfig(**{name: ()})
        # JSON admits NaN and Infinity: each is named at its field
        with pytest.raises(rc.DomainError, match=r"a_grid=\(nan,\) must be finite"):
            rc.SimConfig(a_grid=(math.nan,))
        with pytest.raises(rc.DomainError, match=r"beta0=inf must be finite"):
            rc.SimConfig(beta0=math.inf)
        with pytest.raises(rc.DomainError, match=r"d=\(0.1, -inf\) must be finite"):
            rc.SimConfig(d=(0.1, -math.inf))
        with pytest.raises(rc.DomainError, match=r"beta0=10{400} must be finite"):
            rc.SimConfig(beta0=10**400)
        assert rc.SimConfig(seed=10**400).seed == 10**400  # an int field holds any int


class TestGenerateInstance:
    def test_shapes_and_gold(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 6)
        d = np.full(6, 0.01)
        theta, ds = rc.generate_instance(x, 0.2, 0.4, 0.005, d, rng)
        assert theta.shape == (6,)
        assert ds.m == 6
        assert ds.has_gold
        assert np.allclose(ds.gold, theta)
        assert np.allclose(ds.d, d)
        assert ds.p == 1
        assert np.allclose(ds.x[:, 0], x)

    def test_columns_are_its_arrays(self):
        x, d = np.linspace(0, 1, 7), np.linspace(0.5, 2, 7)
        theta, ds = rc.generate_instance(x, 0.2, 0.4, 1.0, d, np.random.default_rng(5))
        # the same stream again: theta's normals, then y's
        noise = np.random.default_rng(5).standard_normal((2, 7))
        y = theta + np.sqrt(d) * noise[1]
        assert ds == rc.Dataset([f"e{i}" for i in range(1, 8)], y, d, x=x[:, None], gold=theta)
        for column, array in ((ds.y, y), (ds.d, d), (ds.x, x[:, None]), (ds.gold, theta)):
            assert column.tobytes() == array.tobytes()

    def test_no_covariate_when_slope_zero(self):
        rng = np.random.default_rng(1)
        _, ds = rc.generate_instance(np.linspace(0, 1, 5), 0.2, 0.0, 0.01, np.full(5, 0.01), rng)
        assert ds.p == 0

    def test_small_variance_limits(self):
        # a -> 0 pins theta to the regression line; d -> 0 pins y to theta
        rng = np.random.default_rng(3)
        x = np.linspace(0, 1, 8)
        theta, ds = rc.generate_instance(x, 0.2, 0.4, 1e-16, np.full(8, 1e-16), rng)
        assert np.allclose(theta, 0.2 + 0.4 * x, atol=1e-6)
        assert np.allclose(ds.y, theta, atol=1e-6)

    def test_moments(self):
        # pooled over reps, theta has mean beta0 + beta1 x and variance a
        rng = np.random.default_rng(4)
        x = np.full(4, 0.5)
        thetas = np.array(
            [rc.generate_instance(x, 0.2, 0.4, 0.09, np.full(4, 0.01), rng)[0] for _ in range(3000)]
        )
        assert thetas.mean() == pytest.approx(0.4, abs=0.01)
        assert thetas.var() == pytest.approx(0.09, rel=0.1)

    def test_invalid_a(self):
        with pytest.raises(rc.DomainError):
            rc.generate_instance(np.zeros(3), 0.0, 0.0, 0.0, np.full(3, 0.1), np.random.default_rng(0))


def tiny_config():
    return rc.SimConfig(
        a_grid=(0.01,),
        beta1_grid=(0.0, 0.4),
        d=tuple(np.full(6, 0.01)),
        n_reps=2,
        seed=5,
        samples=300,
    )


class TestRunStudy:
    def test_rows_and_columns(self):
        rows = rc.run_study(tiny_config())
        # 2 cells x (1 KWW row + 2 models x 2 geometries x 2 weightings)
        assert len(rows) == 2 * 9
        for row in rows:
            assert list(row) == RESULT_COLUMNS
            assert row["n_reps"] == 2
            assert row["avg_exp_abs_dev"] >= 0.0
            assert row["avg_length"] > 0.0
            assert np.isfinite(row["vol_mth_root"])

    def test_deterministic(self):
        r1 = rc.run_study(tiny_config())
        r2 = rc.run_study(tiny_config())
        assert r1 == r2

    def test_cells_are_rep_streamed_independently(self):
        # adding a rep leaves the earlier reps' draws unchanged, so cell
        # averages move smoothly; verified by recomputing one cell directly
        cfg = tiny_config()
        rng = np.random.default_rng(cfg.seed)
        x = rng.uniform(0.0, 1.0, cfg.m)
        direct = run_cell(cfg, x, 0.01, 0.0, 0)
        study = [r for r in rc.run_study(cfg) if r["beta1"] == 0.0]
        assert direct == study

    def test_methods_present(self):
        rows = rc.run_study(tiny_config())
        methods = {(r["method"], r["geometry"], r["weighting"]) for r in rows}
        assert ("KWW", "cartesian", "none") in methods
        for model in ("UB", "HB"):
            for geometry in ("cartesian", "elliptical"):
                for weighting in (rc.EQUAL, rc.MAHALANOBIS_EXP):
                    assert (model, geometry, weighting) in methods

    def test_kww_deviation_exceeds_hb_in_low_variance_cell(self):
        # small model variance is where shrinkage pays off most
        cfg = rc.SimConfig(
            a_grid=(0.001,),
            beta1_grid=(0.0,),
            d=tuple(np.full(10, 0.005)),
            n_reps=4,
            seed=6,
            samples=600,
        )
        rows = rc.run_study(cfg)
        kww_dev = next(r for r in rows if r["method"] == "KWW")["avg_exp_abs_dev"]
        hb_dev = next(
            r
            for r in rows
            if r["method"] == "HB" and r["geometry"] == "cartesian" and r["weighting"] == rc.MAHALANOBIS_EXP
        )["avg_exp_abs_dev"]
        assert hb_dev < kww_dev

    def test_scores_match_per_entity_metrics(self, monkeypatch):
        # run_cell scores each rank matrix and the KWW ranges with one
        # whole-array metrics call each; recompute every score entity by entity
        seen = []
        for module, name in ((kww, "rank_confidence_set"), (rankdist, "build_distribution")):
            fn = getattr(module, name)

            def spy(*args, _fn=fn, **kwargs):
                result = _fn(*args, **kwargs)
                seen.append((args[0], result))
                return result

            monkeypatch.setattr(module, name, spy)
        cfg = rc.SimConfig(
            a_grid=(0.05,), beta1_grid=(0.0,), d=tuple(np.full(6, 0.01)), n_reps=1, seed=5,
            samples=300,
        )
        rows = {
            (r["method"], r["geometry"], r["weighting"]): r["avg_exp_abs_dev"]
            for r in run_cell(cfg, np.linspace(0, 1, 6), 0.05, 0.0, 0)
        }
        (ds, ranks), *built = seen
        xi = rc.rank_of(ds.gold)
        assert np.any(ranks.rank_hi - ranks.rank_lo < 5)  # not every range is 1..6
        kww_dev = np.mean(
            [rc.kww_abs_deviation(lo, hi, x) for lo, hi, x in zip(ranks.rank_lo, ranks.rank_hi, xi)]
        )
        assert rows[("KWW", "cartesian", "none")] == pytest.approx(kww_dev, abs=1e-12)
        keys = [
            (model, geometry, weighting)
            for model in ("UB", "HB")
            for geometry in ("cartesian", "elliptical")
            for weighting in (rc.EQUAL, rc.MAHALANOBIS_EXP)
        ]
        assert len(built) == len(keys)
        for key, (_, dist) in zip(keys, built):
            dev = np.mean([rc.expected_abs_deviation(dist.probs[:, i], xi[i]) for i in range(6)])
            assert rows[key] == pytest.approx(dev, abs=1e-12)

    def test_one_factorization_per_replication(self, monkeypatch):
        # HB: one factor of the posterior covariance serves both selections,
        # the mahal weights and the ellipse size; UB's diag(d) is not factored
        calls = count_factorizations(monkeypatch, 18)
        cfg = rc.SimConfig(n_reps=1, samples=500)
        run_cell(cfg, np.random.default_rng(0).uniform(0.0, 1.0, 18), 1.0, 0.0, 0)
        assert calls == HB_FACTORIZATION

    def test_two_distance_passes_per_replication(self, monkeypatch):
        # one pass over all S draws per model: its ellipse's distances weight
        # the box's mahal draws too
        passes = spy_distance_passes(monkeypatch)
        cfg = rc.SimConfig(n_reps=3, samples=500)
        run_cell(cfg, np.random.default_rng(0).uniform(0.0, 1.0, 18), 1.0, 0.4, 0)
        assert passes == [500] * 2 * 3
