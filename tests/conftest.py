import functools
import tracemalloc

import numpy as np
import pytest

import rankcred as rc
from rankcred import posterior


@pytest.fixture(scope="session")
def baseball():
    return rc.baseball_dataset()


@pytest.fixture(scope="session")
def ub_draws(baseball):
    return rc.sample_ub(baseball, 50000, seed=1)


@pytest.fixture(scope="session")
def hb_draws(baseball):
    return rc.gibbs_hb(baseball, 50000, seed=7)


@pytest.fixture(scope="session")
def hb_summary(hb_draws):
    return posterior.summarize(hb_draws)


@pytest.fixture(scope="session")
def gold_ranks(baseball):
    return baseball.gold_ranks()


def make_dataset(y, d, x=None, gold=None):
    """Small-dataset helper with ids e1..em; x is an m x p covariate table."""
    return rc.Dataset([f"e{i + 1}" for i in range(len(y))], y, d, x=x, gold=gold)


def wide_dataset(m, seed):
    """m entities with one covariate, drawn as the fit-ub-wide benchmark draws
    its data (there with seed [run seed, m])."""
    rng = np.random.default_rng(seed)
    x, d = rng.uniform(0.0, 1.0, m), rng.uniform(0.5, 2.0, m)
    return rc.generate_instance(x, 0.2, 0.4, 1.0, d, rng)[1]


def select_ellipse(draws, dispersion, alpha):
    """An elliptical selection cut from the dispersion's own distance pass
    over all the draws, as a `Fit` cuts one; returns it and the distances."""
    from rankcred import credset

    distances = dispersion.distances(draws.theta)
    return credset.elliptical_select(draws, dispersion, alpha, distances), distances


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it held at once, as tracemalloc (which
    numpy reports its buffers to) counts them.  The peak counts the result,
    not the arguments, which were allocated before tracing began."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the spy's spelling of one factorization: Cholesky, then the factor's inverse
HB_FACTORIZATION = ["_cho_factor_spd", "cholesky", "inv"]


def count_factorizations(monkeypatch, m) -> list:
    """Record the name of every call of `credset._cho_factor_spd`,
    `np.linalg.inv` or `np.linalg.cholesky` on an m x m argument.  One
    factorization of a dispersion records `HB_FACTORIZATION`; the HB sampler
    calls none of them on m x m arguments (it factors its q x q information
    matrices itself)."""
    from rankcred import credset

    calls = []
    for module, name in ((credset, "_cho_factor_spd"), (np.linalg, "inv"), (np.linalg, "cholesky")):

        def spy(a, *args, _fn=getattr(module, name), _name=name, **kwargs):
            if np.shape(a) == (m, m):
                calls.append(_name)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def spy_distance_passes(monkeypatch) -> list:
    """Record the row count of every `Dispersion.distances` call: one entry
    per distance pass over a set of draws."""
    from rankcred import credset

    passes = []

    def spy(self, thetas, _fn=credset.Dispersion.distances):
        passes.append(len(thetas))
        return _fn(self, thetas)

    monkeypatch.setattr(credset.Dispersion, "distances", spy)
    return passes


def spy_covariances(monkeypatch) -> list:
    """Record the draw count of every covariance a `PosteriorSummary` forms."""
    formed = []
    form = posterior.PosteriorSummary.cov.func

    def spy(summary):
        formed.append(summary.draws.S)
        return form(summary)

    cov = functools.cached_property(spy)
    cov.__set_name__(posterior.PosteriorSummary, "cov")
    monkeypatch.setattr(posterior.PosteriorSummary, "cov", cov)
    return formed


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, immune to capture."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    for n, ok in sorted(RESULTS):
        terminalreporter.write_line(f"CRITERION {n:2d}: {'PASS' if ok else 'FAIL'}")
