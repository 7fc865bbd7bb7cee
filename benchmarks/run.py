"""rankcred benchmark: one workload per process, one closed-loop client.

    python3 benchmarks/run.py --workload fit-hb-baseball --seed 1 --seconds 30 --trace 0

Run from the repository root.  The next op starts when the previous one
returns; an op is one `rankcred fit` (through the in-process
`rankcred.cli.run_command`) or one simulation replication
(`rankcred.simlab.run_cell`).  BLAS gets at most `nproc` threads.  Each
workload has a fixed cycle of ops; a run measures whole cycles, as many as
are predicted to end within `--seconds`, and always at least one.

With `--trace 0` the last stdout line carries the end-to-end metrics:
setup_s (median of five set-ups, each importing rankcred in a fresh
process, generating the inputs and running one untimed warm-up op),
op_s_p50, op_s_tail (the highest percentile with at least ten samples
beyond it, and the median when fewer than 21 ops ran; its level and n are
printed above), ops_per_s and peak_rss_mb.
With `--trace 1` each op runs twice, untraced and traced in alternating
order, and the last line carries the per-layer metrics, all over the traced
ops: `<layer>.s` and `<layer>.calls` are self (busy) seconds and calls per
op; a layer a workload never calls reads 0 for both.  Counters measured
from outside the layers: gibbs_hb kept draws per busy second; bytes the
fileio writers wrote per op; credset.k_gap, the mean |K - round(S(1-alpha))|
of Cartesian selections, and credset.hit_ratio, their share with a gap of
at most max(1, S//10000); RuntimeWarnings per op; rank_table calls (selected
draws with exact ties) per op; posterior.var_rel_err, the largest relative
error of an intercept-only HB fit's posterior variances against the
quadrature oracle, averaged over fits; trace.overhead_s, traced minus
untraced median op seconds; and trace.unattributed_s, op time outside
every layer span (the harness's own cost: the op span's one child, cli.fit
or simlab.run_cell, absorbs all program time outside the other layers, so
the self times add up to the traced op time by construction).

Every op is checked (see checks.py); a failed check, an exception or a
non-zero exit code counts into `failed`.  Once per run a same-seed repeat of
the warm-up op must write byte-identical artifacts.  Artifacts, the full
result with its environment, and the spans of a traced run go to
`.bench_out/` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SETUPS = 5  # set-ups per untraced run: this process plus four fresh ones
ORACLE_GRID = 20001  # agrees with the oracle's default grid to 1e-11 on the fixture

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNTERS = {
    "posterior.gibbs_hb.draws_per_s": "1/s",
    "fileio.bytes": "B/op",
    "credset.k_gap": "draws",
    "credset.hit_ratio": "ratio",
    "credset.warnings": "1/op",
    "rankdist.tied_rows": "rows/op",
    "posterior.var_rel_err": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s/op",
}


def _die(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import rankcred and the oracles from this checkout's sources."""
    if not (ROOT / "src" / "rankcred").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        _die(f"no rankcred sources under {ROOT}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import rankcred  # noqa: F401


# --------------------------------------------------------------------------
# workloads


class FitWorkload:
    """`rankcred fit` ops; spec i is the fit seed of the i-th op."""

    def __init__(self, tracer, dataset: Path, flags: list[str], samples: int):
        from rankcred import cli

        self.run_command = tracer.wrap(cli.run_command, "cli.fit")
        self.dataset = dataset
        self.flags = flags + ["--samples", str(samples)]
        self.samples = samples

    def run(self, spec, out: Path):
        argv = ["fit", str(self.dataset), *self.flags, "--seed", str(spec), "--out", str(out)]
        return self.run_command(argv)

    def check(self, spec, code, out: Path, rec) -> list[str]:
        import checks

        if code != 0:
            return [f"fit exited with code {code}"]
        art = checks.fit_artifacts(out)
        return checks.fit_output(art, self.samples) + self.check_means(art)

    def check_means(self, art) -> list[str]:
        return []

    def artifacts(self, result, out: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class FitHbBaseball(FitWorkload):
    """The user-visible reference fit.  Per-fit time depends on the fit
    seed (bisection can exit early), so every run cycles the same eight
    fit seeds; --seed only rotates the cycle."""

    SEEDS = tuple(range(8))
    cycle = len(SEEDS)
    warmup_spec = SEEDS[0]

    def __init__(self, tracer, seed: int, work: Path):
        super().__init__(
            tracer,
            ROOT / "src" / "rankcred" / "data" / "baseball.csv",
            ["--model", "hb", "--set", "cartesian", "--weights", "mahal", "--alpha", "0.1",
             "--burnin", "2000"],
            samples=50000,
        )
        self.rotation = seed % self.cycle

    def spec(self, i: int):
        return self.SEEDS[(self.rotation + i) % self.cycle]

    def check_means(self, art) -> list[str]:
        import checks
        from rankcred import baseball_dataset

        ds = baseball_dataset()
        return checks.posterior_means(art["means"], oracle(ds.y, ds.d)[0])


class FitUbWide(FitWorkload):
    """m=200 with a covariate and gold values: loads the layers whose cost
    grows with m (argsort scatter, Cholesky solve, m^2 output cells) and
    never calls gibbs_hb or tune_kappa.  The dataset comes from --seed; every
    run cycles fit seeds 0..23."""

    M = 200
    cycle = 24
    warmup_spec = 0

    def __init__(self, tracer, seed: int, work: Path):
        import numpy as np
        from rankcred import simlab
        from rankcred.fileio import emit_dataset

        rng = np.random.default_rng([seed, self.M])
        x = rng.uniform(0.0, 1.0, self.M)
        d = rng.uniform(0.5, 2.0, self.M)
        _, ds = simlab.generate_instance(x, 0.2, 0.4, 1.0, d, rng)
        path = work / "wide.csv"
        path.write_text(emit_dataset(ds))
        super().__init__(
            tracer,
            path,
            ["--model", "ub", "--set", "elliptical", "--weights", "mahal", "--plot-data"],
            samples=20000,
        )

    def spec(self, i: int):
        return i % self.cycle


class SimulateCell:
    """One replication per op of the default SimConfig (n_reps=1), alternating
    the two criterion-9 spot cells.  Per-replication time depends on the
    instance (bisection can exit early), so every run cycles the same 80
    replication streams [0, i, 0]; --seed only rotates the cycle."""

    CELLS = ((1.0, 0.0), (0.001, 0.4))  # (a, beta1)
    cycle = 80
    warmup_spec = 0

    def __init__(self, tracer, seed: int, work: Path):
        import numpy as np
        from rankcred import simlab

        self.run_cell = tracer.wrap(simlab.run_cell, "simlab.run_cell")
        self.cfg = simlab.SimConfig(n_reps=1, seed=0)
        self.x = np.random.default_rng(0).uniform(0.0, 1.0, self.cfg.m)
        self.rotation = seed % self.cycle

    def spec(self, i: int):
        return (self.rotation + i) % self.cycle

    def run(self, spec, out: Path):
        a, beta1 = self.CELLS[spec % len(self.CELLS)]
        return self.run_cell(self.cfg, self.x, a, beta1, spec)

    def check(self, spec, rows, out: Path, rec) -> list[str]:
        import checks
        import numpy as np

        fails = []
        if len(rows) != 9 or any(r["n_reps"] != 1 for r in rows):
            fails.append(f"run_cell returned {len(rows)} rows, expected 9 with n_reps=1")
        numbers = [r[c] for r in rows for c in ("avg_exp_abs_dev", "vol_mth_root", "avg_length")]
        if not np.all(np.isfinite(numbers)):
            fails.append("run_cell returned non-finite scores")
        if len(rec.probs) != 8 or len(rec.selections) != 4:
            fails.append(
                f"saw {len(rec.probs)} rank matrices and {len(rec.selections)} selections, "
                "expected 8 and 4 per replication"
            )
        for probs in rec.probs:
            fails += checks.rank_matrix(probs)
            fails += checks.expected_rank_sum(np.arange(1, len(probs) + 1) @ probs)
        for _, K, S, _ in rec.selections:
            fails += checks.selection_count(K, S)
        return fails

    def artifacts(self, rows, out: Path) -> dict:
        return {"rows.json": json.dumps(rows, sort_keys=True).encode()}


WORKLOADS = {
    "fit-hb-baseball": FitHbBaseball,
    "simulate-cell": SimulateCell,
    "fit-ub-wide": FitUbWide,
}

_ORACLE = {}


def oracle(y, d):
    """Intercept-only HB posterior (means, variances) by quadrature, cached."""
    from oracles import hb_quadrature_posterior

    key = (y.tobytes(), d.tobytes())
    if key not in _ORACLE:
        _ORACLE[key] = hb_quadrature_posterior(y, d, n_grid=ORACLE_GRID)
    return _ORACLE[key]


# --------------------------------------------------------------------------
# one run


def set_up(name: str, seed: int, work: Path):
    """Import the program, build the inputs and run one warm-up op.
    The layer wrappers stay installed for the life of the process.
    Returns (workload, tracer, warm-up artifacts, seconds taken)."""
    t0 = time.perf_counter()
    _import_program()
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    wl = WORKLOADS[name](tracer, seed, work)
    out = work / "warmup"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = wl.run(wl.warmup_spec, out)
    elapsed = time.perf_counter() - t0
    return wl, tracer, wl.artifacts(result, out), elapsed


def run_op(wl, tracer, spec, op_id: int, traced: bool, out: Path):
    """One timed op.  Returns (seconds, result, error, op record, RuntimeWarnings)."""
    import tracing

    rec = tracer.begin_op(op_id, traced)
    result = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        root = tracer.open(tracing.OP) if traced else None
        try:
            result = wl.run(spec, out)
        except Exception as exc:  # counted as a failed op, not fatal to the run
            error = exc
        finally:
            if root is not None:
                tracer.close(root)
        seconds = time.perf_counter() - t0
    tracer.active = False
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return seconds, result, error, rec, n_warn


def timed_phase(wl, tracer, warm_artifacts, seconds: float, trace: bool, work: Path):
    """Run whole cycles of the workload's op list, at least one, while the
    next cycle is predicted to end within `seconds`.
    With `trace`, every spec runs untraced and traced, alternating which
    goes first from cycle to cycle."""
    import checks

    times = {False: [], True: []}
    failures = {}  # op id -> messages
    traced_ops = []  # (op id, record, RuntimeWarnings)
    repeat_checked = False
    out = work / "op"
    op_id = 0
    i = 0
    t_start = time.perf_counter()
    cycles = 0
    while True:
        for _ in range(wl.cycle):
            spec = wl.spec(i)
            i += 1
            modes = ((False, True) if cycles % 2 == 0 else (True, False)) if trace else (False,)
            for traced in modes:
                dt, result, error, rec, n_warn = run_op(wl, tracer, spec, op_id, traced, out)
                if error is not None:
                    fails = [f"raised {error!r}"]
                else:
                    fails = wl.check(spec, result, out, rec)
                    if spec == wl.warmup_spec and not repeat_checked and not fails:
                        repeat_checked = True
                        repeat = wl.artifacts(result, out)
                        fails = checks.identical_artifacts(warm_artifacts, repeat)
                if fails:
                    failures[op_id] = fails
                else:
                    times[traced].append(dt)
                if traced:
                    traced_ops.append((op_id, rec, n_warn))
                op_id += 1
        cycles += 1
        wall = time.perf_counter() - t_start
        if wall * (cycles + 1) / cycles > seconds:
            break
    if not repeat_checked:
        dt, result, error, rec, _ = run_op(wl, tracer, wl.warmup_spec, op_id, False, out)
        fails = (
            [f"raised {error!r}"]
            if error
            else checks.identical_artifacts(warm_artifacts, wl.artifacts(result, out))
        )
        if fails:
            failures[op_id] = fails
        op_id += 1
    return times, failures, traced_ops, op_id, wall


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least
    TAIL_BEYOND samples beyond it.  Below 2 * TAIL_BEYOND + 1 samples that
    percentile would lie under the median, so the median is reported."""
    s = sorted(times)
    n = len(s)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(s), 50.0, n
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / n, n


def per_layer(tracer, traced_ops, times) -> dict:
    import numpy as np
    import tracing

    ops = {op for op, _, _ in traced_ops}
    n = max(len(ops), 1)
    totals = tracing.layer_totals([s for s in tracer.spans if s[4] in ops])
    values = {}
    for layer in tracing.LAYERS:
        busy, calls = totals.get(layer, (0.0, 0))
        values[f"{layer}.s"] = busy / n
        values[f"{layer}.calls"] = calls / n
    gibbs_s = totals.get("posterior.gibbs_hb", (0.0, 0))[0]
    draws = sum(rec.gibbs_draws for _, rec, _ in traced_ops)
    gaps, var_err = [], []
    for _, rec, _ in traced_ops:
        for geometry, K, S, alpha in rec.selections:
            if geometry == "cartesian":
                gaps.append((abs(K - round(S * (1 - alpha))), max(1, S // 10000)))
        for y, d, var in rec.hb_variances:
            var_err.append(float(np.max(np.abs(var / oracle(y, d)[1] - 1))))
    values.update(
        {
            "posterior.gibbs_hb.draws_per_s": draws / gibbs_s if gibbs_s else 0.0,
            "fileio.bytes": sum(rec.bytes_written for _, rec, _ in traced_ops) / n,
            "credset.k_gap": statistics.fmean(g for g, _ in gaps) if gaps else 0.0,
            "credset.hit_ratio": statistics.fmean(g <= t for g, t in gaps) if gaps else 0.0,
            "credset.warnings": sum(w for _, _, w in traced_ops) / n,
            "rankdist.tied_rows": sum(rec.tied_rows for _, rec, _ in traced_ops) / n,
            "posterior.var_rel_err": statistics.fmean(var_err) if var_err else 0.0,
            "trace.overhead_s": statistics.median(times[True]) - statistics.median(times[False]),
            "trace.unattributed_s": totals.get(tracing.OP, (0.0, 0))[0] / n,
        }
    )
    return values


def _setup_in_fresh_process(name: str, seed: int, work: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-only", "--work", str(work)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        _die(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "rankcred"
    return {
        "nproc": NPROC,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    trace = bool(args.trace)

    if args.setup_only:
        work = args.work / f"setup-{os.getpid()}"
        work.mkdir(parents=True)
        *_, elapsed = set_up(args.workload, args.seed, work)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl, tracer, warm, setup_s = set_up(args.workload, args.seed, work)
        times, failures, traced_ops, attempted, wall = timed_phase(
            wl, tracer, warm, args.seconds, trace, work
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if not times[False] or (trace and not times[True]):
            for op, msgs in sorted(failures.items())[:5]:
                print(f"op {op}: {'; '.join(msgs)}", file=sys.stderr)
            _die("no op succeeded")
        result = {"environment": environment(args.seed), "workload": args.workload,
                  "trace": args.trace, "seconds": args.seconds, "failures": failures}
        if trace:
            import tracing

            metrics = per_layer(tracer, traced_ops, times)
            units = {**{f"{layer}.s": "s/op" for layer in tracing.LAYERS},
                     **{f"{layer}.calls": "calls/op" for layer in tracing.LAYERS},
                     **COUNTERS}
            tracer.write(OUT / f"spans-{tag}.json")
        else:
            setups = [setup_s] + [
                _setup_in_fresh_process(args.workload, args.seed, work) for _ in range(SETUPS - 1)
            ]
            value, pct, n = tail(times[False])
            metrics = {
                "setup_s": statistics.median(setups),
                "op_s_p50": statistics.median(times[False]),
                "op_s_tail": value,
                "ops_per_s": len(times[False]) / wall,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
            result.update(setups=setups, tail_percentile=pct, n=n, op_seconds=times[False])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures)
    for op, msgs in sorted(failures.items()):
        print(f"FAILED op {op}: {'; '.join(msgs)}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    if trace:
        n = len(traced_ops)
        print(f"{args.workload}: per traced op (n={n}); layers never called read 0")
    else:
        print(f"{args.workload}: n={len(times[False])} ops in {wall:.2f} s, "
              f"tail = p{result['tail_percentile']:.1f}, fail_ratio = {failed / attempted:.4g}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    result.update(final)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
