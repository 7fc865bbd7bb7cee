"""Self-test of the benchmark harness: every correctness check passes on a
real result and fires on a deliberately corrupted copy of it.

    python3 benchmarks/selftest.py

Also checks that BENCHMARK.json lists exactly the metrics run.py reports.
Exits 1 if a check stays silent on a corruption or fires on a clean result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import warnings

import run


def main() -> int:
    problems = []

    def expect(label: str, fails: list[str], fire: bool) -> None:
        ok = bool(fails) == fire
        if not ok:
            problems.append(label)
        state = "fires" if fails else "passes"
        print(f"{'ok ' if ok else 'BAD'} {label}: {state}{': ' + fails[0] if fails else ''}")

    warnings.simplefilter("ignore", RuntimeWarning)  # bisection exhaustion in replications
    work = run.OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl, tracer, warm, _ = run.set_up("fit-hb-baseball", 1, work)
        import checks
        import numpy as np
        import tracing

        # a clean HB fit: the workload's own op and checks
        out = work / "op"
        code = wl.run(wl.warmup_spec, out)
        expect("clean fit", wl.check(wl.warmup_spec, code, out, None), fire=False)
        same = checks.identical_artifacts(warm, wl.artifacts(code, out))
        expect("clean same-seed repeat", same, fire=False)
        expect("non-zero exit code", wl.check(wl.warmup_spec, 1, out, None), fire=True)

        art = checks.fit_artifacts(out)
        probs = art["probs"]
        bumped = probs.copy()
        bumped[0, 0] += 1e-6
        expect("rank matrix row/column sums", checks.rank_matrix(bumped), fire=True)
        # row and column sums kept, entry (0, 0) pushed below 0
        negative = probs.copy()
        negative[:2, :2] += (probs[0, 0] + 0.01) * np.array([[-1, 1], [1, -1]])
        fails = checks.rank_matrix(negative)
        expect("rank matrix entries in [0, 1]", [f for f in fails if "entries" in f], fire=True)

        expected = np.array(art["expected_rank"])
        expected[0] += 0.01
        expect("expected-rank sum", checks.expected_rank_sum(expected), fire=True)
        expect("K = 0", checks.selection_count(0, art["S"]), fire=True)
        expect("K > S", checks.selection_count(art["S"] + 1, art["S"]), fire=True)
        shifted = dict(art, means=[v * 1.02 for v in art["means"]])
        expect("posterior means vs oracle", wl.check_means(shifted), fire=True)
        expect("requested draws", checks.fit_output(art, art["S"] + 1), fire=True)

        changed = dict(warm)
        name = "rank_matrix.csv"
        changed[name] = changed[name][:-2] + bytes([changed[name][-2] ^ 1]) + changed[name][-1:]
        expect("byte-identical repeat", checks.identical_artifacts(warm, changed), fire=True)
        fewer = {k: warm[k] for k in list(warm)[1:]}
        expect("repeat wrote other files", checks.identical_artifacts(warm, fewer), fire=True)

        # the same corruption through the artifact files a fit writes
        bad = work / "bad"
        shutil.copytree(out, bad)
        lines = (bad / name).read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-3)
        lines[1] = ",".join(cells)
        (bad / name).write_text("\n".join(lines) + "\n")
        expect("corrupted rank_matrix.csv", wl.check(wl.warmup_spec, 0, bad, None), fire=True)

        # a simulation replication, checked from what the wrappers captured
        sim = run.SimulateCell(tracer, 1, work)
        rec = tracer.begin_op(0, False)
        rows = sim.run(sim.spec(0), work)
        expect("clean replication", sim.check(sim.spec(0), rows, work, rec), fire=False)
        broken = copy.deepcopy(rec)
        broken.probs[0] = broken.probs[0] * 1.001
        expect("replication rank matrix", sim.check(sim.spec(0), rows, work, broken), fire=True)
        broken = copy.deepcopy(rec)
        broken.selections[0] = ("cartesian", 0, 2000, 0.1)
        expect("replication K", sim.check(sim.spec(0), rows, work, broken), fire=True)
        broken = copy.deepcopy(rec)
        broken.probs.pop()
        expect("replication unobserved", sim.check(sim.spec(0), rows, work, broken), fire=True)
        nan_rows = copy.deepcopy(rows)
        nan_rows[0]["avg_length"] = float("nan")
        expect("replication scores", sim.check(sim.spec(0), nan_rows, work, rec), fire=True)

        # BENCHMARK.json names exactly the metrics run.py reports
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        layer_names = [f"{layer}.{k}" for layer in tracing.LAYERS for k in ("s", "calls")]
        expect_names = {
            "end_to_end": list(run.END_TO_END),
            "per_layer": layer_names + list(run.COUNTERS),
        }
        for section, names in expect_names.items():
            listed = [m["name"] for m in bench[section]]
            expect(f"BENCHMARK.json {section}",
                   [] if listed == names else [f"lists {listed}, run.py reports {names}"],
                   fire=False)
        listed = {w["name"] for w in bench["workloads"]}
        expect("BENCHMARK.json workloads",
               [] if listed == set(run.WORKLOADS) else [f"lists {sorted(listed)}"], fire=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"\n{'all checks behave' if not problems else 'FAILED: ' + ', '.join(problems)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
