"""Run every workload of BENCHMARK.json and summarise the results.

    python3 benchmarks/suite.py                       # seed 1, untraced and traced
    python3 benchmarks/suite.py --seeds 1-10 --no-trace --out spread.json

Each (workload, seed) runs in its own process through run.py.  For every
end-to-end metric the table gives the median over seeds, the quartiles
(statistics.quantiles, n=4), the interquartile spread as a share of the
median, and the bound from BENCHMARK.json; a spread above a third of its
bound is flagged.  Traced runs on the first two seeds follow with the per-layer
metrics, so a per-layer claim can be checked on a second seed.  Exits 1 if
any op failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run(bench: dict, workload: str, seed: int, trace: int, seconds: int) -> dict:
    """One run.py process; returns its full result file."""
    cmd = [sys.executable if c == "python3" else c for c in bench["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("FAILED"):
            print(f"  {workload} seed {seed}: {line}")
    result_file = ROOT / ".bench_out" / f"result-{workload}-s{seed}-t{trace}.json"
    return json.loads(result_file.read_text())


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=[1])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": args.seeds, "seconds": bench["run_seconds"], "workloads": {}}
    failed = 0
    for name in names:
        results = [run(bench, name, s, 0, bench["run_seconds"]) for s in args.seeds]
        failed += sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        entry = summary["workloads"][name] = {
            "environment": results[0]["environment"],
            "fail_ratio": sum(r["failed"] for r in results) / attempted,
            "runs": [
                {"seed": s, "n": r["n"], "tail_percentile": r["tail_percentile"],
                 "setups": r["setups"]}
                for s, r in zip(args.seeds, results)
            ],
            "end_to_end": {},
        }
        ns = [r["n"] for r in results]
        print(f"\n{name}: {len(results)} runs, fail_ratio {entry['fail_ratio']:.4g} "
              f"({attempted} ops); n = {min(ns)}..{max(ns)} ops per run, tail = "
              f"p{results[0]['tail_percentile']:.1f} at n={results[0]['n']}")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}  unit")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            s = spread([r["metrics"][key]["value"] for r in results])
            entry["end_to_end"][key] = s
            flag = "" if s["spread"] <= bounds[key] / 3 else "  > bound/3"
            print(f"  {key:14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.2%} {bounds[key]:6.2f}  {metric['unit']}{flag}")
        if args.no_trace:
            continue
        trace_seeds = args.seeds[:2]
        traced = [run(bench, name, s, 1, bench["run_seconds"]) for s in trace_seeds]
        failed += sum(t["failed"] for t in traced)
        entry["per_layer"] = {
            str(s): {k: v["value"] for k, v in t["metrics"].items()}
            for s, t in zip(trace_seeds, traced)
        }
        print(f"  per layer, per traced op (seeds {', '.join(map(str, trace_seeds))}):")
        for key, v in traced[0]["metrics"].items():
            values = "".join(f" {t['metrics'][key]['value']:14.6g}" for t in traced)
            print(f"    {key:40s}{values} {v['unit']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nfailed ops: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
