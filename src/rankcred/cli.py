"""Command line interface: fit / kww / simulate subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import kww, metrics, rankdist
from .domain import Dataset, DomainError, rank_of
from .fileio import FMT, csv_field, format_matrix, parse_dataset
from .fileio import write_matrix_csv, write_rows_csv
from .posterior import gibbs_hb, sample_ub
from .posterior import summarize  # noqa: F401  unused: benchmarks/tracing.py rebinds it by name
from .simlab import RESULT_COLUMNS, SimConfig, run_study


def _round12(obj):
    """Round floats (np.float64 included) to the pinned 12 significant digits for JSON."""
    if isinstance(obj, float):
        return float(FMT % obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    return obj


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_round12(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def _out_dir(out) -> Path:
    """`--out`, refused before any work when it or a parent names a file; the
    directory is made at the first artifact, so a failed run leaves none."""
    out = Path(out)
    taken = next(p for p in (out, *out.parents) if p.exists())
    if not taken.is_dir():
        raise DomainError(f"--out {str(out)!r}: {str(taken)!r} is not a directory")
    return out


def _cmd_fit(args) -> int:
    if args.model == "ub" and args.no_intercept:
        raise DomainError("--no-intercept applies to --model hb only: UB fits no regression")
    out = _out_dir(args.out)
    ds = parse_dataset(args.dataset)
    if args.model == "ub":
        draws = sample_ub(ds, args.samples, args.seed)
    else:
        draws = gibbs_hb(ds, args.samples, args.seed, include_intercept=not args.no_intercept)
    fit = rankdist.Fit(ds, draws)
    sel = fit.select(args.set, args.alpha)
    if sel.cart is not None:
        geometry_meta = {"kappa": sel.cart.kappa, "bounds": sel.cart.bounds}
    else:
        geometry_meta = {"cutoff": sel.ellip.cutoff}
    size = sel.size
    dist = fit.distribution(sel, args.weights)
    summary = fit.summary  # its means: only a dispersion forms the covariance

    # the overlay's KWW ranks come before the first artifact: a bad alpha leaves none
    ranks = kww.rank_confidence_set(ds, args.alpha, kww.INDEPENDENCE) if args.plot_data else None
    matrix_rows = format_matrix(dist.probs)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "rank_matrix.csv", matrix_rows, ds.ids)

    observed = rank_of(ds.y)
    header = ["id", "y", "observed_rank", "expected_rank", "rank_q05", "rank_q50", "rank_q95"]
    # rank quantile q: the first rank whose cumulative mass reaches q
    cum = np.cumsum(dist.probs, axis=0)
    # (within rounding: a mass that sums to q may round just below it)
    q05, q50, q95 = (
        ((cum < q - rankdist.DS_TOL).sum(axis=0) + 1).tolist() for q in (0.05, 0.50, 0.95)
    )
    rows = [
        [ident, ds.y[i], observed[i], rankdist.expected_rank(dist, i), q05[i], q50[i], q95[i]]
        for i, ident in enumerate(ds.ids)
    ]
    if ds.has_gold:
        header += ["gold_rank", "exp_abs_dev"]
        gold_ranks = ds.gold_ranks()
        exp_abs_dev = metrics.expected_abs_deviation(dist.probs, gold_ranks)
        for row, rank, dev in zip(rows, gold_ranks, exp_abs_dev):
            row += [rank, dev]
    write_rows_csv(out / "rank_summary.csv", header, rows)

    _write_json(
        out / "size_report.json",
        {
            "geometry": sel.geometry,
            "alpha": args.alpha,
            "selected": sel.K,
            "samples": draws.S,
            "volume": size.volume,
            "log_volume": size.log_volume,
            "vol_mth_root": size.vol_mth_root,
            "avg_length": size.avg_length,
            "per_side_lengths": size.per_side_lengths,
            **geometry_meta,
        },
    )
    post = {
        "model": dist.model,
        "seed": args.seed,
        "samples": draws.S,
        "mean": dict(zip(ds.ids, summary.mean)),
    }
    if summary.a_mean is not None:  # HB: the model variance A
        post.update(a_mean=summary.a_mean, a_median=summary.a_median)
    if ds.has_gold:
        post["tese_direct"] = metrics.tese(ds.y, ds.gold)
        post["tese_posterior_mean"] = metrics.tese(summary.mean, ds.gold)
    _write_json(out / "posterior_summary.json", post)

    if args.plot_data:
        _write_plot_data(out / "plot_data.csv", ds, dist, matrix_rows, ranks)
    return 0


def _write_plot_data(path, ds: Dataset, dist, matrix_rows, ranks: kww.KwwRankSet):
    """Tidy overlay data: KWW ranges, nonzero credible cells, observed and
    gold ranks.  No image rendering; feed this to any plotter.  `matrix_rows`
    is `dist.probs` as `fileio.format_matrix` formats it."""
    observed = rank_of(ds.y, tie_rule="highest")
    # write_rows_csv's bytes, built as text: each id quoted once, and each
    # credible cell's value and rank taken from strings formatted once
    row = "%s,%s," + FMT + "," + FMT + "\n"
    ids = [csv_field(ident) for ident in ds.ids]
    rank_text = [FMT % k for k in range(1, ds.m + 1)]
    lines = ["kind,id,rank,value\n"]
    cells = [row.split(",") for row in matrix_rows]
    for i, (ident, column) in enumerate(zip(ids, zip(*cells))):
        lines.append(row % ("kww_range", ident, ranks.rank_lo[i], ranks.rank_hi[i]))
        lines.append(row % ("observed_rank", ident, observed[i], 1))
        lines += [
            f"credible_cell,{ident},{rank_text[k]},{column[k]}\n"
            for k in np.flatnonzero(dist.probs[:, i] > 0).tolist()
        ]
    if ds.has_gold:
        gold_ranks = ds.gold_ranks()
        for i, ident in enumerate(ids):
            lines.append(row % ("gold_rank", ident, gold_ranks[i], 1.0))
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("".join(lines))


def _cmd_kww(args) -> int:
    out = _out_dir(args.out)
    ds = parse_dataset(args.dataset)
    ranks = kww.rank_confidence_set(ds, args.alpha, args.method)
    eps = [""] * ds.m
    if ds.has_gold:
        eps = metrics.kww_abs_deviation(ranks.rank_lo, ranks.rank_hi, ds.gold_ranks())
    rows = [
        [ident, *ranks.intervals[i], int(ranks.rank_lo[i]), int(ranks.rank_hi[i]), eps[i]]
        for i, ident in enumerate(ds.ids)
    ]
    out.mkdir(parents=True, exist_ok=True)
    write_rows_csv(out / "kww_ranksets.csv", ["id", "L", "U", "rank_lo", "rank_hi", "eps_kww"], rows)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise DomainError(f"simulation config must be a JSON object, got {json.dumps(raw)[:40]}")
    unknown = sorted(set(raw) - {f.name for f in fields(SimConfig)})
    if unknown:
        raise DomainError(f"unknown simulation config keys: {unknown}")
    raw = {key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()}
    cfg = SimConfig(**raw)
    # found before the study, not after it
    if not Path(args.out).parent.is_dir():
        raise DomainError(f"--out {args.out!r}: no such directory")
    if Path(args.out).is_dir():
        raise DomainError(f"--out {args.out!r} is a directory, not a result CSV path")
    rows = run_study(cfg)
    write_rows_csv(
        args.out,
        RESULT_COLUMNS,
        [[r[c] for c in RESULT_COLUMNS] for r in rows],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankcred",
        description="Credible distributions of overall rankings from noisy estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a credible rank distribution to a dataset")
    fit.add_argument("dataset", help="CSV with columns id,y,d[,x1..xp,gold]")
    fit.add_argument("--model", choices=["ub", "hb"], default="hb")
    fit.add_argument("--set", choices=["cartesian", "elliptical"], default="cartesian")
    fit.add_argument("--weights", choices=["equal", "mahal"], default="equal")
    fit.add_argument("--alpha", type=float, default=0.1)
    fit.add_argument("--samples", type=int, default=50000)
    fit.add_argument(
        "--burnin", type=int, help="ignored: HB draws are independent and need no burn-in"
    )
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--no-intercept", action="store_true")
    fit.add_argument("--out", default=".")
    fit.add_argument("--plot-data", action="store_true")
    fit.set_defaults(func=_cmd_fit)

    kww_p = sub.add_parser("kww", help="frequentist joint rank confidence set")
    kww_p.add_argument("dataset")
    kww_p.add_argument("--alpha", type=float, default=0.1)
    kww_p.add_argument(
        "--method", choices=["bonferroni", "independence"], default="independence"
    )
    kww_p.add_argument("--out", default=".")
    kww_p.set_defaults(func=_cmd_kww)

    sim = sub.add_parser("simulate", help="run the comparative simulation study")
    sim.add_argument("--config", required=True, help="JSON mirroring SimConfig fields")
    sim.add_argument("--out", required=True, help="result CSV path")
    sim.set_defaults(func=_cmd_simulate)
    return parser


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
