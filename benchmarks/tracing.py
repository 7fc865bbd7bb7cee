"""Spans and per-op captures around rankcred's layer boundaries.

`instrument(tracer)` rebinds each public layer function in the namespaces
its callers look it up in (`rankcred.cli`, `rankcred.simlab`,
`rankcred.credset`, `rankcred.rankdist`, plus the `kww` and `metrics`
module attributes that `cli` and `simlab` reach through) for the life of
the process.  The same wrappers serve traced and untraced ops: with
`tracer.active` false they only hand results to the correctness checks;
with it true they also record spans.  Spans stay in memory as
(name, start, end, parent, op) and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

# layer spans in report order; `op` is the harness's own root span
LAYERS = (
    "posterior.gibbs_hb",
    "posterior.sample_ub",
    "posterior.summarize",
    "credset.tune_kappa",
    "credset.cartesian_select",
    "credset.elliptical_select",
    "rankdist.build_distribution.equal",
    "rankdist.build_distribution.mahal",
    "kww.rank_confidence_set",
    "metrics",
    "simlab.generate_instance",
    "simlab.run_cell",
    "fileio.parse_dataset",
    "fileio.write",
    "cli.fit",
)
OP = "op"


@dataclass
class OpRecord:
    """What the wrappers saw during one op, for its checks and counters."""

    selections: list = field(default_factory=list)  # (geometry, K, S, alpha)
    probs: list = field(default_factory=list)  # rank matrices built
    hb_draws: dict = field(default_factory=dict)  # id(draws) -> (y, d) if intercept-only
    hb_variances: list = field(default_factory=list)  # (y, d, var) of intercept-only HB fits
    gibbs_draws: int = 0
    tied_rows: int = 0
    bytes_written: int = 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.active = False
        self.op_id = None
        self.record = OpRecord()

    def begin_op(self, op_id, traced: bool) -> OpRecord:
        self.op_id = op_id
        self.active = traced
        self.record = OpRecord()
        return self.record

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, span, after=None):
        """`span` is a name, a function of (args, kwargs) giving one, or None
        for no span; `after(args, kwargs, result)` runs outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active and span is not None:
                idx = self.open(span(args, kwargs) if callable(span) else span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, f
            )
            f.write("\n")


def instrument(tracer: Tracer):
    from rankcred import cli, credset, kww, metrics, rankdist, simlab

    def patch(module, attr, span, after=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), span, after))

    def on_gibbs(args, kwargs, draws):
        ds = args[0]
        rec = tracer.record
        rec.gibbs_draws += draws.S
        rec.hb_draws[id(draws)] = (ds.y, ds.d) if ds.p == 0 else None

    def on_summarize(args, kwargs, summary):
        yd = tracer.record.hb_draws.get(id(args[0]))
        if yd is not None:
            tracer.record.hb_variances.append((*yd, summary.cov.diagonal().copy()))

    def on_select(args, kwargs, sel):
        tracer.record.selections.append((sel.geometry, sel.K, args[0].S, sel.alpha))

    def on_distribution(args, kwargs, dist):
        tracer.record.probs.append(dist.probs)

    def on_rank_table(args, kwargs, table):
        tracer.record.tied_rows += 1

    def on_write(args, kwargs, result):
        tracer.record.bytes_written += os.path.getsize(args[0])

    def weighting(args, kwargs):
        w = kwargs.get("weighting", args[2] if len(args) > 2 else rankdist.EQUAL)
        return f"rankdist.build_distribution.{w}"

    for ns in (cli, simlab):
        patch(ns, "gibbs_hb", "posterior.gibbs_hb", on_gibbs)
        patch(ns, "sample_ub", "posterior.sample_ub")
        patch(ns, "summarize", "posterior.summarize", on_summarize)
    patch(cli, "parse_dataset", "fileio.parse_dataset")
    patch(cli, "write_matrix_csv", "fileio.write", on_write)
    patch(cli, "write_rows_csv", "fileio.write", on_write)
    patch(simlab, "generate_instance", "simlab.generate_instance")
    patch(credset, "tune_kappa", "credset.tune_kappa")
    patch(credset, "cartesian_select", "credset.cartesian_select", on_select)
    patch(credset, "elliptical_select", "credset.elliptical_select", on_select)
    patch(rankdist, "build_distribution", weighting, on_distribution)
    # rank_table runs once per selected draw with exact ties: count, no span
    patch(rankdist, "rank_table", None, on_rank_table)
    patch(kww, "rank_confidence_set", "kww.rank_confidence_set")
    for name in (
        "orthotope_size",
        "ellipse_size",
        "expected_abs_deviation",
        "kww_abs_deviation",
        "tese",
    ):
        patch(metrics, name, "metrics")


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover (spans of
    one thread nest, so the children's durations do not overlap)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_totals(spans) -> dict:
    """{span name: [self seconds, calls]} summed over all spans."""
    totals = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return totals
