"""The package namespace, and the names `benchmarks/tracing.py` rebinds."""

import os
import subprocess
import sys
from pathlib import Path

import rankcred as rc

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_all_is_sorted_unique_and_resolves():
    # constants, then classes, then functions, each in alphabetical order
    def kind(name):
        return 0 if name.isupper() else 1 if name[0].isupper() else 2

    assert rc.__all__ == sorted(rc.__all__, key=lambda name: (kind(name), name))
    assert len(set(rc.__all__)) == len(rc.__all__)
    assert all(hasattr(rc, name) for name in rc.__all__)


# one replication of a simulation cell under the tracer: each `Fit` must reach
# the selections and rank matrices through the module attributes the tracer
# rebinds, so it sees both models' 2 selections and 4 rank matrices
TRACED_REPLICATION = """
import numpy as np
import tracing
from rankcred import simlab

tracer = tracing.Tracer()
tracing.instrument(tracer)
record = tracer.begin_op(0, traced=True)
cfg = simlab.SimConfig(n_reps=1, samples=200)
simlab.run_cell(cfg, np.random.default_rng(0).uniform(0.0, 1.0, len(cfg.d)), 1.0, 0.0, 0)
seen = len(record.selections), len(record.probs)
assert seen == (4, 8), f"saw {seen[0]} selections and {seen[1]} rank matrices, expected 4 and 8"
"""


def test_tracer_finds_every_name_it_rebinds(tmp_path):
    # the tracer looks each layer function up by name in the module that calls
    # it: an import dropped there, or a layer reached by a name the tracer does
    # not rebind, fails here, not only in the benchmark's run
    src = str(Path(rc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, str(BENCHMARKS), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_REPLICATION],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
