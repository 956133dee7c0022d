"""The benchmark harness still runs against the package.

``perfbench/layertrace.py`` wraps kronpcg functions by name from outside
the package, so renaming one of them breaks every traced benchmark run.
This test imports the tracer by path, only reading ``perfbench/``, and
traces one small solve.  ``perfbench/run.py`` calls the package's public
API; one short run of each workload ``BENCHMARK.json`` declares must solve
without a failure.
"""

import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kronpcg
from kronpcg.laplace1d import BoundaryCondition as BC
from kronpcg.operators import PoissonOperator, center
from kronpcg.precond import make_preconditioner
from kronpcg.solver import SolverConfig, pcg

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every function bound in a kronpcg module, and each preconditioner's apply."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "kronpcg" or name.startswith("kronpcg.")):
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    out[name, attr] = value
    for cls in vars(kronpcg.precond).values():
        if isinstance(cls, type) and issubclass(cls, kronpcg.precond.Preconditioner):
            out[cls.__name__, "apply"] = cls.__dict__.get("apply")
    return out


@pytest.mark.parametrize("spec, p", [("pinv", 1), ("jacobi:p=3,omega=1.3", 3)])
def test_a_traced_solve_records_the_true_residual_span(layertrace, spec, p):
    """The count rule on a tolerance stop: one preconditioner apply per
    iteration; one operator apply per record after record 0, one per
    iteration and ``p - 1`` per Jacobi apply (4 per iteration at ``p = 3``,
    as in p1's 1308 = 4 x 327)."""
    op = PoissonOperator((8, 6), (BC.PERIODIC, BC.PERIODIC))
    h = center(np.random.default_rng(43).standard_normal(op.shape))
    precond = make_preconditioner(op, spec)
    before = _bindings()
    tracer = layertrace.Tracer()
    with tracer:
        assert _bindings() != before
        _, log = pcg(op, h, precond, config=SolverConfig(max_iter=20, stop_tol=1e-9))
    stats = tracer.take()
    assert _bindings() == before
    assert log.records[-1].true_res <= 1e-9 * log.h_norm  # a tolerance stop
    records, iterations = len(log.records), log.iterations
    assert stats["solver.true_residual"].calls == records - 1  # record 0 reads |h|
    assert stats["precond.apply"].calls == iterations
    assert stats["operators.apply"].calls == (records - 1) + iterations + (p - 1) * iterations


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_benchmark_harness_solves_a_workload(workload):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["failed"] == 0, done.stdout
