"""kronpcg benchmark: time to a 1e-9 solution through the public Python API.

Run from the repository root:

    python3 perfbench/run.py --workload p3-3d-1m-pinv --seed 0 --seconds 20 --trace 0

The load is a closed loop with one client: one process runs one solve
after another for ``--seconds`` seconds.  A sample builds the operator and
the preconditioner (``setup_s``), then runs ``pcg`` until the relative
true residual is at most 1e-9 (``solve_s``); ``time_to_solution_s`` is one
timer around both.  The first sample of a run is a warm-up and is dropped.
Every solve, the warm-up included, passes a correctness gate computed here
from the returned iterate; a breakdown, an exception or a failed gate
counts as a failed solve and is never retried.

With ``--trace 1`` untraced and traced samples alternate, and the traced
ones report per-layer spans recorded by :mod:`layertrace`.

The metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment stamp and a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
STOP_TOL = 1e-9
MAX_ITER = 10_000  # far above any workload's iteration count
MIN_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (generator call, preconditioner spec, operator applies per PCG step)
# Applies per step: one for the search direction, one for the stopping
# test's true residual, one for the kappa diagnostic, and p-1 inside
# each Jacobi application.
WORKLOADS = {
    "p3-3d-1m-pinv": (lambda kp, seed: kp.gen_problem3("3d_512x256x8", seed), "pinv", 3),
    "p1-2d-jacobi": (lambda kp, seed: kp.gen_problem1(200, 400), "jacobi:p=3,omega=1.3", 5),
    "p2-2d-mixed-pinv": (lambda kp, seed: kp.gen_problem2(512, 1024), "pinv", 3),
}


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; call before importing numpy."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def blas_threads_in_force(np) -> int | None:
    """Ask the OpenBLAS that numpy loaded how many threads it uses, if it can be found."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, cap: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "blas_thread_cap": cap,
        "blas_threads_in_force": blas_threads_in_force(np),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def import_kronpcg():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kronpcg

    if not Path(kronpcg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"kronpcg imported from {kronpcg.__file__}, not from {src}")
    return kronpcg


class Runner:
    """One workload's inputs, a timed solve of them, and the tally of failed solves."""

    def __init__(self, kp, np, workload: str, seed: int):
        gen, self.pspec, self.applies_per_step = WORKLOADS[workload]
        self.kp, self.np = kp, np
        self.spec, self.h = gen(kp, seed)
        self.cfg = kp.SolverConfig(max_iter=MAX_ITER, stop_tol=STOP_TOL)
        self.singular = kp.operators.is_singular(self.spec.operator())
        self.attempted = 0
        self.failures: list[str] = []

    def sample(self, window=None) -> dict:
        """Set up and solve once, inside ``window`` if given; gate the result.

        ``window`` is a context manager entered around setup plus solve
        only, so the gate below is never traced or counted.
        """
        kp = self.kp
        self.attempted += 1
        u = log = None
        with window or contextlib.nullcontext():
            t0 = t1 = perf_counter()
            try:
                op = self.spec.operator()
                pre = kp.precond.make_preconditioner(op, self.pspec)
                t1 = perf_counter()
                u, log = kp.solver.pcg(op, self.h, pre, config=self.cfg)
                error = None
            except kp.PCGBreakdown as exc:
                error, log = f"breakdown: {exc.reason}", exc.log
            except Exception as exc:  # a failed solve is counted, never fatal
                error = f"{type(exc).__name__}: {exc}"
            t2 = perf_counter()
        if error is None:
            error = self.gate(op, u)
        if error is not None:
            self.failures.append(error)
        records = log.records if log is not None else []
        return {
            "time_to_solution_s": t2 - t0,
            "setup_s": t1 - t0,
            "solve_s": t2 - t1,
            "iterations": max(0, len(records) - 1),
            "ops_per_solve": records[-1].ops_cum if records else 0,
            "init_ops": records[0].ops_cum if records else 0,
            "ok": error is None,
        }

    def gate(self, op, u) -> str | None:
        """Recompute the residual and the null share of ``u`` independently of the solver."""
        np = self.np
        if not np.all(np.isfinite(u)):
            return "non-finite solution"
        h_norm = np.linalg.norm(self.h)
        rel = np.linalg.norm(self.h - self.kp.operators.apply(op, u)) / h_norm
        if not rel <= STOP_TOL:
            return f"relative residual {rel:.3e} > {STOP_TOL:g}"
        if self.singular:
            share = self.kp.operators.nullspace_component(u) / np.linalg.norm(u)
            if not share <= STOP_TOL:
                return f"null-space share {share:.3e} > {STOP_TOL:g}"
        return None

    def peak_alloc_mib(self) -> float:
        """tracemalloc peak over one setup plus solve, in a pass of its own."""
        peak = PeakAlloc()
        self.sample(peak)
        return peak.bytes / 2**20


class PeakAlloc:
    """Context manager that records the tracemalloc peak of its body."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def median(values) -> float:
    return float(statistics.median(values))


def layer_metric(name: str, stats: dict, n_cells: int, iterations: int, init_ops: int, ops: int):
    """One per-layer metric of one traced solve, from its span totals."""
    if name == "solver.diagnostics_ms":
        return 1e3 * sum(
            stats[k].incl for k in ("solver.kappa_indicator", "solver.true_residual") if k in stats
        )
    if name == "counting.init_ops":
        return init_ops
    if name == "counting.ops_per_iter":
        return (ops - init_ops) / max(iterations, 1)
    span, _, stat = name.rpartition(".")
    st = stats.get(span)
    calls, incl, own = (st.calls, st.incl, st.own) if st is not None else (0, 0.0, 0.0)
    if stat == "calls":
        return calls
    if stat == "self_ms":
        return 1e3 * own
    if stat == "ms_per_call":
        return 1e3 * incl / calls if calls else 0.0
    if stat == "gbps_computed":
        # One read of the input and one write of the output, 8 bytes each.
        return calls * 16 * n_cells / incl / 1e9 if incl else 0.0
    raise KeyError(f"no rule for per-layer metric {name!r}")


def run_trace(runner: Runner, seconds: float, names: list[str]):
    """Alternate untraced and traced samples; return per-layer medians and the self-check."""
    from layertrace import Tracer  # next to this script, so on sys.path

    tracer = Tracer()
    plain, traced, per_layer, problems = [], [], [], []
    n_cells = runner.h.size
    deadline = perf_counter() + seconds
    while len(traced) < MIN_SAMPLES or perf_counter() < deadline:
        plain.append(runner.sample())
        s = runner.sample(tracer)
        stats = tracer.take()
        traced.append(s)
        it = s["iterations"]
        calls = {k: stats[k].calls if k in stats else 0 for k in ("operators.apply", "precond.apply")}
        if calls["precond.apply"] != it + 1:
            problems.append(f"precond.apply.calls {calls['precond.apply']} != iterations+1 = {it + 1}")
        if calls["operators.apply"] != runner.applies_per_step * (it + 1):
            problems.append(
                f"operators.apply.calls {calls['operators.apply']} != "
                f"{runner.applies_per_step}*(iterations+1) = {runner.applies_per_step * (it + 1)}"
            )
        per_layer.append(
            {
                n: layer_metric(n, stats, n_cells, it, s["init_ops"], s["ops_per_solve"])
                for n in names
                if not n.startswith(("trace.", "selfcheck."))
            }
        )
    if len({s["ops_per_solve"] for s in plain + traced}) != 1:
        problems.append("ops_per_solve differs between solves")
    values = {n: median(d[n] for d in per_layer) for n in per_layer[0]}
    plain_tts = median(s["time_to_solution_s"] for s in plain)
    traced_tts = median(s["time_to_solution_s"] for s in traced)
    values["trace.overhead_s"] = traced_tts - plain_tts
    values["selfcheck.ok"] = 0 if problems else 1
    return values, len(traced), sorted(set(problems))


def run_plain(runner: Runner, seconds: float):
    samples = []
    deadline = perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or perf_counter() < deadline:
        samples.append(runner.sample())
    ok = [s for s in samples if s["ok"]] or samples
    values = {k: median(s[k] for s in samples) for k in ("time_to_solution_s", "setup_s", "solve_s")}
    values["iterations"] = median(s["iterations"] for s in ok)
    values["ops_per_solve"] = median(s["ops_per_solve"] for s in ok)
    values["peak_alloc_mib"] = runner.peak_alloc_mib()
    return values, samples


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cap = cap_blas_threads()
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        kp = import_kronpcg()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    runner = Runner(kp, np, args.workload, args.seed)
    warmup = runner.sample()  # dropped: the first call in a process can be 15x slower
    print(f"warm-up sample (dropped): time_to_solution_s {warmup['time_to_solution_s']:.6g} s")
    if args.trace:
        values, n_samples, problems = run_trace(runner, args.seconds, [m["name"] for m in wanted])
        for p in problems:
            print(f"self-check: {p}")
    else:
        values, samples = run_plain(runner, args.seconds)
        n_samples = len(samples)
        for key in ("time_to_solution_s", "setup_s", "solve_s"):
            series = [s[key] for s in samples]
            hi = high_percentile(series)
            tail = f", p{hi[0]} {hi[1]:.6g}" if hi else ""
            print(f"{key}: median {median(series):.6g} s{tail}, n={len(series)}")
    values["solved_frac"] = 1.0 - len(runner.failures) / runner.attempted

    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "samples": n_samples, "warmup_dropped": 1}
    stamp["environment"] = environment(np, cap)
    print("env: " + json.dumps(stamp))
    for f in runner.failures:
        print(f"failed solve: {f}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
