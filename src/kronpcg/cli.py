"""Command-line front end.

Four subcommands: ``gen`` writes benchmark right-hand sides as KTEN
files, ``solve`` runs preconditioned conjugate gradients on a KTEN input,
``experiment`` reproduces the packaged experiment suites into a directory
of run logs / CSV / gnuplot series, and ``spectrum`` prints the
closed-form operator eigenvalues.  Exit codes: 0 success, 1 usage or
input error, 2 solver breakdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable, Optional, Sequence

from . import formats
from .laplace1d import BoundaryCondition, eigenvalues
from .operators import (
    NULL_SHARE_TOL,
    BoundaryData,
    FaceValue,
    apply_bc_updates,
    center,
    is_singular,
    nullspace_component,
    poisson_operator,
)
from .precond import jacobi_standalone, make_preconditioner
from .problems import (
    EXPERIMENTS,
    P3_VARIANTS,
    experiment_runs,
    gen_problem1,
    gen_problem2,
    gen_problem3,
)
from .solver import ConvergenceLog, PCGBreakdown, SolverConfig, pcg
from .tensors import frobenius_norm, outer_sum

_AXES = "xyz"


class UsageError(ValueError):
    """Bad flags or inconsistent inputs; maps to exit code 1 like any ``ValueError``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve that
        raise UsageError(message)


def _parse_size(text: str, want_ndim: Optional[int] = None) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise UsageError(f"bad --size {text!r}, expected e.g. 50x100 or 16x16x16")
    if len(dims) not in (2, 3) or any(d < 1 for d in dims):
        raise UsageError(f"bad --size {text!r}, expected 2 or 3 positive extents")
    if want_ndim is not None and len(dims) != want_ndim:
        raise UsageError(f"--size {text!r} must have {want_ndim} extents here")
    return dims


def _axis_entries(
    flag: str, entries: Sequence[str], ndim: int, parse: Callable, found: dict
) -> dict:
    """Add ``<axis>=<value>`` entries of ``--flag`` to ``found`` as
    ``{axis: parse(value)}``; an axis already in ``found`` is refused."""
    for entry in entries:
        axis_name, sep, value = entry.partition("=")
        axis_name = axis_name.strip().lower()
        if not sep or axis_name not in _AXES[:ndim]:
            raise UsageError(
                f"bad --{flag} entry {entry!r}; expected <axis>=<value> with axis in "
                f"{{{', '.join(_AXES[:ndim])}}}"
            )
        axis = _AXES.index(axis_name)
        if axis in found:
            raise UsageError(f"bad --{flag} entry {entry!r}; axis {axis_name} is already set")
        try:
            found[axis] = parse(value.strip())
        except ValueError as exc:
            raise UsageError(f"bad --{flag} entry {entry!r}: {exc}") from None
    return found


def _condition(text: str) -> BoundaryCondition:
    try:
        return BoundaryCondition(text.strip().lower())
    except ValueError:
        raise UsageError(
            f"unknown boundary condition {text.strip()!r}; choose from "
            f"{', '.join(bc.value for bc in BoundaryCondition)}"
        ) from None


def _parse_bcs(text: str, ndim: int) -> tuple[BoundaryCondition, ...]:
    bcs = _axis_entries("bc", text.split(","), ndim, _condition, {})
    if len(bcs) != ndim:
        raise UsageError(f"--bc must cover every axis {tuple(_AXES[:ndim])} exactly once")
    return tuple(bcs[a] for a in range(ndim))


def _parse_face_flags(args: argparse.Namespace, ndim: int) -> BoundaryData:
    """The four face flags as boundary data; each face of an axis takes one value."""
    begin: dict[int, FaceValue] = {}
    end: dict[int, FaceValue] = {}
    for flag, kind, face in [
        ("uB", "potential", begin),
        ("uE", "potential", end),
        ("eB", "field", begin),
        ("eE", "field", end),
    ]:
        entries = getattr(args, flag) or []
        _axis_entries(flag, entries, ndim, lambda value: FaceValue(kind, float(value)), face)
    return BoundaryData(tuple((begin.get(a), end.get(a)) for a in range(ndim)))


def _slug(precond_spec: str) -> str:
    return precond_spec.translate(str.maketrans({":": "_", "-": "_", ",": "_", "=": "", ".": "p"}))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kronpcg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark right-hand side")
    gen.add_argument("--problem", required=True, choices=["p1", "p2", "p3"])
    gen.add_argument("--size", help="grid extents, e.g. 50x100 (p1; optional for p2)")
    gen.add_argument("--period", type=int, help="stripe period for p1 (default 12)")
    gen.add_argument("--variant", choices=sorted(P3_VARIANTS), help="grid variant for p3")
    gen.add_argument("--seed", type=int, help="RNG seed for p3 (default 0)")
    gen.add_argument("--out", required=True, help="output .kten path")
    gen.set_defaults(run=_cmd_gen)

    solve = sub.add_parser("solve", help="solve L u = h from a KTEN file")
    solve.add_argument("--input", required=True, help="right-hand side .kten")
    solve.add_argument("--bc", required=True, help="e.g. x=periodic,y=dirichlet-neumann")
    solve.add_argument("--precond", default="none", help="none | pinv | jacobi:p=3,omega=1.3 | lowrank:r=3")
    solve.add_argument("--max-iter", type=int, default=100)
    solve.add_argument("--tol", type=float, default=None, help="relative true-residual stop")
    solve.add_argument("--center", choices=["auto", "off"], default="auto",
                       help="uncentered h on a singular grid: auto centers it, off refuses it")
    solve.add_argument("--log", help="write the run log JSON here")
    solve.add_argument("--solution", help="write the final iterate as .kten here")
    for flag, text in [
        ("uB", "begin-face potential, e.g. x=0"),
        ("uE", "end-face potential"),
        ("eB", "begin-face field"),
        ("eE", "end-face field, e.g. x=-0.5"),
    ]:
        solve.add_argument(f"--{flag}", action="append", metavar="AXIS=VALUE", help=text)
    solve.set_defaults(run=_cmd_solve)

    exp = sub.add_parser("experiment", help="run a packaged experiment suite")
    exp.add_argument("--name", required=True, choices=sorted(EXPERIMENTS))
    exp.add_argument("--outdir", required=True)
    exp.add_argument("--seed", type=int, default=0, help="seed for the random problems")
    exp.set_defaults(run=_cmd_experiment)

    spec = sub.add_parser("spectrum", help="print operator eigenvalues")
    spec.add_argument("--n", type=int, help="1D size (with a single --bc value)")
    spec.add_argument("--bc", required=True, help="one condition, or x=...,y=... with --size")
    spec.add_argument("--size", help="grid extents for the sum-spectrum form")
    spec.add_argument("--sums", action="store_true", help="print sum-spectrum extrema")
    spec.set_defaults(run=_cmd_spectrum)

    return parser


# Problem -> its ``gen`` flags besides --problem and --out.
_GEN_FLAGS = {"p1": {"size", "period"}, "p2": {"size"}, "p3": {"variant", "seed"}}


def _cmd_gen(args: argparse.Namespace) -> int:
    given = {f for f in ("size", "period", "variant", "seed") if getattr(args, f) is not None}
    stray = sorted(given - _GEN_FLAGS[args.problem])
    if stray:
        raise UsageError(f"{args.problem} does not take {', '.join('--' + f for f in stray)}")
    keywords = {f: getattr(args, f) for f in given & {"period", "seed"}}
    if args.problem == "p1":
        if not args.size:
            raise UsageError("p1 needs --size, e.g. --size 50x100")
        n, q = _parse_size(args.size, want_ndim=2)
        spec, h = gen_problem1(n, q, **keywords)
    elif args.problem == "p2":
        spec, h = gen_problem2(*(_parse_size(args.size, want_ndim=2) if args.size else ()))
    else:
        if not args.variant:
            raise UsageError(f"p3 needs --variant (one of {', '.join(sorted(P3_VARIANTS))})")
        spec, h = gen_problem3(args.variant, **keywords)
    formats.write_tensor(args.out, h)
    print(f"wrote {spec.name} {'x'.join(map(str, spec.shape))} to {args.out} "
          f"(|h| = {frobenius_norm(h):.6e})")
    if spec.boundary is not None:
        sidecar = args.out + ".bc.json"
        doc = {
            "bcs": [bc.value for bc in spec.bcs],
            "applied": True,
            "faces": [
                {"axis": _AXES[axis], "begin": b, "end": e}
                for axis, (b, e) in enumerate(dataclasses.asdict(spec.boundary)["faces"])
            ],
            "scale": spec.scale,
        }
        formats.write_json(sidecar, doc)
        print(f"boundary data (already folded into h) recorded in {sidecar}")
    return 0


def _solve(op, h, pspec: str, config: SolverConfig) -> ConvergenceLog:
    """Run ``pcg`` with the preconditioner spelled ``pspec`` and return its
    log; after a breakdown that is the partial log, which names it."""
    try:
        return pcg(op, h, make_preconditioner(op, pspec), config=config)[1]
    except PCGBreakdown as exc:
        return exc.log


def _cmd_solve(args: argparse.Namespace) -> int:
    h = formats.read_tensor(args.input)
    bcs = _parse_bcs(args.bc, h.ndim)
    op = poisson_operator(h.shape, bcs)
    boundary = _parse_face_flags(args, h.ndim)
    notes: list[str] = []
    if any(b is not None or e is not None for b, e in boundary.faces):
        h = apply_bc_updates(h, bcs, boundary)
        notes.append("boundary face values folded into the right-hand side")

    if is_singular(op) and nullspace_component(h) > NULL_SHARE_TOL * frobenius_norm(h):
        if args.center == "off":
            raise UsageError(
                "the operator is singular and h has a null-space component; "
                "refusing with --center off (drop the flag or center h)"
            )
        h = center(h)
        notes.append("right-hand side centered (singular operator)")

    log = _solve(op, h, args.precond, SolverConfig(max_iter=args.max_iter, stop_tol=args.tol))
    log.problem = os.path.basename(args.input)
    log.warnings[:0] = notes

    if args.log:
        formats.write_run_log(args.log, log)
    if args.solution:
        formats.write_tensor(args.solution, log.u)

    last = log.records[-1]
    rel = "n/a"
    if log.h_norm > 0.0:
        rel = f"{last.true_res / log.h_norm:.3e}"
    status = "breakdown after" if log.breakdown else "done:"
    print(
        f"{status} {log.iterations} iterations with {log.preconditioner}, "
        f"relative true residual {rel}, {last.ops_cum} elementary ops"
    )
    if log.breakdown:
        print(f"breakdown: {log.breakdown} (partial results written)", file=sys.stderr)
        return 2
    return 0


def _run_to_files(
    outdir: str, name: str, spec, h, pspec: str, budget: int
) -> tuple[dict, float, str]:
    """Run one experiment entry and write its series (and run log) under
    ``name``; return its summary row, final relative true residual and a
    note for its printed line (empty unless the run diverged)."""
    stem = os.path.join(outdir, f"{name}_{_slug(pspec)}")
    op = spec.operator()
    head, _, omega = pspec.partition(":omega=")
    note = ""
    if head == "jacobi-standalone":
        result = jacobi_standalone(op, h, omega=float(omega), iters=budget)
        ops_cum, residuals = result.ops_cum, result.residuals
        label = f"jacobi-standalone(omega={float(omega):g})"
        if result.diverged:
            note = f", diverged at sweep {result.iterations}"
    else:
        log = _solve(op, h, pspec, SolverConfig(max_iter=budget))
        log.problem, log.seed = name, spec.seed
        formats.write_run_log(f"{stem}.json", log)
        ops_cum = [rec.ops_cum for rec in log.records]
        residuals = [rec.true_res for rec in log.records]
        label = log.preconditioner
    h_norm = frobenius_norm(h)
    title = f"{name} {label}: cumulative ops vs true residual"
    formats.write_gnuplot_series(f"{stem}.dat", ops_cum, residuals, title)
    row = formats.summary_row(name, label, ops_cum, residuals, h_norm)
    return row, residuals[-1] / h_norm, note


def _cmd_experiment(args: argparse.Namespace) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    rows: list[dict] = []
    for name, spec, h, pspec, budget in experiment_runs(args.name, seed=args.seed):
        row, rel, note = _run_to_files(args.outdir, name, spec, h, pspec, budget)
        rows.append(row)
        reached = row["iters_to_1e-9"]
        print(
            f"{name} {row['preconditioner']}: iterations to 1e-9 = "
            f"{'not reached' if reached == '' else reached}, final relative residual {rel:.3e}"
            f"{note}"
        )
    formats.write_csv_summary(os.path.join(args.outdir, "summary.csv"), rows)
    print(f"summary written to {os.path.join(args.outdir, 'summary.csv')}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.size:
        if args.n is not None:
            raise UsageError("--n is the 1D form's size; with --size give the extents there")
        dims = _parse_size(args.size)
        bcs = _parse_bcs(args.bc, len(dims))
        op = poisson_operator(dims, bcs)
        value_lists = [eigenvalues(n, bc) for n, bc in zip(op.shape, op.bcs)]
        for axis, (n, bc, values) in enumerate(zip(op.shape, op.bcs, value_lists)):
            listed = ",".join(f"{v:.12g}" for v in values)
            print(f"axis {_AXES[axis]} ({bc.value}, n={n}): {listed}")
        if args.sums:
            # Rounded addition is monotone: extreme sums are sums of per-axis extremes.
            low, high = (outer_sum([pick(v) for v in value_lists]) for pick in (min, max))
            print(f"sum-spectrum min {low:.12g} max {high:.12g}")
        return 0
    if not args.n:
        raise UsageError("spectrum needs either --n with a single --bc, or --size")
    if args.sums:
        raise UsageError("--sums needs --size: a single --n has no sum spectrum")
    values = eigenvalues(args.n, _condition(args.bc))
    print("k,eigenvalue")
    for k, value in enumerate(values, start=1):
        print(f"{k},{value:.15g}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
