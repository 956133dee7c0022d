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
import os
import sys
from math import isfinite
from typing import Callable, Optional, Sequence

from . import formats
from .laplace1d import BoundaryCondition, eigenvalues, face_kinds
from .operators import apply_bc_updates, center, checked_rhs, null_share, poisson_operator
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
from .tensors import frobenius_norm

_AXES = "xyz"
_FACE_FLAGS = {"potential": "u", "field": "e"}  # face kind -> its flags' stem (then B or E)
_CONFIG_FLAGS = {"max_iter": "--max-iter", "stop_tol": "--tol"}  # SolverConfig field -> flag


class UsageError(ValueError):
    """Bad flags or inconsistent inputs; maps to exit code 1 like any ``ValueError``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve that
        raise UsageError(message)


def _parse_size(text: str, ndims: tuple[int, ...]) -> tuple[int, ...]:
    """``--size`` as a tuple whose length is one of ``ndims``; the operator
    checks each extent."""
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise UsageError(f"bad --size {text!r}, expected e.g. 50x100 or 16x16x16")
    if len(dims) not in ndims:
        raise UsageError(f"bad --size {text!r}, expected {' or '.join(map(str, ndims))} extents")
    return dims


def _axis_entries(flag: str, entries: Sequence[str], ndim: int, parse: Callable) -> dict:
    """``<axis>=<value>`` entries of ``--flag`` as ``{axis: parse(value)}``;
    an axis given twice is refused."""
    found: dict = {}
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


def _finite(text: str) -> float:
    if not isfinite(value := float(text)):
        raise ValueError(f"{value} is not a finite number")
    return value


def _condition(text: str) -> BoundaryCondition:
    try:
        return BoundaryCondition(text.strip().lower())
    except ValueError:
        raise UsageError(
            f"unknown boundary condition {text.strip()!r}; choose from "
            f"{', '.join(bc.value for bc in BoundaryCondition)}"
        ) from None


def _parse_bcs(text: str, ndim: int) -> tuple[BoundaryCondition, ...]:
    bcs = _axis_entries("bc", text.split(","), ndim, _condition)
    if len(bcs) != ndim:
        raise UsageError(f"--bc must cover every axis {tuple(_AXES[:ndim])} exactly once")
    return tuple(bcs[a] for a in range(ndim))


def _parse_face_flags(
    args: argparse.Namespace, bcs: Sequence[BoundaryCondition]
) -> tuple[tuple[Optional[float], Optional[float]], ...]:
    """The four face flags as ``(begin, end)`` values per axis.  A face takes
    one value, from the flag of the kind that ``face_kinds`` gives it."""
    faces: tuple[dict, dict] = ({}, {})
    for flag in ("uB", "uE", "eB", "eE"):
        end = "BE".index(flag[1])
        given = _axis_entries(flag, getattr(args, flag) or [], len(bcs), _finite)
        for axis, value in given.items():
            bc, takes = bcs[axis], face_kinds(bcs[axis])[end]
            if takes is None:
                raise UsageError(f"--{flag}: axis {_AXES[axis]} ({bc.value}) has no faces")
            if _FACE_FLAGS[takes] != flag[0]:
                raise UsageError(
                    f"--{flag}: the {('begin', 'end')[end]} face of axis {_AXES[axis]} "
                    f"({bc.value}) takes a {takes} value, from --{_FACE_FLAGS[takes]}{flag[1]}"
                )
            faces[end][axis] = value
    return tuple((faces[0].get(a), faces[1].get(a)) for a in range(len(bcs)))


def _slug(precond_spec: str) -> str:
    return precond_spec.translate(str.maketrans({":": "_", "-": "_", ",": "_", "=": "", ".": "p"}))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kronpcg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark right-hand side")
    gen.add_argument("--problem", required=True, choices=["p1", "p2", "p3"])
    gen.add_argument("--size", help="grid extents, e.g. 50x100 (p1; optional for p2)")
    gen.add_argument("--variant", choices=sorted(P3_VARIANTS), help="grid variant for p3")
    gen.add_argument("--seed", type=int, help="RNG seed for p3 (default 0)")
    gen.add_argument("--out", required=True, help="output .kten path")
    gen.set_defaults(run=_cmd_gen)

    solve = sub.add_parser("solve", help="solve L u = h from a KTEN file")
    solve.add_argument("--input", required=True, help="right-hand side .kten")
    solve.add_argument("--bc", required=True, help="e.g. x=periodic,y=dirichlet-neumann")
    solve.add_argument("--precond", default="none", help="none | pinv | jacobi:p=3,omega=1.3 | lowrank:r=3")
    solve.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    solve.add_argument("--tol", type=float, default=None, help="relative true-residual stop")
    solve.add_argument("--log", help="write the run log JSON here")
    solve.add_argument("--solution", help="write the final iterate as .kten here")
    for flag, text in [
        ("uB", "begin-face potential, e.g. x=0"),
        ("uE", "end-face potential"),
        ("eB", "begin-face h times the potential's outward derivative (Neumann)"),
        ("eE", "end-face h times the potential's outward derivative, e.g. x=-0.5"),
    ]:
        solve.add_argument(f"--{flag}", action="append", metavar="AXIS=VALUE", help=text)
    solve.set_defaults(run=_cmd_solve)

    exp = sub.add_parser("experiment", help="run a packaged experiment suite")
    exp.add_argument("--name", required=True, choices=sorted(EXPERIMENTS))
    exp.add_argument("--outdir", required=True)
    exp.set_defaults(run=_cmd_experiment)

    spec = sub.add_parser("spectrum", help="print operator eigenvalues")
    spec.add_argument("--size", required=True, help="1 to 3 extents, e.g. 8 or 6x8")
    spec.add_argument("--bc", required=True, help="e.g. x=neumann,y=periodic")
    spec.add_argument("--sums", action="store_true", help="print sum-spectrum extrema")
    spec.set_defaults(run=_cmd_spectrum)

    return parser


# Problem -> its ``gen`` flags besides --problem and --out.
_GEN_FLAGS = {"p1": {"size"}, "p2": {"size"}, "p3": {"variant", "seed"}}


def _cmd_gen(args: argparse.Namespace) -> int:
    given = {f for f in ("size", "variant", "seed") if getattr(args, f) is not None}
    stray = sorted(given - _GEN_FLAGS[args.problem])
    if stray:
        raise UsageError(f"{args.problem} does not take {', '.join('--' + f for f in stray)}")
    if args.problem == "p1":
        if not args.size:
            raise UsageError("p1 needs --size, e.g. --size 50x100")
        spec, h = gen_problem1(*_parse_size(args.size, (2,)))
    elif args.problem == "p2":
        spec, h = gen_problem2(*(_parse_size(args.size, (2,)) if args.size else ()))
    else:
        if not args.variant:
            raise UsageError(f"p3 needs --variant (one of {', '.join(sorted(P3_VARIANTS))})")
        spec, h = gen_problem3(args.variant, args.seed or 0)
    formats.write_tensor(args.out, h)
    print(f"wrote {spec.name} {'x'.join(map(str, spec.shape))} to {args.out} "
          f"(|h| = {frobenius_norm(h):.6e})")
    if spec.boundary is not None:
        sidecar = args.out + ".bc.json"
        faces = []
        for axis, (bc, pair) in enumerate(zip(spec.bcs, spec.boundary)):
            values = [
                None if value is None else {"kind": kind, "value": value}
                for kind, value in zip(face_kinds(bc), pair)
            ]
            faces.append({"axis": _AXES[axis], "begin": values[0], "end": values[1]})
        bcs = [bc.value for bc in spec.bcs]
        formats.write_json(
            sidecar, {"bcs": bcs, "applied": True, "faces": faces, "scale": spec.scale}
        )
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
    try:
        config = SolverConfig(max_iter=args.max_iter, stop_tol=args.tol)
    except ValueError as exc:  # told in the flag's name, not the field's
        field, _, reason = str(exc).partition(" ")
        raise UsageError(f"{_CONFIG_FLAGS[field]} {reason}") from None
    h = formats.read_tensor(args.input)
    bcs = _parse_bcs(args.bc, h.ndim)
    op = poisson_operator(h.shape, bcs)
    faces = _parse_face_flags(args, bcs)
    notes: list[str] = []
    if any(value is not None for pair in faces for value in pair):
        h = apply_bc_updates(h, bcs, faces)
        notes.append("boundary face values folded into the right-hand side")

    h, h_norm = checked_rhs(op, h)  # centered exactly where pcg would refuse it
    if null_share(op, h, h_norm)[1] is not None:
        center(h, out=h)
        notes.append("right-hand side centered (singular operator)")

    log = _solve(op, h, args.precond, config)
    log.problem = os.path.basename(args.input)
    log.warnings[:0] = notes

    if args.log:
        formats.write_run_log(args.log, log)
    if args.solution:
        formats.write_tensor(args.solution, log.u)

    last = log.records[-1]
    rel = f"{last.true_res / log.h_norm:.3e}" if log.h_norm > 0.0 else "n/a"
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
    title = f"{name} {label}: cumulative ops vs true residual"
    formats.write_gnuplot_series(f"{stem}.dat", ops_cum, residuals, title)
    row = formats.summary_row(name, label, ops_cum, residuals)
    return row, residuals[-1] / residuals[0], note


def _cmd_experiment(args: argparse.Namespace) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    rows: list[dict] = []
    for name, spec, h, pspec, budget in experiment_runs(args.name):
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
    dims = _parse_size(args.size, (1, 2, 3))
    bcs = _parse_bcs(args.bc, len(dims))
    value_lists = [eigenvalues(n, bc) for n, bc in zip(dims, bcs)]
    for axis, (n, bc, values) in enumerate(zip(dims, bcs, value_lists)):
        print(f"axis {_AXES[axis]} ({bc.value}, n={n}): {','.join(f'{v:.15g}' for v in values)}")
    if args.sums:
        # Rounded addition is monotone: extreme sums are sums of per-axis extremes.
        low, high = (sum(pick(v) for v in value_lists) for pick in (min, max))
        print(f"sum-spectrum min {low:.12g} max {high:.12g}")
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
