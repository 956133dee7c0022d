"""Preconditioned conjugate gradients on tensor-shaped unknowns.

The iteration never forms the system matrix: the operator is applied
direction-by-direction with three-point stencils, the preconditioner is an
opaque callable on residual tensors, and every inner product is the
Frobenius pairing.  Singular (all-periodic / all-Neumann) systems are
handled by keeping the recursive residual orthogonal to the constant-tensor
null space: it is mean-centered once per iteration, and the returned
iterate is centered once at the end (the operator annihilates constants,
so the constant part of a search direction never reaches the scalars or
the residual).

Each run produces a :class:`ConvergenceLog` with one record per iteration:
scalar coefficients, recursive and true residual norms, the quadratic-form
error indicator ``kappa`` and its scaled square-root series ``eta``, the
null-space component of the iterate, and the cumulative elementary-op
count under the accounting rules documented in :mod:`kronpcg.counting`.
Record 0 is the zero start (``r = h``, ``kappa = 0``) and costs no apply;
each later record costs one: ``Lu`` gives ``kappa`` and then the true
residual ``h - Lu`` in the same buffer.  Each step follows the PCG
template of Barrett et al. (SIAM 1994, Fig. 2.5): precondition, pair, set
the direction, apply, update, then log the new record.

The loop keeps the residual and two direction buffers, allocated once per
solve, and the iterate, written ``u = alpha*p`` by the first update.  The
direction buffers swap roles each step: the preconditioner writes ``z``
into the free one, which is the direction at the first step and takes
``z + beta*p`` later; the other then holds ``Lp``, then ``Lu``.  At the
first step that other buffer holds nothing yet, so it is lent to the
preconditioner as its scratch (``work``); later steps lend nothing, and a
preconditioner that needs scratch then uses its own, kept from that apply
on.  A one-step pinv solve thus holds five grid arrays with the setup's
``ghat``.  A step makes no grid-sized array.  A run starts from zero and
never writes to the caller's ``h``.

Logging a record names a tolerance stop (true residual within the
optional ``stop_tol``) or a budget stop (record ``max_iter``); one sign
rule judges every ``<r, z>``, ``<r_0, z_0>`` too, and every ``<Lp, p>``.
A nonpositive or non-finite value once the recursive residual is at most
``eps * |r_0|`` (a zero start included) is the rounding floor, noted once
in ``log.warnings``; above it, it is a breakdown (an indefinite operator
or preconditioner) and raises :class:`PCGBreakdown` carrying the partial
log.  So a tolerance or budget stop applies the preconditioner
``iterations`` times, any other stop once more.

The log's dataclasses are the one definition of the run-log document:
:func:`kronpcg.formats.log_to_dict` writes their fields in declaration
order, so a new record or header field is one line here plus its type in
:data:`kronpcg.formats.RUN_LOG_SCHEMA`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Optional

import numpy as np

from . import operators as op_mod
from .counting import OpCounter
from .precond import IdentityPreconditioner, Preconditioner
from .tensors import checked_integer, frobenius_norm, inner

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "ConvergenceLog",
    "PCGBreakdown",
    "pcg",
    "eta_series",
]

_EPS = float(np.finfo(float).eps)  # 2**-52

# Breakdown kind -> (the sign-checked pairing, the PCGBreakdown reason).
_BREAKDOWNS = {
    "curvature": ("curvature <Lp, p>", "nonpositive curvature"),
    "indefinite": (
        "preconditioned inner product <r, z>",
        "nonpositive preconditioned inner product",
    ),
}


@dataclass
class SolverConfig:
    """Knobs for one conjugate-gradient run.

    ``max_iter`` is the primary stopping rule; ``stop_tol`` (relative true
    residual) is optional and, when set, its per-iteration evaluation is
    charged to the op counter.  Centering is not a knob: :func:`pcg`
    centers exactly when the operator is singular.
    """

    max_iter: int = 100
    stop_tol: Optional[float] = None

    def __post_init__(self) -> None:
        self.max_iter = checked_integer("max_iter", self.max_iter)
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        tol = self.stop_tol
        if tol is not None and not (isinstance(tol, Real) and np.isfinite(tol) and tol > 0):
            raise ValueError(f"stop_tol must be a finite positive number, got {tol!r}")


@dataclass
class IterationRecord:
    """Per-iteration ledger entry (s=0 is the initial state).

    The fields, in order, are the keys of one ``iterations`` entry of the
    run log.  ``rho`` and ``beta`` of record ``s`` are filled when the next
    step preconditions ``r_s``, so a tolerance or budget stop leaves them
    ``None`` on the last record; ``beta`` is also ``None`` on record 0 and
    after a stop on ``<r, z>``.
    """

    s: int
    alpha: Optional[float]
    beta: Optional[float]
    rho: Optional[float]
    computed_res: float
    true_res: float
    kappa: float
    eta_scaled: Optional[float]
    null_norm: float
    ops_cum: int


@dataclass
class ConvergenceLog:
    """Full run history plus the final iterate.

    The fields, in order, are the keys of the run-log document, except
    where ``metadata["json"]`` renames one (``records`` is written as
    ``iterations``) or, being ``None``, leaves it out (``u`` and
    ``h_norm`` enter only through the computed ``final_norms``).
    :func:`pcg` fills ``shape``, ``bcs``, ``preconditioner`` and
    ``config`` with what it ran; callers may set ``problem`` and ``seed``.
    """

    problem: Optional[str] = None
    shape: list[int] = field(default_factory=list)
    bcs: list[str] = field(default_factory=list)
    preconditioner: str = "identity"
    seed: Optional[int] = None
    config: SolverConfig = field(default_factory=SolverConfig)
    records: list[IterationRecord] = field(default_factory=list, metadata={"json": "iterations"})
    warnings: list[str] = field(default_factory=list)
    breakdown: Optional[str] = None
    u: Optional[np.ndarray] = field(default=None, metadata={"json": None})
    h_norm: float = field(default=0.0, metadata={"json": None})

    @property
    def iterations(self) -> int:
        """Number of actual loop passes (records minus the s=0 entry)."""
        return max(0, len(self.records) - 1)


class PCGBreakdown(Exception):
    """Iteration stopped on a nonpositive inner product; carries the partial
    log, whose ``u`` is the iterate reached."""

    def __init__(self, reason: str, log: ConvergenceLog):
        self.reason = reason
        self.log = log
        super().__init__(f"conjugate-gradient breakdown: {reason}")


def eta_series(kappas, first_iter_residual: Optional[float]) -> np.ndarray:
    """Scaled error-indicator series ``alpha*sqrt(kappa - min kappa) + eps``.

    ``alpha`` anchors the series to the first iteration's true residual so
    the curve is plottable alongside residual norms; when the first
    iteration's indicator is already at rounding level, ``alpha = 1``.
    """
    k = np.asarray(list(kappas), dtype=float)
    if k.size == 0:
        return k
    eta = np.sqrt(np.maximum(k - k.min(), 0.0))
    alpha = 1.0
    if first_iter_residual is not None and k.size > 1 and eta[1] > _EPS:
        alpha = first_iter_residual / eta[1]
    return alpha * eta + _EPS


def _counted_true_residual(h: np.ndarray, lu: np.ndarray, ops: Optional[OpCounter]) -> float:
    """``|h - Lu|`` from a given ``Lu``, overwriting ``lu`` with the residual."""
    np.subtract(h, lu, out=lu)
    if ops is not None:
        ops.add(2 * h.size)  # subtraction
        ops.add(2 * h.size)  # norm
    return frobenius_norm(lu)


def _judge(
    log: ConvergenceLog, s: int, kind: str, value: float, r_norm: float, r0_norm: float
) -> Optional[str]:
    """Classify one sign check of iteration ``s``; ``None`` lets the run go on.

    A nonpositive or non-finite pairing is the rounding floor once the
    recursive residual is at most ``eps * |r_0|``, else the breakdown
    ``kind``; either verdict is noted in ``log.warnings``.
    """
    if 0.0 < value < np.inf:
        return None
    pairing = _BREAKDOWNS[kind][0]
    if r_norm <= _EPS * r0_norm:
        log.warnings.append(
            f"iteration {s}: {pairing} = {value:.3e} at rounding level; "
            "residual floor reached, stopping"
        )
        return "floor"
    log.warnings.append(f"iteration {s}: {pairing} = {value:.3e} is not positive")
    return kind


def pcg(
    op,
    h: np.ndarray,
    precond: Optional[Preconditioner] = None,
    config: Optional[SolverConfig] = None,
) -> tuple[np.ndarray, ConvergenceLog]:
    """Run preconditioned conjugate gradients for ``L u = h``.

    Starts from ``u = 0``; returns the final iterate and the convergence
    log.  For a singular operator the right-hand side must arrive
    centered (the constant component of the solution is not determined):
    one that :func:`kronpcg.operators.null_share` does not count as
    centered raises ``ValueError``; pass it through
    :func:`kronpcg.operators.center` first or let the CLI do it.  The
    operator alone decides centering: on a singular grid the recursive
    residual is mean-centered every iteration and the returned iterate
    once at the end; a nonsingular grid is never centered.  A right-hand
    side that is not real or not finite raises ``ValueError``.
    The iteration works in place on its own buffers: a direction and a free
    buffer swap roles each step, and ``u`` is written by the first update
    (a stop before it returns a new zero array).  Per step it
    preconditions the last record's residual and applies the operator once
    to the search direction and once for the new record, which always
    carries the true residual.
    """
    cfg = config if config is not None else SolverConfig()
    precond = precond if precond is not None else IdentityPreconditioner()
    h, h_norm = op_mod.checked_rhs(op, h)  # one layout for every pairing
    singular = op_mod.is_singular(op)
    h_sum, share = op_mod.null_share(op, h, h_norm)  # the sum also gives the centered start
    if share is not None:
        raise ValueError(
            "singular operator with uncentered right-hand side "
            f"(null component {share:.2e} of |h|); center h first"
        )

    ops = OpCounter()
    ops.add(precond.init_cost)

    log = ConvergenceLog(
        shape=list(op.shape),
        bcs=[bc.value for bc in op.bcs],
        preconditioner=precond.name,
        config=cfg,
        h_norm=h_norm,
    )
    # Zero start: ``r = h - L*0`` is ``h``, centered on a singular grid in the pass
    # that copies it (charged as ``op_mod.center``); ``p`` and ``w`` swap roles.
    r = np.subtract(h, h_sum / h.size) if singular else h.copy()
    ops.add(3 * h.size if singular else 0)
    r0_norm = frobenius_norm(r) if singular else h_norm
    u = None  # written by the first update
    p, w = np.empty(op.shape), np.empty(op.shape)
    counted = ops if cfg.stop_tol is not None else None
    root_n = float(np.sqrt(h.size))  # |null part| = |sum| / sqrt(N), as nullspace_component

    def record(s, alpha, r_norm, true_res, kappa, null_norm) -> Optional[str]:
        """Log iteration ``s``; name its tolerance or budget stop, if any."""
        log.records.append(
            IterationRecord(
                s=s,
                alpha=alpha,
                beta=None,
                rho=None,
                computed_res=r_norm,
                true_res=true_res,
                kappa=kappa,
                eta_scaled=None,
                null_norm=null_norm,
                ops_cum=ops.count,
            )
        )
        if cfg.stop_tol is not None and true_res <= cfg.stop_tol * max(h_norm, _EPS):
            return "tolerance"
        return "budget" if s == cfg.max_iter else None

    r_norm = r0_norm
    stop = record(0, None, r_norm, h_norm, 0.0, 0.0)

    s = 0
    while stop is None:
        z = precond.apply(r, ops, out=w, work=p if s == 0 else None)  # p is idle at s = 0
        last = log.records[-1]
        last.rho = inner(r, z)
        ops.add(2 * h.size)
        stop = _judge(log, s, "indefinite", last.rho, r_norm, r0_norm)
        if stop is not None:
            break
        if s > 0:  # z + beta*p into the free buffer; at s = 0 the direction is z
            last.beta = last.rho / rho
            z += np.multiply(p, last.beta, out=p)
        rho = last.rho
        ops.add(2 * h.size)
        p, w = w, p
        s += 1
        op_mod.apply(op, p, ops, out=w)
        wp = inner(w, p)
        ops.add(2 * h.size)
        stop = _judge(log, s, "curvature", wp, r_norm, r0_norm)
        if stop is not None:
            break
        alpha = rho / wp
        r += np.multiply(w, -alpha, out=w)  # r - alpha*Lp
        if u is None:
            u = np.multiply(p, alpha)  # the first iterate, written
        else:
            u += np.multiply(p, alpha, out=w)  # u + alpha*p
        ops.add(4 * h.size)
        if singular:
            op_mod.center(r, ops, out=r)
        r_norm = frobenius_norm(r)
        # One apply into ``w`` serves both diagnostics: ``kappa`` reads
        # ``Lu``, then ``w`` becomes the true residual ``h - Lu``.  They are
        # counted only when a stopping tolerance reads them.
        lu = op_mod.apply(op, u, counted, out=w)
        kappa = inner(u, lu) - 2.0 * inner(u, h)
        true_res = _counted_true_residual(h, lu, counted)
        u_sum = float(u.sum())  # u keeps this sum until the next update
        stop = record(s, alpha, r_norm, true_res, kappa, abs(u_sum) / root_n)

    if u is None:  # a stop before the first update: the zero start
        u = np.zeros(op.shape)
    elif singular:  # free, like the caller's centering of h
        np.subtract(u, u_sum / u.size, out=u)
    first_res = log.records[1].true_res if len(log.records) > 1 else None
    etas = eta_series([rec.kappa for rec in log.records], first_res)
    for rec, e in zip(log.records, etas):
        rec.eta_scaled = float(e)
    log.u = u
    if stop in _BREAKDOWNS:
        log.breakdown = stop
        raise PCGBreakdown(_BREAKDOWNS[stop][1], log)
    return u, log
