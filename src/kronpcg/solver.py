"""Preconditioned conjugate gradients on tensor-shaped unknowns.

The preconditioner is an opaque map on residual tensors, and every inner
product is the Frobenius pairing.  Centering is the operator's call, not a
knob: on a singular (all-periodic / all-Neumann) grid the recursive
residual is mean-centered once per step and the returned iterate once at
the end.  The operator annihilates constants, so the constant part of a
search direction never reaches the scalars or the residual.

Loop order: each step follows the PCG template of Barrett et al. (SIAM
1994, Fig. 2.5): precondition, pair, set the direction, apply, update,
then log the new record.  Record 0 is the zero start (``r = h``,
``kappa = 0``) and costs no apply; each later record costs one: ``Lu``
gives ``kappa`` and then the true residual ``h - Lu`` in the same buffer.
A record's ``rho`` and ``beta`` are filled when the next step
preconditions its residual (``beta`` from record 1 on, and not after a
stop on ``<r, z>``), so a tolerance or budget stop leaves both ``None`` on
the last record.

Buffer roles: the loop keeps the residual and two direction buffers,
allocated once per solve, and the iterate, written ``u = alpha*p`` by the
first update.  The direction buffers swap roles each step: the
preconditioner writes ``z`` into the free one, which is the direction at
the first step and takes ``z + beta*p`` later; the other then holds
``Lp``, then ``Lu``.  At the first step that other buffer holds nothing
yet, so it is lent to the preconditioner as its ``work``; later steps
lend nothing (:class:`kronpcg.precond.Preconditioner`).  A one-step pinv
solve thus holds four grid arrays beside the preconditioner's 1D factors.
A step makes no grid-sized array, and a run never writes to ``h``.

Stop rule: logging a record names a tolerance stop (true residual within
the optional ``stop_tol``) or a budget stop (record ``max_iter``).  One
sign rule judges every ``<r, z>``, ``<r_0, z_0>`` too, and every
``<Lp, p>``: a nonpositive or non-finite value once the recursive
residual is at most ``eps * |r_0|`` (a zero start included) is the
rounding floor, noted in ``log.warnings``; above it, it is a breakdown
(an indefinite operator or preconditioner), noted there too, and raises
:class:`PCGBreakdown` carrying the partial log.  So a tolerance or budget
stop applies the preconditioner ``iterations`` times, any other stop once
more.

Charges: ``ops_cum`` follows README.md's "Counting rules" in closed form.
Record ``s`` is the preconditioner's ``init_cost`` plus the zero start's
centering plus ``s`` equal steps: the operator's ``apply_cost`` and ``10N``
for two inner products and three scaled additions, the preconditioner's
``apply_cost``, the residual's centering on a singular grid and, with
``stop_tol`` set, the apply and true residual it reads.  A step cut short
by a stop writes no record and so charges nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import operators as op_mod
from .precond import IdentityPreconditioner, Preconditioner
from .tensors import checked_integer, checked_real, frobenius_norm, inner

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
    """Knobs for one run: the budget ``max_iter`` and the optional relative
    true-residual stop ``stop_tol`` (stop rule: module docstring)."""

    max_iter: int = field(default=100, metadata={"minimum": 0})
    stop_tol: Optional[float] = None

    def __post_init__(self) -> None:
        self.max_iter = checked_integer("max_iter", self.max_iter, 0)
        if self.stop_tol is not None:  # from the least positive float: zero is out
            self.stop_tol = checked_real("stop_tol", self.stop_tol, 5e-324)


@dataclass
class IterationRecord:
    """Per-iteration ledger entry (s=0 is the initial state); the fields, in
    order, are the keys of one ``iterations`` entry of the run log.  When
    ``rho`` and ``beta`` are filled: loop order, module docstring.
    ``eta_scaled`` needs the whole ``kappa`` series, so :func:`pcg` writes
    it on every record as it stops, before any log leaves it."""

    s: int = field(metadata={"minimum": 0})
    alpha: Optional[float]
    beta: Optional[float]
    rho: Optional[float]
    computed_res: float
    true_res: float
    kappa: float
    eta_scaled: float
    null_norm: float
    ops_cum: int = field(metadata={"minimum": 0})


@dataclass
class ConvergenceLog:
    """Full run history plus the final iterate.

    The log's dataclasses are the one definition of the run-log document:
    the fields, in order, are its keys (:func:`kronpcg.formats.log_to_dict`),
    except where ``metadata["json"]`` renames one (``records`` is written
    as ``iterations``) or, being ``None``, leaves it out (``u`` and
    ``h_norm`` enter only through the computed ``final_norms``).
    :data:`kronpcg.formats.RUN_LOG_SCHEMA` is derived from the field types,
    with ``metadata["minimum"]`` bounding a number (or a list's items) and
    ``metadata["required"]`` false for a key a log may omit, so a new field
    is one line here.
    :func:`pcg` fills ``shape``, ``bcs``, ``preconditioner`` and
    ``config`` with what it ran; callers may set ``problem`` and ``seed``.
    """

    problem: Optional[str] = None
    shape: list[int] = field(default_factory=list, metadata={"minimum": 1})
    bcs: list[str] = field(default_factory=list)
    preconditioner: str = "identity"
    seed: Optional[int] = None
    config: SolverConfig = field(default_factory=SolverConfig)
    records: list[IterationRecord] = field(default_factory=list, metadata={"json": "iterations"})
    warnings: list[str] = field(default_factory=list)
    breakdown: Optional[str] = field(default=None, metadata={"required": False})
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


def _counted_true_residual(h: np.ndarray, lu: np.ndarray) -> float:
    """``|h - Lu|`` from a given ``Lu``, overwriting ``lu`` with the residual.

    Its own function, and so named, only because ``perfbench/layertrace.py``
    binds it to time the true residual.
    """
    np.subtract(h, lu, out=lu)
    return frobenius_norm(lu)


def _judge(
    log: ConvergenceLog, s: int, kind: str, value: float, r_norm: float, r0_norm: float
) -> Optional[str]:
    """Judge one sign check of iteration ``s`` by the stop rule (module
    docstring): ``"floor"``, the breakdown ``kind``, or ``None`` to go on."""
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
    """Run preconditioned conjugate gradients for ``L u = h`` from ``u = 0``.

    Returns the final iterate and the convergence log.  ``h`` must pass
    :func:`kronpcg.operators.checked_rhs` and, on a singular grid, where
    the solution's constant part is not determined, the centering rule of
    :func:`kronpcg.operators.null_share`; else ``ValueError``.  A stop
    before the first update returns a new zero array.  ``stop_tol`` is
    relative to ``|h|`` with no floor, so ``h = 0`` stops at record 0; so
    does a side whose squares all underflow (entries below about 2e-162).
    """
    cfg = config if config is not None else SolverConfig()
    precond = precond if precond is not None else IdentityPreconditioner(op)
    h, h_norm = op_mod.checked_rhs(op, h)  # one layout for every pairing
    singular = op_mod.is_singular(op)
    h_sum, share = op_mod.null_share(op, h, h_norm)  # the sum also gives the centered start
    if share is not None:
        raise ValueError(
            "singular operator with uncentered right-hand side "
            f"(null component {share:.2e} of |h|); center h first"
        )

    # Record s is charged start_cost + s*step (charges: module docstring).
    centering = 3 * h.size if singular else 0
    check = op.apply_cost + 4 * h.size if cfg.stop_tol is not None else 0
    step = op.apply_cost + 10 * h.size + precond.apply_cost + centering + check
    start_cost = precond.init_cost + centering

    log = ConvergenceLog(
        shape=list(op.shape),
        bcs=[bc.value for bc in op.bcs],
        preconditioner=precond.name,
        config=cfg,
        h_norm=h_norm,
    )
    # Zero start: ``r = h - L*0`` is ``h``, centered on a singular grid in the pass
    # that copies it.
    r = np.subtract(h, h_sum / h.size) if singular else h.copy()
    r0_norm = frobenius_norm(r) if singular else h_norm
    u = None  # written by the first update
    p, w = np.empty(op.shape), np.empty(op.shape)

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
                ops_cum=start_cost + s * step,
            )
        )
        if cfg.stop_tol is not None and true_res <= cfg.stop_tol * h_norm:
            return "tolerance"
        return "budget" if s == cfg.max_iter else None

    r_norm = r0_norm
    stop = record(0, None, r_norm, h_norm, 0.0, 0.0)

    s = 0
    while stop is None:
        z = precond.apply(r, out=w, work=p if s == 0 else None)  # p is idle at s = 0
        last = log.records[-1]
        last.rho = inner(r, z)
        stop = _judge(log, s, "indefinite", last.rho, r_norm, r0_norm)
        if stop is not None:
            break
        if s > 0:  # z + beta*p into the free buffer; at s = 0 the direction is z
            last.beta = last.rho / rho
            z += np.multiply(p, last.beta, out=p)
        rho = last.rho
        p, w = w, p
        s += 1
        op_mod.apply(op, p, out=w)
        wp = inner(w, p)
        stop = _judge(log, s, "curvature", wp, r_norm, r0_norm)
        if stop is not None:
            break
        alpha = rho / wp
        r += np.multiply(w, -alpha, out=w)  # r - alpha*Lp
        if u is None:
            u = np.multiply(p, alpha)  # the first iterate, written
        else:
            u += np.multiply(p, alpha, out=w)  # u + alpha*p
        if singular:
            op_mod.center(r, out=r)
        r_norm = frobenius_norm(r)
        lu = op_mod.apply(op, u, out=w)  # one apply serves both diagnostics
        kappa = inner(u, lu) - 2.0 * inner(u, h)
        true_res = _counted_true_residual(h, lu)
        u_sum = float(u.sum())  # u keeps this sum until the next update
        stop = record(s, alpha, r_norm, true_res, kappa, op_mod._null_norm(u_sum, u.size))

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
