"""Preconditioners exploiting the operator's Kronecker-sum structure.

Three families, all symmetric so conjugate gradients stays valid:

- weighted Jacobi: ``p`` steps of the damped diagonal splitting
  ``L = omega*D + (L - omega*D)``, applied matrix-free,
- spectral pseudoinverse: exact (pseudo)inversion through the
  per-direction eigenbases, a Hadamard division against the tensor of
  eigenvalue sums with near-null modes zeroed,
- low-rank (2D only): the pseudoinverse with the reciprocal-eigenvalue
  matrix replaced by a rank-``r`` SVD truncation, which turns the dense
  spectral transform into ``r`` cheap congruence pairs.  Truncation can
  lose positive definiteness; the solver's ``<r, z>`` sign check reports
  it as a breakdown.

Also here: the stand-alone weighted Jacobi stationary solver used as a
baseline in the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import operators as op_mod
from .counting import OpCounter
from .laplace1d import diagonal
from .tensors import frobenius_norm, hadamard_pinv, linear_transform, outer_sum

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "PinvPreconditioner",
    "LowRankPreconditioner",
    "make_preconditioner",
    "StationaryResult",
    "jacobi_standalone",
]


def _spectral_setup(op) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-direction eigenbases and the entrywise pseudoinverse of the sums."""
    sums = op_mod.spectrum_sums(op)
    return [d.vectors for d in op_mod.spectra(op)], hadamard_pinv(sums, out=sums)


def _checked_out(r: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``out`` once it is known to fit ``r``, or a new array when it is omitted."""
    if out is None:
        return np.empty(r.shape)
    if out.shape != r.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(
            f"preconditioner output must be a C-contiguous float array of shape {r.shape}"
        )
    if np.may_share_memory(out, r):
        raise ValueError("preconditioner output must not overlap its input")
    return out


class Preconditioner:
    """Base: a symmetric map from residual tensors to search-direction seeds.

    ``apply(r, ops, out)`` returns ``M r`` and never modifies ``r``.  Given
    ``out``, a C-contiguous float array of ``r``'s shape that does not
    overlap ``r`` (else ``ValueError``), the result is written there and
    ``out`` is returned, so a solver can hand over a work buffer and an
    apply makes no grid-sized array; the identity returns ``r`` itself.
    Without ``out`` the result is a new array.
    """

    name = "base"  # the label a run log records
    init_cost = 0

    def apply(
        self, r: np.ndarray, ops: Optional[OpCounter] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError


class IdentityPreconditioner(Preconditioner):
    """No preconditioning; application is free."""

    name = "identity"

    def apply(
        self, r: np.ndarray, ops: Optional[OpCounter] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if out is not None:
            _checked_out(r, out)
        return r


class JacobiPreconditioner(Preconditioner):
    """``p`` damped-Jacobi sweeps on the splitting ``L = omega*D + O``.

    The weighted diagonal of the grid operator is the Kronecker sum of the
    per-direction diagonals scaled by ``omega``; the off part per
    direction is ``O(L) = L - omega*diag(L)``, so a sweep reuses the
    stencil apply:

        ``x_j = Dhat^-1 (r - apply(op, x_{j-1}) + Dhat x_{j-1})``

    with ``x_0 = 0`` (the first sweep collapses to ``Dhat^-1 r``).
    ``omega`` must be finite and at least 1; ``omega`` slightly above 1
    trades speed per sweep for robustness.  Each sweep after the first counts
    ``6*N*ndim + 4*N`` elementary ops, the first counts ``N``.  ``dhat`` and
    ``dhat_inv`` hold only what varies: they have extent 1 along each
    periodic or Dirichlet direction, whose diagonal is constant, and
    broadcast against the grid (shape ``(1, 1)`` on an all-periodic grid).
    The sweeps run in place in the returned array and, for ``p > 1``, one
    scratch buffer owned by the instance, so one instance serves one solve
    at a time.
    """

    def __init__(self, op, p: int = 1, omega: float = 1.0):
        if p < 1:
            raise ValueError(f"jacobi needs p >= 1 sweeps, got {p}")
        if not (np.isfinite(omega) and omega >= 1.0):
            raise ValueError(f"jacobi damping needs a finite omega >= 1, got {omega}")
        self.op = op
        self.p = int(p)
        self.omega = float(omega)
        self.name = f"jacobi(p={self.p}, omega={self.omega:g})"
        diags = [diagonal(n, bc) for n, bc in zip(op.shape, op.bcs)]
        # A direction whose corners are both 2 (periodic, Dirichlet) has a
        # constant diagonal and enters with length 1: the tensors broadcast.
        self.dhat = self.omega * outer_sum([d[:1] if d[0] == d[-1] == 2.0 else d for d in diags])
        self.dhat_inv = 1.0 / self.dhat
        self._work = np.empty(op.shape) if self.p > 1 else None  # sweep scratch
        # The cost model charges the full weighted diagonal, whatever its stored
        # shape: ndim-1 adds, a scaling, a reciprocal per entry.
        self.init_cost = (op.ndim + 1) * int(np.prod(op.shape))

    def apply(
        self, r: np.ndarray, ops: Optional[OpCounter] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        x = np.multiply(self.dhat_inv, r, out=_checked_out(r, out))
        if ops is not None:
            ops.add(r.size)
        f = self._work
        for _ in range(self.p - 1):
            op_mod.apply(self.op, x, ops, out=f)
            np.subtract(r, f, out=f)
            self.relax(x, f, ops)
        return x

    def relax(self, x: np.ndarray, res: np.ndarray, ops: Optional[OpCounter] = None) -> None:
        """One relaxation step in place, given the residual ``res = r - L x``.

        ``x <- Dhat^-1 (res + Dhat x)``, charged ``4*N`` ops together with
        the subtraction that formed ``res``.
        """
        x *= self.dhat
        x += res
        x *= self.dhat_inv
        if ops is not None:
            ops.add(4 * x.size)


class PinvPreconditioner(Preconditioner):
    """Spectral (pseudo)inverse through the per-direction eigenbases.

    Setup takes each 1D factor's closed-form eigenpairs and stores the
    entrywise pseudoinverse of the eigenvalue-sum tensor, zeroing sums
    within ``NULL_MODE_TOL`` of zero (for an all-periodic or all-Neumann
    grid exactly the constant mode drops out).  Application is transform,
    Hadamard, transform back: ``4*N*(n+q[+t]) + N`` elementary ops.  Its
    GEMMs write in turn into one scratch array owned by the instance and
    into the output, so one instance serves one solve at a time.
    """

    name = "pinv"

    def __init__(self, op):
        self.bases, self.ghat = _spectral_setup(op)
        self._work = np.empty(op.shape)  # transform scratch, reused by every apply
        # Eigenvalue-sum tensor and its reciprocal: (ndim-1)+1 ops per entry.
        self.init_cost = op.ndim * int(np.prod(op.shape))

    def apply(
        self, r: np.ndarray, ops: Optional[OpCounter] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        out = _checked_out(r, out)
        # One plain GEMM per axis (a rotation on 3D grids); the bases are
        # C-ordered, so their transposes are F-ordered views that GEMM reads
        # in place: no transposed copies are kept.  The 2*ndim GEMMs
        # alternate between the scratch array and ``out``: an odd number of
        # forward GEMMs ends in the scratch array, an even number in ``out``,
        # so the back transform starts in the other and ends in ``out``.
        pair = (self._work, out)
        f = linear_transform([v.T for v in self.bases], r, pair)
        f *= self.ghat
        linear_transform(self.bases, f, pair[::-1] if r.ndim % 2 else pair)
        if ops is not None:
            ops.add(4 * r.size * sum(r.shape) + r.size)
        return out


class LowRankPreconditioner(Preconditioner):
    """Rank-``r`` truncation of the spectral pseudoinverse (2D grids only).

    The reciprocal eigenvalue-sum matrix ``Ghat`` is SVD-truncated to
    ``sum_rho sigma_rho a_rho b_rho^T``; each triplet becomes a pair of
    small congruences ``(Vn diag(sigma_rho a_rho) Vn^T,  Vq diag(b_rho) Vq^T)``
    applied left and right of the residual.  At ``r = min(n, q)`` this
    reproduces the pseudoinverse; small ``r`` can go indefinite, which
    :func:`kronpcg.solver.pcg` reports as a breakdown.  Each application
    costs ``r*(2*N*(n+q) + N)`` elementary ops; its congruences run in two
    scratch arrays owned by the instance, so one instance serves one solve
    at a time.

    A 3D analogue would need a tensor decomposition in place of the SVD
    and is deliberately not provided.
    """

    def __init__(self, op, rank: int):
        if op.ndim != 2:
            raise ValueError("low-rank preconditioner supports 2D grids only")
        n, q = op.shape
        if not 1 <= rank <= min(n, q):
            raise ValueError(f"rank must be in [1, {min(n, q)}], got {rank}")
        self.rank = int(rank)
        self.name = f"lowrank(r={self.rank})"
        (vn, vq), ghat = _spectral_setup(op)
        a, sigma, bt = np.linalg.svd(ghat)
        self.left = [(vn * (sigma[i] * a[:, i])) @ vn.T for i in range(rank)]
        self.right = [(vq * bt[i, :]) @ vq.T for i in range(rank)]
        self._work = (np.empty(op.shape), np.empty(op.shape))  # congruence scratch
        self.init_cost = op.ndim * int(np.prod(op.shape))

    def apply(
        self, r: np.ndarray, ops: Optional[OpCounter] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        n, q = r.shape
        z = _checked_out(r, out)
        z.fill(0.0)
        for ml, mr in zip(self.left, self.right):
            z += linear_transform([ml, mr], r, self._work)
        if ops is not None:
            ops.add(self.rank * (2 * r.size * (n + q) + r.size))
        return z


# Family -> (constructor taking the operator, {spec key: (keyword, type)},
# required spec keys: those whose keyword the constructor does not default).
_FAMILIES = {
    "none": (lambda op: IdentityPreconditioner(), {}, ()),
    "pinv": (PinvPreconditioner, {}, ()),
    "jacobi": (JacobiPreconditioner, {"p": ("p", int), "omega": ("omega", float)}, ()),
    "lowrank": (LowRankPreconditioner, {"r": ("rank", int)}, ("r",)),
}


def make_preconditioner(op, spec: str) -> Preconditioner:
    """Build a preconditioner from its command-line spelling.

    Grammar: ``none`` | ``pinv`` | ``jacobi:p=3,omega=1.3`` | ``lowrank:r=3``
    (parameters optional for jacobi, required ``r`` for lowrank); a
    parameter may be given once.
    """
    head, _, tail = spec.strip().partition(":")
    head = head.strip().lower()
    if head not in _FAMILIES:
        raise ValueError(f"unknown preconditioner {head!r}")
    build, params, required = _FAMILIES[head]
    kwargs: dict = {}
    try:
        for item in tail.split(",") if tail else []:
            key, sep, value = (part.strip() for part in item.partition("="))
            if not sep or key not in params:
                takes = ", ".join(params) or "no parameters"
                raise ValueError(f"bad parameter {item!r}; {head} takes {takes}")
            keyword, kind = params[key]
            if keyword in kwargs:
                raise ValueError(f"parameter {key!r} is given twice")
            kwargs[keyword] = kind(value)
        for key in required:
            if params[key][0] not in kwargs:
                raise ValueError(f"missing parameter {key!r}; {head} takes {', '.join(params)}")
        return build(op, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad preconditioner spec {spec!r}: {exc}") from exc


@dataclass
class StationaryResult:
    """History of a stand-alone stationary run (index 0 = initial state)."""

    x: np.ndarray
    residuals: list[float] = field(default_factory=list)
    ops_cum: list[int] = field(default_factory=list)
    diverged: bool = False

    @property
    def iterations(self) -> int:
        return max(0, len(self.residuals) - 1)


def jacobi_standalone(
    op, h: np.ndarray, omega: float = 1.0, iters: int = 100
) -> StationaryResult:
    """Run the damped Jacobi splitting as a fixed-point solver from ``x = 0``.

    Records the true residual norm after every step.  One operator apply
    per step serves both: ``h - L x`` is the residual recorded for the
    new iterate and the right-hand side of the next step, so a run of
    ``iters`` steps applies the operator ``iters`` times (the zero start's
    residual is ``h`` itself), and each step is charged one apply and
    ``4*N`` update ops.  If the residual blows past ``1e12`` times its
    initial value the run is flagged as diverged and stops early; that is
    a reportable outcome, not an error.  Like :func:`kronpcg.solver.pcg`
    it refuses, with ``ValueError``, an ``h`` that does not fit the grid or
    is not finite.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    h, res0 = op_mod.checked_rhs(op, h)
    jacobi = JacobiPreconditioner(op, p=1, omega=omega)
    x = np.zeros(op.shape)
    r = h.copy()  # the residual h - L*0
    ops = OpCounter()
    ops.add(jacobi.init_cost)
    res = StationaryResult(x=x)
    res.residuals.append(res0)
    res.ops_cum.append(ops.count)
    for _ in range(iters):
        jacobi.relax(x, r, ops)
        np.subtract(h, op_mod.apply(op, x, ops, out=r), out=r)
        res_norm = frobenius_norm(r)
        res.residuals.append(res_norm)
        res.ops_cum.append(ops.count)
        if res0 > 0.0 and res_norm > 1e12 * res0:
            res.diverged = True
            break
    return res
