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

import operator
from dataclasses import dataclass, field
from numbers import Real
from typing import Optional

import numpy as np

from . import operators as op_mod
from .counting import OpCounter
from .laplace1d import analytic_spectrum, diagonal, eigenvalues
from .tensors import checked_out, frobenius_norm, hadamard_pinv, linear_transform, outer_sum

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

_GHAT_ROWS = 32  # leading rows of ghat summed and inverted per pass


def checked_integer(name: str, value) -> int:
    """``value`` as an ``int`` by ``operator.index``, else ``ValueError`` naming the knob."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _spectral_setup(op) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-direction eigenbases and ``ghat``, bitwise ``hadamard_pinv(spectrum_sums(op))``.

    ``ghat`` is built ``_GHAT_ROWS`` leading rows at a time, each block summed
    and inverted while it is in cache.  Each trailing direction's eigenvalues
    are laid out once along the flattened trailing axes, so every sum keeps
    its order ``(a_i + b_j) + c_k`` and each add runs along whole rows.
    """
    decomps = [analytic_spectrum(n, bc) for n, bc in zip(op.shape, op.bcs)]
    values = [d.values for d in decomps]
    tail = [v.reshape((-1,) + (1,) * (op.ndim - 1 - d)) for d, v in enumerate(values[1:], 1)]
    lines = [np.broadcast_to(v, op.shape[1:]).reshape(-1) for v in tail]
    ghat = np.empty(op.shape)
    rows = ghat.reshape(op.shape[0], -1)
    for i in range(0, op.shape[0], _GHAT_ROWS):
        block = rows[i : i + _GHAT_ROWS]
        np.copyto(block, lines[0])  # then add the column: faster than np.add(column, row, out=)
        block += values[0][i : i + _GHAT_ROWS, None]
        for line in lines[1:]:
            block += line
        hadamard_pinv(block, out=block)
    return [d.vectors for d in decomps], ghat


class Preconditioner:
    """Base: a symmetric map from residual tensors to search-direction seeds.

    ``apply(r, ops, out, work)`` returns ``M r`` and never modifies ``r``.
    Given ``out``, which must fit ``r`` (:func:`kronpcg.tensors.checked_out`),
    the result is written there and ``out`` is returned, so a solver can
    hand over a work buffer and an apply makes no grid-sized array.
    Without ``out`` the result is a new array.  ``work`` is a scratch array
    the apply may overwrite; it must fit ``r`` the same way and must not
    overlap ``out``.  Both are checked before the first write.  An apply
    that needs scratch and gets no ``work`` uses the instance's own array,
    allocated by the first such apply and kept, so setup allocates no
    scratch and one instance serves one solve at a time.
    """

    name = "base"  # the label a run log records
    init_cost = 0
    _work = None  # own scratch, for applies that arrive without ``work``

    def apply(
        self,
        r: np.ndarray,
        ops: Optional[OpCounter] = None,
        out: Optional[np.ndarray] = None,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def _buffers(
        self,
        r: np.ndarray,
        out: Optional[np.ndarray],
        work: Optional[np.ndarray],
        scratch: bool = True,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """``out`` and, if the apply needs ``scratch``, its scratch array, both checked."""
        out = checked_out(r, out)
        if work is not None:
            checked_out(r, work)
            if np.may_share_memory(work, out):
                raise ValueError("scratch must not overlap the output")
        elif scratch:
            if self._work is None:
                self._work = np.empty(r.shape)
            work = self._work
        return out, work


class IdentityPreconditioner(Preconditioner):
    """No preconditioning: a copy of ``r``, charged 0 ops."""

    name = "identity"

    def apply(
        self,
        r: np.ndarray,
        ops: Optional[OpCounter] = None,
        out: Optional[np.ndarray] = None,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        out, _ = self._buffers(r, out, work, scratch=False)
        np.copyto(out, r)
        return out


class JacobiPreconditioner(Preconditioner):
    """``p`` damped-Jacobi sweeps on the splitting ``L = omega*D + O``.

    The weighted diagonal of the grid operator is the Kronecker sum of the
    per-direction diagonals scaled by ``omega``; the off part per
    direction is ``O(L) = L - omega*diag(L)``, so a sweep reuses the
    stencil apply:

        ``x_j = Dhat^-1 (r - apply(op, x_{j-1}) + Dhat x_{j-1})``

    with ``x_0 = 0`` (the first sweep collapses to ``Dhat^-1 r``).
    ``omega`` must be finite and at least 1; slightly above 1 it trades
    speed per sweep for robustness.  An even ``p`` that gives ``M L`` an
    eigenvalue ``<= 0`` on a constant diagonal is refused at setup.  Each
    sweep after the first counts ``6*N*ndim + 4*N`` elementary ops, the
    first counts ``N``.  ``dhat`` and ``dhat_inv`` hold only what varies:
    they have extent 1 along each periodic or Dirichlet direction, whose
    diagonal is constant, and broadcast against the grid (shape ``(1, 1)``
    on an all-periodic grid).  The sweeps run in place in the returned
    array and, for ``p > 1``, one scratch array: the caller's ``work`` or,
    without it, the instance's own (:class:`Preconditioner`).
    """

    def __init__(self, op, p: int = 1, omega: float = 1.0):
        self.p = checked_integer("jacobi sweep count p", p)
        if self.p < 1:
            raise ValueError(f"jacobi needs p >= 1 sweeps, got {p}")
        if not (isinstance(omega, Real) and np.isfinite(omega) and omega >= 1.0):
            raise ValueError(f"jacobi damping needs a finite omega >= 1, got {omega!r}")
        self.op = op
        self.omega = float(omega)
        self.name = f"jacobi(p={self.p}, omega={self.omega:g})"
        diags = [diagonal(n, bc) for n, bc in zip(op.shape, op.bcs)]
        # A direction whose corners are both 2 (periodic, Dirichlet) has a
        # constant diagonal and enters with length 1: the tensors broadcast.
        self.dhat = self.omega * outer_sum([d[:1] if d[0] == d[-1] == 2.0 else d for d in diags])
        self.dhat_inv = 1.0 / self.dhat
        if self.p % 2 == 0 and self.dhat.size == 1:  # M L: 1 - (1 - s/dhat)^p over the sums s
            s_max = sum(eigenvalues(n, bc)[-1] for n, bc in zip(op.shape, op.bcs))
            lowest = 1.0 - (1.0 - s_max / self.dhat.item()) ** self.p  # even p: least at s_max
            if lowest <= 0.0:
                raise ValueError(
                    f"jacobi p={self.p}, omega={self.omega:g} gives M L the eigenvalue "
                    f"{lowest:.3g} <= 0; use an odd p or omega > 1"
                )
        # The cost model charges the full weighted diagonal, whatever its stored
        # shape: ndim-1 adds, a scaling, a reciprocal per entry.
        self.init_cost = (op.ndim + 1) * int(np.prod(op.shape))

    def apply(
        self,
        r: np.ndarray,
        ops: Optional[OpCounter] = None,
        out: Optional[np.ndarray] = None,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        x, f = self._buffers(r, out, work, scratch=self.p > 1)  # f: the sweep residual
        np.multiply(self.dhat_inv, r, out=x)
        if ops is not None:
            ops.add(r.size)
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
    GEMMs write in turn into one scratch array, the caller's ``work`` or,
    without it, the instance's own (:class:`Preconditioner`), and into the
    output.
    """

    name = "pinv"

    def __init__(self, op):
        self.bases, self.ghat = _spectral_setup(op)
        # Eigenvalue-sum tensor and its reciprocal: (ndim-1)+1 ops per entry.
        self.init_cost = op.ndim * int(np.prod(op.shape))

    def apply(
        self,
        r: np.ndarray,
        ops: Optional[OpCounter] = None,
        out: Optional[np.ndarray] = None,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        out, work = self._buffers(r, out, work)
        # One plain GEMM per axis (a rotation on 3D grids); the bases are
        # C-ordered, so their transposes are F-ordered views that GEMM reads
        # in place: no transposed copies are kept.  The 2*ndim GEMMs
        # alternate between the scratch array and ``out``: an odd number of
        # forward GEMMs ends in the scratch array, an even number in ``out``,
        # so the back transform starts in the other and ends in ``out``.
        pair = (work, out)
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
    costs ``r*(2*N*(n+q) + N)`` elementary ops.  The congruences are built
    and applied by ``einsum``, which calls no BLAS, so no digit depends on
    the BLAS thread count.  Each left product goes into one scratch array,
    the caller's ``work`` or, without it, the instance's own
    (:class:`Preconditioner`); each term after the first goes into a second
    array the instance allocates on its first apply at ``r > 1`` and keeps.

    A 3D analogue would need a tensor decomposition in place of the SVD
    and is deliberately not provided.
    """

    _term = None  # the rank sum's second scratch array, kept from the first apply

    def __init__(self, op, rank: int):
        if op.ndim != 2:
            raise ValueError("low-rank preconditioner supports 2D grids only")
        n, q = op.shape
        self.rank = checked_integer("rank", rank)
        if not 1 <= self.rank <= min(n, q):
            raise ValueError(f"rank must be in [1, {min(n, q)}], got {rank}")
        self.name = f"lowrank(r={self.rank})"
        (vn, vq), ghat = _spectral_setup(op)
        a, sigma, bt = np.linalg.svd(ghat)
        self.left = [np.einsum("ij,kj->ik", vn * (sigma[i] * a[:, i]), vn) for i in range(rank)]
        self.right = [np.einsum("ij,kj->ik", vq * bt[i, :], vq) for i in range(rank)]
        self.init_cost = op.ndim * int(np.prod(op.shape))

    def apply(
        self,
        r: np.ndarray,
        ops: Optional[OpCounter] = None,
        out: Optional[np.ndarray] = None,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n, q = r.shape
        z, work = self._buffers(r, out, work)
        if self.rank > 1 and self._term is None:
            self._term = np.empty(r.shape)
        for i, (ml, mr) in enumerate(zip(self.left, self.right)):
            left = np.einsum("ij,jk->ik", ml, r, out=work)
            term = np.einsum("ij,kj->ik", left, mr, out=self._term if i else z)
            if i:  # the first congruence is written into z, the others added
                z += term
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
    it refuses, with ``ValueError``, an ``h`` that is not real, does not fit
    the grid or is not finite.
    """
    iters = checked_integer("iters", iters)
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    h, res0 = op_mod.checked_rhs(op, h)
    jacobi = JacobiPreconditioner(op, p=1, omega=omega)
    x = np.zeros(op.shape)
    r = h.copy()  # the residual h - L*0
    ops = OpCounter()
    ops.add(jacobi.init_cost)
    res = StationaryResult()
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
