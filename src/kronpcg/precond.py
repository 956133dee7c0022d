"""Preconditioners exploiting the operator's Kronecker-sum structure.

Three families, all symmetric so conjugate gradients stays valid: weighted
Jacobi, the spectral pseudoinverse and its low-rank truncation.  Also
here: the stand-alone weighted Jacobi solver, the experiments' baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import nextafter, prod
from typing import Optional

import numpy as np

from . import operators as op_mod
from .laplace1d import analytic_spectrum, diagonal, eigenvalues
from .tensors import FLOAT_MAX, checked_integer, checked_out, checked_real, checked_tensor
from .tensors import frobenius_norm, hadamard_pinv, linear_transform

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

_GHAT_ENTRIES = 1 << 15  # per block of ghat rows (256 KiB): summed and inverted in cache


def _spectral_setup(op) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each direction's closed-form eigenbasis and eigenvalues."""
    decomps = [analytic_spectrum(n, bc) for n, bc in zip(op.shape, op.bcs)]
    return [d.vectors for d in decomps], [d.values for d in decomps]


def _ghat_blocks(values, scratch):
    """Yield ``(rows, block)``: ``ghat``'s leading ``rows``, flattened past axis 0.

    ``ghat`` is bitwise ``hadamard_pinv`` of the eigenvalue sums, built about
    ``_GHAT_ENTRIES`` entries (at least one row) at a time at the head of
    ``scratch``.  Each sum keeps its order ``(a_i + b_j) + c_k``; each add
    runs along whole flattened rows.
    """
    shape = [len(v) for v in values]
    tail = [v.reshape((-1,) + (1,) * (len(shape) - 1 - d)) for d, v in enumerate(values[1:], 1)]
    lines = [np.broadcast_to(v, shape[1:]).reshape(-1) for v in tail]
    width = lines[0].size
    height = max(1, _GHAT_ENTRIES // width)
    flat = scratch.reshape(-1)
    for lo in range(0, shape[0], height):
        rows = slice(lo, min(lo + height, shape[0]))
        block = flat[: (rows.stop - lo) * width].reshape(-1, width)
        np.copyto(block, lines[0])  # then add the column: faster than np.add(column, row, out=)
        block += values[0][rows, None]
        for line in lines[1:]:
            block += line
        hadamard_pinv(block, out=block)
        yield rows, block


class Preconditioner:
    """Base: a symmetric map from residual tensors to search-direction seeds.

    ``apply(r, out, work)`` returns ``M r``, into ``out`` if given
    (:func:`kronpcg.tensors.checked_out`), and never modifies ``r``, read by
    :func:`kronpcg.tensors.checked_tensor` for the grid ``shape``.
    ``work`` is scratch the apply may overwrite: it must fit ``r`` as an
    ``out`` does and must not overlap ``out``, checked before the first
    write.  An apply that needs scratch and gets no ``work`` uses the
    instance's own array, allocated by the first such apply and kept, so
    setup allocates no scratch and one instance serves one solve at a
    time.  Either array, while idle, may also hold block scratch.

    ``init_cost`` and ``apply_cost`` are the ops README.md's "Counting
    rules" charge for setup and for one apply; :func:`kronpcg.solver.pcg`
    adds them to ``ops_cum``, and a subclass that sets neither costs 0.
    """

    name = "base"  # the label a run log records
    shape: tuple  # the grid an apply's ``r`` must fit, the operator's
    init_cost = 0
    apply_cost = 0
    _work = None  # own scratch, for applies that arrive without ``work``

    def apply(
        self, r: np.ndarray, out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError

    def _buffers(
        self,
        r: np.ndarray,
        out: Optional[np.ndarray],
        work: Optional[np.ndarray],
        scratch: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``r``, ``out`` and, if the apply needs ``scratch``, its scratch array, all checked."""
        r = checked_tensor(r, self.shape)
        out = checked_out(r, out)
        if work is not None:
            checked_out(r, checked_out(out, work))  # it fits and misses both
        elif scratch:
            if self._work is None:
                self._work = np.empty(r.shape)
            work = self._work
        return r, out, work


class IdentityPreconditioner(Preconditioner):
    """No preconditioning: a copy of ``r``, charged 0 ops (the base's costs)."""

    name = "identity"

    def __init__(self, op):
        self.shape = op.shape

    def apply(
        self, r: np.ndarray, out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None
    ) -> np.ndarray:
        r, out, _ = self._buffers(r, out, work, scratch=False)
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
    ``omega`` lies in ``[1, max/(2*ndim)]``, ``max`` the largest float, so
    the weighted diagonal, at most ``omega*2*ndim``, is finite; slightly
    above 1 it trades speed per sweep for robustness.  ``p`` lies in ``[1,
    N]`` for ``N`` unknowns: PCG on ``N`` unknowns needs no polynomial of
    degree ``N`` or more.  An even ``p`` that gives ``M L``
    an eigenvalue ``<= 0`` on a constant diagonal is refused at setup.
    ``dhat`` and ``dhat_inv`` hold only what varies: they have extent 1
    along each periodic or Dirichlet direction, whose diagonal is constant,
    and broadcast against the grid (shape ``(1, 1)`` on an all-periodic
    grid).  For ``p > 1`` the sweeps need scratch (:class:`Preconditioner`).
    """

    def __init__(self, op, p: int = 1, omega: float = 1.0):
        size = prod(op.shape)
        self.p = checked_integer("jacobi sweep count p", p, 1, size)
        top = FLOAT_MAX / (2 * op.ndim)  # rounded up in 3D, where top*6 would overflow
        top = top if top * 2 * op.ndim <= FLOAT_MAX else nextafter(top, 0.0)
        self.omega = checked_real("jacobi damping omega", omega, 1.0, top)
        self.op, self.shape = op, op.shape
        self.name = f"jacobi(p={self.p}, omega={self.omega:g})"
        diags = [diagonal(n, bc) for n, bc in zip(op.shape, op.bcs)]
        varying = [d[:1] if d[0] == d[-1] == 2.0 else d for d in diags]
        self.dhat = self.omega * reduce(np.add.outer, varying)
        self.dhat_inv = 1.0 / self.dhat
        if self.p % 2 == 0 and self.dhat.size == 1:  # M L: 1 - (1 - s/dhat)^p over the sums s
            s_max = sum(eigenvalues(n, bc)[-1] for n, bc in zip(op.shape, op.bcs))
            lowest = 1.0 - (1.0 - s_max / self.dhat.item()) ** self.p  # even p: least at s_max
            if lowest <= 0.0:
                raise ValueError(
                    f"jacobi p={self.p}, omega={self.omega:g} gives M L the eigenvalue "
                    f"{lowest:.3g} <= 0; use an odd p or omega > 1"
                )
        # Setup is charged as the full weighted diagonal, whatever its stored shape
        # (README); an apply as the first sweep's scaling, then per later sweep one
        # stencil apply and the subtraction and relaxation, 4 ops an entry (also
        # a stand-alone step's charge).
        self.init_cost = (op.ndim + 1) * size
        self.sweep_cost = op.apply_cost + 4 * size
        self.apply_cost = size + (self.p - 1) * self.sweep_cost

    def apply(
        self, r: np.ndarray, out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None
    ) -> np.ndarray:
        r, x, f = self._buffers(r, out, work, scratch=self.p > 1)  # f: the sweep residual
        np.multiply(self.dhat_inv, r, out=x)
        for _ in range(self.p - 1):
            op_mod.apply(self.op, x, out=f)
            np.subtract(r, f, out=f)
            self.relax(x, f)
        return x

    def relax(self, x: np.ndarray, res: np.ndarray) -> None:
        """One relaxation step in place, given the residual ``res = r - L x``:
        ``x <- Dhat^-1 (res + Dhat x)``."""
        x *= self.dhat
        x += res
        x *= self.dhat_inv


class PinvPreconditioner(Preconditioner):
    """Spectral (pseudo)inverse through the per-direction eigenbases.

    Setup keeps each 1D factor's closed-form eigenbasis and eigenvalues,
    nothing grid-sized.  An apply is transform, Hadamard, transform back.
    The Hadamard factor ``ghat``, the entrywise pseudoinverse of the
    eigenvalue sums (0 for sums within ``NULL_MODE_TOL`` of zero: on an
    all-periodic or all-Neumann grid just the constant mode), is rebuilt
    block by block (:func:`_ghat_blocks`) in the idle one of ``out`` and
    the scratch array.
    """

    name = "pinv"

    def __init__(self, op):
        self.shape = op.shape
        self.bases, self.values = _spectral_setup(op)
        # Eigenvalue sums and reciprocals, (ndim-1)+1 ops per entry, charged once;
        # an apply is two full multi-mode transforms and a Hadamard product.
        size = int(np.prod(op.shape))
        self.init_cost = op.ndim * size
        self.apply_cost = 4 * size * sum(op.shape) + size

    def apply(
        self, r: np.ndarray, out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None
    ) -> np.ndarray:
        r, out, work = self._buffers(r, out, work)
        # One GEMM per axis, reading the C-ordered bases' transposes in place.
        # The GEMMs alternate between the scratch array and ``out``: the
        # forward transform ends in the scratch array on 3D grids and in
        # ``out`` on 2D ones, so the back transform starts in the other, idle
        # until then, and ends in ``out``.
        pair = (work, out)
        back = pair[::-1] if r.ndim % 2 else pair
        f = linear_transform([v.T for v in self.bases], r, pair)
        f_rows = f.reshape(len(f), -1)
        for rows, block in _ghat_blocks(self.values, back[0]):
            f_rows[rows] *= block
        linear_transform(self.bases, f, back)
        return out


class LowRankPreconditioner(Preconditioner):
    """Rank-``r`` truncation of the spectral pseudoinverse (2D grids only).

    The reciprocal eigenvalue-sum matrix ``Ghat`` is SVD-truncated to
    ``sum_rho sigma_rho a_rho b_rho^T``; each triplet becomes a pair of
    small congruences ``(Vn diag(sigma_rho a_rho) Vn^T,  Vq diag(b_rho) Vq^T)``
    applied left and right of the residual.  At ``r = min(n, q)`` this
    reproduces the pseudoinverse; small ``r`` can go indefinite, which
    :func:`kronpcg.solver.pcg` reports as a breakdown.  The congruences are
    built and applied by ``einsum``, which calls no BLAS, so no digit
    depends on the BLAS thread count.  Each left product goes into the
    scratch array (:class:`Preconditioner`), each term after the first into
    a second array the instance allocates on its first apply at ``r > 1``
    and keeps.

    A 3D analogue would need a tensor decomposition in place of the SVD
    and is deliberately not provided.
    """

    _term = None  # the rank sum's second scratch array, kept from the first apply

    def __init__(self, op, r: int):
        if op.ndim != 2:
            raise ValueError("low-rank preconditioner supports 2D grids only")
        n, q = op.shape
        self.rank = checked_integer("rank r", r, 1, min(n, q))
        self.name = f"lowrank(r={self.rank})"
        self.shape = op.shape
        (vn, vq), values = _spectral_setup(op)
        a, sigma, bt = np.linalg.svd(hadamard_pinv(np.add.outer(*values)))
        terms = range(self.rank)
        self.left = [np.einsum("ij,kj->ik", vn * (sigma[i] * a[:, i]), vn) for i in terms]
        self.right = [np.einsum("ij,kj->ik", vq * bt[i, :], vq) for i in terms]
        size = n * q
        self.init_cost = op.ndim * size
        self.apply_cost = self.rank * (2 * size * (n + q) + size)  # per term: two mode products, a sum

    def apply(
        self, r: np.ndarray, out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None
    ) -> np.ndarray:
        r, z, work = self._buffers(r, out, work)
        if self.rank > 1 and self._term is None:
            self._term = np.empty(r.shape)
        for i, (ml, mr) in enumerate(zip(self.left, self.right)):
            left = np.einsum("ij,jk->ik", ml, r, out=work)
            term = np.einsum("ij,kj->ik", left, mr, out=self._term if i else z)
            if i:  # the first congruence is written into z, the others added
                z += term
        return z


# Family -> (constructor taking the operator, {spec key: its type}); a spec
# key is the constructor's keyword.
_FAMILIES = {
    "none": (IdentityPreconditioner, {}),
    "pinv": (PinvPreconditioner, {}),
    "jacobi": (JacobiPreconditioner, {"p": int, "omega": float}),
    "lowrank": (LowRankPreconditioner, {"r": int}),
}


def make_preconditioner(op, spec: str) -> Preconditioner:
    """Build a preconditioner from its command-line spelling.

    Grammar: ``none`` | ``pinv`` | ``jacobi:p=3,omega=1.3`` | ``lowrank:r=3``
    (parameters optional for jacobi, required ``r`` for lowrank); a
    parameter may be given once.
    """
    if not isinstance(spec, str):
        raise ValueError(f"a preconditioner spec is a string, got {type(spec).__name__}")
    head, _, tail = spec.strip().partition(":")
    head = head.strip().lower()
    if head not in _FAMILIES:
        raise ValueError(f"unknown preconditioner {head!r}")
    build, params = _FAMILIES[head]
    kwargs: dict = {}
    try:
        for item in tail.split(",") if tail else []:
            key, sep, value = (part.strip() for part in item.partition("="))
            if not sep or key not in params:
                takes = ", ".join(params) or "no parameters"
                raise ValueError(f"bad parameter {item!r}; {head} takes {takes}")
            if key in kwargs:
                raise ValueError(f"parameter {key!r} is given twice")
            kwargs[key] = params[key](value)
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
    residual is ``h`` itself).  If the residual blows past ``1e12`` times
    its initial value the run is flagged as diverged and stops early; that
    is a reportable outcome, not an error.  ``h`` must pass
    :func:`kronpcg.operators.checked_rhs`.
    """
    iters = checked_integer("iters", iters, 0)
    h, res0 = op_mod.checked_rhs(op, h)
    jacobi = JacobiPreconditioner(op, p=1, omega=omega)
    x = np.zeros(op.shape)
    r = h.copy()  # the residual h - L*0
    res = StationaryResult(residuals=[res0], ops_cum=[jacobi.init_cost])
    for _ in range(iters):
        jacobi.relax(x, r)
        np.subtract(h, op_mod.apply(op, x, out=r), out=r)
        res_norm = frobenius_norm(r)
        res.residuals.append(res_norm)
        res.ops_cum.append(res.ops_cum[-1] + jacobi.sweep_cost)
        if res0 > 0.0 and res_norm > 1e12 * res0:
            res.diverged = True
            break
    return res
