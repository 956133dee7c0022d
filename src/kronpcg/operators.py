"""Kronecker-sum Poisson operators on 2D/3D rectangular grids.

The discrete minus-Laplacian acts on a grid field ``U`` one direction at a
time: each 1D factor acts along its own tensor mode and the results are
summed.  In matrix form that is ``(I x L1) + (L2 x I)`` in 2D and the
three-term analogue in 3D, but the operator is never assembled:
:func:`apply` stays with the three-point stencils.  A factor is fixed by
its extent and boundary condition, so an operator is just the grid shape
and one condition per direction.

Also here: the null-space utilities (mean-centering, the component along
the constant tensor and the centering rule, :func:`null_share`) and the
right-hand-side updates that fold inhomogeneous boundary values into ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

import numpy as np

from .laplace1d import (
    BoundaryCondition,
    add_leading_offdiagonal,
    add_offdiagonal,
    face_kinds,
    is_singular_1d,
)
from .tensors import Shape, checked_integer, checked_out, checked_real, checked_tensor
from .tensors import frobenius_norm

__all__ = [
    "PoissonOperator",
    "poisson_operator",
    "apply",
    "checked_rhs",
    "is_singular",
    "center",
    "nullspace_component",
    "null_share",
    "NULL_SHARE_TOL",
    "apply_bc_updates",
]

_SLAB_ENTRIES = 3 << 15  # per slab in apply (768 KiB): x's and out's fit a 2 MiB L2 together

NULL_SHARE_TOL = 1e-10  # largest null share of a centered right-hand side (null_share)


@dataclass(frozen=True)
class PoissonOperator:
    """A 2D/3D minus-Laplacian: the grid shape and one boundary condition per direction."""

    shape: Shape
    bcs: tuple[BoundaryCondition, ...]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def apply_cost(self) -> int:
        """Ops of one :func:`apply`: 6 an entry a direction (README's "Counting rules")."""
        return 6 * prod(self.shape) * self.ndim


def poisson_operator(
    dims: Sequence[int], bcs: Sequence[BoundaryCondition]
) -> PoissonOperator:
    """Build the grid operator for ``dims`` (2 or 3 integer directions, each >= 3)."""
    if len(dims) not in (2, 3):
        raise ValueError(f"grid must be 2D or 3D, got {len(dims)} dims")
    if len(bcs) != len(dims):
        raise ValueError("need one boundary condition per direction")
    shape = tuple(checked_integer("a grid extent", n, 3) for n in dims)
    return PoissonOperator(shape, tuple(BoundaryCondition(bc) for bc in bcs))


def apply(op: PoissonOperator, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply the operator with the Kronecker-sum stencil, into ``out`` if given
    (:func:`kronpcg.tensors.checked_out`).

    The grid goes in slabs of about ``_SLAB_ENTRIES`` entries (at least one
    leading row), each in cache through all its passes: the diagonal
    ``2*ndim*x``, then each direction's neighbours and corner terms,
    subtracted in place (:mod:`kronpcg.laplace1d`); axis 0 reads the rows
    of ``x`` beside the slab.  Each entry gets a whole-grid pass's
    operations in their order, so the result is bitwise the same.
    """
    x = checked_tensor(x, op.shape)
    out = checked_out(x, out)
    n = len(x)
    rows = max(1, _SLAB_ENTRIES // (x.size // n))
    for lo in range(0, n, rows):
        slab = slice(lo, min(lo + rows, n))
        np.multiply(x[slab], 2.0 * op.ndim, out=out[slab])
        add_leading_offdiagonal(op.bcs[0], x, out, slab)
        for axis, bc in enumerate(op.bcs[1:], start=1):
            add_offdiagonal(bc, x[slab], out[slab], axis)
    return out


def checked_rhs(op: PoissonOperator, h: np.ndarray) -> tuple[np.ndarray, float]:
    """``h`` as :func:`kronpcg.tensors.checked_tensor` returns it for the grid,
    and its norm; a non-finite ``|h|`` raises ``ValueError``."""
    h = checked_tensor(h, op.shape)
    h_norm = frobenius_norm(h)
    if not np.isfinite(h_norm):
        raise ValueError(f"right-hand side is not finite (|h| = {h_norm})")
    return h, h_norm


def is_singular(op: PoissonOperator) -> bool:
    """True iff every direction is singular (then the constants are the null space)."""
    return all(is_singular_1d(bc) for bc in op.bcs)


def center(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Remove the mean, into ``out`` if given: ``x`` itself, or as ``checked_out`` asks."""
    x = checked_tensor(x)
    out = out if out is x else checked_out(x, out)
    return np.subtract(x, x.mean(), out=out)


def _null_norm(total: float, size: int) -> float:
    """Size of the component along the normalized constant tensor of an
    array of ``size`` entries that sum to ``total``."""
    return abs(total) / float(np.sqrt(size))


def nullspace_component(x: np.ndarray) -> float:
    """Size of the component along the normalized constant tensor."""
    x = checked_tensor(x)
    return _null_norm(float(x.sum()), x.size)


def null_share(op: PoissonOperator, h: np.ndarray, h_norm: float) -> tuple[float, Optional[float]]:
    """The centering rule: ``h``'s sum and, if ``h`` is not centered, its null share.

    On a singular grid a right-hand side counts as centered when its null
    share ``|sum(h)| / sqrt(N) / |h|`` is at most :data:`NULL_SHARE_TOL`.
    ``h`` and ``h_norm`` are what :func:`checked_rhs` returns, so the rule
    reads the C-ordered float array that :func:`kronpcg.solver.pcg` solves:
    ``pcg`` refuses a side the rule calls uncentered, and ``kronpcg solve``
    centers exactly those.  A centered side gives ``None`` for its share,
    and a nonsingular grid, which needs no centering, ``(0.0, None)``.
    """
    h_sum = float(h.sum()) if is_singular(op) else 0.0
    share = _null_norm(h_sum, h.size) / h_norm if h_norm > 0.0 else 0.0
    return h_sum, share if share > NULL_SHARE_TOL else None


def apply_bc_updates(
    h: np.ndarray,
    bcs: Sequence[BoundaryCondition],
    faces: Sequence[tuple[Optional[float], Optional[float]]],
) -> np.ndarray:
    """Fold inhomogeneous boundary values into the right-hand side.

    ``faces[axis]`` is the ``(begin, end)`` pair of face values of one
    direction, ``None`` for no update; what a value means is set by the
    direction's condition (:func:`kronpcg.laplace1d.face_kinds`), and a
    periodic direction has no faces.  Each value is added, with a plus
    sign, to every entry of the boundary slice perpendicular to its
    direction (the first slice for a begin face, the last for an end face).
    A value is any finite real (:func:`kronpcg.tensors.checked_real`).
    """
    h = checked_tensor(h).copy()
    if len(faces) != h.ndim or len(bcs) != h.ndim:
        raise ValueError("face values and conditions must cover every direction")
    for axis, (bc, (begin, end)) in enumerate(zip(bcs, faces)):
        for pos, value, kind in zip(("begin", "end"), (begin, end), face_kinds(bc)):
            if value is None:
                continue
            if kind is None:
                raise ValueError(
                    f"direction {axis} ({BoundaryCondition(bc).value}) accepts no "
                    f"{pos} face value"
                )
            index = [slice(None)] * h.ndim
            index[axis] = 0 if pos == "begin" else h.shape[axis] - 1
            h[tuple(index)] += checked_real(f"direction {axis} {pos} face value", value)
    return h
