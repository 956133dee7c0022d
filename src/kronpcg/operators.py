"""Kronecker-sum Poisson operators on 2D/3D rectangular grids.

The discrete minus-Laplacian acts on a grid field ``U`` one direction at a
time: each 1D factor acts along its own tensor mode and the results are
summed.  In matrix form that is ``(I x L1) + (L2 x I)`` in 2D and the
three-term analogue in 3D, but the operator is never assembled:
:func:`apply` stays with the three-point stencils, summed in place in one
output array.  A factor is fixed by its extent and boundary condition, so
an operator is just the grid shape and one condition per direction.

Also here: the null-space utilities (mean-centering and the size of the
component along the constant tensor) and the right-hand-side updates that
fold inhomogeneous boundary values into ``H``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .laplace1d import (
    BoundaryCondition,
    SpectralDecomposition,
    add_offdiagonal,
    analytic_spectrum,
    eigenvalues,
    face_kinds,
    is_singular_1d,
)
from .counting import OpCounter
from .tensors import Shape, frobenius_norm, outer_sum

__all__ = [
    "PoissonOperator",
    "poisson_operator",
    "apply",
    "checked_rhs",
    "spectra",
    "spectrum_sums",
    "is_singular",
    "center",
    "nullspace_component",
    "NULL_SHARE_TOL",
    "FaceValue",
    "BoundaryData",
    "apply_bc_updates",
]

# Largest null share ``nullspace_component(h) / |h|`` of a right-hand side on
# a singular grid taken as centered: above it the CLI centers, ``pcg`` refuses.
NULL_SHARE_TOL = 1e-10


@dataclass(frozen=True)
class PoissonOperator:
    """A 2D/3D minus-Laplacian: the grid shape and one boundary condition per direction."""

    shape: Shape
    bcs: tuple[BoundaryCondition, ...]

    @property
    def ndim(self) -> int:
        return len(self.shape)


def poisson_operator(
    dims: Sequence[int], bcs: Sequence[BoundaryCondition]
) -> PoissonOperator:
    """Build the grid operator for ``dims`` (2 or 3 integer directions, each >= 3)."""
    if len(dims) not in (2, 3):
        raise ValueError(f"grid must be 2D or 3D, got {len(dims)} dims")
    if len(bcs) != len(dims):
        raise ValueError("need one boundary condition per direction")
    try:
        shape = tuple(operator.index(n) for n in dims)
    except TypeError:
        raise ValueError(f"grid extents must be integers, got {tuple(dims)}") from None
    if min(shape) < 3:
        raise ValueError(f"every direction needs n >= 3, got {shape}")
    return PoissonOperator(shape, tuple(BoundaryCondition(bc) for bc in bcs))


def apply(
    op: PoissonOperator,
    x: np.ndarray,
    ops: Optional[OpCounter] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply the operator with the Kronecker-sum stencil, into ``out`` if given.

    The diagonal ``2*ndim*x`` is written once; each direction then
    subtracts its two shifted neighbours and adds its corner terms in
    place (:func:`kronpcg.laplace1d.add_offdiagonal`), so no temporary of
    the grid's size is made.  ``out`` must be C-contiguous and must not
    overlap ``x``; the result is ``out`` itself, or a new array when it is
    omitted.

    Counts 6 elementary operations per entry per direction (3 multiplies
    and 3 adds), i.e. 12nq in 2D and 18nqt in 3D.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != op.shape:
        raise ValueError(f"tensor shape {x.shape} does not match grid {op.shape}")
    out = np.multiply(x, 2.0 * op.ndim, out=out)
    for axis, bc in enumerate(op.bcs):
        add_offdiagonal(bc, x, out, axis)
    if ops is not None:
        ops.add(6 * x.size * op.ndim)
    return out


def checked_rhs(op: PoissonOperator, h: np.ndarray) -> tuple[np.ndarray, float]:
    """``h`` as a C-contiguous float array and its norm, once it fits the grid and is finite.

    Raises ``ValueError`` on a shape other than the grid's or a non-finite ``|h|``.
    """
    h = np.ascontiguousarray(h, dtype=float)
    if h.shape != op.shape:
        raise ValueError(f"right-hand side shape {h.shape} does not match grid {op.shape}")
    h_norm = frobenius_norm(h)
    if not np.isfinite(h_norm):
        raise ValueError(f"right-hand side is not finite (|h| = {h_norm})")
    return h, h_norm


def spectra(op: PoissonOperator) -> list[SpectralDecomposition]:
    """Closed-form eigendecompositions of the 1D factors, one per direction."""
    return [analytic_spectrum(n, bc) for n, bc in zip(op.shape, op.bcs)]


def spectrum_sums(op: PoissonOperator) -> np.ndarray:
    """Tensor of all sums of per-direction eigenvalues (operator spectrum).

    Entry ``(i, j[, k])`` is the eigenvalue attached to the product of the
    ``i``-th, ``j``-th (and ``k``-th) per-direction eigenvectors, each list
    taken in ascending order.  No eigenbasis is built.
    """
    return outer_sum([eigenvalues(n, bc) for n, bc in zip(op.shape, op.bcs)])


def is_singular(op: PoissonOperator) -> bool:
    """True iff every direction is singular (then the constants are the null space)."""
    return all(is_singular_1d(bc) for bc in op.bcs)


def center(
    x: np.ndarray, ops: Optional[OpCounter] = None, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Remove the mean: project out the constant-tensor component.

    Writes into ``out`` when given (``out=x`` centers in place).  Counts 3
    operations per entry (sum, then broadcast subtract, per the package's
    accounting rules).
    """
    x = np.asarray(x, dtype=float)
    if ops is not None:
        ops.add(3 * x.size)
    return np.subtract(x, x.mean(), out=out)


def nullspace_component(x: np.ndarray) -> float:
    """Size of the component along the normalized constant tensor."""
    x = np.asarray(x, dtype=float)
    return abs(float(x.sum())) / float(np.sqrt(x.size))


@dataclass(frozen=True)
class FaceValue:
    """One boundary face datum: a prescribed potential or a prescribed field."""

    kind: str  # "potential" or "field"
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("potential", "field"):
            raise ValueError(f"face kind must be 'potential' or 'field', got {self.kind!r}")


@dataclass(frozen=True)
class BoundaryData:
    """Optional (begin, end) face values per direction.

    ``faces[axis] = (begin, end)``; a ``None`` entry means no update on
    that face.  Which kind a face accepts is dictated by the direction's
    boundary condition (:func:`kronpcg.laplace1d.face_kinds`).
    """

    faces: tuple[tuple[Optional[FaceValue], Optional[FaceValue]], ...]

    @classmethod
    def none(cls, ndim: int) -> "BoundaryData":
        return cls(tuple((None, None) for _ in range(ndim)))


def apply_bc_updates(
    h: np.ndarray, bcs: Sequence[BoundaryCondition], data: BoundaryData
) -> np.ndarray:
    """Fold inhomogeneous boundary values into the right-hand side.

    Each supplied face value is added, with a plus sign, to every entry of
    the boundary slice perpendicular to its direction (the first slice for
    a begin face, the last for an end face).  Face kinds must match the
    direction's boundary condition.
    """
    h = np.asarray(h, dtype=float).copy()
    if len(data.faces) != h.ndim or len(bcs) != h.ndim:
        raise ValueError("boundary data and conditions must cover every direction")
    for axis, (bc, (begin, end)) in enumerate(zip(bcs, data.faces)):
        for pos, face, expected in zip(("begin", "end"), (begin, end), face_kinds(bc)):
            if face is None:
                continue
            if expected is None:
                raise ValueError(
                    f"direction {axis} ({BoundaryCondition(bc).value}) accepts no "
                    f"{pos} face value"
                )
            if face.kind != expected:
                raise ValueError(
                    f"direction {axis} ({BoundaryCondition(bc).value}) needs a "
                    f"{expected!r} value on the {pos} face, got {face.kind!r}"
                )
            index = [slice(None)] * h.ndim
            index[axis] = 0 if pos == "begin" else h.shape[axis] - 1
            h[tuple(index)] += face.value
    return h
