"""Kronecker-sum Poisson operators on 2D/3D rectangular grids.

The discrete minus-Laplacian acts on a grid field ``U`` one direction at a
time: each 1D factor acts along its own tensor mode and the results are
summed.  In matrix form that is ``(I x L1) + (L2 x I)`` in 2D and the
three-term analogue in 3D, but the operator is never assembled:
:func:`apply` stays with the three-point stencils, summed in place in one
output array, a slab of leading rows at a time.  A factor is fixed by its
extent and boundary condition, so an operator is just the grid shape and
one condition per direction.

Also here: the null-space utilities (mean-centering, the component along
the constant tensor and the rule for a centered right-hand side) and the
right-hand-side updates that fold inhomogeneous boundary values into ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .laplace1d import (
    BoundaryCondition,
    add_leading_offdiagonal,
    add_offdiagonal,
    face_kinds,
    is_singular_1d,
)
from .counting import OpCounter
from .tensors import Shape, checked_integer, checked_out, frobenius_norm

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
    "FaceValue",
    "BoundaryData",
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


def poisson_operator(
    dims: Sequence[int], bcs: Sequence[BoundaryCondition]
) -> PoissonOperator:
    """Build the grid operator for ``dims`` (2 or 3 integer directions, each >= 3)."""
    if len(dims) not in (2, 3):
        raise ValueError(f"grid must be 2D or 3D, got {len(dims)} dims")
    if len(bcs) != len(dims):
        raise ValueError("need one boundary condition per direction")
    shape = tuple(checked_integer("a grid extent", n) for n in dims)
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

    The grid goes in slabs of about ``_SLAB_ENTRIES`` entries (at least one
    leading row), each in cache through all its passes: the diagonal
    ``2*ndim*x``, then each direction's neighbours and corner terms,
    subtracted in place (:mod:`kronpcg.laplace1d`); axis 0 reads the rows
    of ``x`` beside the slab.  Each entry gets a whole-grid pass's
    operations in their order, so the result is bitwise the same.  ``out``
    must fit ``x`` (:func:`kronpcg.tensors.checked_out`); the result is
    ``out`` itself, or a new array when it is omitted.

    Counts 6 elementary operations per entry per direction (3 multiplies
    and 3 adds), i.e. 12nq in 2D and 18nqt in 3D.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != op.shape:
        raise ValueError(f"tensor shape {x.shape} does not match grid {op.shape}")
    out = checked_out(x, out)
    n = len(x)
    rows = max(1, _SLAB_ENTRIES // (x.size // n))
    for lo in range(0, n, rows):
        slab = slice(lo, min(lo + rows, n))
        np.multiply(x[slab], 2.0 * op.ndim, out=out[slab])
        add_leading_offdiagonal(op.bcs[0], x, out, slab)
        for axis, bc in enumerate(op.bcs[1:], start=1):
            add_offdiagonal(bc, x[slab], out[slab], axis)
    if ops is not None:
        ops.add(6 * x.size * op.ndim)
    return out


def checked_rhs(op: PoissonOperator, h: np.ndarray) -> tuple[np.ndarray, float]:
    """``h`` as a C-contiguous float array and its norm, once it is real, fits and is finite.

    Raises ``ValueError`` on a complex or other non-real ``h``, which a
    float cast would truncate, on a shape other than the grid's, or on a
    non-finite ``|h|``.
    """
    h = np.asarray(h)
    if h.dtype.kind not in "biuf":
        raise ValueError(f"right-hand side must be real, got dtype {h.dtype}")
    h = np.ascontiguousarray(h, dtype=float)
    if h.shape != op.shape:
        raise ValueError(f"right-hand side shape {h.shape} does not match grid {op.shape}")
    h_norm = frobenius_norm(h)
    if not np.isfinite(h_norm):
        raise ValueError(f"right-hand side is not finite (|h| = {h_norm})")
    return h, h_norm


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


def null_share(op: PoissonOperator, h: np.ndarray, h_norm: float) -> tuple[float, Optional[float]]:
    """The centering rule, on what :func:`checked_rhs` returns: ``h``'s sum and,
    above :data:`NULL_SHARE_TOL`, its null share ``nullspace_component(h) / |h|``,
    else ``None``.  A nonsingular grid, which needs no centering, gives ``(0.0, None)``."""
    h_sum = float(h.sum()) if is_singular(op) else 0.0
    share = abs(h_sum) / float(np.sqrt(h.size)) / h_norm if h_norm > 0.0 else 0.0
    return h_sum, share if share > NULL_SHARE_TOL else None


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
