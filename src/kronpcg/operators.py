"""Kronecker-sum Poisson operators on 2D/3D rectangular grids.

The discrete minus-Laplacian acts on a grid field ``U`` one direction at a
time: each 1D factor acts along its own tensor mode and the results are
summed.  In matrix form that is ``(I x L1) + (L2 x I)`` in 2D and the
three-term analogue in 3D, but the operator is never assembled:
:func:`apply` stays with the three-point stencils, summed in place in one
output array.

Also here: the null-space utilities (mean-centering and the size of the
component along the constant tensor) and the right-hand-side updates that
fold inhomogeneous boundary values into ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .laplace1d import (
    BoundaryCondition,
    Laplacian1D,
    SpectralDecomposition,
    add_offdiagonal,
    analytic_spectrum,
    build,
    is_singular_1d,
)
from .counting import OpCounter
from .tensors import Shape

__all__ = [
    "PoissonOperator",
    "poisson_operator",
    "apply",
    "spectra",
    "spectrum_sums",
    "is_singular",
    "center",
    "nullspace_component",
    "FaceValue",
    "BoundaryData",
    "apply_bc_updates",
]


@dataclass(frozen=True)
class PoissonOperator:
    """A 2D/3D minus-Laplacian as a tuple of 1D factors, one per direction."""

    factors: tuple[Laplacian1D, ...]

    @property
    def ndim(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> Shape:
        return tuple(f.n for f in self.factors)

    @property
    def bcs(self) -> tuple[BoundaryCondition, ...]:
        return tuple(f.bc for f in self.factors)


def poisson_operator(
    dims: Sequence[int], bcs: Sequence[BoundaryCondition]
) -> PoissonOperator:
    """Build the grid operator for ``dims`` (2 or 3 directions, each >= 3)."""
    if len(dims) not in (2, 3):
        raise ValueError(f"grid must be 2D or 3D, got {len(dims)} dims")
    if len(bcs) != len(dims):
        raise ValueError("need one boundary condition per direction")
    return PoissonOperator(tuple(build(n, bc) for n, bc in zip(dims, bcs)))


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
    for axis, f in enumerate(op.factors):
        add_offdiagonal(f, x, out, axis)
    if ops is not None:
        ops.add(6 * x.size * op.ndim)
    return out


def spectra(op: PoissonOperator) -> list[SpectralDecomposition]:
    """Closed-form eigendecompositions of the 1D factors, one per direction."""
    return [analytic_spectrum(f.n, f.bc) for f in op.factors]


def spectrum_sums(
    op: PoissonOperator,
    decomps: Optional[Iterable[SpectralDecomposition]] = None,
) -> np.ndarray:
    """Tensor of all sums of per-direction eigenvalues (operator spectrum).

    Entry ``(i, j[, k])`` is the eigenvalue attached to the product of the
    ``i``-th, ``j``-th (and ``k``-th) per-direction eigenvectors, each list
    taken in ascending order.  ``decomps`` defaults to :func:`spectra`.
    """
    if decomps is None:
        decomps = spectra(op)
    value_lists = [np.asarray(d.values, dtype=float) for d in decomps]
    if len(value_lists) != op.ndim:
        raise ValueError("need one decomposition per direction")
    out = value_lists[0]
    for vals in value_lists[1:]:
        out = np.add.outer(out, vals)
    return out


def is_singular(op: PoissonOperator) -> bool:
    """True iff every direction is singular (then the constants are the null space)."""
    return all(is_singular_1d(f.bc) for f in op.factors)


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
    boundary condition (periodic directions accept none).
    """

    faces: tuple[tuple[Optional[FaceValue], Optional[FaceValue]], ...]

    @classmethod
    def none(cls, ndim: int) -> "BoundaryData":
        return cls(tuple((None, None) for _ in range(ndim)))


# Expected (begin, end) face kinds per boundary condition; None = face closed.
_FACE_KINDS: dict[BoundaryCondition, tuple[Optional[str], Optional[str]]] = {
    BoundaryCondition.PERIODIC: (None, None),
    BoundaryCondition.DIRICHLET: ("potential", "potential"),
    BoundaryCondition.NEUMANN: ("field", "field"),
    BoundaryCondition.DIRICHLET_NEUMANN: ("potential", "field"),
    BoundaryCondition.NEUMANN_DIRICHLET: ("field", "potential"),
}


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
        allowed = _FACE_KINDS[BoundaryCondition(bc)]
        for pos, face in (("begin", begin), ("end", end)):
            if face is None:
                continue
            expected = allowed[0] if pos == "begin" else allowed[1]
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
