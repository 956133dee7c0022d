"""One-dimensional finite-difference minus-Laplacians and their spectra.

Every operator here is the ``n x n`` tridiagonal matrix with 2 on the
diagonal and -1 on the off-diagonals, except for the four corner entries,
which encode the boundary treatment:

===================  =====  =====  =====
boundary handling    (1,1)  (n,n)  corner
===================  =====  =====  =====
periodic               2      2     -1
dirichlet              2      2      0
neumann                1      1      0
dirichlet-neumann      2      1      0
neumann-dirichlet      1      2      0
===================  =====  =====  =====

All five are symmetric positive semidefinite with spectrum inside [0, 4];
the periodic and pure-Neumann variants are singular with the constant
vector spanning the null space, the other three are positive definite.

Closed-form eigendecompositions exist for all five variants
(:func:`analytic_spectrum`); they are the package's only source of
eigenpairs.  The test suite checks them against a dense symmetric
eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod

import numpy as np

__all__ = [
    "BoundaryCondition",
    "CORNER_TRIPLES",
    "Laplacian1D",
    "build",
    "is_singular_1d",
    "SpectralDecomposition",
    "analytic_spectrum",
]


class BoundaryCondition(Enum):
    """Boundary handling of a 1D factor; values double as CLI spellings."""

    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    DIRICHLET_NEUMANN = "dirichlet-neumann"
    NEUMANN_DIRICHLET = "neumann-dirichlet"


# (first corner, last corner, antidiagonal corner) per variant.
CORNER_TRIPLES: dict[BoundaryCondition, tuple[float, float, float]] = {
    BoundaryCondition.PERIODIC: (2.0, 2.0, -1.0),
    BoundaryCondition.DIRICHLET: (2.0, 2.0, 0.0),
    BoundaryCondition.NEUMANN: (1.0, 1.0, 0.0),
    BoundaryCondition.DIRICHLET_NEUMANN: (2.0, 1.0, 0.0),
    BoundaryCondition.NEUMANN_DIRICHLET: (1.0, 2.0, 0.0),
}


def is_singular_1d(bc: BoundaryCondition) -> bool:
    """True iff the 1D operator with this boundary handling is singular."""
    return bc in (BoundaryCondition.PERIODIC, BoundaryCondition.NEUMANN)


@dataclass(frozen=True)
class Laplacian1D:
    """A 1D minus-Laplacian: size, boundary kind, and the corner triple."""

    n: int
    bc: BoundaryCondition
    alpha: float
    beta: float
    gamma: float

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a vector: ``[alpha, 2, ..., 2, beta]``."""
        d = np.full(self.n, 2.0)
        d[0] = self.alpha
        d[-1] = self.beta
        return d


def build(n: int, bc: BoundaryCondition) -> Laplacian1D:
    """Construct the 1D operator for a grid direction of ``n >= 3`` points."""
    if n < 3:
        raise ValueError(f"1D operator needs n >= 3, got n={n}")
    bc = BoundaryCondition(bc)
    alpha, beta, gamma = CORNER_TRIPLES[bc]
    return Laplacian1D(n=n, bc=bc, alpha=alpha, beta=beta, gamma=gamma)


def add_offdiagonal(lap: Laplacian1D, x: np.ndarray, out: np.ndarray, axis: int) -> None:
    """Add ``(lap - 2I) x`` along ``axis`` into ``out``, in place.

    With the ``2x`` diagonal already in ``out`` this completes the stencil.
    ``x`` and ``out`` must be C-contiguous, of one shape, and apart in
    memory.  Neighbours along ``axis`` sit ``step`` entries apart in the
    flat arrays, so each neighbour term is one long shifted-slice
    subtraction.  The shift also reaches across from each block's first
    (last) face into the block before (after); those faces are saved
    beforehand and written back with their corner terms.  Only face-sized
    copies are made.
    """
    if x.shape != out.shape or not (x.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("stencil input and output must be C-contiguous, of one shape")
    if np.may_share_memory(x, out):
        raise ValueError("stencil output must not overlap its input")

    def at(index):
        key = [slice(None)] * x.ndim
        key[axis] = index
        return tuple(key)

    def put_back(face, saved, corners):
        for coef, col in corners:
            if coef == -1.0:
                saved -= x[at(col)]
            elif coef != 0.0:
                saved += coef * x[at(col)]
        out[at(face)] = saved

    step = prod(x.shape[axis + 1 :])
    xf, of = x.reshape(-1), out.reshape(-1)
    first = out[at(0)].copy()
    of[step:] -= xf[:-step]
    put_back(0, first, ((lap.alpha - 2.0, 0), (lap.gamma, -1)))
    last = out[at(-1)].copy()
    of[:-step] -= xf[step:]
    put_back(-1, last, ((lap.beta - 2.0, -1), (lap.gamma, 0)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def analytic_spectrum(n: int, bc: BoundaryCondition) -> SpectralDecomposition:
    """Closed-form eigendecomposition of the 1D operator.

    Eigenvalues come out ascending with eigenvector columns permuted
    consistently; the doubled periodic eigenvalues keep their cosine/sine
    vectors, cleaned by one Gram-Schmidt pass per degenerate pair.
    """
    if n < 3:
        raise ValueError(f"1D operator needs n >= 3, got n={n}")
    bc = BoundaryCondition(bc)
    j = np.arange(1, n + 1, dtype=float)

    if bc is BoundaryCondition.DIRICHLET:
        k = np.arange(1, n + 1, dtype=float)
        values = 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))
        vectors = np.sin(np.outer(j, k) * np.pi / (n + 1))
    elif bc is BoundaryCondition.NEUMANN:
        k = np.arange(1, n + 1, dtype=float)
        values = 2.0 - 2.0 * np.cos((k - 1.0) * np.pi / n)
        vectors = np.cos(np.outer(j - 0.5, k - 1.0) * np.pi / n)
    elif bc is BoundaryCondition.DIRICHLET_NEUMANN:
        k = np.arange(1, n + 1, dtype=float)
        theta = (2.0 * k - 1.0) * np.pi / (2 * n + 1)
        values = 2.0 - 2.0 * np.cos(theta)
        vectors = np.sin(np.outer(j, theta) - k * np.pi)
    elif bc is BoundaryCondition.NEUMANN_DIRICHLET:
        k = np.arange(1, n + 1, dtype=float)
        theta = (2.0 * k - 1.0) * np.pi / (2 * n + 1)
        values = 2.0 - 2.0 * np.cos(theta)
        vectors = np.cos(np.outer(j - 0.5, theta))
    elif bc is BoundaryCondition.PERIODIC:
        cols = [np.ones(n)]
        vals = [0.0]
        for k in range(1, (n - 1) // 2 + 1):
            lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)
            cols.append(np.cos(2.0 * np.pi * k * j / n))
            cols.append(np.sin(2.0 * np.pi * k * j / n))
            vals.extend([lam, lam])
        if n % 2 == 0:
            # The (4, alternating) pair exists only on even grids.
            cols.append((-1.0) ** j)
            vals.append(4.0)
        values = np.array(vals)
        vectors = np.column_stack(cols)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown boundary condition {bc}")

    vectors = vectors / np.linalg.norm(vectors, axis=0)
    if bc is BoundaryCondition.PERIODIC:
        # One modified Gram-Schmidt step inside each doubled eigenvalue.
        for k in range(1, (n - 1) // 2 + 1):
            c = vectors[:, 2 * k - 1]
            s = vectors[:, 2 * k]
            s = s - np.dot(c, s) * c
            vectors[:, 2 * k] = s / np.linalg.norm(s)

    order = np.argsort(values, kind="stable")
    # C order, as eigh returns: the gather gives F order, measured slower in pinv.
    vectors = np.ascontiguousarray(vectors[:, order])
    return SpectralDecomposition(values=values[order], vectors=vectors)
