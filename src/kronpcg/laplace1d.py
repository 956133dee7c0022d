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

Node placement and face values: on a line of step ``h`` the end node sits
one step from a Dirichlet face and half a step from a Neumann face.  The
operator has unit spacing (``h**2`` times the minus-Laplacian), and a face
value, added to its end row, is the potential on a Dirichlet face and ``h``
times the potential's outward derivative on a Neumann face (``-h*E.n`` for
``E = -grad(phi)``).  Under this reading the scheme is second order (manufactured-solution tests).

A 1D operator is just its size ``n`` and its boundary condition, and
``CORNER_TRIPLES`` is the one table of what each condition means: the
stencil, the diagonal, the singularity test (both end rows sum to zero)
and the face values an end accepts (:func:`face_kinds`) all read it.

One closed-form rule gives the eigenpairs of all five variants
(:func:`analytic_spectrum`), the package's only source of eigenpairs.
A corner of 2 is a Dirichlet end, a corner of 1 a Neumann end.  With
``d`` Dirichlet ends the angles are ``theta_k = pi*(k + d/2)/(n + d/2)``,
``k = 0..n-1``, and on a periodic line ``theta_k = 2*pi*k/n``.  The
eigenvalues are ``2 - 2*cos(theta_k)``, and the eigenvectors are the
sampled cosines ``cos(theta_k*(j - s) - phi)``, ``j = 1..n``, where the
first end sets the sampling shift and phase: ``s = 1/2, phi = 0`` after
a Neumann end, ``s = 0, phi = pi/2`` (a sine) after a Dirichlet end.  A
periodic line takes ``phi = pi/4``, the Hartley basis ``cos + sin``, in
which the equal-eigenvalue columns ``k`` and ``n - k`` are orthogonal.
Each angle is ``pi*a/D`` with integer ``a``, ``D``: the basis is gathered
from one cosine table a fixed block of rows at a time, each row's indices
``4*a`` past the last's, and its column norms summed row after row.  :func:`eigenvalues`
gives the spectrum alone.  Tests check the rule against a dense eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod
from typing import Optional

import numpy as np

from .tensors import checked_out

__all__ = [
    "BoundaryCondition",
    "CORNER_TRIPLES",
    "is_singular_1d",
    "face_kinds",
    "diagonal",
    "eigenvalues",
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

_ROW_BLOCK = 64  # basis rows gathered per step of analytic_spectrum


def is_singular_1d(bc: BoundaryCondition) -> bool:
    """True iff the constants are in the null space: both end rows sum to zero."""
    first, last, corner = CORNER_TRIPLES[BoundaryCondition(bc)]
    return first + corner == 1.0 == last + corner


def face_kinds(bc: BoundaryCondition) -> tuple[Optional[str], Optional[str]]:
    """The (begin, end) face-value kinds a direction with this handling accepts.

    A Dirichlet end (corner 2) takes a potential and a Neumann end
    (corner 1) a field; a periodic line (wrap corner -1) has no faces.
    """
    first, last, corner = CORNER_TRIPLES[BoundaryCondition(bc)]
    if corner != 0.0:
        return None, None
    return tuple("potential" if c == 2.0 else "field" for c in (first, last))


def diagonal(n: int, bc: BoundaryCondition) -> np.ndarray:
    """Main diagonal as a vector: ``[first corner, 2, ..., 2, last corner]``."""
    d = np.full(n, 2.0)
    d[0], d[-1], _ = CORNER_TRIPLES[BoundaryCondition(bc)]
    return d


def add_offdiagonal(bc: BoundaryCondition, x: np.ndarray, out: np.ndarray, axis: int) -> None:
    """Add ``(L - 2I) x`` along ``axis`` into ``out``, in place, for the 1D ``L`` of ``bc``.

    With the ``2x`` diagonal already in ``out`` this completes the stencil;
    ``out`` must fit ``x`` (:func:`kronpcg.tensors.checked_out`).
    Neighbours along ``axis`` sit ``step`` entries apart in the flat
    arrays, so each neighbour term is one shifted-slice subtraction.  The
    shift also reaches across from each block's first (last) face into the
    block before (after); that face is saved beforehand and written back
    with its corner terms, each 0 or -1 times a face.  One buffer of faces
    serves both ends; :func:`kronpcg.operators.apply` passes one slab at a time.
    """
    checked_out(x, out)
    n, step = x.shape[axis], prod(x.shape[axis + 1 :])
    xf, of = x.reshape(-1), out.reshape(-1)
    xb, ob = x.reshape(-1, n, step), out.reshape(-1, n, step)  # (block, axis, face)
    saved = np.empty((len(ob), step))
    for end, dst, src in ((0, of[step:], xf[:-step]), (-1, of[:-step], xf[step:])):
        np.copyto(saved, ob[:, end])
        dst -= src
        _subtract_corner_terms(bc, end, saved, xb[:, end], xb[:, -1 - end])
        ob[:, end] = saved


def add_leading_offdiagonal(bc: BoundaryCondition, x, out, rows: slice) -> None:
    """:func:`add_offdiagonal` along axis 0, into ``out[rows]`` only (reads ``x`` beside them)."""
    lo, hi, n = rows.start, rows.stop, len(x)
    out[max(lo, 1) : hi] -= x[max(lo, 1) - 1 : hi - 1]
    if lo == 0:
        _subtract_corner_terms(bc, 0, out[0], x[0], x[-1])
    out[lo : min(hi, n - 1)] -= x[lo + 1 : min(hi, n - 1) + 1]
    if hi == n:
        _subtract_corner_terms(bc, -1, out[-1], x[-1], x[0])


def _subtract_corner_terms(bc, end, face, own, other) -> None:
    """Subtract from ``face`` the corner terms of ``bc``'s first (``end`` 0) or last (-1) row."""
    first, last, corner = CORNER_TRIPLES[bc]
    if (first, last)[end] == 1.0:  # a Neumann end: its own face
        face -= own
    if corner == -1.0:  # a periodic line: the face at the other end
        face -= other


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _angle_rule(n: int, bc: BoundaryCondition) -> tuple[np.ndarray, int, int, int]:
    """Column ``k``: angle ``pi*a[k]/denom``, samples at ``j - shift2/2``, phase ``phase4*pi/4``."""
    if n < 3:
        raise ValueError(f"1D operator needs n >= 3, got n={n}")
    first, last, corner = CORNER_TRIPLES[BoundaryCondition(bc)]
    m = np.arange(n)
    if corner == -1.0:
        # Column pairs k = n - a/2, a/2 share the eigenvalue of a = 2*min(k, n-k);
        # the angle of k = n - a/2 is that of -a, modulo the period.
        a = 2 * ((m + 1) // 2)
        return np.where(m % 2 == 1, -a, a), n, 0, 1
    dirichlet_ends = int(first == 2.0) + int(last == 2.0)
    return 2 * m + dirichlet_ends, 2 * n + dirichlet_ends, int(first == 1.0), 2 * int(first == 2.0)


def eigenvalues(n: int, bc: BoundaryCondition) -> np.ndarray:
    """The eigenvalues ``2 - 2*cos(theta_k)`` alone, ascending; no basis is built."""
    a, denom, _, _ = _angle_rule(n, bc)
    return 2.0 - 2.0 * np.cos(np.abs(4 * a) * np.pi / (4 * denom))


def analytic_spectrum(n: int, bc: BoundaryCondition) -> SpectralDecomposition:
    """Closed-form eigendecomposition of the 1D operator, by one rule.

    With ``d`` Dirichlet ends the angles are ``theta_k = pi*(k + d/2)/(n + d/2)``,
    on a periodic line ``theta_k = 2*pi*k/n``; the eigenvalues are
    ``2 - 2*cos(theta_k)`` (:func:`eigenvalues`) and column ``k`` is
    ``cos(theta_k*(j - s) - phi)`` for ``j = 1..n``, normalized.  ``s = 1/2``
    after a Neumann first end and 0 otherwise; ``phi = pi/2`` after a
    Dirichlet first end, 0 after a Neumann one, and ``pi/4`` on a periodic
    line, where it gives the Hartley basis ``cos + sin``: columns ``k`` and
    ``n - k`` share an eigenvalue and are orthogonal with no extra pass.

    Every angle is ``pi*a/D`` for integers ``a`` and ``D``, so every entry
    is gathered from a table of ``8*D`` cosines, one period, stored twice.
    Consecutive rows' table indices differ by ``4*a``, so a block of
    ``_ROW_BLOCK`` rows takes its first row's indices plus fixed offsets
    ``k*4*a``, each reduced modulo the period: their sums lie below two
    periods, inside the doubled table, so ``np.take`` needs no wrap.  The
    column sums of squares run row after row, the order of
    ``np.linalg.norm(axis=0)``, so the basis is bitwise that of one
    whole-grid gather, with only block-sized scratch beside it.  Columns
    are built in ascending eigenvalue order (periodic: ``k = 0, n-1, 1,
    n-2, ...``) and come out C-contiguous.
    """
    a, denom, shift2, phase4 = _angle_rule(n, bc)
    period = 8 * denom
    cosines = np.cos(np.arange(period) * np.pi / (4 * denom))
    cosines = np.concatenate([cosines, cosines])
    ahead = np.arange(_ROW_BLOCK)[:, None] * (4 * a % period) % period
    index = np.empty_like(ahead)
    scratch = np.zeros((_ROW_BLOCK + 1, n))  # row 0: running column sums of squares
    vectors = np.empty((n, n))
    for j in range(0, n, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, n - j)
        first_row = (2 * (2 * j + 2 - shift2) * a - phase4 * denom) % period
        np.add(first_row, ahead[:rows], out=index[:rows])
        block = np.take(cosines, index[:rows], out=vectors[j : j + rows], mode="clip")
        np.square(block, out=scratch[1 : rows + 1])
        scratch[0] = np.add.reduce(scratch[: rows + 1], axis=0)
    vectors /= np.sqrt(scratch[0])
    return SpectralDecomposition(values=eigenvalues(n, bc), vectors=vectors)
