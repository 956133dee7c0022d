"""Dense tensor algebra for 2D/3D grid fields.

Grid fields are plain numpy arrays of shape ``(n, q)`` or ``(n, q, t)``.
The linearization convention throughout the package is first-index-fastest:
entry ``(i, j, k)`` sits at flat position ``i + n*j + n*q*k``, which is
numpy's Fortran order.  Under it, a per-axis linear transform flattens to
the matching Kronecker product of its matrices times the flattened ``T``;
the test suite's dense references check exactly that.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Shape = tuple[int, ...]

__all__ = [
    "Shape",
    "linear_transform",
    "outer_sum",
    "inner",
    "frobenius_norm",
    "hadamard_pinv",
    "NULL_MODE_TOL",
]

# Eigenvalue sums at or below this magnitude count as null modes.
NULL_MODE_TOL = 1e-13


def linear_transform(mats: Sequence[np.ndarray], t: np.ndarray) -> np.ndarray:
    """Apply one matrix per mode: ``(A, B[, C] | t)``.

    ``mats[l]`` acts along mode ``l+1`` and its column count must match the
    tensor's extent there; exactly one matrix per tensor dimension is
    required.  A 2D tensor gets the congruence ``A T B^T`` as two GEMMs.
    A 3D tensor is rotated (de Boor, ACM TOMS 5, 1979): each step contracts
    the leading axis with one 2D GEMM whose result puts the new axis last,
    ``(n,q,t) -> (q,t,n') -> (t,n',q') -> (n',q',t')``, so after three steps
    the axes are back in order.  The operand of each step is a transposed
    view that BLAS reads in place, so there is no transposed copy and no
    batched product over a middle mode, whose many small GEMMs run at a
    fraction of the speed of one large one.
    """
    t = np.ascontiguousarray(t, dtype=float)
    if t.ndim not in (2, 3):
        raise ValueError(f"expected a 2D or 3D tensor, got ndim={t.ndim}")
    if len(mats) != t.ndim:
        raise ValueError(f"need {t.ndim} matrices for a {t.ndim}D tensor, got {len(mats)}")
    mats = [np.asarray(m, dtype=float) for m in mats]
    for mode, (m, extent) in enumerate(zip(mats, t.shape), start=1):
        if m.ndim != 2 or m.shape[1] != extent:
            raise ValueError(
                f"matrix shape {m.shape} does not act on tensor extent {extent} along mode {mode}"
            )
    if t.ndim == 2:
        return mats[0] @ t @ mats[1].T
    out = t
    for m in mats:
        out = out.reshape(m.shape[1], -1).T @ m.T
    return out.reshape(tuple(m.shape[0] for m in mats))


def outer_sum(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker-sum tensor of per-direction vectors: ``a[i] + b[j] (+ c[k])``.

    Entry ``(i, j[, k])`` sums the ``i``-th, ``j``-th (and ``k``-th) entries;
    the sums are taken left to right.
    """
    out = np.asarray(vectors[0], dtype=float)
    for v in vectors[1:]:
        out = np.add.outer(out, v)
    return out


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Frobenius inner product: sum of entrywise products.

    Summed by ``einsum``, which calls no BLAS: a BLAS ``ddot`` splits a long
    sum over its threads, so its digits change with the thread count, and
    waking those threads several times per solver step makes a run's time
    depend on what else holds the CPUs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch in inner product: {x.shape} vs {y.shape}")
    return float(np.einsum("i,i->", x.reshape(-1), y.reshape(-1)))


def frobenius_norm(x: np.ndarray) -> float:
    """Frobenius norm (entrywise 2-norm) of a tensor, summed by :func:`inner`."""
    return float(np.sqrt(inner(x, x)))


def hadamard_pinv(x: np.ndarray) -> np.ndarray:
    """Entrywise pseudoinverse: ``1/x`` where ``|x| > NULL_MODE_TOL``, else 0."""
    x = np.asarray(x, dtype=float)
    return np.divide(1.0, x, out=np.zeros_like(x), where=np.abs(x) > NULL_MODE_TOL)
