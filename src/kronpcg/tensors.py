"""Dense tensor algebra for 2D/3D grid fields.

Grid fields are plain numpy arrays of shape ``(n, q)`` or ``(n, q, t)``.
The linearization convention throughout the package is first-index-fastest:
entry ``(i, j, k)`` sits at flat position ``i + n*j + n*q*k``, which is
numpy's Fortran order.  Under it, the mode product ``M x_l T`` flattens to
the matching Kronecker-factor matrix times the flattened ``T``; the test
suite's dense references check exactly that.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Shape = tuple[int, ...]

__all__ = [
    "Shape",
    "mode_product",
    "linear_transform",
    "outer_sum",
    "inner",
    "frobenius_norm",
    "hadamard_pinv",
    "NULL_MODE_TOL",
]

# Eigenvalue sums at or below this magnitude count as null modes.
NULL_MODE_TOL = 1e-13


def _check_ndim(t: np.ndarray) -> np.ndarray:
    if t.ndim not in (2, 3):
        raise ValueError(f"expected a 2D or 3D tensor, got ndim={t.ndim}")
    return t


def mode_product(m: np.ndarray, mode: int, t: np.ndarray) -> np.ndarray:
    """Mode product ``m x_mode t`` with a 1-based mode index.

    ``mode=1`` multiplies along the first tensor index (column fibers for a
    matrix), ``mode=2`` along the second, ``mode=3`` along the third.  The
    matrix's column count must match the tensor extent along that mode.
    On the C-contiguous tensor the product is one reshaped GEMM (a batched
    one for a middle mode), so the result comes out C-contiguous with no
    axis moved.
    """
    m = np.asarray(m, dtype=float)
    t = _check_ndim(np.asarray(t, dtype=float))
    if mode < 1 or mode > t.ndim:
        raise ValueError(f"mode {mode} out of range for a {t.ndim}D tensor")
    axis = mode - 1
    if m.ndim != 2 or m.shape[1] != t.shape[axis]:
        raise ValueError(
            f"matrix shape {m.shape} does not act on tensor extent "
            f"{t.shape[axis]} along mode {mode}"
        )
    t = np.ascontiguousarray(t)
    if axis == 0:
        out = m @ t.reshape(t.shape[0], -1)
    elif axis == t.ndim - 1:
        out = t.reshape(-1, t.shape[-1]) @ m.T
    else:
        out = np.matmul(m, t)
    return out.reshape(t.shape[:axis] + (m.shape[0],) + t.shape[axis + 1 :])


def linear_transform(mats: Sequence[np.ndarray], t: np.ndarray) -> np.ndarray:
    """Apply one matrix per mode: ``(A, B[, C] | t)``.

    ``mats[l]`` acts along mode ``l+1``; exactly one matrix per tensor
    dimension is required.
    """
    t = _check_ndim(np.asarray(t, dtype=float))
    if len(mats) != t.ndim:
        raise ValueError(f"need {t.ndim} matrices for a {t.ndim}D tensor, got {len(mats)}")
    out = t
    for axis, m in enumerate(mats):
        out = mode_product(m, axis + 1, out)
    return out


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
    out = np.zeros_like(x)
    mask = np.abs(x) > NULL_MODE_TOL
    out[mask] = 1.0 / x[mask]
    return out
