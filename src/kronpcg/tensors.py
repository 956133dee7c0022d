"""Dense tensor algebra for 2D/3D grid fields.

Grid fields are plain numpy arrays of shape ``(n, q)`` or ``(n, q, t)``.
The linearization convention throughout the package is first-index-fastest:
entry ``(i, j, k)`` sits at flat position ``i + n*j + n*q*k``, which is
numpy's Fortran order.  Under it, a per-axis linear transform flattens to
the matching Kronecker product of its matrices times the flattened ``T``;
the test suite's dense references check exactly that (in 3D the trailing
axis is contracted first).

A kernel that reads ``x`` while it writes a grid-sized result takes an
optional ``out`` and passes it through :func:`checked_out` before its first
write: ``out`` must be a C-contiguous float array of ``x``'s shape that does
not overlap ``x``, else ``ValueError``.  Elementwise kernels
(:func:`hadamard_pinv`, :func:`kronpcg.operators.center`) need no such rule
and also run in place with ``out=x``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

Shape = tuple[int, ...]

__all__ = [
    "Shape",
    "checked_out",
    "linear_transform",
    "outer_sum",
    "inner",
    "frobenius_norm",
    "hadamard_pinv",
    "NULL_MODE_TOL",
]

# Eigenvalue sums at or below this magnitude count as null modes.
NULL_MODE_TOL = 1e-13


def checked_out(x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``out`` once it is known to fit ``x``, or a new array when it is omitted."""
    if out is None:
        return np.empty(x.shape)
    if out.shape != x.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"output must be a C-contiguous float array of shape {x.shape}")
    if np.may_share_memory(out, x):
        raise ValueError("output must not overlap its input")
    return out


def linear_transform(
    mats: Sequence[np.ndarray],
    t: np.ndarray,
    work: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Apply one matrix per mode: ``(A, B[, C] | t)``.

    ``mats[l]`` acts along mode ``l+1`` and its column count must match the
    tensor's extent there; exactly one matrix per tensor dimension is
    required.  A 2D tensor gets the congruence ``A T B^T`` as two GEMMs.
    A 3D tensor is rotated (de Boor, ACM TOMS 5, 1979): each step is one NT
    GEMM, the C-ordered matrix times a transposed view that contracts the
    trailing axis, and puts the new axis first, ``(n,q,t) -> (t',n,q) ->
    (q',t',n) -> (n',q',t')``.  BLAS reads the view in place, so there is
    no transposed copy and no batched product over a middle mode, whose
    many small GEMMs run at a fraction of the speed of one large one.

    Without ``work`` each product is a new array.  With ``work`` (square
    matrices only), ``work[0]`` must fit ``t`` and ``work[1]`` must fit
    ``work[0]`` (:func:`checked_out`); product ``i`` is written into
    ``work[i % 2]`` and the result is a view of the one that holds the
    last.  ``t`` may be ``work[1]``, whose content the first product consumes.
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
    if work is not None:
        checked_out(t, work[0])
        checked_out(work[0], work[1])

    def product(i, a, b):
        if work is None:
            return a @ b
        return np.matmul(a, b, out=work[i % 2].reshape(a.shape[0], b.shape[1]))

    if t.ndim == 2:
        return product(1, product(0, mats[0], t), mats[1].T)
    out = t
    for i, m in enumerate(reversed(mats)):
        out = product(i, m, out.reshape(-1, m.shape[1]).T)
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


def hadamard_pinv(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Entrywise pseudoinverse: ``1/x`` where ``|x| > NULL_MODE_TOL``, else 0.

    Written into ``out`` when given (``out=x`` inverts in place).
    """
    x = np.asarray(x, dtype=float)
    # NaN included; taken before ``out`` overwrites ``x``, with no float temporary.
    null = ~((x > NULL_MODE_TOL) | (x < -NULL_MODE_TOL))
    with np.errstate(divide="ignore"):
        out = np.divide(1.0, x, out=out)
    out[null] = 0.0
    return out
