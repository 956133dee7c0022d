"""Dense tensor algebra for 2D/3D grid fields.

Grid fields are plain numpy arrays of shape ``(n, q)`` or ``(n, q, t)``.
The linearization convention throughout the package is first-index-fastest:
entry ``(i, j, k)`` sits at flat position ``i + n*j + n*q*k``, which is
numpy's Fortran order.  Under it, a per-axis linear transform flattens to
the matching Kronecker product of its matrices times the flattened ``T``;
the test suite's dense references check exactly that (in 3D the trailing
axis is contracted first).

The package's three input rules live here: a grid array passes
:func:`checked_tensor`, an integer knob :func:`checked_integer` and a real
knob :func:`checked_real`.  A knob of another type (a bool too) or out of
its range raises ``ValueError("<name> must be an integer in [low, high],
got <value>")``, or ``... a real number in ...`` for a real knob.
"""

from __future__ import annotations

import operator
from math import inf
from numbers import Real
from typing import Optional, Sequence

import numpy as np

Shape = tuple[int, ...]

__all__ = [
    "Shape",
    "checked_tensor",
    "checked_out",
    "checked_integer",
    "checked_real",
    "linear_transform",
    "inner",
    "frobenius_norm",
    "hadamard_pinv",
    "NULL_MODE_TOL",
    "FLOAT_MAX",
]

# Eigenvalue sums at or below this magnitude count as null modes.
NULL_MODE_TOL = 1e-13

FLOAT_MAX = float(np.finfo(float).max)  # the largest finite float64


def checked_tensor(x, shape: Optional[Shape] = None) -> np.ndarray:
    """``x`` as a C-contiguous float array, with no copy when it is one: the one
    rule for every grid array the package reads.  A real dtype is cast (past
    float64's range to ``inf``, with no warning); any other, which a cast would
    truncate or parse, or a shape other than ``shape``, raises ``ValueError``."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"a grid array must be real, got dtype {x.dtype}")
    if shape is not None and x.shape != shape:
        raise ValueError(f"array shape {x.shape} does not match grid {shape}")
    if x.dtype != float or not x.flags.c_contiguous:
        with np.errstate(over="ignore"):
            x = x.astype(float, order="C")
    return x


def checked_out(x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``out`` once it is known to fit ``x``, or a new array when it is omitted.

    The package's one ``out`` rule: a kernel that reads ``x`` while it
    writes a grid-sized result passes its optional ``out`` through here
    before its first write, so the result goes into ``out``, which is
    returned, and a bad ``out`` leaves the caller's arrays as they were.
    ``out`` must be a writable C-contiguous float array of ``x``'s shape
    that does not overlap ``x``, else ``ValueError``.  Elementwise kernels
    (:func:`hadamard_pinv`, :func:`kronpcg.operators.center`) also run in
    place with ``out=x``.
    """
    if out is None:
        return np.empty(x.shape)
    if out.shape != x.shape or out.dtype != float or not out.flags.carray:
        raise ValueError(f"output must be a writable C-contiguous float array of shape {x.shape}")
    if np.may_share_memory(out, x):
        raise ValueError("output must not overlap its input")
    return out


def checked_integer(name: str, value, low: int, high: float = inf) -> int:
    """``value`` as an ``int`` by ``operator.index`` if it lies in ``[low, high]``,
    else (a bool too) ``ValueError`` naming it."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        n = None
    if n is not None and low <= n <= high:
        return n
    raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def checked_real(name: str, value, low: Real = -FLOAT_MAX, high: Real = FLOAT_MAX) -> float:
    """``value`` as a ``float`` if it is a ``numbers.Real`` (not a bool) in
    ``[low, high]``, by default every finite float, else ``ValueError`` naming
    it.  The bounds are compared before the cast, exactly, so a value past
    float64's range (``10**400``, a ``Fraction``) is refused, not rounded."""
    if isinstance(value, Real) and not isinstance(value, (bool, np.bool_)) and low <= value <= high:
        return float(value)
    raise ValueError(f"{name} must be a real number in [{low!r}, {high!r}], got {value!r}")


def linear_transform(
    mats: Sequence[np.ndarray], t: np.ndarray, work: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Apply one square matrix per mode, ``(A, B[, C] | t)``, through ``work``.

    ``mats[l]``, of shape ``(extent, extent)``, acts along mode ``l+1``.  A
    2D tensor gets the congruence ``A T B^T`` as two GEMMs.  A 3D tensor is
    rotated (de Boor, ACM TOMS 5, 1979): each step is one NT GEMM, the
    C-ordered matrix times a transposed view that contracts the trailing
    axis, and puts the new axis first, ``(n,q,t) -> (t,n,q) -> (q,t,n) ->
    (n,q,t)``.  BLAS reads the view in place, so there is no transposed
    copy and no batched product over a middle mode, whose many small GEMMs
    run at a fraction of the speed of one large one.

    ``work[0]`` must fit ``t`` and ``work[1]`` ``work[0]`` as an ``out``
    (:func:`checked_out`); product ``i`` is written into ``work[i % 2]``
    and the result, of ``t``'s shape, is a view of the one that holds the
    last.  ``t`` may be ``work[1]``, whose content the first product consumes.
    """
    t = checked_tensor(t)
    if t.ndim not in (2, 3) or len(mats) != t.ndim:
        raise ValueError(
            f"need one matrix per mode of a 2D or 3D tensor, got {len(mats)} for ndim={t.ndim}"
        )
    mats = [np.asarray(m, dtype=float) for m in mats]
    for mode, (m, extent) in enumerate(zip(mats, t.shape), start=1):
        if m.shape != (extent, extent):
            raise ValueError(f"matrix {m.shape} along mode {mode} is not ({extent}, {extent})")
    checked_out(t, work[0])
    checked_out(work[0], work[1])
    if t.ndim == 2:
        return np.matmul(np.matmul(mats[0], t, out=work[0]), mats[1].T, out=work[1])
    out = t
    for i, m in enumerate(reversed(mats)):
        out = np.matmul(m, out.reshape(-1, len(m)).T, out=work[i % 2].reshape(len(m), -1))
    return out.reshape(t.shape)


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Frobenius inner product: sum of entrywise products.

    Summed by ``einsum``, which calls no BLAS: a BLAS ``ddot`` splits a long
    sum over its threads, so its digits change with the thread count, and
    waking those threads several times per solver step makes a run's time
    depend on what else holds the CPUs.
    """
    x = checked_tensor(x)
    y = checked_tensor(y, x.shape)
    return float(np.einsum("i,i->", x.reshape(-1), y.reshape(-1)))


def frobenius_norm(x: np.ndarray) -> float:
    """Frobenius norm (entrywise 2-norm) of a tensor, summed by :func:`inner`."""
    return float(np.sqrt(inner(x, x)))


def hadamard_pinv(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Entrywise pseudoinverse: ``1/x`` where ``|x| > NULL_MODE_TOL``, else 0.

    Written into ``out`` when given: ``x`` itself (in place) or as :func:`checked_out` asks.
    """
    x = checked_tensor(x)
    out = out if out is x else checked_out(x, out)
    # NaN included; taken before ``out`` overwrites ``x``, with no float temporary.
    null = ~((x > NULL_MODE_TOL) | (x < -NULL_MODE_TOL))
    with np.errstate(divide="ignore"):
        out = np.divide(1.0, x, out=out)
    out[null] = 0.0
    return out
