"""Dense reference implementations shared across the suite.

Everything here is deliberately naive: assembled matrices, explicit
eigendecompositions, textbook recurrences on flat vectors.  The package
must agree with these on problems small enough to afford them.
"""

import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from math import prod
from pathlib import Path

import numpy as np

from kronpcg import operators as op_mod
from kronpcg.laplace1d import CORNER_TRIPLES, BoundaryCondition, SpectralDecomposition, eigenvalues
from kronpcg.operators import apply, poisson_operator
from kronpcg.precond import Preconditioner
from kronpcg.solver import (
    _BREAKDOWNS,
    ConvergenceLog,
    IterationRecord,
    _counted_true_residual,
    _judge,
    eta_series,
)
from kronpcg.tensors import frobenius_norm, inner

ALL_BCS = tuple(BoundaryCondition)
SINGULAR_BCS = (BoundaryCondition.PERIODIC, BoundaryCondition.NEUMANN)
ASSEMBLE_LIMIT = 10_000
SRC = str(Path(__file__).resolve().parents[1] / "src")


def rotated_bcs(first, ndim):
    """One condition per direction, ``first`` and then the next ones in ``ALL_BCS``."""
    start = ALL_BCS.index(first)
    return tuple(ALL_BCS[(start + d) % len(ALL_BCS)] for d in range(ndim))


def vec(t):
    """Flatten ``t`` to a vector in first-index-fastest order."""
    return np.asarray(t, dtype=float).reshape(-1, order="F")


def unvec(v, shape):
    """Inverse of :func:`vec`: reinterpret a flat vector as a tensor."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != int(np.prod(shape)):
        raise ValueError(f"cannot unvec array of size {v.size} into shape {shape}")
    return v.reshape(shape, order="F")


def kron_assemble(factors):
    """Kronecker product of a list of matrices, left to right.

    With the first-index-fastest ``vec``, ``kron_assemble([B, A]) @ vec(U)``
    equals ``vec(A @ U @ B.T)``, and ``kron_assemble([C, B, A])`` matches
    the 3D transform ``(A, B, C | U)``.
    """
    return reduce(np.kron, [np.asarray(f, dtype=float) for f in factors])


def plain_transform(mats, t):
    """``tensors.linear_transform`` as plain ``@`` products in its order: a
    congruence in 2D, the trailing axis contracted first in 3D."""
    if t.ndim == 2:
        return mats[0] @ t @ mats[1].T
    out = t
    for m in reversed(mats):
        out = m @ out.reshape(-1, len(m)).T
    return out.reshape(t.shape)


def dense_1d(n, bc):
    """The full ``n x n`` matrix of the 1D factor with boundary condition ``bc``."""
    m = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    first, last, corner = CORNER_TRIPLES[bc]
    m[0, 0] = first
    m[n - 1, n - 1] = last
    m[0, n - 1] = m[n - 1, 0] = corner
    return m


def numeric_spectrum(n, bc):
    """Dense symmetric eigendecomposition of a 1D factor (ascending, orthonormal)."""
    values, vectors = np.linalg.eigh(dense_1d(n, bc))
    return SpectralDecomposition(values=values, vectors=vectors)


def outer_sum(vectors):
    """Kronecker-sum tensor of per-direction vectors: ``a[i] + b[j] (+ c[k])``, left to right."""
    return reduce(np.add.outer, [np.asarray(v, dtype=float) for v in vectors])


def spectrum_sums(op):
    """Tensor of all sums of per-direction eigenvalues (the operator spectrum).

    Entry ``(i, j[, k])`` is the eigenvalue of the product of the ``i``-th,
    ``j``-th (and ``k``-th) per-direction eigenvectors, each list ascending.
    """
    return outer_sum([eigenvalues(n, bc) for n, bc in zip(op.shape, op.bcs)])


def one_shot_spectrum(n, bc):
    """The closed-form eigenpairs in one whole-grid gather and one ``np.linalg.norm``.

    The plain form of :func:`kronpcg.laplace1d.analytic_spectrum`: an
    ``n x n`` index table, a modulo on every entry, then the column norms.
    """
    first, last, corner = CORNER_TRIPLES[BoundaryCondition(bc)]
    m = np.arange(n)
    if corner == -1.0:
        a_value = 2 * ((m + 1) // 2)
        a_column = np.where(m % 2 == 1, -a_value, a_value)
        denom, shift2, phase4 = n, 0, 1
    else:
        dirichlet_ends = int(first == 2.0) + int(last == 2.0)
        a_value = a_column = 2 * m + dirichlet_ends
        denom = 2 * n + dirichlet_ends
        shift2 = int(first == 1.0)  # 2*s
        phase4 = 2 * int(first == 2.0)  # phi in units of pi/4
    period = 8 * denom
    cosines = np.cos(np.arange(period) * np.pi / (4 * denom))
    values = 2.0 - 2.0 * cosines[4 * a_value]
    j2 = 2 * np.arange(1, n + 1) - shift2
    vectors = cosines[(np.outer(j2, 2 * a_column) - phase4 * denom) % period]
    vectors /= np.linalg.norm(vectors, axis=0)
    return SpectralDecomposition(values=values, vectors=vectors)


def whole_grid_offdiagonal(bc, x, out, axis):
    """:func:`kronpcg.laplace1d.add_offdiagonal` as one pass over the whole grid.

    Every block at once: one shifted-slice subtraction per end across the
    flat arrays, with one buffer for a face of the whole grid.
    """
    first_corner, last_corner, corner = CORNER_TRIPLES[bc]
    n, step = x.shape[axis], prod(x.shape[axis + 1 :])
    xf, of = x.reshape(-1), out.reshape(-1)
    xb, ob = x.reshape(-1, n, step), out.reshape(-1, n, step)  # (block, axis, face)
    saved = np.empty_like(ob[:, 0])
    ends = ((0, first_corner, of[step:], xf[:-step]), (-1, last_corner, of[:-step], xf[step:]))
    for end, end_corner, dst, src in ends:
        np.copyto(saved, ob[:, end])
        dst -= src
        if end_corner == 1.0:  # a Neumann end: its own face
            saved -= xb[:, end]
        if corner == -1.0:  # a periodic line: the face at the other end
            saved -= xb[:, -1 - end]
        ob[:, end] = saved


def whole_grid_apply(op, x):
    """:func:`kronpcg.operators.apply` with every direction in one whole-grid pass."""
    out = np.multiply(x, 2.0 * op.ndim)
    for axis, bc in enumerate(op.bcs):
        whole_grid_offdiagonal(bc, x, out, axis)
    return out


def run_python(args, threads=("1", "2"), code=0):
    """Run ``sys.executable`` with ``args`` and ``src`` leading ``PYTHONPATH``,
    once per ``OPENBLAS_NUM_THREADS`` value in ``threads`` (``None``: as
    inherited); yield each run, checked to exit with ``code``, before the next."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for n in threads:
        if n is not None:
            env["OPENBLAS_NUM_THREADS"] = n
        done = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == code, done.stderr
        yield done


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes traced by ``tracemalloc`` during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assemble_dense(op):
    """The full matrix of a grid operator (total size at most ``ASSEMBLE_LIMIT``)."""
    size = int(np.prod(op.shape))
    if size > ASSEMBLE_LIMIT:
        raise ValueError(f"refusing to assemble a {size} x {size} dense operator")
    eyes = [np.eye(n) for n in op.shape]
    total = np.zeros((size, size))
    for axis, (n, bc) in enumerate(zip(op.shape, op.bcs)):
        # Kronecker order is last factor leftmost under first-index-fastest vec.
        mats = [dense_1d(n, bc) if d == axis else eyes[d] for d in range(op.ndim)]
        total += kron_assemble(mats[::-1])
    return total


def kappa_indicator(op, h, u):
    """Quadratic-form error indicator ``<u, Lu> - 2<u, h>``, from scratch.

    Up to the constant ``<u*, Lu*>`` this is the squared operator-norm
    error of ``u``, so its minimizer over a run marks the best iterate
    even though the constant itself is unknown.
    """
    return inner(u, apply(op, u)) - 2.0 * inner(u, h)


def dense_pseudoinverse(a, tol=1e-13):
    """Eigendecomposition pseudoinverse with a hard zero-eigenvalue cut."""
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=float))
    keep = np.abs(vals) > tol
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep]
    return (vecs * inv) @ vecs.T


def dense_pcg(a, b, m=None, iters=50):
    """Matrix-form preconditioned conjugate gradients, recording scalars.

    Returns ``(x, alphas, betas, residual_norms)`` where ``alphas[s-1]``
    and ``betas[s-1]`` belong to iteration ``s`` and ``residual_norms[s]``
    is the recursive residual after iteration ``s``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m = np.eye(b.size) if m is None else np.asarray(m, dtype=float)
    x = np.zeros_like(b)
    r = b - a @ x
    z = m @ r
    rho = float(r @ z)
    p = z.copy()
    alphas, betas = [], []
    res = [float(np.linalg.norm(r))]
    for _ in range(iters):
        w = a @ p
        wp = float(w @ p)
        if wp == 0.0 or rho == 0.0:
            break
        alpha = rho / wp
        x = x + alpha * p
        r = r - alpha * w
        z = m @ r
        rho_next = float(r @ z)
        beta = rho_next / rho
        rho = rho_next
        p = z + beta * p
        alphas.append(alpha)
        betas.append(beta)
        res.append(float(np.linalg.norm(r)))
        if res[-1] == 0.0:
            break
    return x, alphas, betas, res


def zero_start_pcg(op, h, precond, config):
    """:func:`kronpcg.solver.pcg` as a plain loop from zero-filled ``u`` and ``p``.

    Every step adds ``z`` into ``p`` (zero at ``s = 0``) and ``alpha*p``
    into ``u``; ``h``, ``r`` and ``u`` are centered and their null parts
    measured by the public ``center`` and ``nullspace_component``.  Returns
    ``(u, log)``; a breakdown is left in ``log.breakdown``, not raised, and
    every record's ``ops_cum`` is ``None``: the loop counts nothing.
    """
    h = np.ascontiguousarray(h, dtype=float)
    h_norm = frobenius_norm(h)
    singular = op_mod.is_singular(op)
    log = ConvergenceLog(config=config, h_norm=h_norm)
    u = np.zeros(op.shape)
    r = op_mod.center(h) if singular else h.copy()
    p = np.zeros(op.shape)

    def record(s, alpha, r_norm, true_res, kappa, null_norm):
        log.records.append(
            IterationRecord(s, alpha, None, None, r_norm, true_res, kappa, None, null_norm, None)
        )
        if config.stop_tol is not None and true_res <= config.stop_tol * h_norm:
            return "tolerance"
        return "budget" if s == config.max_iter else None

    r_norm = r0_norm = frobenius_norm(r)
    stop = record(0, None, r_norm, h_norm, 0.0, 0.0)
    s = 0
    while stop is None:
        z = precond.apply(r)
        last = log.records[-1]
        last.rho = inner(r, z)
        stop = _judge(log, s, "indefinite", last.rho, r_norm, r0_norm)
        if stop is not None:
            break
        if s > 0:
            last.beta = last.rho / rho
            p *= last.beta
        rho = last.rho
        p += z
        s += 1
        w = op_mod.apply(op, p)
        wp = inner(w, p)
        stop = _judge(log, s, "curvature", wp, r_norm, r0_norm)
        if stop is not None:
            break
        alpha = rho / wp
        r += w * -alpha
        u += p * alpha
        if singular:
            op_mod.center(r, out=r)
        r_norm = frobenius_norm(r)
        lu = op_mod.apply(op, u)
        kappa = inner(u, lu) - 2.0 * inner(u, h)
        true_res = _counted_true_residual(h, lu)
        stop = record(s, alpha, r_norm, true_res, kappa, op_mod.nullspace_component(u))
    if singular:
        op_mod.center(u, out=u)
    first_res = log.records[1].true_res if len(log.records) > 1 else None
    for rec, e in zip(log.records, eta_series([rec.kappa for rec in log.records], first_res)):
        rec.eta_scaled = float(e)
    log.u = u
    log.breakdown = stop if stop in _BREAKDOWNS else None
    return u, log


def dense_jacobi_matrix(a, p, omega):
    """The matrix of ``p`` damped-Jacobi sweeps started from zero."""
    a = np.asarray(a, dtype=float)
    d_inv = np.diag(1.0 / (omega * np.diag(a)))
    step = np.eye(a.shape[0]) - d_inv @ a
    m = np.zeros_like(a)
    term = d_inv.copy()
    for _ in range(p):
        m = m + term
        term = step @ term
    return m


def random_operator(rng, ndim=2, lo=3, hi=7, nonsingular=None):
    """A grid operator with random extents and boundary conditions.

    ``nonsingular=True``/``False`` pins the singularity of the result;
    ``None`` leaves it to chance.
    """
    dims = tuple(int(rng.integers(lo, hi + 1)) for _ in range(ndim))
    while True:
        bcs = tuple(ALL_BCS[int(rng.integers(len(ALL_BCS)))] for _ in range(ndim))
        singular = all(bc in SINGULAR_BCS for bc in bcs)
        if nonsingular is None or singular != nonsingular:
            return poisson_operator(dims, bcs)


class Negated(Preconditioner):
    """A deliberately indefinite wrapper: applies minus the inner
    preconditioner, after its first ``after`` applies pass through."""

    name = "negated"

    def __init__(self, inner_precond, after=0):
        self.inner = inner_precond
        self.after = after

    def apply(self, r, out=None, work=None):
        z = self.inner.apply(r, out, work)
        self.after -= 1
        return z if self.after >= 0 else -z
