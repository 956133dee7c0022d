"""Dense reference implementations shared across the suite.

Everything here is deliberately naive: assembled matrices, explicit
eigendecompositions, textbook recurrences on flat vectors.  The package
must agree with these on problems small enough to afford them.
"""

import numpy as np

from kronpcg.laplace1d import BoundaryCondition
from kronpcg.operators import poisson_operator
from kronpcg.precond import Preconditioner

ALL_BCS = tuple(BoundaryCondition)
SINGULAR_BCS = (BoundaryCondition.PERIODIC, BoundaryCondition.NEUMANN)


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
    """A deliberately indefinite wrapper: applies minus the inner preconditioner."""

    name = "negated"

    def __init__(self, inner_precond):
        self.inner = inner_precond

    def apply(self, r, ops=None):
        return -self.inner.apply(r, ops)
