"""Code verification by manufactured solutions (Roache 2002; Salari & Knupp,
SAND2000-1444): the discrete solution converges to the continuum one at
second order on every non-periodic boundary condition.

One direction is bounded, on ``[0, 1]``; the others are periodic.  The
manufactured potential is ``A(x) + B(x) * Y`` with ``A = cos(1.3*pi*x +
0.4)``, ``B = sin(pi*x)**2`` and ``Y`` the product of ``cos(2*pi*j/m)`` over
the periodic directions.  ``B`` vanishes with its derivative on both faces,
so the face data are uniform along each face and go through
:func:`kronpcg.operators.apply_bc_updates`.  Along the periodic directions
the discrete operator is applied to ``Y`` exactly, so all of the error
comes from the bounded direction.

The conventions under test, stated in :mod:`kronpcg.laplace1d`: with step
``h``, the end node sits one step from a Dirichlet face and half a step
from a Neumann face; a Dirichlet face value is the potential on the face,
a Neumann face value is ``h`` times the potential's outward derivative.
They are spelled out here, not read from the package, so that a changed
corner or sign in the package fails the test.
"""

import numpy as np
import pytest

from kronpcg.laplace1d import BoundaryCondition
from kronpcg.operators import apply_bc_updates, center, is_singular, poisson_operator
from kronpcg.precond import PinvPreconditioner
from kronpcg.solver import SolverConfig, pcg

BC = BoundaryCondition

# Bounded condition -> its (begin, end) faces: "D" Dirichlet, "N" Neumann.
ENDS = {
    BC.DIRICHLET: "DD",
    BC.NEUMANN: "NN",
    BC.DIRICHLET_NEUMANN: "DN",
    BC.NEUMANN_DIRICHLET: "ND",
}
GAP = {"D": 1.0, "N": 0.5}  # steps from the end node to its face

K = 1.3 * np.pi


def _a(x, derivative=0):
    """``A = cos(K x + 0.4)`` or its ``derivative``-th derivative."""
    return K**derivative * np.cos(K * x + 0.4 + derivative * np.pi / 2)


def _max_error(shape, bcs, axis):
    """Max-norm error of the pinv solve, and the step ``h`` along the bounded ``axis``."""
    n, (first, last) = shape[axis], ENDS[bcs[axis]]
    h = 1.0 / (n - 1 + GAP[first] + GAP[last])
    x = (GAP[first] + np.arange(n)) * h
    along = [1] * len(shape)
    along[axis] = n
    periodic = [d for d in range(len(shape)) if d != axis]
    y = np.ones(shape)
    for d in periodic:
        line = [1] * len(shape)
        line[d] = shape[d]
        y = y * np.cos(2 * np.pi * np.arange(shape[d]) / shape[d]).reshape(line)
    b, b_second = np.sin(np.pi * x) ** 2, 2 * np.pi**2 * np.cos(2 * np.pi * x)
    u_star = _a(x).reshape(along) + b.reshape(along) * y
    rhs = -(h**2) * (_a(x, 2).reshape(along) + b_second.reshape(along) * y)
    for d in periodic:
        rhs += 2 * u_star - np.roll(u_star, 1, d) - np.roll(u_star, -1, d)
    faces = [(None, None)] * len(shape)
    faces[axis] = tuple(
        _a(face) if kind == "D" else outward * h * _a(face, 1)
        for kind, face, outward in ((first, 0.0, -1.0), (last, 1.0, 1.0))
    )
    op = poisson_operator(shape, bcs)
    rhs = apply_bc_updates(rhs, bcs, faces)
    if is_singular(op):
        rhs = center(rhs)
    config = SolverConfig(max_iter=5, stop_tol=1e-12)
    u, log = pcg(op, rhs, PinvPreconditioner(op), config=config)
    assert log.records[-1].true_res <= 1e-12 * log.h_norm
    err = u - u_star
    return float(np.abs(center(err) if is_singular(op) else err).max()), h


def _observed_order(shape, bcs, axis):
    """The order between ``shape`` and twice its extent along ``axis``."""
    fine = shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]
    (e1, h1), (e2, h2) = (_max_error(s, bcs, axis) for s in (shape, fine))
    return np.log(e1 / e2) / np.log(h1 / h2)


@pytest.mark.parametrize("bc", list(ENDS), ids=[bc.value for bc in ENDS])
def test_second_order_on_axis_0_against_a_periodic_axis(bc):
    assert 1.9 <= _observed_order((32, 6), (bc, BC.PERIODIC), 0) <= 2.1


def test_second_order_with_dirichlet_faces_on_the_last_axis_in_3d():
    """The last axis, p3's short one, bounded by two Dirichlet faces."""
    bcs = (BC.PERIODIC, BC.PERIODIC, BC.DIRICHLET)
    assert 1.9 <= _observed_order((6, 4, 32), bcs, 2) <= 2.1
