import numpy as np
import pytest

from conftest import ALL_BCS, dense_1d, numeric_spectrum, one_shot_spectrum, traced_peak
from kronpcg.laplace1d import (
    CORNER_TRIPLES,
    BoundaryCondition,
    add_offdiagonal,
    analytic_spectrum,
    eigenvalues,
    is_singular_1d,
)
from kronpcg.operators import poisson_operator
from kronpcg.precond import PinvPreconditioner

BC = BoundaryCondition


def _stencil(bc, x, axis):
    """The 1D operator of ``bc`` applied along ``axis`` through the in-place stencil kernel."""
    out = 2.0 * x
    add_offdiagonal(bc, x, out, axis)
    return out


@pytest.mark.parametrize("bc", ALL_BCS)
def test_dense_structure(bc):
    n = 6
    m = dense_1d(n, bc)
    alpha, beta, gamma = CORNER_TRIPLES[bc]
    assert np.array_equal(m, m.T)
    assert m[0, 0] == alpha
    assert m[n - 1, n - 1] == beta
    assert m[0, n - 1] == gamma
    assert m[n - 1, 0] == gamma
    for i in range(1, n - 1):
        assert m[i, i] == 2.0
    for i in range(n - 1):
        assert m[i, i + 1] == -1.0
        assert m[i + 1, i] == -1.0
    inner = m[1:-1, 1:-1]
    assert np.count_nonzero(inner) == 3 * (n - 2) - 2


@pytest.mark.parametrize("bc", list(CORNER_TRIPLES))
def test_every_corner_coefficient_is_zero_or_minus_one(bc):
    """The stencil's corner terms are face subtractions or nothing."""
    first, last, corner = CORNER_TRIPLES[bc]
    assert {first - 2.0, last - 2.0, corner} <= {0.0, -1.0}


@pytest.mark.parametrize("bc", ALL_BCS)
def test_apply_matches_dense_matvec(bc):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(9)
    assert np.allclose(_stencil(bc, x, 0), dense_1d(9, bc) @ x, atol=1e-14)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_stencil_hits_one_direction_of_a_tensor(axis):
    rng = np.random.default_rng(5)
    shape = (4, 5, 6)
    bc = BC.NEUMANN_DIRICHLET
    x = rng.standard_normal(shape)
    got = _stencil(bc, x, axis)
    want = np.apply_along_axis(lambda fiber: dense_1d(shape[axis], bc) @ fiber, axis, x)
    assert np.allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 11, 16, 17, 512, 1024])
def test_analytic_spectrum_matches_numeric(bc, n):
    """Closed forms and the dense eigensolver must agree to near rounding."""
    ana = analytic_spectrum(n, bc)
    num = numeric_spectrum(n, bc)
    assert np.allclose(ana.values, num.values, atol=1e-12)
    # Same operator either way.
    dense = dense_1d(n, bc)
    recon = (ana.vectors * ana.values) @ ana.vectors.T
    assert np.allclose(recon, dense, atol=1e-13)
    # Orthonormal columns, ascending values.
    gram = ana.vectors.T @ ana.vectors
    assert np.allclose(gram, np.eye(n), atol=1e-13)
    assert np.all(np.diff(ana.values) >= -1e-14)


@pytest.mark.parametrize("bc", ALL_BCS)
def test_row_blocks_give_the_one_shot_basis_bitwise(bc):
    """Row-block gathers and row-order norm sums change no bit of the eigenpairs.

    The sizes cross one, two, four and sixteen blocks of 64 rows, with a
    partial last block on either side of each boundary.
    """
    for n in [*range(3, 71), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025]:
        got, want = analytic_spectrum(n, bc), one_shot_spectrum(n, bc)
        assert np.array_equal(got.values, want.values), n
        assert np.array_equal(eigenvalues(n, bc), want.values), n
        assert np.array_equal(got.vectors, want.vectors), n
        assert got.vectors.flags.c_contiguous, n


def test_basis_build_holds_little_beside_the_basis():
    """The one-shot gather peaked at about two bases (index table plus modulo result)."""
    _, peak = traced_peak(analytic_spectrum, 1024, BC.PERIODIC)
    assert peak < 1.3 * 8 * 1024 * 1024


@pytest.mark.parametrize("bc", ALL_BCS)
def test_spectrum_bounds(bc):
    values = analytic_spectrum(12, bc).values
    assert values.min() >= -1e-13
    assert values.max() <= 4.0 + 1e-13


@pytest.mark.parametrize("n", [6, 8, 10])
def test_periodic_even_grid_has_simple_top_eigenvalue(n):
    values = analytic_spectrum(n, BC.PERIODIC).values
    assert values[-1] == pytest.approx(4.0, abs=1e-13)
    assert np.sum(np.isclose(values, 4.0, atol=1e-10)) == 1
    # Everything strictly between 0 and 4 comes in (k, n-k) Hartley pairs.
    interior = values[(values > 1e-10) & (values < 4.0 - 1e-10)]
    assert interior.size % 2 == 0


@pytest.mark.parametrize("n", [7, 8])
def test_bases_come_c_ordered_with_exact_periodic_pairs(n):
    """Periodic pairs are exactly equal; pinv applies the C-ordered bases in place."""
    values = analytic_spectrum(n, BC.PERIODIC).values
    pairs = values[1 : n - (n + 1) % 2].reshape(-1, 2)
    assert np.array_equal(pairs[:, 0], pairs[:, 1])
    assert all(analytic_spectrum(n, bc).vectors.flags.c_contiguous for bc in ALL_BCS)
    op = poisson_operator((n, 5), (BC.PERIODIC, BC.DIRICHLET_NEUMANN))
    assert all(v.flags.c_contiguous for v in PinvPreconditioner(op).bases)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_periodic_odd_grid_has_no_alternating_mode(n):
    values = analytic_spectrum(n, BC.PERIODIC).values
    assert values.max() < 4.0 - 1e-3
    assert values.size == n


@pytest.mark.parametrize("bc", ALL_BCS)
def test_singularity_flag_matches_spectrum(bc):
    values = numeric_spectrum(10, bc).values
    has_null = bool(np.abs(values).min() < 1e-12)
    assert is_singular_1d(bc) == has_null
    if has_null:
        # The null vector is the constant.
        vec = analytic_spectrum(10, bc).vectors[:, 0]
        assert np.allclose(vec, vec[0], atol=1e-13)


