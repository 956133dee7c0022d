import warnings

import numpy as np
import pytest

from conftest import kron_assemble, plain_transform, run_python, unvec, vec
from kronpcg.tensors import NULL_MODE_TOL, hadamard_pinv, linear_transform


def test_vec_is_first_index_fastest():
    t = np.arange(24, dtype=float).reshape(2, 3, 4)
    v = vec(t)
    n, q, _ = t.shape
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert v[i + n * j + n * q * k] == t[i, j, k]


@pytest.mark.parametrize("shape", [(3,), (4, 5), (3, 4, 5)])
def test_vec_unvec_round_trip(shape):
    rng = np.random.default_rng(7)
    t = rng.standard_normal(shape)
    assert np.array_equal(unvec(vec(t), shape), t)


def test_unvec_rejects_wrong_length():
    with pytest.raises(ValueError):
        unvec(np.zeros(7), (2, 3))


def _pair(shape):
    return np.empty(shape), np.empty(shape)


@pytest.mark.parametrize(
    "mode, subscripts", [(0, "ia,ajk->ijk"), (1, "ja,iak->ijk"), (2, "ka,ija->ijk")]
)
def test_linear_transform_on_one_mode_matches_einsum(mode, subscripts):
    """A general square matrix on one mode, identities on the others."""
    rng = np.random.default_rng(11)
    t = rng.standard_normal((3, 4, 5))
    m = rng.standard_normal((t.shape[mode],) * 2)
    mats = [np.eye(n) for n in t.shape]
    mats[mode] = m
    got = linear_transform(mats, t, _pair(t.shape))
    assert np.allclose(got, np.einsum(subscripts, m, t), atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 4), (3, 4, 5)])
@pytest.mark.parametrize("rows", [-1, 1])
def test_linear_transform_refuses_a_non_square_matrix_before_any_write(shape, rows):
    """Rectangular matrices, one extent short or long on either side, are
    refused on every mode, and the work pair is left as it was."""
    for mode, extent in enumerate(shape):
        mats = [np.eye(n) for n in shape]
        for bad in (np.zeros((extent + rows, extent)), np.zeros((extent, extent + rows))):
            mats[mode] = bad
            work = (np.full(shape, 7.0), np.full(shape, 7.0))
            with pytest.raises(ValueError, match=f"along mode {mode + 1}"):
                linear_transform(mats, np.zeros(shape), work)
            assert (work[0] == 7.0).all() and (work[1] == 7.0).all()


def test_linear_transform_needs_a_work_pair():
    with pytest.raises(TypeError):
        linear_transform([np.eye(3), np.eye(4)], np.zeros((3, 4)))


def test_linear_transform_needs_one_matrix_per_mode():
    with pytest.raises(ValueError, match="one matrix per mode"):
        linear_transform([np.eye(3)], np.zeros((3, 3)), _pair((3, 3)))


# Reductions long enough for a BLAS dot to split them over its threads, and
# a Jacobi solve, whose only reductions they are.
_THREAD_PROBE = """
import numpy as np
from kronpcg import SolverConfig, frobenius_norm, gen_problem1, inner, make_preconditioner, pcg
from kronpcg.formats import log_to_dict
rng = np.random.default_rng(3)
x, y = rng.standard_normal((2, 512, 1024))
spec, h = gen_problem1(50, 100)
op = spec.operator()
_, log = pcg(op, h, make_preconditioner(op, "jacobi:p=3,omega=1.3"), config=SolverConfig(max_iter=60))
print(repr(inner(x, y)), repr(frobenius_norm(x)), [r.true_res for r in log.records])
log.u = x
print(repr(log_to_dict(log)["final_norms"]["u"]))
"""


def test_reductions_do_not_depend_on_the_blas_thread_count():
    assert len({done.stdout for done in run_python(["-c", _THREAD_PROBE])}) == 1


def test_hadamard_and_pinv():
    x = np.array([[2.0, 0.0], [-0.5, 1e-15]])
    g = hadamard_pinv(x)
    assert g[0, 0] == 0.5
    assert g[1, 0] == -2.0
    assert g[0, 1] == 0.0
    assert g[1, 1] == 0.0  # below the threshold counts as a null mode


def test_hadamard_pinv_equals_the_mask_formula_without_warnings():
    tol = NULL_MODE_TOL
    above = np.nextafter(tol, 1.0)
    x = np.array(
        [
            [0.0, -0.0, tol, -tol],
            [above, -above, 2.0 * tol, -3.5],
            [1e-300, 7.0, -1e-14, 0.25],
            [np.inf, -np.inf, 1.0, -1.0],
        ]
    )
    want = np.zeros_like(x)
    mask = np.abs(x) > tol
    want[mask] = 1.0 / x[mask]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hadamard_pinv(x)
    assert np.array_equal(got, want)


def test_hadamard_pinv_inverts_in_place():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 5, 3))
    x[0, 0, 0], x[1, 2, 0], x[3, 4, 2] = 0.0, -0.0, NULL_MODE_TOL
    want = hadamard_pinv(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hadamard_pinv(x, out=x)
    assert got is x
    assert want.tobytes() == got.tobytes()  # signs of zeros included


@pytest.mark.parametrize("shape", [(4, 6), (4, 6, 3)])
def test_linear_transform_alternates_between_the_work_pair(shape):
    """Products alternate between the two buffers, each bitwise a plain
    ``@`` product; the input may be the second buffer, and the first must
    overlap neither the input nor the second."""
    rng = np.random.default_rng(17)
    t = rng.standard_normal(shape)
    mats = [rng.standard_normal((n, n)) for n in shape]
    want = plain_transform(mats, t)
    work = _pair(shape)
    got = linear_transform(mats, t, work)
    assert np.shares_memory(got, work[(len(shape) - 1) % 2])
    assert np.array_equal(got, want)
    # The second buffer as the input: the first product consumes it.
    work[1][...] = t
    assert np.array_equal(linear_transform(mats, work[1], work), want)
    for bad in ((t, work[1]), (work[0], work[0]), (work[0], np.empty(shape).T)):
        with pytest.raises(ValueError):
            linear_transform(mats, t, bad)


def test_kron_assemble_order():
    a = np.array([[1.0, 2.0]])  # 1 x 2
    b = np.array([[3.0], [4.0]])  # 2 x 1
    out = kron_assemble([a, b])
    assert out.shape == (2, 2)
    assert np.array_equal(out, np.kron(a, b))
