import json

import numpy as np
import pytest

from conftest import (
    ASSEMBLE_LIMIT,
    assemble_dense,
    dense_1d,
    random_operator,
    rotated_bcs,
    spectrum_sums,
    traced_peak,
    unvec,
    vec,
    whole_grid_apply,
)
from kronpcg.counting import OpCounter
from kronpcg.formats import write_run_log
from kronpcg.laplace1d import BoundaryCondition
from kronpcg.operators import (
    _SLAB_ENTRIES,
    NULL_SHARE_TOL,
    BoundaryData,
    FaceValue,
    apply,
    apply_bc_updates,
    center,
    is_singular,
    null_share,
    nullspace_component,
    poisson_operator,
)
from kronpcg.solver import SolverConfig, pcg
from kronpcg.tensors import frobenius_norm

BC = BoundaryCondition


@pytest.mark.parametrize("ndim", [2, 3])
def test_apply_matches_assembled_matrix(ndim):
    rng = np.random.default_rng(ndim)
    for _ in range(8):
        op = random_operator(rng, ndim=ndim)
        x = rng.standard_normal(op.shape)
        got = apply(op, x)
        want = unvec(assemble_dense(op) @ vec(x), op.shape)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("bc", list(BC))
@pytest.mark.parametrize("ndim", [2, 3])
def test_apply_into_a_buffer_matches_the_allocating_path(ndim, bc):
    op = poisson_operator((5, 4, 6)[:ndim], (bc,) * ndim)
    x = np.random.default_rng(3).standard_normal(op.shape)
    buf = np.full(op.shape, np.nan)
    assert apply(op, x, out=buf) is buf
    assert np.array_equal(buf, apply(op, x))
    want = unvec(assemble_dense(op) @ vec(x), op.shape)
    assert np.linalg.norm(buf - want) <= 1e-14 * np.linalg.norm(x)


def test_apply_refuses_an_aliased_or_misshapen_output():
    """Each bad ``out`` is refused before the first write: ``x`` and a
    buffer apart from it keep their contents."""
    op = poisson_operator((4, 5), (BC.PERIODIC, BC.NEUMANN))
    x = np.random.default_rng(5).standard_normal(op.shape)
    x_copy = x.copy()
    bad = (
        x,
        np.full((2, 4, 5), np.nan),
        np.full((5, 4), np.nan).T,  # F-ordered
        np.full(op.shape, np.nan, dtype=np.float32),
    )
    for out in bad:
        before = out.copy()
        with pytest.raises(ValueError):
            apply(op, x, out=out)
        assert np.array_equal(x, x_copy)
        assert np.array_equal(out, before, equal_nan=True)


def test_apply_into_a_buffer_holds_one_face_at_a_time():
    """The stencil saves one face per end and reuses its buffer: on a 3D grid
    the traced peak is one face of the extent-8 axis (64 KiB) plus change."""
    op = poisson_operator((128, 64, 8), (BC.PERIODIC,) * 3)
    x = np.random.default_rng(6).standard_normal(op.shape)
    out = np.empty(op.shape)
    face = x.nbytes // op.shape[-1]
    _, peak = traced_peak(apply, op, x, out=out)
    assert peak <= face + 8 * 1024


@pytest.mark.parametrize("first", list(BC))
@pytest.mark.parametrize(
    "shape",
    [(600, 80, t) for t in range(3, 10)]
    + [(300, 1000), (17, 4097, 5), (3, 400, 400), (2 * (_SLAB_ENTRIES // 1000) + 1, 1000)],
    ids=str,
)
def test_apply_in_groups_of_blocks_is_bitwise_the_whole_grid_pass(shape, first):
    """Trailing extents 3-9, and grids whose row count is not a multiple of
    the slab: every condition, each direction a different one.  On
    ``(3, 400, 400)`` each slab is one row, so the middle slab holds
    neither end of axis 0; the last shape ends in a slab of one row."""
    op = poisson_operator(shape, rotated_bcs(first, len(shape)))
    x = np.random.default_rng(len(shape)).standard_normal(shape)
    assert np.array_equal(apply(op, x), whole_grid_apply(op, x))


def test_apply_into_a_buffer_on_the_p3_grid_holds_one_group_of_faces():
    """The extent-8 axis of the 512x256x8 grid saves the faces of one slab
    at a time, not a face of the whole grid (1 MiB)."""
    op = poisson_operator((512, 256, 8), (BC.PERIODIC,) * 3)
    x = np.random.default_rng(7).standard_normal(op.shape)
    _, peak = traced_peak(apply, op, x, out=np.empty(op.shape))
    assert peak <= _SLAB_ENTRIES // 8 * x.itemsize + 16 * 1024


def test_center_in_place_matches_the_allocating_path():
    x = np.random.default_rng(4).standard_normal((4, 6))
    want = center(x)
    assert center(x, out=x) is x
    assert np.array_equal(x, want)


def test_apply_rejects_shape_mismatch():
    op = poisson_operator((4, 5), (BC.PERIODIC, BC.PERIODIC))
    with pytest.raises(ValueError):
        apply(op, np.zeros((5, 4)))


def test_apply_counts_stencil_ops():
    op = poisson_operator((4, 5, 3), (BC.PERIODIC, BC.DIRICHLET, BC.NEUMANN))
    ops = OpCounter()
    apply(op, np.ones(op.shape), ops)
    assert ops.count == 6 * 4 * 5 * 3 * 3


def test_assemble_dense_refuses_large_grids():
    op = poisson_operator((200, 200), (BC.PERIODIC, BC.PERIODIC))
    assert 200 * 200 > ASSEMBLE_LIMIT
    with pytest.raises(ValueError):
        assemble_dense(op)


@pytest.mark.parametrize("ndim", [2, 3])
def test_spectrum_sums_match_dense_eigenvalues(ndim):
    rng = np.random.default_rng(10 + ndim)
    for _ in range(4):
        op = random_operator(rng, ndim=ndim, hi=6)
        sums = np.sort(spectrum_sums(op).ravel())
        dense_vals = np.linalg.eigvalsh(assemble_dense(op))
        assert np.allclose(sums, dense_vals, atol=1e-8)


@pytest.mark.parametrize(
    "bcs,singular",
    [
        ((BC.PERIODIC, BC.PERIODIC), True),
        ((BC.PERIODIC, BC.NEUMANN), True),
        ((BC.NEUMANN, BC.NEUMANN), True),
        ((BC.PERIODIC, BC.DIRICHLET), False),
        ((BC.DIRICHLET_NEUMANN, BC.PERIODIC), False),
        ((BC.NEUMANN_DIRICHLET, BC.NEUMANN), False),
    ],
)
def test_is_singular_truth_table(bcs, singular):
    op = poisson_operator((5, 6), bcs)
    assert is_singular(op) == singular
    # Cross-check against the assembled spectrum.
    min_eig = np.abs(np.linalg.eigvalsh(assemble_dense(op))).min()
    assert (min_eig < 1e-12) == singular


def test_poisson_operator_validates_arguments():
    with pytest.raises(ValueError):
        poisson_operator((5,), (BC.PERIODIC,))
    with pytest.raises(ValueError):
        poisson_operator((5, 5, 5, 5), (BC.PERIODIC,) * 4)
    with pytest.raises(ValueError):
        poisson_operator((5, 5), (BC.PERIODIC,))


@pytest.mark.parametrize(
    "dims, integral",
    [
        ((3.5, 4), False),
        ((6.0, 8), False),
        (np.array([6.0, 8.0]), False),
        (np.array([6, 8]), True),
        ((np.int32(6), np.uint8(8)), True),
    ],
)
def test_grid_extents_must_be_integers(tmp_path, dims, integral):
    """Extents are checked as integers up front and stored as plain ints,
    so the run log of a numpy-sized grid is still JSON."""
    bcs = (BC.DIRICHLET, BC.DIRICHLET)
    if not integral:
        with pytest.raises(ValueError, match="integers"):
            poisson_operator(dims, bcs)
        return
    op = poisson_operator(dims, bcs)
    assert op.shape == (6, 8) and all(type(n) is int for n in op.shape)
    _, log = pcg(op, np.ones(op.shape), config=SolverConfig(max_iter=2))
    write_run_log(str(tmp_path / "run.json"), log)
    assert json.loads((tmp_path / "run.json").read_text())["shape"] == [6, 8]


def test_center_removes_the_mean_and_counts():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((6, 7)) + 3.0
    ops = OpCounter()
    c = center(x, ops)
    assert abs(c.mean()) < 1e-14
    assert np.allclose(c, x - x.mean(), atol=1e-15)
    assert ops.count == 3 * x.size


def test_nullspace_component_is_norm_of_constant_part():
    x = np.full((4, 5), 2.5)
    assert nullspace_component(x) == pytest.approx(np.linalg.norm(x), rel=1e-14)
    rng = np.random.default_rng(37)
    y = rng.standard_normal((4, 5))
    assert nullspace_component(center(y)) < 1e-14


def test_null_share_is_the_centering_rule():
    """The sum serves the centered start; the share, ``nullspace_component(h)
    / |h|``, is reported only above ``NULL_SHARE_TOL``."""
    periodic = poisson_operator((6, 8), (BC.PERIODIC, BC.PERIODIC))
    h = center(np.random.default_rng(41).standard_normal(periodic.shape))
    step = NULL_SHARE_TOL * frobenius_norm(h) / np.sqrt(h.size)
    for scale, over in ((0.0, False), (0.5, False), (2.0, True)):
        g = h + scale * step
        g_norm = frobenius_norm(g)
        g_sum, share = null_share(periodic, g, g_norm)
        assert g_sum == float(g.sum())
        assert share == (nullspace_component(g) / g_norm if over else None)
    assert null_share(periodic, np.zeros(periodic.shape), 0.0) == (0.0, None)
    mixed = poisson_operator((6, 8), (BC.DIRICHLET, BC.PERIODIC))
    assert null_share(mixed, np.ones(mixed.shape), np.sqrt(48.0)) == (0.0, None)


def test_apply_bc_updates_adds_face_values():
    h = np.zeros((4, 6))
    bcs = (BC.DIRICHLET_NEUMANN, BC.PERIODIC)
    data = BoundaryData(
        (
            (FaceValue("potential", 2.0), FaceValue("field", -0.5)),
            (None, None),
        )
    )
    out = apply_bc_updates(h, bcs, data)
    assert np.all(out[0, :] == 2.0)
    assert np.all(out[-1, :] == -0.5)
    assert np.all(out[1:-1, :] == 0.0)
    # The input is not mutated.
    assert np.all(h == 0.0)


def test_apply_bc_updates_validates_kinds():
    h = np.zeros((4, 6))
    bcs = (BC.DIRICHLET_NEUMANN, BC.PERIODIC)
    wrong_kind = BoundaryData(((FaceValue("field", 1.0), None), (None, None)))
    with pytest.raises(ValueError):
        apply_bc_updates(h, bcs, wrong_kind)
    closed_face = BoundaryData(((None, None), (FaceValue("potential", 1.0), None)))
    with pytest.raises(ValueError):
        apply_bc_updates(h, bcs, closed_face)


@pytest.mark.parametrize("bc", list(BC))
def test_each_end_takes_the_face_kind_its_matrix_row_implies(bc):
    """Wrap entry: no face value; end row sum 1: a potential; end row sum 0: a field."""
    m = dense_1d(5, bc)
    h = np.zeros((5, 4))
    for end, row in ((0, m[0]), (-1, m[-1])):
        expected = None if m[0, -1] != 0.0 else {1.0: "potential", 0.0: "field"}[row.sum()]
        for kind in ("potential", "field"):
            faces = (FaceValue(kind, 1.0), None) if end == 0 else (None, FaceValue(kind, 1.0))
            data = BoundaryData((faces, (None, None)))
            if kind == expected:
                out = apply_bc_updates(h, (bc, BC.PERIODIC), data)
                assert np.all(out[end] == 1.0) and out.sum() == 4.0
            else:
                with pytest.raises(ValueError):
                    apply_bc_updates(h, (bc, BC.PERIODIC), data)


def test_apply_bc_updates_needs_full_coverage():
    h = np.zeros((4, 6))
    with pytest.raises(ValueError):
        apply_bc_updates(h, (BC.PERIODIC, BC.PERIODIC), BoundaryData.none(3))


def test_boundary_data_none_is_all_closed():
    data = BoundaryData.none(3)
    assert len(data.faces) == 3
    assert all(b is None and e is None for b, e in data.faces)
