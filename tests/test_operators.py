import numpy as np
import pytest

from conftest import (
    ASSEMBLE_LIMIT,
    assemble_dense,
    dense_1d,
    rotated_bcs,
    traced_peak,
    whole_grid_apply,
)
from kronpcg.laplace1d import BoundaryCondition, face_kinds
from kronpcg.operators import (
    _SLAB_ENTRIES,
    NULL_SHARE_TOL,
    apply,
    apply_bc_updates,
    center,
    is_singular,
    null_share,
    nullspace_component,
    poisson_operator,
)
from kronpcg.tensors import frobenius_norm

BC = BoundaryCondition


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


def test_assemble_dense_refuses_large_grids():
    op = poisson_operator((200, 200), (BC.PERIODIC, BC.PERIODIC))
    assert 200 * 200 > ASSEMBLE_LIMIT
    with pytest.raises(ValueError):
        assemble_dense(op)


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
    out = apply_bc_updates(h, bcs, ((2.0, -0.5), (None, None)))
    assert np.all(out[0, :] == 2.0)
    assert np.all(out[-1, :] == -0.5)
    assert np.all(out[1:-1, :] == 0.0)
    # The input is not mutated.
    assert np.all(h == 0.0)


@pytest.mark.parametrize("bc", list(BC))
def test_each_end_takes_the_face_kind_its_matrix_row_implies(bc):
    """Wrap entry: no face value; end row sum 1: a potential; end row sum 0: a field."""
    m = dense_1d(5, bc)
    h = np.zeros((5, 4))
    for end, row in ((0, m[0]), (-1, m[-1])):
        expected = None if m[0, -1] != 0.0 else {1.0: "potential", 0.0: "field"}[row.sum()]
        assert face_kinds(bc)[end] == expected
        faces = ((1.0, None) if end == 0 else (None, 1.0), (None, None))
        if expected is None:
            with pytest.raises(ValueError):
                apply_bc_updates(h, (bc, BC.PERIODIC), faces)
        else:
            out = apply_bc_updates(h, (bc, BC.PERIODIC), faces)
            assert np.all(out[end] == 1.0) and out.sum() == 4.0

