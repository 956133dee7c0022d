import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import (
    outer_sum,
    plain_transform,
    rotated_bcs,
    run_python,
    spectrum_sums,
    traced_peak,
    unvec,
)
from kronpcg import operators as op_mod
from kronpcg.laplace1d import BoundaryCondition, diagonal
from kronpcg.operators import center, poisson_operator
from kronpcg.precond import (
    _GHAT_ENTRIES,
    IdentityPreconditioner,
    JacobiPreconditioner,
    LowRankPreconditioner,
    PinvPreconditioner,
    jacobi_standalone,
    make_preconditioner,
)
from kronpcg.solver import SolverConfig, pcg
from kronpcg.tensors import hadamard_pinv, inner

BC = BoundaryCondition


def _periodic_op(n, q):
    return poisson_operator((n, q), (BC.PERIODIC, BC.PERIODIC))


# (spec, grid shape, boundary conditions): every family, pinv in 2D and 3D.
_FAMILY_CASES = {
    "identity": ("none", (6, 9), (BC.PERIODIC, BC.NEUMANN)),
    "jacobi": ("jacobi:p=3,omega=1.3", (6, 9), (BC.DIRICHLET, BC.PERIODIC)),
    "pinv-2d": ("pinv", (6, 9), (BC.PERIODIC, BC.NEUMANN_DIRICHLET)),
    "pinv-3d": ("pinv", (5, 6, 4), (BC.PERIODIC, BC.DIRICHLET, BC.NEUMANN)),
    "lowrank": ("lowrank:r=3", (6, 9), (BC.PERIODIC, BC.PERIODIC)),
}


@pytest.mark.parametrize("case", sorted(_FAMILY_CASES))
def test_applies_handed_work_allocate_no_grid_array(case):
    """Setup allocates no scratch, and applies that get ``out`` and ``work``
    trace less than half a grid array; low rank's rank sum keeps one array
    of its own, allocated by its first apply.  The grids are scaled to 430
    KiB (2D) and 480 KiB (3D), well above the trace's noise: the pinv
    apply's ``ghat`` blocks and numpy's ufunc buffers, under 100 KiB."""
    spec, shape, bcs = _FAMILY_CASES[case]
    shape = tuple((32 if len(shape) == 2 else 8) * n for n in shape)
    precond = make_preconditioner(poisson_operator(shape, bcs), spec)
    assert precond._work is None
    r = np.random.default_rng(24).standard_normal(shape)
    out, work = np.empty(shape), np.empty(shape)
    own = r.nbytes if case == "lowrank" else 0
    for kept in (own, 0):
        _, peak = traced_peak(lambda: [precond.apply(r, out=out, work=work) for _ in range(3)])
        assert kept <= peak < kept + r.nbytes // 2
    assert precond._work is None


class TestMakePreconditioner:
    def test_grammar(self):
        op = _periodic_op(4, 5)
        assert isinstance(make_preconditioner(op, "none"), IdentityPreconditioner)
        assert isinstance(make_preconditioner(op, "pinv"), PinvPreconditioner)
        j = make_preconditioner(op, "jacobi:p=3,omega=1.3")
        assert isinstance(j, JacobiPreconditioner)
        assert j.p == 3 and j.omega == 1.3
        assert make_preconditioner(op, "jacobi").p == 1
        lr = make_preconditioner(op, "lowrank:r=2")
        assert isinstance(lr, LowRankPreconditioner)
        assert lr.rank == 2
        with pytest.raises(ValueError, match="unknown preconditioner 'identity'"):
            make_preconditioner(op, "identity")

    def test_name_is_the_log_label(self):
        op = _periodic_op(4, 5)
        specs = ["none", "pinv", "jacobi:p=3,omega=1.3", "jacobi", "lowrank:r=2"]
        assert [make_preconditioner(op, s).name for s in specs] == [
            "identity",
            "pinv",
            "jacobi(p=3, omega=1.3)",
            "jacobi(p=1, omega=1)",
            "lowrank(r=2)",
        ]


class TestJacobi:
    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize(
        "shape, bcs",
        [((50, 100), (BC.PERIODIC,) * 2), ((4, 6, 8), (BC.PERIODIC,) * 3)],
        ids=["2d", "3d"],
    )
    def test_rejects_an_even_polynomial_that_vanishes_on_the_spectrum(self, p, shape, bcs):
        """On a constant diagonal with the checkerboard sum ``s = 4*ndim``
        (even periodic extents), ``1 - (1 - s/(2*ndim))^p`` is 0 for even ``p``."""
        op = poisson_operator(shape, bcs)
        with pytest.raises(ValueError, match=rf"p={p}, omega=1 .* eigenvalue 0 <= 0"):
            JacobiPreconditioner(op, p=p, omega=1.0)

    @pytest.mark.parametrize(
        "shape, p, omega",
        [((50, 100), 3, 1.0), ((50, 100), 1, 1.0), ((50, 100), 2, 1.01), ((51, 100), 2, 1.0)],
        ids=["odd_p", "one_sweep", "omega_above_one", "odd_periodic_extent"],
    )
    def test_accepts_a_polynomial_positive_on_the_spectrum(self, shape, p, omega):
        """What the closed form accepts runs to 1e-9 without a breakdown."""
        op = _periodic_op(*shape)
        h = center(np.random.default_rng(p).standard_normal(shape))
        precond = JacobiPreconditioner(op, p=p, omega=omega)
        _, log = pcg(op, h, precond, config=SolverConfig(max_iter=3000, stop_tol=1e-9))
        assert log.breakdown is None and log.records[-1].true_res <= 1e-9 * log.h_norm

    @pytest.mark.parametrize(
        "shape, bcs",
        [((6, 7), pair) for pair in itertools.product(BC, repeat=2)]
        + [
            ((5, 4, 6), (BC.PERIODIC, BC.NEUMANN, BC.DIRICHLET)),
            ((4, 5, 3), (BC.DIRICHLET_NEUMANN, BC.PERIODIC, BC.NEUMANN_DIRICHLET)),
        ],
        ids=lambda v: ",".join(getattr(e, "value", str(e)) for e in v),
    )
    def test_weighted_diagonal_holds_only_what_varies(self, shape, bcs):
        """``dhat`` has extent 1 along each direction whose diagonal is
        constant (both corners 2), and the sweeps through it are bitwise
        those through the full ``omega * outer_sum(diagonals)`` tensor."""
        op = poisson_operator(shape, bcs)
        constant = [bc in (BC.PERIODIC, BC.DIRICHLET) for bc in bcs]
        want_shape = tuple(1 if c else n for n, c in zip(shape, constant))
        full = 1.3 * outer_sum([diagonal(n, bc) for n, bc in zip(shape, bcs)])
        r = np.random.default_rng(sum(shape)).standard_normal(shape)
        for p in (1, 2, 3):
            j = JacobiPreconditioner(op, p=p, omega=1.3)
            assert j.dhat.shape == j.dhat_inv.shape == want_shape
            got = j.apply(r).copy()
            j.dhat, j.dhat_inv = full, 1.0 / full
            assert np.array_equal(got, j.apply(r))

    def test_one_sweep_keeps_no_grid_sized_state(self):
        """On an all-periodic grid a ``p = 1`` instance holds a 1x1 diagonal,
        its reciprocal and no sweep buffer."""
        op = _periodic_op(200, 400)
        grid = 8 * 200 * 400
        tracemalloc.start()
        try:
            j = JacobiPreconditioner(op, p=1, omega=1.3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert j.dhat.shape == (1, 1)
        assert peak < 0.05 * grid and held < 0.05 * grid


_WIDTH = 300  # entries per leading row of the blocked-ghat test grids
_LEAD = 2 * (_GHAT_ENTRIES // _WIDTH) + 5  # two full blocks and a partial one at _WIDTH


def _reference_ghat(op):
    return hadamard_pinv(spectrum_sums(op))


def _assert_pinv_is_the_reference(op):
    """``apply``, fresh and into ``(out, work)``, bitwise the transforms around
    :func:`_reference_ghat`."""
    p = PinvPreconditioner(op)
    r = np.random.default_rng(sum(op.shape)).standard_normal(op.shape)
    f = plain_transform([v.T for v in p.bases], r)
    f *= _reference_ghat(op)
    want = plain_transform(p.bases, f)
    assert np.array_equal(p.apply(r), want)
    assert np.array_equal(p.apply(r, out=np.empty(op.shape), work=np.empty(op.shape)), want)


class TestPinv:
    @pytest.mark.parametrize("first", list(BC))
    def test_apply_is_bitwise_the_transforms_around_the_reference_ghat(self, first):
        """The apply, which rebuilds ``ghat`` block by block, equals forward
        transform, ``*= hadamard_pinv(spectrum_sums(op))``, back transform:
        trailing extents 3-9, a leading extent that is not a multiple of the
        block height, and the 512x256x8 grid; each direction takes a
        different condition."""
        shapes = [(_LEAD, t) for t in range(3, 10)] + [(_LEAD, 4, t) for t in range(3, 10)]
        for shape in shapes + [(_LEAD, _WIDTH), (_LEAD, 40, _WIDTH // 40), (512, 256, 8)]:
            _assert_pinv_is_the_reference(poisson_operator(shape, rotated_bcs(first, len(shape))))

    def test_apply_on_p2s_grid_is_bitwise_the_reference(self):
        """The same on p2's 512x1024 Dirichlet-Neumann x periodic grid."""
        _assert_pinv_is_the_reference(
            poisson_operator((512, 1024), (BC.DIRICHLET_NEUMANN, BC.PERIODIC))
        )

    def test_setup_keeps_only_the_1d_factors(self):
        """On the 512x256x8 grid setup keeps the bases and at most 64 KiB
        of eigenvalues, and its scratch stays under 1 MiB: no grid array."""
        op = poisson_operator((512, 256, 8), (BC.PERIODIC,) * 3)
        tracemalloc.start()
        try:
            p = PinvPreconditioner(op)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bases = sum(b.nbytes for b in p.bases)
        assert bases <= held <= bases + 64 * 1024
        assert peak <= bases + 1024 * 1024

    def test_apply_handed_out_and_work_traces_under_256_kib(self):
        """The ``ghat`` blocks live in the idle half of ``(work, out)``; only
        block-sized temporaries and the eigenvalue lines are traced."""
        op = poisson_operator((512, 256, 8), (BC.PERIODIC,) * 3)
        p = PinvPreconditioner(op)
        r = np.random.default_rng(26).standard_normal(op.shape)
        out, work = np.empty(op.shape), np.empty(op.shape)
        _, peak = traced_peak(p.apply, r, out=out, work=work)
        assert peak < 256 * 1024

    def test_annihilates_the_constant_on_singular_grids(self):
        op = _periodic_op(5, 7)
        p = PinvPreconditioner(op)
        z = p.apply(np.ones(op.shape))
        assert np.linalg.norm(z) < 1e-12


# A 3D pinv solve (rotated per-axis transforms) to 1e-9; the iterate goes
# to the .npy path given as the first argument.
_PINV_3D_PROBE = """
import json, sys
import numpy as np
from kronpcg import SolverConfig, gen_problem3, make_preconditioner, pcg
spec, h = gen_problem3("3d_128x64x8", 0)
op = spec.operator()
u, log = pcg(op, h, make_preconditioner(op, "pinv"), config=SolverConfig(max_iter=20, stop_tol=1e-9))
np.save(sys.argv[1], u)
print(json.dumps({
    "iterations": log.iterations,
    "ops_cum": [r.ops_cum for r in log.records],
    "tolerance_stop": log.records[-1].true_res <= 1e-9 * log.h_norm,
    "breakdown": log.breakdown,
    "warnings": log.warnings,
}))
"""


def test_3d_pinv_solve_does_not_depend_on_the_blas_thread_count(tmp_path):
    path = tmp_path / "u.npy"  # each run's iterate, read before the next run
    probe = run_python(["-c", _PINV_3D_PROBE, str(path)])
    (summary_1, u_1), (summary_2, u_2) = [(json.loads(d.stdout), np.load(path)) for d in probe]
    assert summary_1 == summary_2
    assert summary_1["tolerance_stop"]
    assert np.linalg.norm(u_1 - u_2) <= 1e-12 * np.linalg.norm(u_1)


class TestLowRank:
    @pytest.mark.parametrize("first", list(BC))
    def test_svd_factors_the_reference_ghat(self, first, monkeypatch):
        """The ``ghat`` the SVD truncates is bitwise
        ``hadamard_pinv(spectrum_sums(op))``, the one the pinv apply builds
        block by block."""
        factored = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a: factored.append(a.copy()) or svd(a))
        shapes = [(_LEAD, t) for t in range(3, 10)] + [(_LEAD, _WIDTH)]
        for shape in shapes:
            op = poisson_operator(shape, rotated_bcs(first, 2))
            LowRankPreconditioner(op, r=1)
            assert np.array_equal(factored.pop(), _reference_ghat(op))

    def test_rank_one_stays_positive_semidefinite(self):
        rng = np.random.default_rng(52)
        op = _periodic_op(6, 8)
        lr = LowRankPreconditioner(op, r=1)
        for _ in range(100):
            r = rng.standard_normal(op.shape)
            z = lr.apply(r)
            assert inner(z, r) >= -1e-12 * inner(r, r)

    def test_warns_on_an_indefinite_direction(self):
        """Small truncation ranks genuinely lose definiteness on some residuals."""
        op = _periodic_op(6, 8)
        lr = LowRankPreconditioner(op, r=2)
        m = sum(np.kron(right, left) for left, right in zip(lr.left, lr.right))
        m = 0.5 * (m + m.T)
        vals, vecs = np.linalg.eigh(m)
        assert vals[0] < -1e-6, "expected a clearly negative mode at this size"
        bad = unvec(vecs[:, 0], op.shape)
        z = lr.apply(bad)
        assert inner(z, bad) == pytest.approx(vals[0], rel=1e-9)

class TestJacobiStandalone:
    def test_converges_on_a_definite_problem(self):
        rng = np.random.default_rng(60)
        op = poisson_operator((5, 6), (BC.DIRICHLET, BC.DIRICHLET))
        h = rng.standard_normal(op.shape)
        result = jacobi_standalone(op, h, omega=1.0, iters=300)
        assert result.iterations == 300
        assert len(result.residuals) == 301
        assert not result.diverged
        assert result.residuals[-1] < 1e-6 * result.residuals[0]
        assert result.ops_cum == sorted(result.ops_cum)

    def test_one_operator_apply_per_step(self, monkeypatch):
        """The residual recorded after a step is the next step's ``h - L x``."""
        op = poisson_operator((6, 7), (BC.DIRICHLET, BC.PERIODIC))
        h = np.random.default_rng(61).standard_normal(op.shape)
        calls = []
        real_apply = op_mod.apply

        def counted_apply(*args, **kwargs):
            calls.append(1)
            return real_apply(*args, **kwargs)

        monkeypatch.setattr(op_mod, "apply", counted_apply)
        result = jacobi_standalone(op, h, omega=1.3, iters=25)
        assert result.iterations == 25
        assert len(calls) == 25  # the zero start's residual is h itself

    def test_zero_iterations_only_records_the_start(self):
        op = poisson_operator((4, 4), (BC.DIRICHLET, BC.DIRICHLET))
        result = jacobi_standalone(op, np.ones(op.shape), iters=0)
        assert result.iterations == 0
        with pytest.raises(ValueError):
            jacobi_standalone(op, np.ones(op.shape), iters=-1)
