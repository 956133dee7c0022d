import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assemble_dense,
    dense_jacobi_matrix,
    dense_pseudoinverse,
    kron_assemble,
    numeric_spectrum,
    outer_sum,
    plain_transform,
    random_operator,
    rotated_bcs,
    spectrum_sums,
    traced_peak,
    unvec,
    vec,
)
from kronpcg import operators as op_mod
from kronpcg.counting import OpCounter, cost_model
from kronpcg.laplace1d import BoundaryCondition, analytic_spectrum, diagonal
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


SPECTRUM_SOURCES = {
    "numeric": numeric_spectrum,
    "analytic": analytic_spectrum,
}


def _kron_spectral_pinv(op, spectrum):
    """Dense pseudoinverse assembled from per-direction eigenpairs."""
    decomps = [spectrum(n, bc) for n, bc in zip(op.shape, op.bcs)]
    v = kron_assemble([d.vectors for d in reversed(decomps)])
    return (v * hadamard_pinv(vec(outer_sum([d.values for d in decomps])))) @ v.T


def test_identity_copies_into_out_for_free():
    """The identity keeps the one ``apply`` contract: given ``out`` it copies
    ``r`` there and returns ``out``; without it a new array.  ``r`` is never
    modified and the copy is charged 0 ops."""
    p = IdentityPreconditioner()
    r = np.arange(12.0).reshape(3, 4)
    r_copy = r.copy()
    buf = np.full(r.shape, np.nan)
    ops = OpCounter()
    assert p.apply(r, ops, out=buf) is buf
    assert np.array_equal(buf, r)
    fresh = p.apply(r, ops)
    assert not np.may_share_memory(fresh, r)
    assert np.array_equal(fresh, r)
    assert np.array_equal(r, r_copy)
    assert ops.count == 0
    assert p.init_cost == 0


# (spec, grid shape, boundary conditions): every family, pinv in 2D and 3D.
_FAMILY_CASES = {
    "identity": ("none", (6, 9), (BC.PERIODIC, BC.NEUMANN)),
    "jacobi": ("jacobi:p=3,omega=1.3", (6, 9), (BC.DIRICHLET, BC.PERIODIC)),
    "pinv-2d": ("pinv", (6, 9), (BC.PERIODIC, BC.NEUMANN_DIRICHLET)),
    "pinv-3d": ("pinv", (5, 6, 4), (BC.PERIODIC, BC.DIRICHLET, BC.NEUMANN)),
    "lowrank": ("lowrank:r=3", (6, 9), (BC.PERIODIC, BC.PERIODIC)),
}


@pytest.mark.parametrize("case", sorted(_FAMILY_CASES))
def test_apply_into_out_matches_a_fresh_apply(case):
    """``apply(r, out=buf)`` writes the fresh result into ``buf`` bitwise and
    returns it; ``r`` is never modified."""
    spec, shape, bcs = _FAMILY_CASES[case]
    precond = make_preconditioner(poisson_operator(shape, bcs), spec)
    r = np.random.default_rng(21).standard_normal(shape)
    r_copy = r.copy()
    want = precond.apply(r).copy()
    buf = np.full(shape, np.nan)
    ops = OpCounter()
    got = precond.apply(r, ops, out=buf)
    assert got is buf
    assert np.array_equal(got, want)
    assert np.array_equal(r, r_copy)
    fresh = OpCounter()
    precond.apply(r, fresh)
    assert ops.count == fresh.count


@pytest.mark.parametrize("case", sorted(_FAMILY_CASES))
def test_apply_refuses_an_out_that_overlaps_r(case):
    spec, shape, bcs = _FAMILY_CASES[case]
    precond = make_preconditioner(poisson_operator(shape, bcs), spec)
    r = np.random.default_rng(22).standard_normal(shape)
    r_copy = r.copy()
    for out in (r, r.reshape(-1).reshape(shape)):
        with pytest.raises(ValueError, match="overlap"):
            precond.apply(r, out=out)
    for out in (np.empty(shape[::-1]).T, np.empty(shape, dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous"):
            precond.apply(r, out=out)
    assert np.array_equal(r, r_copy)


@pytest.mark.parametrize("case", sorted(_FAMILY_CASES))
def test_apply_refuses_a_work_that_overlaps_r_or_out_before_writing(case):
    """``work`` is checked like ``out`` and must also miss ``out``; a refused
    apply leaves ``r``, ``out`` and ``work`` as they were."""
    spec, shape, bcs = _FAMILY_CASES[case]
    precond = make_preconditioner(poisson_operator(shape, bcs), spec)
    r = np.random.default_rng(23).standard_normal(shape)
    r_copy = r.copy()
    buf = np.full(shape, np.nan)
    flat = np.full(2 * r.size, np.nan)  # out and work sharing half their entries
    shifted = flat[: r.size].reshape(shape), flat[r.size // 2 : r.size // 2 + r.size].reshape(shape)
    for out, work in [(buf, r), (buf, r.reshape(-1).reshape(shape)), (buf, buf), shifted]:
        with pytest.raises(ValueError, match="overlap"):
            precond.apply(r, out=out, work=work)
    for work in (np.full(shape[::-1], np.nan).T, np.full(shape, np.nan, dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous"):
            precond.apply(r, out=buf, work=work)
    assert np.array_equal(r, r_copy)
    assert np.isnan(buf).all() and np.isnan(flat).all()


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

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus",
            "jacobi:q=1",
            "jacobi:p=zero",
            "lowrank",
            "lowrank:r=0",
            "pinv:r=1",
            "jacobi:p=1,p=3",
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            make_preconditioner(_periodic_op(4, 5), spec)

    def test_missing_required_parameter_is_named_by_its_spec_key(self):
        """The constructor's keyword is the spec key, so its own refusal names it."""
        with pytest.raises(ValueError, match="argument: 'r'") as info:
            make_preconditioner(_periodic_op(4, 5), "lowrank")
        assert "'rank'" not in str(info.value)

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
    def test_one_sweep_is_the_scaled_diagonal(self):
        rng = np.random.default_rng(2)
        op = random_operator(rng, ndim=2)
        r = rng.standard_normal(op.shape)
        j = JacobiPreconditioner(op, p=1, omega=1.15)
        dense_diag = np.diag(assemble_dense(op))
        want = vec(r) / (1.15 * dense_diag)
        assert np.allclose(vec(j.apply(r)), want, atol=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    @pytest.mark.parametrize("omega", [1.0, 1.3])
    def test_matches_dense_sweep_matrix(self, p, omega):
        rng = np.random.default_rng(100 * p + int(10 * omega))
        op = random_operator(rng, ndim=2, hi=6)
        r = rng.standard_normal(op.shape)
        j = JacobiPreconditioner(op, p=p, omega=omega)
        m = dense_jacobi_matrix(assemble_dense(op), p, omega)
        want = unvec(m @ vec(r), op.shape)
        assert np.allclose(j.apply(r), want, atol=1e-12)

    def test_is_symmetric(self):
        rng = np.random.default_rng(8)
        op = random_operator(rng, ndim=3, hi=5)
        j = JacobiPreconditioner(op, p=4, omega=1.3)
        x = rng.standard_normal(op.shape)
        y = rng.standard_normal(op.shape)
        assert inner(j.apply(x), y) == pytest.approx(inner(x, j.apply(y)), rel=1e-12)

    def test_rejects_bad_parameters(self):
        op = _periodic_op(4, 5)
        with pytest.raises(ValueError):
            JacobiPreconditioner(op, p=0)
        for omega in (0.9, np.nan, np.inf, 1e308):
            with pytest.raises(ValueError, match="omega"):
                JacobiPreconditioner(op, omega=omega)

    def test_refuses_an_omega_whose_weighted_diagonal_overflows(self):
        """The weighted diagonal reaches ``omega*2*ndim``: at ``max/4`` it is
        finite in 2D and overflows in 3D, which setup refuses before any
        numpy multiply, so no RuntimeWarning is raised (they are errors here)."""
        omega = sys.float_info.max / 4
        j = JacobiPreconditioner(_periodic_op(4, 5), omega=omega)
        assert np.isfinite(j.dhat).all() and j.dhat.max() == sys.float_info.max
        op3 = poisson_operator((4, 5, 6), (BC.PERIODIC,) * 3)
        with pytest.raises(ValueError, match="omega"):
            JacobiPreconditioner(op3, omega=omega)

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

    def test_rejects_a_fractional_sweep_count_or_a_text_omega(self):
        """``p=2.5`` is not truncated to 2 sweeps, and ``omega`` must be a number."""
        op = poisson_operator((5, 6), (BC.DIRICHLET, BC.NEUMANN))
        with pytest.raises(ValueError, match="integer"):
            JacobiPreconditioner(op, p=2.5)
        with pytest.raises(ValueError, match="omega"):
            JacobiPreconditioner(op, omega="1.3")

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

    def test_sweep_op_costs(self):
        op = _periodic_op(5, 6)
        n = 30
        r = np.ones(op.shape)
        ops = OpCounter()
        JacobiPreconditioner(op, p=1).apply(r, ops)
        assert ops.count == n
        ops = OpCounter()
        JacobiPreconditioner(op, p=3).apply(r, ops)
        assert ops.count == n + 2 * (6 * n * 2 + 4 * n)


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
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("source", ["numeric", "analytic"])
    def test_matches_dense_pseudoinverse(self, ndim, source):
        """The closed-form pinv against the assembled matrix's pseudoinverse
        and against the one built from ``source``'s 1D eigenpairs."""
        rng = np.random.default_rng(40 + ndim)
        for nonsingular in (True, False):
            op = random_operator(rng, ndim=ndim, hi=5, nonsingular=nonsingular)
            r = rng.standard_normal(op.shape)
            z = PinvPreconditioner(op).apply(r)
            for m in (
                dense_pseudoinverse(assemble_dense(op)),
                _kron_spectral_pinv(op, SPECTRUM_SOURCES[source]),
            ):
                want = unvec(m @ vec(r), op.shape)
                assert np.linalg.norm(z - want) <= 1e-10 * np.linalg.norm(r)

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

    def test_apply_cost_matches_model(self):
        op = poisson_operator((5, 6, 4), (BC.PERIODIC,) * 3)
        p = PinvPreconditioner(op)
        ops = OpCounter()
        p.apply(np.ones(op.shape), ops)
        n = 5 * 6 * 4
        assert ops.count == 4 * n * (5 + 6 + 4) + n
        assert ops.count == cost_model(op.shape, "pinv_apply")
        assert p.init_cost == 3 * n


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = tmp_path / f"u{threads}.npy"
        done = subprocess.run(
            [sys.executable, "-c", _PINV_3D_PROBE, str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        runs.append((json.loads(done.stdout), np.load(path)))
    (summary_1, u_1), (summary_2, u_2) = runs
    assert summary_1 == summary_2
    assert summary_1["tolerance_stop"]
    assert np.linalg.norm(u_1 - u_2) <= 1e-12 * np.linalg.norm(u_1)


class TestLowRank:
    def test_full_rank_reproduces_pinv(self):
        rng = np.random.default_rng(50)
        op = _periodic_op(6, 9)
        r = rng.standard_normal(op.shape)
        full = LowRankPreconditioner(op, r=6)
        exact = PinvPreconditioner(op)
        z = full.apply(r)
        assert np.linalg.norm(z - exact.apply(r)) <= 1e-10 * np.linalg.norm(r)

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

    def test_matches_dense_assembly(self):
        rng = np.random.default_rng(51)
        op = _periodic_op(5, 8)
        lr = LowRankPreconditioner(op, r=3)
        m = sum(np.kron(right, left) for left, right in zip(lr.left, lr.right))
        r = rng.standard_normal(op.shape)
        z = lr.apply(r)
        assert np.allclose(vec(z), m @ vec(r), atol=1e-12)

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

    def test_rejects_3d_and_bad_ranks(self):
        op3 = poisson_operator((4, 4, 4), (BC.PERIODIC,) * 3)
        with pytest.raises(ValueError):
            LowRankPreconditioner(op3, r=2)
        op = _periodic_op(5, 8)
        with pytest.raises(ValueError):
            LowRankPreconditioner(op, r=0)
        with pytest.raises(ValueError):
            LowRankPreconditioner(op, r=6)

    def test_rejects_a_fractional_rank(self):
        op = poisson_operator((5, 6), (BC.DIRICHLET, BC.NEUMANN))
        with pytest.raises(ValueError, match="integer"):
            LowRankPreconditioner(op, r=2.5)


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
        step = result.ops_cum[1] - result.ops_cum[0]
        assert step == 6 * h.size * op.ndim + 4 * h.size
        assert np.diff(result.ops_cum).tolist() == [step] * 25

    def test_refuses_a_misshapen_or_non_finite_rhs(self):
        op = poisson_operator((5, 6), (BC.DIRICHLET, BC.NEUMANN))
        with pytest.raises(ValueError, match="does not match grid"):
            jacobi_standalone(op, np.ones((6, 5)), iters=3)
        for bad in (np.nan, np.inf):
            h = np.ones(op.shape)
            h[2, 3] = bad
            with pytest.raises(ValueError, match="not finite"):
                jacobi_standalone(op, h, iters=3)

    def test_refuses_a_complex_rhs(self):
        """It shares the solver's check: the imaginary part is not dropped."""
        op = poisson_operator((5, 6), (BC.DIRICHLET, BC.NEUMANN))
        with pytest.raises(ValueError, match="must be real"):
            jacobi_standalone(op, np.ones(op.shape) + 1j, iters=3)

    def test_zero_iterations_only_records_the_start(self):
        op = poisson_operator((4, 4), (BC.DIRICHLET, BC.DIRICHLET))
        result = jacobi_standalone(op, np.ones(op.shape), iters=0)
        assert result.iterations == 0
        with pytest.raises(ValueError):
            jacobi_standalone(op, np.ones(op.shape), iters=-1)

    def test_rejects_a_fractional_step_count(self):
        op = poisson_operator((5, 6), (BC.DIRICHLET, BC.NEUMANN))
        with pytest.raises(ValueError, match="integer"):
            jacobi_standalone(op, np.ones(op.shape), iters=2.5)
