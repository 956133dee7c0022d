import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (
    Negated,
    assemble_dense,
    kappa_indicator,
    traced_peak,
    vec,
    zero_start_pcg,
)
from kronpcg import operators as op_mod
from kronpcg.laplace1d import BoundaryCondition
from kronpcg.operators import center, nullspace_component, poisson_operator
from kronpcg.precond import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    PinvPreconditioner,
    make_preconditioner,
)
from kronpcg.problems import gen_problem1, gen_problem2, gen_problem3
from kronpcg.solver import ConvergenceLog, PCGBreakdown, SolverConfig, eta_series, pcg

BC = BoundaryCondition


def _mixed_op():
    return poisson_operator((5, 6), (BC.DIRICHLET, BC.NEUMANN_DIRICHLET))


def _mixed_rhs(op, seed=0):
    return np.random.default_rng(seed).standard_normal(op.shape)


def test_converges_to_rounding_on_a_definite_problem():
    op = _mixed_op()
    h = _mixed_rhs(op, seed=3)
    u, log = pcg(op, h, config=SolverConfig(max_iter=60))
    assert np.linalg.norm(h - op_mod.apply(op, u)) <= 1e-10 * np.linalg.norm(h)
    assert log.breakdown is None


def test_singular_problem_keeps_iterates_centered():
    spec, h = gen_problem1(5, 10)
    op = spec.operator()
    u, log = pcg(op, h, PinvPreconditioner(op), config=SolverConfig(max_iter=8))
    for rec in log.records:
        scale = max(1e-30, np.linalg.norm(log.u))
        assert rec.null_norm <= 1e-9 * max(1.0, scale)
    assert abs(u.mean()) < 1e-15


def test_uncentered_rhs_on_singular_operator_is_refused():
    op = poisson_operator((4, 5), (BC.PERIODIC, BC.PERIODIC))
    with pytest.raises(ValueError, match="center"):
        pcg(op, np.ones(op.shape))
    # A null share the CLI would center is refused too, not solved to the floor.
    spec, h = gen_problem1(50, 100)
    h = h + 5e-9 * np.linalg.norm(h) / np.sqrt(h.size)
    assert nullspace_component(h) / np.linalg.norm(h) == pytest.approx(5e-9, rel=1e-6)
    with pytest.raises(ValueError, match="null component 5.00e-09"):
        pcg(spec.operator(), h, config=SolverConfig(stop_tol=1e-9))


class Recording:
    """A preconditioner that passes through and keeps every array it was handed."""

    def __init__(self, inner_precond):
        self.inner, self.seen = inner_precond, []
        self.name, self.init_cost = inner_precond.name, inner_precond.init_cost
        self.apply_cost = inner_precond.apply_cost

    def apply(self, r, out=None, work=None):
        self.seen += [r, out, work]
        return self.inner.apply(r, out, work)


def _assert_fresh_zero_iterate(u, op, h, handed=()):
    """A stop before the first update returns a zero array of its own."""
    assert u.shape == op.shape and np.all(u == 0.0)
    assert u.flags.writeable and u.flags.c_contiguous and u.flags.owndata
    assert not any(np.shares_memory(u, a) for a in (h, *handed) if a is not None)


def test_zero_rhs_short_circuits():
    """A zero start residual is the rounding floor: ``<r_0, z_0> = 0``."""
    op = poisson_operator((4, 5), (BC.PERIODIC, BC.PERIODIC))
    h = np.zeros(op.shape)
    precond = Recording(IdentityPreconditioner(op))
    u, log = pcg(op, h, precond, config=SolverConfig(max_iter=50))
    assert log.iterations == 0
    assert len(log.warnings) == 1 and "residual floor" in log.warnings[0]
    _assert_fresh_zero_iterate(u, op, h, precond.seen)


@pytest.mark.parametrize("singular", [True, False], ids=["singular", "nonsingular"])
def test_a_zero_budget_returns_the_zero_start(singular):
    op = poisson_operator((5, 6), (BC.PERIODIC, BC.NEUMANN)) if singular else _mixed_op()
    h = center(_mixed_rhs(op, seed=3)) if singular else _mixed_rhs(op, seed=3)
    u, log = pcg(op, h, PinvPreconditioner(op), config=SolverConfig(max_iter=0))
    assert log.iterations == 0 and log.records[0].rho is None
    _assert_fresh_zero_iterate(u, op, h)


_REFERENCE_GRIDS = {
    "2d_singular": ((7, 9), (BC.PERIODIC, BC.NEUMANN)),
    "2d_nonsingular": ((6, 8), (BC.DIRICHLET, BC.NEUMANN_DIRICHLET)),
    "3d_singular": ((4, 5, 6), (BC.PERIODIC, BC.PERIODIC, BC.NEUMANN)),
    "3d_nonsingular": ((5, 4, 6), (BC.DIRICHLET_NEUMANN, BC.PERIODIC, BC.NEUMANN)),
}


@pytest.mark.parametrize(
    "spec, grid",
    [
        (spec, grid)
        for spec in ("none", "jacobi:p=3,omega=1.3", "pinv", "lowrank:r=2")
        for grid in _REFERENCE_GRIDS
        if not (spec.startswith("lowrank") and grid.startswith("3d"))  # low rank is 2-D only
    ],
)
@pytest.mark.parametrize(
    "cfg", [SolverConfig(max_iter=12), SolverConfig(max_iter=60, stop_tol=1e-10)],
    ids=["budget", "stop_tol"],
)
def test_iterates_and_records_are_bitwise_the_zero_start_loop(spec, grid, cfg):
    """The rotating direction buffers, the written first iterate and the
    shared null-space sums change no bit of ``u`` or of any record field but
    ``ops_cum``, which the loop does not count (``test_contracts`` checks it)."""
    shape, bcs = _REFERENCE_GRIDS[grid]
    op = poisson_operator(shape, bcs)
    h = np.random.default_rng(len(spec) + sum(shape)).standard_normal(shape)
    if op_mod.is_singular(op):
        h = center(h)
    precond = make_preconditioner(op, spec)
    want_u, want = zero_start_pcg(op, h, precond, cfg)
    try:
        u, log = pcg(op, h, precond, config=cfg)
    except PCGBreakdown as exc:
        u, log = exc.log.u, exc.log
    assert log.iterations >= 1
    assert u.tobytes() == want_u.tobytes()
    assert [dataclasses.replace(r, ops_cum=None) for r in log.records] == want.records
    assert (log.warnings, log.breakdown) == (want.warnings, want.breakdown)


def test_stop_tol_halts_early():
    spec, h = gen_problem1(5, 10)
    op = spec.operator()
    u, log = pcg(
        op, h, PinvPreconditioner(op), config=SolverConfig(max_iter=10, stop_tol=1e-9)
    )
    assert log.iterations == 1
    assert log.records[-1].true_res <= 1e-9 * log.h_norm


def test_indefinite_preconditioner_breaks_down():
    op = _mixed_op()
    h = _mixed_rhs(op, seed=5)
    bad = Recording(Negated(PinvPreconditioner(op)))
    with pytest.raises(PCGBreakdown) as excinfo:
        pcg(op, h, bad, config=SolverConfig(max_iter=20))
    exc = excinfo.value
    assert "preconditioned inner product" in str(exc)
    assert exc.log.breakdown == "indefinite"
    assert exc.log.iterations == 0
    assert exc.log.records[0].rho < 0.0
    assert exc.log.records[-1].beta is None
    _assert_fresh_zero_iterate(exc.log.u, op, h, bad.seen)
    assert any("not positive" in w for w in exc.log.warnings)


def test_negative_curvature_breaks_down(monkeypatch):
    """An operator applied as ``-L`` fails the curvature check of step 1."""
    op = poisson_operator((4, 6), (BC.PERIODIC, BC.PERIODIC))
    rng = np.random.default_rng(9)
    h = center(rng.standard_normal(op.shape))
    real_apply = op_mod.apply

    def negated_apply(op, x, out=None):
        lx = real_apply(op, x, out=out)
        return np.negative(lx, out=lx)

    monkeypatch.setattr(op_mod, "apply", negated_apply)
    with pytest.raises(PCGBreakdown, match="nonpositive curvature") as excinfo:
        pcg(op, h, config=SolverConfig(max_iter=5))
    log = excinfo.value.log
    assert log.breakdown == "curvature"
    assert log.iterations == 0 and log.records[0].rho > 0.0
    assert len(log.warnings) == 1 and log.warnings[0].startswith("iteration 1: curvature")


def test_exact_preconditioner_completes_a_fixed_budget():
    """Past convergence the scalars carry no information, but a budget that
    ends before the rounding floor still runs to its last iteration."""
    spec, h = gen_problem1(5, 10)
    op = spec.operator()
    u, log = pcg(op, h, PinvPreconditioner(op), config=SolverConfig(max_iter=10))
    assert log.breakdown is None
    assert log.iterations == 10
    for rec in log.records[:-1]:
        assert np.isfinite(rec.rho) and np.isfinite(rec.computed_res)
    assert (log.records[-1].rho, log.records[-1].beta) == (None, None)
    assert log.records[-1].true_res <= 1e-12 * log.h_norm


def test_run_stops_at_the_residual_floor():
    """Reaching the rounding floor is a normal stop, noted once."""
    spec, h = gen_problem1(5, 10)
    op = spec.operator()
    u, log = pcg(op, h, PinvPreconditioner(op), config=SolverConfig(max_iter=100))
    assert log.breakdown is None
    assert 10 < log.iterations < 100
    floor_notes = [w for w in log.warnings if "residual floor" in w]
    assert len(floor_notes) == 1
    assert log.records[-1].computed_res <= 2.0**-52 * log.records[0].computed_res
    assert log.records[-1].true_res <= 1e-12 * log.h_norm


def test_jacobi_on_an_all_neumann_grid_returns_a_mean_free_iterate():
    """Jacobi output carries a constant part that the search directions
    accumulate; the returned iterate must still be off the null space."""
    op = poisson_operator((30, 40), (BC.NEUMANN, BC.NEUMANN))
    h = center(np.random.default_rng(29).standard_normal(op.shape))
    precond = JacobiPreconditioner(op, p=3, omega=1.3)
    u, log = pcg(op, h, precond, config=SolverConfig(max_iter=300))
    assert log.breakdown is None
    assert nullspace_component(u) <= 1e-9 * np.linalg.norm(u)


def test_kappa_indicator_matches_dense_quadratic_form():
    op = _mixed_op()
    rng = np.random.default_rng(19)
    h = rng.standard_normal(op.shape)
    u = rng.standard_normal(op.shape)
    a = assemble_dense(op)
    want = float(vec(u) @ a @ vec(u) - 2.0 * vec(u) @ vec(h))
    assert kappa_indicator(op, h, u) == pytest.approx(want, rel=1e-12)


def test_eta_series_anchors_to_the_first_residual():
    kappas = [5.0, 2.0, 1.0, 1.0]
    etas = eta_series(kappas, first_iter_residual=0.1)
    assert etas[1] == pytest.approx(0.1, rel=1e-12)
    assert etas[0] == pytest.approx(0.2, rel=1e-12)
    assert etas[2] == pytest.approx(2.0**-52, abs=1e-18)
    assert eta_series([], None).size == 0
    flat = eta_series([3.0, 3.0], None)
    assert np.all(flat == 2.0**-52)


def test_log_iterations_property():
    log = ConvergenceLog()
    assert log.iterations == 0
    spec, h = gen_problem1(5, 10)
    op = spec.operator()
    _, full = pcg(op, h, config=SolverConfig(max_iter=7))
    assert full.iterations == 7
    assert len(full.records) == 8


def test_log_describes_its_run():
    spec, h = gen_problem1(5, 10)
    op = spec.operator()
    cfg = SolverConfig(max_iter=4, stop_tol=1e-30)
    for precond, described in ((None, "identity"), (PinvPreconditioner(op), "pinv")):
        _, log = pcg(op, h, precond, config=cfg)
        assert log.config is cfg
        assert (log.shape, log.bcs, log.preconditioner) == (
            [5, 10],
            ["periodic", "periodic"],
            described,
        )


class TestInPlaceIteration:
    """The solver updates its own buffers in place; these pin the hazards."""

    @pytest.mark.parametrize("spec", ["none", "jacobi:p=3,omega=1.3"])
    def test_a_step_makes_no_grid_array(self, spec):
        """A solve holds four grid arrays (``u``, ``r``, ``p``, ``w``); the
        preconditioner, the identity too, writes into ``w``, so the traced
        peak of a 20-step run stays below a fifth array and exceeds that of
        a 2-step run only by the log's records.  An untraced warm-up solve
        leaves Jacobi's sweep buffer, allocated by its second apply, outside
        the traced runs."""
        problem, h = gen_problem1(50, 100)
        op = problem.operator()
        precond = make_preconditioner(op, spec)
        pcg(op, h, precond, config=SolverConfig(max_iter=2))
        grid = h.size * h.itemsize
        peaks = []
        for budget in (2, 20):
            (_, log), peak = traced_peak(pcg, op, h, precond, config=SolverConfig(max_iter=budget))
            peaks.append(peak)
            assert log.iterations == budget
        assert all(4 * grid <= peak < 4.5 * grid for peak in peaks)
        assert 0 <= peaks[1] - peaks[0] < 0.25 * grid

    def test_jacobi_setup_and_solve_stay_near_five_grid_arrays(self):
        """Setup plus solve holds the four solver arrays and the sweep buffer;
        the weighted diagonal and its reciprocal are 1x1 on the periodic grid."""
        spec, h = gen_problem1(50, 100)
        op = spec.operator()
        grid = h.size * h.itemsize
        tracemalloc.start()
        try:
            precond = JacobiPreconditioner(op, p=3, omega=1.3)
            _, log = pcg(op, h, precond, config=SolverConfig(max_iter=20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.iterations == 20
        assert 5 * grid <= peak < 5.5 * grid

    @pytest.mark.parametrize("grid_kind", ["3d", "2d_mixed"])
    def test_pinv_setup_and_solve_hold_four_grid_arrays(self, grid_kind):
        """Setup plus a tolerance-stopped pinv solve holds the four solver
        arrays and no preconditioner scratch: the one apply's GEMMs run in
        the solver's idle ``p`` and ``w``, and ``ghat`` is rebuilt a block at
        a time in whichever of them is idle.  Beyond the four arrays the
        trace holds the 1D bases and eigenvalues, one stencil face buffer
        and 16 KiB."""
        if grid_kind == "3d":
            spec, h = gen_problem3("3d_128x64x8", 0)
        else:  # Dirichlet-Neumann x periodic, p2's conditions
            spec, h = gen_problem2(128, 256)
        op = spec.operator()
        grid = h.size * h.itemsize
        face = grid // op.shape[-1]
        config = SolverConfig(max_iter=20, stop_tol=1e-9)

        def setup_and_solve():
            precond = PinvPreconditioner(op)
            return precond, pcg(op, h, precond, config=config)[1]

        (precond, log), peak = traced_peak(setup_and_solve)
        assert log.iterations == 1 and log.records[-1].true_res <= 1e-9 * log.h_norm
        assert precond._work is None
        kept = sum(a.nbytes for a in precond.bases + precond.values)
        assert 4 * grid <= peak <= 4 * grid + kept + face + 16 * 1024

    @pytest.mark.parametrize("singular", [True, False], ids=["singular", "nonsingular"])
    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(max_iter=8, stop_tol=1e-6),
            SolverConfig(max_iter=8),
        ],
        ids=["stop_tol", "no_stop_tol"],
    )
    def test_logged_kappa_is_the_indicator_of_each_iterate(self, singular, cfg):
        if singular:
            op = poisson_operator((7, 9), (BC.PERIODIC, BC.NEUMANN))
        else:
            op = _mixed_op()
        h = center(_mixed_rhs(op, seed=37)) if singular else _mixed_rhs(op, seed=37)
        precond = JacobiPreconditioner(op, p=2, omega=1.3)
        _, log = pcg(op, h, precond, config=cfg)
        assert log.iterations >= 3
        for rec in log.records:
            step = SolverConfig(max_iter=rec.s, stop_tol=cfg.stop_tol)
            u_s, _ = pcg(op, h, precond, config=step)
            assert rec.kappa == pytest.approx(kappa_indicator(op, h, u_s), rel=1e-12)

    @pytest.mark.parametrize("stop_tol", [None, 1e-8])
    @pytest.mark.parametrize("sweeps", [1, 3])
    def test_one_operator_apply_per_step_and_per_record(self, monkeypatch, stop_tol, sweeps):
        op = poisson_operator((12, 10), (BC.PERIODIC, BC.PERIODIC))
        h = center(np.random.default_rng(41).standard_normal(op.shape))
        precond = JacobiPreconditioner(op, p=sweeps, omega=1.3)
        calls = []
        real_apply = op_mod.apply

        def counted_apply(*args, **kwargs):
            calls.append(1)
            return real_apply(*args, **kwargs)

        precond_calls = []
        real_precond_apply = precond.apply

        def counted_precond_apply(*args, **kwargs):
            precond_calls.append(1)
            return real_precond_apply(*args, **kwargs)

        monkeypatch.setattr(op_mod, "apply", counted_apply)
        monkeypatch.setattr(precond, "apply", counted_precond_apply)
        _, log = pcg(op, h, precond, config=SolverConfig(max_iter=30, stop_tol=stop_tol))
        if stop_tol is None:
            assert log.iterations == 30
        else:
            assert log.iterations < 30
            assert log.records[-1].true_res <= stop_tol * log.h_norm
        # Neither a tolerance nor a budget stop preconditions its last residual.
        assert len(precond_calls) == log.iterations
        # One L p per step, one L u per record after the zero start.
        expected = log.iterations + (len(log.records) - 1) + (sweeps - 1) * log.iterations
        assert len(calls) == expected
