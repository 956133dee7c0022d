"""Acceptance gate: one test per numbered release criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line with the
measured figures, then asserts.  Run with ``-rA`` (or ``-s``) to see the
lines for passing tests too; a plain ``-v`` run shows the per-criterion
verdict through the test outcome itself.
"""

import time

import numpy as np
import pytest

from conftest import (
    ALL_BCS,
    assemble_dense,
    dense_pcg,
    numeric_spectrum,
    random_operator,
    spectrum_sums,
)
from kronpcg.counting import OpCounter
from kronpcg.laplace1d import BoundaryCondition, analytic_spectrum
from kronpcg.operators import (
    apply as apply_operator,
    nullspace_component,
    poisson_operator,
)
from kronpcg.precond import (
    IdentityPreconditioner,
    LowRankPreconditioner,
    PinvPreconditioner,
    jacobi_standalone,
)
from kronpcg.problems import P3_VARIANTS, gen_problem1, gen_problem3
from kronpcg.solver import PCGBreakdown, SolverConfig, pcg

BC = BoundaryCondition
BIG_VARIANT = "3d_512x256x8"


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_analytic_spectra_match_numeric():
    """Closed-form eigenvalues agree with a dense symmetric eigensolver."""
    start = time.monotonic()
    worst = 0.0
    lo, hi = np.inf, -np.inf
    for bc in ALL_BCS:
        for n in (3, 5, 8, 50, 200):
            ana = analytic_spectrum(n, bc)
            num = numeric_spectrum(n, bc)
            worst = max(worst, float(np.max(np.abs(ana.values - num.values))))
            lo = min(lo, float(ana.values[0]))
            hi = max(hi, float(ana.values[-1]))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and lo >= -1e-12 and hi <= 4.0 + 1e-12 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"max eigenvalue deviation {worst:.2e} over 5 BCs x n in {{3,5,8,50,200}}, "
        f"spectrum range [{lo:.2e}, {hi:.15g}], {elapsed:.2f} s",
    )


def test_criterion_02_stencil_apply_matches_assembled_matrix():
    """200 random operators: sparse apply and eigenvalue sums match dense."""
    start = time.monotonic()
    rng = np.random.default_rng(20)
    worst_apply = 0.0
    worst_sums = 0.0
    for case in range(200):
        op = random_operator(rng, ndim=2 if case < 100 else 3, lo=3, hi=6)
        a = assemble_dense(op)
        x = rng.standard_normal(op.shape)
        lhs = apply_operator(op, x).ravel(order="F")
        rhs = a @ x.ravel(order="F")
        worst_apply = max(
            worst_apply,
            float(np.linalg.norm(lhs - rhs)) / float(np.linalg.norm(x)),
        )
        sums = np.sort(spectrum_sums(op).ravel())
        eigs = np.linalg.eigvalsh(a)
        worst_sums = max(worst_sums, float(np.max(np.abs(sums - eigs))))
    elapsed = time.monotonic() - start
    ok = worst_apply <= 1e-12 and worst_sums <= 1e-8 and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"200 random 2D/3D cases: apply deviation {worst_apply:.2e} (tol 1e-12), "
        f"eigenvalue-sum deviation {worst_sums:.2e} (tol 1e-8), {elapsed:.2f} s",
    )


def test_criterion_03_cg_scalars_match_textbook_recurrence():
    """Identity-preconditioned runs reproduce dense CG alphas and betas."""
    rng = np.random.default_rng(21)
    worst = 0.0
    fewest_compared = np.inf
    for case in range(20):
        if case < 12:
            op = random_operator(rng, ndim=2, lo=3, hi=9, nonsingular=True)
        else:
            op = random_operator(rng, ndim=3, lo=3, hi=4, nonsingular=True)
        h = rng.standard_normal(op.shape)
        budget = min(h.size, 60)
        _, log = pcg(
            op,
            h,
            IdentityPreconditioner(op),
            config=SolverConfig(max_iter=budget),
        )
        a = assemble_dense(op)
        _, alphas, betas, res = dense_pcg(a, h.ravel(order="F"), iters=budget)
        h_norm = float(np.linalg.norm(h))
        compared = 0
        for s in range(1, min(len(alphas), log.iterations) + 1):
            if res[s - 1] <= 1e-8 * h_norm:
                break
            rec = log.records[s]
            worst = max(worst, abs(rec.alpha - alphas[s - 1]) / abs(alphas[s - 1]))
            compared += 1
            # Once a step lands at the rounding floor its beta and post-step
            # residual are noise in both implementations; stop comparing.
            if res[s] > 1e-8 * h_norm and rec.beta is not None:
                worst = max(worst, abs(rec.beta - betas[s - 1]) / abs(betas[s - 1]))
        fewest_compared = min(fewest_compared, compared)
    ok = worst <= 1e-9 and fewest_compared >= 1
    _verdict(
        3,
        ok,
        f"20 nonsingular systems (size <= 100): worst scalar deviation {worst:.2e} "
        f"(tol 1e-9 relative), every system compared >= {int(fewest_compared)} step(s)",
    )


def test_criterion_04_spectral_preconditioner_converges_in_three():
    """Full preconditioning solves the benchmark problems almost at once."""
    cases = [("problem1 50x100", gen_problem1(50, 100))]
    for name in sorted(P3_VARIANTS):
        cases.append((f"problem3 {name}", gen_problem3(name)))
    parts = []
    ok = True
    big_elapsed = None
    for name, (spec, h) in cases:
        op = spec.operator()
        pre = PinvPreconditioner(op)
        start = time.monotonic()
        try:
            _, log = pcg(op, h, pre, config=SolverConfig(max_iter=10))
        except PCGBreakdown as exc:
            ok = False
            parts.append(f"{name}: breakdown ({exc.reason})")
            continue
        elapsed = time.monotonic() - start
        rels = [rec.true_res / log.h_norm for rec in log.records[1:]]
        s9 = next((s for s, r in enumerate(rels, start=1) if r <= 1e-9), None)
        s11 = next((s for s, r in enumerate(rels, start=1) if r <= 1e-11), None)
        completed = log.breakdown is None and log.iterations == 10
        case_ok = s9 is not None and s9 <= 3 and s11 is not None and completed
        if name.endswith(BIG_VARIANT):
            big_elapsed = elapsed
            case_ok = case_ok and elapsed < 300.0
        ok = ok and case_ok
        parts.append(f"{name}: 1e-9@{s9} 1e-11@{s11} iters={log.iterations}")
    detail = "; ".join(parts)
    if big_elapsed is not None:
        detail += f"; largest case {big_elapsed:.1f} s (limit 300 s)"
    _verdict(4, ok, detail)


def test_criterion_05_jacobi_stalls_where_cg_converges():
    """Plain CG beats 5000 damped-Jacobi sweeps on the striped problem."""
    spec, h = gen_problem1(50, 100)
    op = spec.operator()
    _, log = pcg(op, h, IdentityPreconditioner(op), config=SolverConfig(max_iter=500))
    cg_at = next(
        (rec.s for rec in log.records[1:] if rec.true_res <= 1e-8 * log.h_norm),
        None,
    )
    cg_level = min(rec.true_res for rec in log.records[1:])
    jac = jacobi_standalone(op, h, omega=1.0, iters=5000)
    jac_final = jac.residuals[-1]
    ok = (
        cg_at is not None
        and cg_at < 500
        and not jac.diverged
        and jac_final > cg_level
        and jac_final / log.h_norm > 1e-2
    )
    _verdict(
        5,
        ok,
        f"CG reaches 1e-8 relative at iteration {cg_at} (< 500), best level "
        f"{cg_level / log.h_norm:.2e}; Jacobi after 5000 sweeps still at "
        f"{jac_final / log.h_norm:.2e} relative",
    )


def test_criterion_06_normalization_constants_are_frozen():
    """Generated right-hand sides carry the documented norms."""
    checks = []
    _, h = gen_problem1(5, 10)
    checks.append(("problem1 5x10", float(np.linalg.norm(h)), 2e-2))
    _, h = gen_problem1(50, 100)
    checks.append(("problem1 50x100", float(np.linalg.norm(h)), 2e-4))
    _, h = gen_problem3(BIG_VARIANT)
    checks.append((f"problem3 {BIG_VARIANT}", float(np.linalg.norm(h)), 9.5367431640625e-7))
    worst = max(abs(got - want) / want for _, got, want in checks)
    ok = worst <= 1e-14
    detail = ", ".join(f"{name}: {got:.17g}" for name, got, _ in checks)
    _verdict(6, ok, f"{detail} (worst relative error {worst:.2e}, tol 1e-14)")


def test_criterion_07_iterates_stay_off_the_null_space():
    """Centered runs on singular problems never grow a constant component."""
    parts = []
    ok = True

    # Short spectral runs: exact per-iterate ratios via deterministic reruns.
    for name, (spec, h) in [
        ("problem1 5x10 pinv", gen_problem1(5, 10)),
        ("problem1 50x100 pinv", gen_problem1(50, 100)),
    ]:
        op = spec.operator()
        pre = PinvPreconditioner(op)
        _, log = pcg(op, h, pre, config=SolverConfig(max_iter=10))
        worst = 0.0
        for s in range(1, log.iterations + 1):
            u_s, _ = pcg(op, h, pre, config=SolverConfig(max_iter=s))
            worst = max(worst, nullspace_component(u_s) / float(np.linalg.norm(u_s)))
        ok = ok and worst <= 1e-9
        parts.append(f"{name}: max ratio {worst:.1e}")

    # Long runs: bound every logged component by the smallest iterate norm.
    for name, (spec, h), pre_kind, iters in [
        ("problem1 50x100 identity", gen_problem1(50, 100), "identity", 200),
        ("problem3 3d_128x64x8 pinv", gen_problem3("3d_128x64x8"), "pinv", 10),
    ]:
        op = spec.operator()
        pre = IdentityPreconditioner(op) if pre_kind == "identity" else PinvPreconditioner(op)
        u, log = pcg(op, h, pre, config=SolverConfig(max_iter=iters))
        u1, _ = pcg(op, h, pre, config=SolverConfig(max_iter=1))
        denom = min(float(np.linalg.norm(u1)), float(np.linalg.norm(u)))
        worst = max(rec.null_norm for rec in log.records[1:]) / denom
        ok = ok and worst <= 1e-9 and log.records[0].null_norm == 0.0
        parts.append(f"{name}: max ratio {worst:.1e}")

    _verdict(7, ok, "; ".join(parts) + " (tol 1e-9)")


def test_criterion_08_low_rank_family_brackets_the_pseudoinverse():
    """Full rank equals pinv; rank one stays PSD; 3D is refused."""
    rng = np.random.default_rng(28)
    worst_full = 0.0
    for _ in range(20):
        op = random_operator(rng, ndim=2, lo=3, hi=50)
        full = LowRankPreconditioner(op, r=min(op.shape))
        pinv = PinvPreconditioner(op)
        x = rng.standard_normal(op.shape)
        z_full = full.apply(x)
        z_pinv = pinv.apply(x)
        worst_full = max(
            worst_full,
            float(np.linalg.norm(z_full - z_pinv)) / float(np.linalg.norm(z_pinv)),
        )

    worst_psd = 0.0
    for shape in [(6, 8), (12, 9), (30, 40)]:
        op = poisson_operator(shape, (BC.PERIODIC, BC.NEUMANN))
        rank_one = LowRankPreconditioner(op, r=1)
        for _ in range(40):
            x = rng.standard_normal(shape)
            z = rank_one.apply(x)
            worst_psd = min(worst_psd, float(np.sum(z * x)) / float(np.sum(x * x)))

    op3 = poisson_operator((4, 4, 4), (BC.DIRICHLET,) * 3)
    with pytest.raises(ValueError):
        LowRankPreconditioner(op3, r=2)

    ok = worst_full <= 1e-10 and worst_psd >= -1e-12
    _verdict(
        8,
        ok,
        f"full rank vs pinv deviation {worst_full:.2e} (tol 1e-10) over 20 cases; "
        f"rank-1 smallest <z, r>/<r, r> = {worst_psd:.2e} (floor -1e-12); 3D rejected",
    )


def test_criterion_09_operation_counts_match_the_cost_tables():
    """Per-iteration and pseudoinverse-application counts hit the budgets."""
    rng = np.random.default_rng(29)
    parts = []
    ok = True
    cases = [
        ((50, 100), (BC.DIRICHLET, BC.DIRICHLET)),
        ((16, 16, 16), (BC.DIRICHLET,) * 3),
    ]
    for shape, bcs in cases:
        op = poisson_operator(shape, bcs)
        size = int(np.prod(shape))
        iter_budget = (22 if len(shape) == 2 else 28) * size
        h = rng.standard_normal(shape)
        _, log = pcg(
            op,
            h,
            IdentityPreconditioner(op),
            config=SolverConfig(max_iter=4),
        )
        deltas = [
            log.records[s].ops_cum - log.records[s - 1].ops_cum for s in range(2, 5)
        ]
        iter_ok = all(abs(d - iter_budget) <= 0.1 * iter_budget for d in deltas)

        pinv_budget = int(4 * size * (sum(shape) + 0.25))
        counter = OpCounter()
        PinvPreconditioner(op).apply(h, counter)
        pinv_ok = abs(counter.count - pinv_budget) <= 0.1 * pinv_budget

        ok = ok and iter_ok and pinv_ok
        parts.append(
            f"{'x'.join(map(str, shape))}: iteration {deltas[0]} vs {iter_budget}, "
            f"pinv apply {counter.count} vs {pinv_budget}"
        )
    _verdict(9, ok, "; ".join(parts) + " (tolerance 10%)")


def test_criterion_10_error_indicator_tracks_the_energy_norm():
    """The computable indicator bottoms out exactly where the true error does."""
    op = poisson_operator((6, 5), (BC.DIRICHLET, BC.NEUMANN_DIRICHLET))
    rng = np.random.default_rng(30)
    h = rng.standard_normal(op.shape)
    # Stop while the indicator still resolves error differences: kappa is an
    # O(1)-magnitude quadratic form, so once the squared energy error drops
    # under eps * |kappa| (relative residual around 1e-8) the kappa series is
    # flat rounding noise and no indicator built on it can order iterates.
    _, log = pcg(
        op,
        h,
        IdentityPreconditioner(op),
        config=SolverConfig(max_iter=40, stop_tol=1e-6),
    )
    kappas = np.array([rec.kappa for rec in log.records])
    shift_ok = bool(np.all(kappas - kappas.min() >= -1e-10))

    a = assemble_dense(op)
    u_star = np.linalg.solve(a, h.ravel(order="F"))
    errors = []
    for s in range(len(log.records)):
        u_s, _ = pcg(
            op,
            h,
            IdentityPreconditioner(op),
            config=SolverConfig(max_iter=s),
        )
        d = u_s.ravel(order="F") - u_star
        errors.append(float(np.sqrt(max(float(d @ (a @ d)), 0.0))))
    etas = np.array([rec.eta_scaled for rec in log.records])
    eta_argmin = int(np.argmin(etas))
    err_argmin = int(np.argmin(np.array(errors)))
    ok = shift_ok and eta_argmin == err_argmin
    _verdict(
        10,
        ok,
        f"kappa shift floor {float(np.min(kappas - kappas.min())):.1e} (>= -1e-10); "
        f"argmin eta = {eta_argmin}, argmin energy-norm error = {err_argmin} "
        f"over {log.iterations} logged iterations",
    )
