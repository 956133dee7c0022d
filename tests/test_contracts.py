"""The contract of every public entry point, as one table of seeded cases.

Each case ends one of two ways: the documented ``ValueError``, raised before
any write to a caller's array, or a result bitwise equal to the same call on
the float64 C-ordered array (:func:`kronpcg.tensors.checked_tensor`).  No
case changes the bytes of an array it hands over.  Each seed draws one grid,
2D or 3D with extents 3-9; float64 results are also within rounding of the
dense references of ``conftest``, ``pcg`` keeps its counts and scales its
iterate exactly under power-of-two scales of the side, and ``kronpcg solve``
writes what ``pcg`` gives for its folded side or exits 1.
"""

import json
import os
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import assemble_dense, dense_jacobi_matrix, dense_pcg, dense_pseudoinverse
from conftest import kron_assemble, numeric_spectrum, spectrum_sums, vec
from kronpcg import cli
from kronpcg.formats import log_to_dict, read_tensor, write_tensor
from kronpcg.laplace1d import BoundaryCondition as BC, analytic_spectrum, eigenvalues, face_kinds
from kronpcg.operators import apply, apply_bc_updates, center, checked_rhs, is_singular
from kronpcg.operators import null_share, nullspace_component, poisson_operator
from kronpcg.precond import JacobiPreconditioner, LowRankPreconditioner, Preconditioner
from kronpcg.precond import jacobi_standalone, make_preconditioner
from kronpcg.problems import gen_problem1, gen_problem2, gen_problem3
from kronpcg.solver import PCGBreakdown, SolverConfig, pcg
from kronpcg.tensors import frobenius_norm, hadamard_pinv, inner, linear_transform

SEEDS = range(12)
GRID = "does not match grid"
_MAX = sys.float_info.max
# ``seed // 2`` picks where a grid's directions start in this cycle: axis 0 and
# the last axis, 2D and 3D alike, take every condition; two 2D and two 3D grids
# are singular, one of each all-periodic.
_CYCLE = (
    BC.PERIODIC, BC.PERIODIC, BC.NEUMANN, BC.DIRICHLET, BC.DIRICHLET_NEUMANN, BC.NEUMANN_DIRICHLET
)


def draw(seed):
    """A seeded generator and its grid: 2D for an even seed, 3D for an odd
    one; every direction but the last takes the condition of axis 0."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(3, 10, size=2 + seed % 2)
    bcs = [_CYCLE[(seed // 2 + (d == len(dims) - 1)) % 6] for d in range(len(dims))]
    return rng, poisson_operator(dims, bcs)


def draw_preconditioners(seed, op):
    """Spec -> instance for every family the grid takes, Jacobi at an odd and
    an even ``p``, the parameters cycling with the seed; an even-p Jacobi whose
    ``M L`` setup finds an eigenvalue ``<= 0`` is refused and left out."""
    omega, rank = (1.0, 1.3)[seed // 2 % 2], (1, 2, min(op.shape))[seed // 2 % 3]
    specs = ["none", "pinv"] + [f"jacobi:p={(1, 3, 5)[seed % 3]},omega={omega}"]
    specs += [f"jacobi:p={(2, 4)[seed // 3 % 2]},omega={omega}"]
    specs += [f"lowrank:r={rank}"] * (op.ndim == 2)
    precs = {}
    for spec in specs:
        try:
            precs[spec] = make_preconditioner(op, spec)
        except ValueError as exc:
            assert "eigenvalue" in str(exc)
    return precs


def test_the_draws_cover_every_condition_family_and_rank():
    """Axis 0 and the last axis of 2D and 3D grids take every condition;
    Jacobi runs each ``(p, omega)`` of p 1, 2, 3, 5 and omega 1.0, 1.3; lowrank
    runs rank 1, a rank in between and full rank; 2D and 3D grids are singular."""
    want = {(ndim, end, bc) for ndim in (2, 3) for end in (0, -1) for bc in BC}
    want |= {("jacobi", p, w) for p in (1, 2, 3, 5) for w in (1.0, 1.3)}
    want |= {("lowrank", rank) for rank in ("1", "between", "full")}
    want |= {("singular", 2), ("singular", 3)}
    got = set()
    for seed in SEEDS:
        op = draw(seed)[1]
        got |= {(op.ndim, end, op.bcs[end]) for end in (0, -1)}
        got |= {("singular", op.ndim)} if is_singular(op) else set()
        for precond in draw_preconditioners(seed, op).values():
            if isinstance(precond, JacobiPreconditioner):
                got.add(("jacobi", precond.p, precond.omega))
            elif isinstance(precond, LowRankPreconditioner):
                full = min(op.shape)
                got.add(("lowrank", {1: "1", full: "full"}.get(precond.rank, "between")))
    assert want <= got, want - got


def fingerprint(value):
    if isinstance(value, Preconditioner):
        return value.name, fingerprint(value.apply(_R))
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.flags.c_contiguous, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(fingerprint, value))
    return repr(value)  # floats and run records: repr round-trips every bit


def outcome(call, *arrays):
    """``call()``'s result, bitwise, or its ``ValueError``; ``arrays`` keep their bytes."""
    before = [a.tobytes() for a in arrays]
    try:
        got = ("result", fingerprint(call()))
    except ValueError as exc:
        got = ("refused", str(exc))
    assert [a.tobytes() for a in arrays] == before
    return got


def entry_points(seed, op, rng, path):
    """Name -> (the refusal of another shape, or None; whether non-finite
    entries are refused; the call on one grid array)."""
    y = rng.standard_normal(op.shape)
    mats = [rng.standard_normal((n, n)) for n in op.shape]
    faces = [tuple(v if k else None for k, v in zip(face_kinds(bc), (0.7, -0.3))) for bc in op.bcs]

    def kten(a):
        write_tensor(path, a)
        back = read_tensor(path)
        os.remove(path)
        assert back.tobytes() == np.array(a, dtype=float, order="C").tobytes()  # bitwise
        assert back.flags.c_contiguous and back.flags.writeable
        return back

    def transform(a):
        return linear_transform(mats, a, (np.empty(np.shape(a)), np.empty(np.shape(a)))).copy()

    def solve(a):
        u, log = pcg(op, a, make_preconditioner(op, "pinv"), SolverConfig(max_iter=3))
        return u, repr(log.records)

    table = {
        "apply": (GRID, False, lambda a: apply(op, a)),
        "center": (None, False, lambda a: (center(a), nullspace_component(a))),
        "inner": (GRID, False, lambda a: (inner(a, y), inner(y, a), frobenius_norm(a))),
        "linear_transform": ("along mode", False, transform),
        "apply_bc_updates": (None, False, lambda a: apply_bc_updates(a, op.bcs, faces)),
        "pcg": (GRID, True, solve),
        "jacobi_standalone": (GRID, True, lambda a: repr(jacobi_standalone(op, a, 1.3, 3))),
        "kten": (None, True, kten),
    }
    for spec, precond in draw_preconditioners(seed, op).items():
        table[spec] = (GRID, False, precond.apply)
    return table


def variants(x, rng, finite):
    """(label, array, None for the float64 C call's outcome or the refusal's match)."""
    ints = np.round(7 * x)
    strided = np.zeros(x.shape + (3,))[..., 1]
    strided[...] = x
    frozen = x.copy()
    frozen.flags.writeable = False
    cases = [("bool", x > 0, None), ("int8", ints.astype(np.int8), None)]
    cases += [("int64", ints.astype(np.int64), None), ("uint16", abs(ints).astype(np.uint16), None)]
    cases += [(t.__name__, x.astype(t), None) for t in (np.float16, np.float32, np.longdouble)]
    cases += [("F order", np.asfortranarray(x), None), ("strided", strided, None)]
    cases += [("negative stride", x[::-1].copy()[::-1], None), ("read-only", frozen, None)]
    cases += [("complex", x + 0j, "must be real, got dtype complex128")]
    cases += [("object", x.astype(object), "must be real, got dtype object")]
    cases += [("str", x.astype(str), "must be real, got dtype <U")]
    if finite:  # right-hand sides: a non-finite entry, or entries past float64's range
        for bad in (np.nan, np.inf, -np.inf):
            h = x.copy()
            h[tuple(rng.integers(n) for n in x.shape)] = bad
            cases.append((f"{bad} entry", h, "finite"))
        if np.finfo(np.longdouble).max > sys.float_info.max:
            huge = x.astype(np.longdouble) * np.longdouble(1e300) ** 2
            cases.append(("longdouble past float64", huge, "finite"))
    return cases


@pytest.mark.parametrize("seed", SEEDS)
def test_every_entry_point_reads_a_grid_array_by_one_rule(seed, tmp_path):
    rng, op = draw(seed)
    x = center(rng.standard_normal(op.shape))  # a side pcg takes on every grid
    x.flat[2] += x.flat[0] + x.flat[1] - 5e-324  # -0.0 and the least denormal, still centered
    x.flat[:2] = -0.0, 5e-324
    table = entry_points(seed, op, rng, tmp_path / "t.kten")
    for name, (shape_refusal, finite, call) in table.items():
        for label, a, match in variants(x, rng, finite) + [("wrong shape", x[:-1], shape_refusal)]:
            got = outcome(lambda: call(a), a)
            if match is None:
                assert got == outcome(lambda: call(np.array(a, dtype=float, order="C"))), label
            else:
                assert got[0] == "refused" and re.search(match, got[1]), (name, label, got)
            assert os.listdir(tmp_path) == [], (name, label)


def halves(rng, shape):
    """A grid array at the head of a twice-as-long flat array, and that array."""
    flat = np.full(2 * int(np.prod(shape)), np.nan)
    head = flat[: flat.size // 2].reshape(shape)
    head[...] = rng.standard_normal(shape)
    return head, flat


def bad_buffers(x, flat):
    """(buffer, match) that no kernel reading ``x``, the head of ``flat``, takes as ``out``."""
    frozen = np.full(x.shape, np.nan)
    frozen.flags.writeable = False
    return [
        (x, "overlap"),
        (flat[x.size // 2 : x.size // 2 + x.size].reshape(x.shape), "overlap"),
        (np.full(x.shape[::-1], np.nan).T, "C-contiguous"),
        (np.full((x.shape[0] + 1,) + x.shape[1:], np.nan), "C-contiguous"),
        (np.full(x.shape, np.nan, dtype=np.float32), "C-contiguous"),
        (np.zeros(x.shape, dtype=np.int64), "C-contiguous"),
        (frozen, "writable"),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_out_and_work_are_checked_before_the_first_write(seed):
    """A good ``out`` and a NaN-filled ``work`` leave the instance's own scratch
    unallocated and get the result of two fresh calls bitwise
    (the first allocates that scratch, the second reuses it); a bad one is
    refused with every array as it was.  ``work`` must also miss ``out``;
    ``linear_transform``'s second work array may be its input, and the
    elementwise ``center`` runs in place with ``out=x``."""
    rng, op = draw(seed)
    x, flat = halves(rng, op.shape)
    mats = [rng.standard_normal((n, n)) for n in op.shape]
    precs = draw_preconditioners(seed, op)

    def transform(out, work):
        pair = [np.empty(op.shape) if b is None else b for b in (out, work)]
        return linear_transform(mats, x, pair)

    kernels = {
        "apply": lambda out, work: apply(op, x, out=out),
        "center": lambda out, work: center(x, out=out),
        "linear_transform": transform,
    }
    for spec, precond in precs.items():
        kernels[spec] = lambda out, work, precond=precond: precond.apply(x, out, work)
    for name, kernel in kernels.items():
        out, out_flat = halves(rng, op.shape)
        work = np.full(op.shape, np.nan)
        got = kernel(out, work)
        assert name not in precs or precs[name]._work is None, name
        holders = (out, work) if name == "linear_transform" else (out,)
        assert any(np.shares_memory(got, b) for b in holders), name
        for _ in range(2):
            want = kernel(None, None)
            assert got.tobytes() == want.tobytes(), name
        if name == "center":
            assert center(y := x.copy(), out=y) is y and y.tobytes() == want.tobytes()
        cases = [(b, work, m) for b, m in bad_buffers(x, flat)[name == "center" :]]
        if name not in ("apply", "center"):  # work: bad as an out is, or meeting out
            works = bad_buffers(x, flat)[2 * (name == "linear_transform") :]
            works += [(out, "overlap"), (bad_buffers(out, out_flat)[1][0], "overlap")]
            cases += [(out, b, m) for b, m in works]
        for b_out, b_work, match in cases:
            got = outcome(lambda: kernel(b_out, b_work), x, flat, out_flat, b_out, b_work)
            assert got[0] == "refused" and re.search(match, got[1]), (name, got)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_family_is_symmetric_and_the_definite_ones_positive(seed):
    """``|<Mx,y> - <x,My>| <= 1e-12 |x||y|``; identity, pinv and odd-p Jacobi
    have ``<x, Mx> > 0`` on the range (even-p Jacobi and lowrank: ROADMAP item 12)."""
    rng, op = draw(seed)
    for spec, precond in draw_preconditioners(seed, op).items():
        x, y = rng.standard_normal((2,) + op.shape)
        gap = inner(precond.apply(x), y) - inner(x, precond.apply(y))
        assert abs(gap) <= 1e-12 * frobenius_norm(x) * frobenius_norm(y), spec
        if spec in ("none", "pinv") or isinstance(precond, JacobiPreconditioner) and precond.p % 2:
            x = center(x) if is_singular(op) else x
            assert inner(x, precond.apply(x)) > 0, spec


def dense_matrix(op, precond, a):
    """The conftest reference matrix of a drawn preconditioner on ``op``, whose
    matrix is ``a``.  Lowrank's is built from the operator alone: the SVD of
    ``hadamard_pinv`` of the eigenvalue sums, truncated to the rank, as a
    diagonal between the Kronecker-assembled 1D eigenbases."""
    if isinstance(precond, JacobiPreconditioner):
        return dense_jacobi_matrix(a, precond.p, precond.omega)
    if isinstance(precond, LowRankPreconditioner):
        u, sigma, vt = np.linalg.svd(hadamard_pinv(spectrum_sums(op)))
        r = precond.rank
        g = (u[:, :r] * sigma[:r]) @ vt[:r]
        bases = [numeric_spectrum(n, bc).vectors for n, bc in zip(op.shape, op.bcs)]
        v = kron_assemble(bases[::-1])
        return (v * vec(g)) @ v.T
    return dense_pseudoinverse(a) if precond.name == "pinv" else np.eye(len(a))


def solve_log(op, h, precond, config=SolverConfig(500, 1e-9)):
    """``pcg``'s log, to 1e-9 by default, the partial one after a breakdown."""
    try:
        return pcg(op, h, precond, config)[1]
    except PCGBreakdown as exc:
        return exc.log


def assert_near(got, want, tol, scale):
    assert np.linalg.norm(vec(got) - want) <= tol * scale


def drawn_side(seed):
    """A seed's grid and side ``h``, centered on a singular grid."""
    rng, op = draw(seed)
    h = rng.standard_normal(op.shape)
    return op, center(h) if is_singular(op) else h


@pytest.mark.parametrize("seed", SEEDS)
def test_every_entry_point_is_its_dense_reference_to_rounding(seed):
    """Float64 results against the assembled references of ``conftest``
    (N <= 729), each within its rounding tolerance."""
    rng, op = draw(seed)
    a = assemble_dense(op)
    x, y = rng.standard_normal((2,) + op.shape)
    mats = [rng.standard_normal((n, n)) for n in op.shape]
    size = np.linalg.norm
    assert_near(apply(op, x), a @ vec(x), 1e-12, size(x))
    want = kron_assemble(mats[::-1]) @ vec(x)
    pair = (np.empty(op.shape), np.empty(op.shape))
    assert_near(linear_transform(mats, x, pair), want, 1e-12, size(want))
    assert abs(inner(x, y) - np.dot(vec(x), vec(y))) <= 1e-14 * size(x) * size(y)
    assert abs(frobenius_norm(x) - size(x)) <= 1e-14 * size(x)
    assert np.abs(center(x) - (x - x.mean())).max() <= 1e-15 * np.abs(x).max()
    for spec, precond in draw_preconditioners(seed, op).items():
        z = precond.apply(y)
        if spec == "none":
            assert z.tobytes() == y.tobytes()
        tol = 1e-10 if spec == "pinv" else 1e-12
        assert_near(z, dense_matrix(op, precond, a) @ vec(y), tol, size(y))
        if spec == f"lowrank:r={min(op.shape)}":
            assert_near(z, dense_pseudoinverse(a) @ vec(y), 1e-10, size(y))


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg_follows_the_dense_pcg_of_every_drawn_family(seed):
    """``pcg``'s scalars against the matrix-form PCG with each family's dense
    ``M``, until the residual is below 1e-8 |h|; a zero side stops at record 0."""
    op, h = drawn_side(seed)
    a = assemble_dense(op)
    floor = 1e-8 * np.linalg.norm(h)
    assert solve_log(op, np.zeros(op.shape), None).iterations == 0
    for spec, precond in draw_preconditioners(seed, op).items():
        log = solve_log(op, h, precond)
        m = dense_matrix(op, precond, a)
        _, alphas, betas, res = dense_pcg(a, vec(h), m, iters=log.iterations)
        assert log.records[0].computed_res == pytest.approx(res[0], rel=1e-12)
        for rec, alpha, beta, r, r_last in zip(log.records[1:], alphas, betas, res[1:], res):
            if r_last <= floor:
                break
            assert rec.alpha == pytest.approx(alpha, rel=1e-9), (spec, rec.s)
            if r > floor:
                assert rec.computed_res == pytest.approx(r, rel=1e-9), (spec, rec.s)
                assert rec.beta in (None, pytest.approx(beta, rel=1e-9)), (spec, rec.s)


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg_scales_exactly_with_a_power_of_two_side(seed):
    """Scaling ``h`` by ``2**k``, k = +-300, keeps every family's iteration
    count and scales ``u`` exactly: the stop has no absolute floor."""
    op, h = drawn_side(seed)
    for spec, precond in draw_preconditioners(seed, op).items():
        log = solve_log(op, h, precond)
        for k in (300, -300):
            scaled = solve_log(op, np.ldexp(h, k), precond)
            assert scaled.iterations == log.iterations, (spec, k)
            assert np.ldexp(scaled.u, -k).tobytes() == log.u.tobytes(), (spec, k)


def readme_charges(precond, shape):
    """A drawn family's (apply, ``init_cost``) charges by README's "Counting rules"."""
    n, ndim = int(np.prod(shape)), len(shape)
    if isinstance(precond, JacobiPreconditioner):
        return n + (precond.p - 1) * (6 * n * ndim + 4 * n), (ndim + 1) * n
    if isinstance(precond, LowRankPreconditioner):
        return precond.rank * (2 * n * sum(shape) + n), ndim * n
    return (4 * n * sum(shape) + n, ndim * n) if precond.name == "pinv" else (0, 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_family_declares_readmes_counting_rules(seed):
    """The closed forms of README's "Counting rules": the operator's
    ``apply_cost``, each family's ``apply_cost`` and ``init_cost`` and
    Jacobi's ``sweep_cost``, and of each kernel a fresh result that shares
    no memory with its input."""
    op, h = drawn_side(seed)
    n = h.size
    assert op.apply_cost == 6 * n * op.ndim
    kernels = [lambda x: apply(op, x), center]
    for spec, precond in draw_preconditioners(seed, op).items():
        assert (precond.apply_cost, precond.init_cost) == readme_charges(precond, op.shape), spec
        if isinstance(precond, JacobiPreconditioner):
            assert precond.sweep_cost == 6 * n * op.ndim + 4 * n, spec
        kernels.append(precond.apply)
    for kernel in kernels:
        assert not np.shares_memory(kernel(h), h), kernel


@pytest.mark.parametrize("seed", SEEDS)
def test_every_solver_record_charges_readmes_counting_rules(seed):
    """README's "Counting rules" summed per record: ``pcg``'s record 0 and
    every later increment, with and without ``stop_tol``, for every drawn
    family; the stand-alone Jacobi steps."""
    op, h = drawn_side(seed)
    n, ndim = h.size, op.ndim
    stencil = 6 * n * ndim
    check = stencil + 4 * n  # a stopping rule's Lu and |h - Lu|, or a stand-alone Jacobi step
    centering = 3 * n if is_singular(op) else 0
    for spec, precond in draw_preconditioners(seed, op).items():
        charge, init = readme_charges(precond, op.shape)
        for tol in (None, 1e-300):
            counts = [r.ops_cum for r in solve_log(op, h, precond, SolverConfig(3, tol)).records]
            step = stencil + 10 * n + charge + centering + check * (tol is not None)
            assert counts[0] == init + centering and np.diff(counts).tolist() == [step] * 3, spec
    counts = jacobi_standalone(op, h, 1.3, 3).ops_cum
    assert counts[0] == (ndim + 1) * n and np.diff(counts).tolist() == [check] * 3


_STEMS = {"potential": "ue", "field": "eu"}  # a face's kind -> its flags' stem, then the other's
# (extra ``solve`` flags, what its stderr holds) for the refusals every grid draws.
_SOLVE_REFUSALS = [(["--max-iter=-1"], "error: --max-iter must be an integer in [0, inf], got -1")]
_SOLVE_REFUSALS += [([f"--tol={t}"], f"error: --tol must be a real number in [5e-324, {_MAX!r}], "
                     f"got {t}\n") for t in (np.nan, np.inf, 0.0, -1.0)]
_SOLVE_REFUSALS += [([f"--precond=jacobi:p=3,omega={w}"], "omega must be a real number in [1.0, ")
                    for w in ("nan", "inf", "1e308")]


def solve_case(seed, tmp_path):
    """A seed's ``kronpcg solve`` call: the grid, its centered side written to
    ``h.kten`` (and a non-finite copy to ``bad.kten``), the argv with a drawn
    ``--precond``, the face values and flags of every bounded end, and the
    refusals the grid draws as (extra flags, what stderr holds)."""
    rng, op = draw(seed)
    h = center(rng.standard_normal(op.shape))
    rhs, log_path, sol = (str(tmp_path / f) for f in ("h.kten", "log.json", "u.kten"))
    write_tensor(rhs, h)
    bad = h.copy()
    bad.flat[rng.integers(h.size)] = (np.nan, np.inf, -np.inf)[seed % 3]
    header = f"KTEN {h.ndim} {' '.join(map(str, h.shape))}\n".encode()
    (tmp_path / "bad.kten").write_bytes(header + bad.astype("<f8").tobytes(order="F"))
    specs = list(draw_preconditioners(seed, op))
    spec = specs[seed % len(specs)]
    bcs = ",".join(f"{a}={bc.value}" for a, bc in zip("xyz", op.bcs))
    argv = ["solve", "--input", rhs, "--bc", bcs, "--precond", spec, "--log", log_path]
    argv += ["--solution", sol]
    refusals = _SOLVE_REFUSALS + [(["--input", str(tmp_path / "bad.kten")], "not finite")]
    faces, flags = [], []
    for a, bc in zip("xyz", op.bcs):
        faces.append([None if kind is None else rng.standard_normal() for kind in face_kinds(bc)])
        for end, kind, value in zip("BE", face_kinds(bc), faces[-1]):
            if kind is None:
                flag = f"--{'ue'[seed % 2]}{end}"
                refusals.append(([flag, f"{a}=1"], f"error: {flag}: axis {a} (periodic) has no"))
                continue
            flag, other = (f"--{stem}{end}" for stem in _STEMS[kind])
            flags += [flag, f"{a}={value!r}"]
            refusals.append(([other, f"{a}=0.5"], f"error: {other}: the ", f"value, from {flag}\n"))
            entry = f"{a}={('nan', 'inf', '-inf')[seed % 3]}"
            refused = f"a face value must be a real number in [{-_MAX!r}, {_MAX!r}], got {entry[2:]}"
            refusals.append(([flag, entry], f"error: bad {flag} entry '{entry}': {refused}\n"))
    return op, h, argv, spec, faces, flags, refusals


@pytest.mark.parametrize("seed", SEEDS)
def test_kronpcg_solve_refuses_bad_input_and_writes_no_file(seed, tmp_path, capsys):
    """Each refusal drawn on the grid exits 1, naming its flag, and writes
    neither ``--log`` nor ``--solution``."""
    *_, argv, _, _, _, refusals = solve_case(seed, tmp_path)
    for extra, *messages in refusals:
        assert cli.main(argv + extra) == 1, extra
        out, err = capsys.readouterr()
        assert out == "" and all(m in err for m in messages), (extra, err)
        assert sorted(os.listdir(tmp_path)) == ["bad.kten", "h.kten"], extra


@pytest.mark.parametrize("seed", SEEDS)
def test_kronpcg_solve_is_pcg_on_the_folded_side(seed, tmp_path, capsys):
    """``kronpcg solve`` with a face flag of its kind on every bounded end
    writes the log and solution of ``pcg`` on the side folded by
    ``apply_bc_updates`` and centered exactly when ``null_share`` calls it
    uncentered, noting each in the log."""
    op, h, argv, spec, faces, flags, _ = solve_case(seed, tmp_path)
    notes = []
    budget = ["--max-iter", str(10 + seed)] if seed // 2 % 2 else ["--tol", "1e-9"]
    assert cli.main(argv + flags + budget) == 0
    assert capsys.readouterr().out.startswith("done: ")
    g = h
    if flags:
        g = apply_bc_updates(h, op.bcs, faces)
        notes.append("boundary face values folded into the right-hand side")
    g, g_norm = checked_rhs(op, g)
    if null_share(op, g, g_norm)[1] is not None:
        center(g, out=g)
        notes.append("right-hand side centered (singular operator)")
    config = SolverConfig(10 + seed) if seed // 2 % 2 else SolverConfig(stop_tol=1e-9)
    u, log = pcg(op, g, make_preconditioner(op, spec), config)
    log.problem, log.warnings[:0] = "h.kten", notes
    assert json.loads((tmp_path / "log.json").read_text()) == log_to_dict(log)
    assert read_tensor(str(tmp_path / "u.kten")).tobytes() == u.tobytes()


_BCS = (BC.DIRICHLET, BC.NEUMANN)
_OP = poisson_operator((5, 6), _BCS)
_R = np.random.default_rng(0).standard_normal(_OP.shape)
_INTEGRAL = [(v, "integer") for v in (3.0, 2.5, Fraction(3), "3", True)]
_SPECS = [
    ("bogus", "unknown preconditioner 'bogus'"), ("jacobi:q=1", "jacobi takes p, omega"),
    ("jacobi:p=zero", "invalid literal"), ("jacobi:p=2.5", "invalid literal"),
    ("jacobi:p", "bad parameter"), ("pinv:r=1", "pinv takes no parameters"),
    ("lowrank", "argument: 'r'"), ("lowrank:r=0", "rank r"),
    ("jacobi:p=1,p=3", "'p' is given twice"), (None, "string, got NoneType"),
    (3, "string, got int"), (b"pinv", "string, got bytes"),
]
_FACES = [(((None, None),), "cover every direction")]
_FACES += [(((None, None), (1.0, None)), r"direction 1 \(periodic\) accepts no begin")]

def _integer(knob, low, high=float("inf")):
    """The refusal match of an integer knob's rule."""
    return re.escape(f"{knob} must be an integer in [{low}, {high}], got ")


def _real(knob, low, high=_MAX):
    """The refusal match of a real knob's rule."""
    return re.escape(f"{knob} must be a real number in [{low!r}, {high!r}], got ")


# knob -> (the call on one value, [(value, the plain value it equals)], [(value, refusal match)])
KNOBS = {
    "extent": (lambda n: poisson_operator((n, 6), _BCS), [(np.int32(5), 5), (np.uint8(5), 5)],
               _INTEGRAL + [(n, _integer("a grid extent", 3)) for n in (0, 1, 2)]),
    "1-D extent, eigenvalues": (lambda n: eigenvalues(n, BC.DIRICHLET), [(np.int64(4), 4)],
                                [(n, _integer("1-D extent", 3)) for n in (2, 3.5, True)]),
    "1-D extent, analytic_spectrum": (lambda n: analytic_spectrum(n, BC.PERIODIC).vectors,
                                      [(np.int64(4), 4)],
                                      [(n, _integer("1-D extent", 3)) for n in (2, 3.5, True)]),
    "p1 extent": (lambda n: gen_problem1(n, 10)[1], [(np.int64(12), 12)],
                  [(v, _integer("a grid extent", 3)) for v in (2, 3.5)]),
    "p2 band": (lambda n: gen_problem2(n)[1], [(np.int64(5), 5)],
                [(v, _integer("p2 extent n (at least the band width)", 5)) for v in (4, 40.5)]),
    "p3 variant": (gen_problem3, [], [("4d_hypercube", "unknown variant '4d_hypercube'")]),
    "p3 seed": (lambda s: gen_problem3("2d_512x256", s), [], [(-1, _integer("p3 seed", 0))]),
    "extents": (lambda dims: poisson_operator(dims, (BC.PERIODIC,) * len(dims)), [],
                [((5,), "2D or 3D"), ((5,) * 4, "2D or 3D")]),
    "conditions": (lambda bcs: poisson_operator((5, 6), bcs), [], [(_BCS[:1], "one boundary")]),
    "max_iter": (SolverConfig, [(np.int64(3), 3)], _INTEGRAL + [(-1, _integer("max_iter", 0))]),
    "stop_tol": (lambda t: SolverConfig(5, t), [(Fraction(1, 10**9), 1e-9)],
                 [(t, _real("stop_tol", 5e-324)) for t in
                  (np.nan, np.inf, -1.0, 0.0, 10**400, "1e-9", True, Fraction(1, 10**400))]),
    "p": (lambda p: JacobiPreconditioner(_OP, p), [(np.int64(3), 3), (np.int64(30), 30)],
          _INTEGRAL + [(v, _integer("jacobi sweep count p", 1, 30)) for v in (0, 31)]),
    "omega": (lambda w: JacobiPreconditioner(_OP, 3, w),
              [(Fraction(13, 10), 1.3), (np.int8(2), 2), (Fraction(_MAX) / 4, _MAX / 4)],
              [(w, _real("jacobi damping omega", 1.0, _MAX / 4))
               for w in (0.9, np.nan, np.inf, 1e308, 10**400, "1", True, Fraction(10**400))]),
    # In 3D the bound is the largest omega whose 6*omega is finite, one below the rounded max/6.
    "omega, 3-D": (lambda w: JacobiPreconditioner(poisson_operator((4, 5, 6), _BCS + _BCS[:1]), 1, w),
                   [], [(_MAX / 4, _real("jacobi damping omega", 1.0, 2.996155224770526e307))]),
    "r": (lambda r: LowRankPreconditioner(_OP, r), [(np.uint8(2), 2)],
          _INTEGRAL + [(v, _integer("rank r", 1, 5)) for v in (0, 6)]),
    "lowrank grid": (lambda dims: LowRankPreconditioner(poisson_operator(dims, _BCS + _BCS[:1]), 2),
                     [], [((4, 4, 4), "2D grids only")]),
    "iters": (lambda n: jacobi_standalone(_OP, _R, iters=n), [(np.int64(3), 3)],
              _INTEGRAL + [(-1, _integer("iters", 0))]),
    "face value": (lambda v: apply_bc_updates(_R, _BCS, ((v, None), (None, None))),
                   [(np.int64(2), 2), (Fraction(1, 3), 1 / 3)],
                   [(v, _real("direction 0 begin face value", -_MAX)) for v in
                    ("0.5", 0.5j, True, np.nan, np.inf, -np.inf, 10**400, [1.0], np.array(2.0))]),
    "faces": (lambda faces: apply_bc_updates(_R, (BC.DIRICHLET, BC.PERIODIC), faces), [], _FACES),
    "spec": (lambda spec: make_preconditioner(_OP, spec),
             [(" Jacobi: p = 3 , omega = 1.3 ", "jacobi:p=3,omega=1.3")], _SPECS),
}
CASES = [
    pytest.param(call, value, plain, match, id=f"{knob}: {value!r:.30}")
    for knob, (call, ok, bad) in KNOBS.items()
    for value, plain, match in [(v, p, None) for v, p in ok] + [(v, None, m) for v, m in bad]
]


@pytest.mark.parametrize("call, value, plain, match", CASES)
def test_every_knob_is_an_integer_or_a_real_number_in_range(call, value, plain, match):
    if match is None:
        assert fingerprint(call(value)) == fingerprint(call(plain))
    else:
        with pytest.raises(ValueError, match=match):
            call(value)
