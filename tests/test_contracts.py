"""The input contract of every public entry point, as one table of seeded cases.

Each case ends one of two ways: the documented ``ValueError``, raised before
any write to a caller's array, or a result bitwise equal to the same call on
the float64 C-ordered array (:func:`kronpcg.tensors.checked_tensor`).  No
case changes the bytes of an array it hands over.  Each seed draws one grid,
2D or 3D with extents 3-9 and any condition per axis; values carry no
power-of-two scale.
"""

import os
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import ALL_BCS, SINGULAR_BCS
from kronpcg.counting import OpCounter
from kronpcg.formats import read_tensor, write_tensor
from kronpcg.laplace1d import BoundaryCondition as BC, face_kinds
from kronpcg.operators import apply, apply_bc_updates, center, is_singular, nullspace_component
from kronpcg.operators import poisson_operator
from kronpcg.precond import JacobiPreconditioner, LowRankPreconditioner, Preconditioner
from kronpcg.precond import jacobi_standalone, make_preconditioner
from kronpcg.solver import SolverConfig, pcg
from kronpcg.tensors import frobenius_norm, inner, linear_transform

SEEDS = range(12)
GRID = "does not match grid"


def draw(seed):
    """A seeded generator and its grid: 2D for an even seed, 3D for an odd
    one; every third seed draws only the singular conditions."""
    rng = np.random.default_rng(seed)
    bcs = SINGULAR_BCS if seed % 3 == 0 else ALL_BCS
    dims = rng.integers(3, 10, size=2 + seed % 2)
    return rng, poisson_operator(dims, [bcs[i] for i in rng.integers(len(bcs), size=len(dims))])


def draw_preconditioners(rng, op):
    """Spec -> instance for every family the grid takes; an even-p Jacobi
    whose ``M L`` setup finds an eigenvalue ``<= 0`` is refused and left out."""
    omega = rng.choice([1.0, 1.3, 1.7])
    specs = ["none", "pinv"] + [f"jacobi:p={rng.choice(p)},omega={omega}" for p in ([3, 5], [2, 4])]
    specs += [f"lowrank:r={rng.integers(1, min(op.shape) + 1)}"] * (op.ndim == 2)
    precs = {}
    for spec in specs:
        try:
            precs[spec] = make_preconditioner(op, spec)
        except ValueError as exc:
            assert "eigenvalue" in str(exc)
    return precs


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


def entry_points(op, rng, path):
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
    for spec, precond in draw_preconditioners(rng, op).items():
        table[spec] = (GRID if spec != "none" else None, False, precond.apply)
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
    for name, (shape_refusal, finite, call) in entry_points(op, rng, tmp_path / "t.kten").items():
        for label, a, match in variants(x, rng, finite) + [("wrong shape", x[:-1], shape_refusal)]:
            got = outcome(lambda: call(a), a)
            if match is None:
                assert got == outcome(lambda: call(np.array(a, dtype=float, order="C"))), label
            else:
                assert got[0] == "refused" and re.search(match, got[1]), (name, label, got)
            assert os.listdir(tmp_path) == [], (name, label)
    h = x.copy()  # what write_tensor refuses, read_tensor refuses too
    h.flat[rng.integers(h.size)] = rng.choice([np.nan, np.inf, -np.inf])
    header = f"KTEN {h.ndim} {' '.join(map(str, h.shape))}\n".encode()
    (tmp_path / "t.kten").write_bytes(header + h.astype("<f8").tobytes(order="F"))
    with pytest.raises(ValueError, match="not finite"):
        read_tensor(str(tmp_path / "t.kten"))


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
    """A good ``out`` (and ``work``) gets the fresh call's result bitwise and
    its op count; a bad one is refused with every array as it was.  ``work``
    must also miss ``out``; ``linear_transform``'s second work array may be
    its input, and the elementwise ``center`` runs in place with ``out=x``."""
    rng, op = draw(seed)
    x, flat = halves(rng, op.shape)
    mats = [rng.standard_normal((n, n)) for n in op.shape]

    def transform(out, work, ops):
        pair = [np.empty(op.shape) if b is None else b for b in (out, work)]
        return linear_transform(mats, x, pair)

    kernels = {
        "apply": lambda out, work, ops: apply(op, x, ops, out=out),
        "center": lambda out, work, ops: center(x, ops, out=out),
        "linear_transform": transform,
    }
    for spec, precond in draw_preconditioners(rng, op).items():
        kernels[spec] = lambda out, work, ops, precond=precond: precond.apply(x, ops, out, work)
    for name, kernel in kernels.items():
        ops, fresh_ops = OpCounter(), OpCounter()
        want = kernel(None, None, fresh_ops).copy()
        out, out_flat = halves(rng, op.shape)
        work = np.full(op.shape, np.nan)
        got = kernel(out, work, ops)
        holders = (out, work) if name == "linear_transform" else (out,)
        assert any(np.shares_memory(got, b) for b in holders), name
        assert got.tobytes() == want.tobytes() and ops.count == fresh_ops.count, name
        if name == "center":
            assert center(y := x.copy(), out=y) is y and y.tobytes() == want.tobytes()
        cases = [(b, work, m) for b, m in bad_buffers(x, flat)[name == "center" :]]
        if name not in ("apply", "center"):  # work: bad as an out is, or meeting out
            works = bad_buffers(x, flat)[2 * (name == "linear_transform") :]
            works += [(out, "overlap"), (bad_buffers(out, out_flat)[1][0], "overlap")]
            cases += [(out, b, m) for b, m in works]
        for b_out, b_work, match in cases:
            got = outcome(lambda: kernel(b_out, b_work, None), x, flat, out_flat, b_out, b_work)
            assert got[0] == "refused" and re.search(match, got[1]), (name, got)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_family_is_symmetric_and_the_definite_ones_positive(seed):
    """``|<Mx,y> - <x,My>| <= 1e-12 |x||y|``; identity, pinv and odd-p Jacobi
    have ``<x, Mx> > 0`` on the range (even-p Jacobi and lowrank: ROADMAP item 12)."""
    rng, op = draw(seed)
    for spec, precond in draw_preconditioners(rng, op).items():
        x, y = rng.standard_normal((2,) + op.shape)
        gap = inner(precond.apply(x), y) - inner(x, precond.apply(y))
        assert abs(gap) <= 1e-12 * frobenius_norm(x) * frobenius_norm(y), spec
        if spec in ("none", "pinv") or isinstance(precond, JacobiPreconditioner) and precond.p % 2:
            x = center(x) if is_singular(op) else x
            assert inner(x, precond.apply(x)) > 0, spec


_BCS = (BC.DIRICHLET, BC.NEUMANN)
_OP = poisson_operator((5, 6), _BCS)
_R = np.random.default_rng(0).standard_normal(_OP.shape)
_INTEGRAL = [(3.0, "integer"), (2.5, "integer"), (Fraction(3), "integer"), ("3", "integer")]
_SPECS = [
    ("bogus", "unknown preconditioner 'bogus'"), ("jacobi:q=1", "jacobi takes p, omega"),
    ("jacobi:p=zero", "invalid literal"), ("jacobi:p=2.5", "invalid literal"),
    ("jacobi:p", "bad parameter"), ("pinv:r=1", "pinv takes no parameters"),
    ("lowrank", "argument: 'r'"), ("lowrank:r=0", "rank r"),
    ("jacobi:p=1,p=3", "'p' is given twice"),
]
_FACES = [(((None, None),), "cover every direction")]
_FACES += [(((None, None), (1.0, None)), r"direction 1 \(periodic\) accepts no begin")]

# knob -> (the call on one value, [(value, the plain value it equals)], [(value, refusal match)])
KNOBS = {
    "extent": (lambda n: poisson_operator((n, 6), _BCS), [(np.int32(5), 5), (np.uint8(5), 5)],
               _INTEGRAL + [(2, "n >= 3")]),
    "extents": (lambda dims: poisson_operator(dims, (BC.PERIODIC,) * len(dims)), [],
                [((5,), "2D or 3D"), ((5,) * 4, "2D or 3D")]),
    "conditions": (lambda bcs: poisson_operator((5, 6), bcs), [], [(_BCS[:1], "one boundary")]),
    "max_iter": (SolverConfig, [(np.int64(3), 3)], _INTEGRAL + [(-1, "nonnegative")]),
    "stop_tol": (lambda t: SolverConfig(5, t), [(Fraction(1, 10**9), 1e-9)],
                 [(t, "stop_tol") for t in (np.nan, np.inf, -1.0, 0.0, 10**400, "1e-9")]),
    "p": (lambda p: JacobiPreconditioner(_OP, p), [(np.int64(3), 3)], _INTEGRAL + [(0, "p >= 1")]),
    "omega": (lambda w: JacobiPreconditioner(_OP, 3, w), [(Fraction(13, 10), 1.3), (np.int8(2), 2)],
              [(w, "omega") for w in (0.9, np.nan, np.inf, 1e308, 10**400, "1")]
              + [(Fraction(10**400), "omega")]),
    "r": (lambda r: LowRankPreconditioner(_OP, r), [(np.uint8(2), 2)],
          _INTEGRAL + [(0, r"in \[1, 5\]"), (6, r"in \[1, 5\]")]),
    "lowrank grid": (lambda dims: LowRankPreconditioner(poisson_operator(dims, _BCS + _BCS[:1]), 2),
                     [], [((4, 4, 4), "2D grids only")]),
    "iters": (lambda n: jacobi_standalone(_OP, _R, iters=n), [(np.int64(3), 3)],
              _INTEGRAL + [(-1, "nonnegative")]),
    "face value": (lambda v: apply_bc_updates(_R, _BCS, ((v, None), (None, None))),
                   [(np.int64(2), 2)],
                   [(v, "must be real") for v in ("0.5", 0.5j, Fraction(1, 3))] + [([1.0], GRID)]),
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
