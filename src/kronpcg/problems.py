"""Benchmark right-hand sides and the packaged experiment table.

Three families of charge distributions: striped charges on a periodic
grid (``p1``), a charged band between mixed boundaries (``p2``) and two
random stripes on periodic 2D/3D grids (``p3``).  The packaged
experiments are one table of runs, :data:`EXPERIMENTS`;
:func:`experiment_runs` generates one experiment's inputs and the CLI
solves them.

Every generated H is normalized so its Frobenius norm is the reciprocal
of the cell count; singular-system sides are centered first.  The applied
scale factor is kept on the :class:`ProblemSpec` so the physical system
can be recovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .laplace1d import BoundaryCondition
from .operators import PoissonOperator, apply_bc_updates, center, is_singular
from .tensors import checked_integer, frobenius_norm

__all__ = [
    "ProblemSpec",
    "gen_problem1",
    "gen_problem2",
    "gen_problem3",
    "P3_VARIANTS",
    "EXPERIMENTS",
    "experiment_runs",
]

# p1's stripe period.  12 does not divide the benchmark grid extents, so the seams
# at the periodic wrap spread the charge over all frequencies and make p1 a real
# CG stress test; a wrap-aligned period excites only a few well-conditioned modes.
_P1_PERIOD = 12
_P2_BAND_WIDTH = 5  # rows of unit charge in the p2 band

P3_VARIANTS: dict[str, tuple[int, ...]] = {
    "2d_512x256": (512, 256),
    "3d_128x64x8": (128, 64, 8),
    "3d_128x64x64": (128, 64, 64),
    "3d_512x256x8": (512, 256, 8),
}


@dataclass(frozen=True)
class ProblemSpec:
    """What was generated: grid, boundary handling, seed, scaling and the
    ``(begin, end)`` face values per direction that were folded into H."""

    name: str
    shape: tuple[int, ...]
    bcs: tuple[BoundaryCondition, ...]
    seed: Optional[int] = None
    scale: float = 1.0
    boundary: Optional[tuple] = None

    def operator(self) -> PoissonOperator:
        return PoissonOperator(self.shape, self.bcs)


def _normalized(h: np.ndarray) -> tuple[np.ndarray, float]:
    """``h`` rescaled to the Frobenius norm ``1 / (number of cells)``, and the scale factor."""
    norm = frobenius_norm(h)
    if norm == 0.0:
        raise ValueError("cannot normalize an all-zero right-hand side")
    scale = 1.0 / (h.size * norm)
    return h * scale, scale


def _finish(
    name: str,
    op: PoissonOperator,
    h: np.ndarray,
    seed: Optional[int] = None,
    boundary: Optional[tuple] = None,
) -> tuple[ProblemSpec, np.ndarray]:
    """Center ``h`` if ``op`` is singular, normalize it, and describe it."""
    h, scale = _normalized(center(h) if is_singular(op) else h)
    spec = ProblemSpec(name, op.shape, op.bcs, seed=seed, scale=scale, boundary=boundary)
    return spec, h


def gen_problem1(n: int, q: int) -> tuple[ProblemSpec, np.ndarray]:
    """Alternating diagonal charge stripes on a fully periodic 2D grid.

    Unit positive charge where ``(i + 2j) % _P1_PERIOD`` is 0, unit
    negative where it is half the period; the result is centered and
    normalized.
    """
    op = PoissonOperator((n, q), [BoundaryCondition.PERIODIC] * 2)
    phase = np.add.outer(np.arange(n), 2 * np.arange(q)) % _P1_PERIOD
    h = np.where(phase == 0, 1.0, 0.0) + np.where(phase == _P1_PERIOD // 2, -1.0, 0.0)
    return _finish("p1", op, h)


def gen_problem2(n: int = 40, q: int = 120) -> tuple[ProblemSpec, np.ndarray]:
    """A positive charge band between a grounded edge and one of prescribed outward derivative.

    The first grid direction runs from a zero-potential edge to an edge
    with face value -1/2, the potential's outward derivative in units of
    the step (:mod:`kronpcg.laplace1d`); the second direction is periodic.
    A band of five rows of unit charge sits a third of the way in, so
    ``n`` must be at least 5.  Boundary updates are folded into H before
    normalization, so the stored side solves directly; dividing by
    ``spec.scale`` recovers the physical system in which the potential
    really drops at rate 1/2 off the far edge.
    """
    n = checked_integer("p2 extent n (at least the band width)", n, _P2_BAND_WIDTH)
    bcs = (BoundaryCondition.DIRICHLET_NEUMANN, BoundaryCondition.PERIODIC)
    op = PoissonOperator((n, q), bcs)
    boundary = ((0.0, -0.5), (None, None))
    h = np.zeros((n, q))
    start = max(0, n // 3 - _P2_BAND_WIDTH // 2)
    h[start : start + _P2_BAND_WIDTH, :] = 1.0
    return _finish("p2", op, apply_bc_updates(h, bcs, boundary), boundary=boundary)


def gen_problem3(variant: str, seed: int = 0) -> tuple[ProblemSpec, np.ndarray]:
    """Two random charge stripes on a fully periodic grid, seed-reproducible.

    A wide stripe of uniform(0, 1) charge and a narrower stripe of
    uniform(-1, 0) charge span the full extent of every direction but the
    first; the negative stripe is rescaled so the total charge sums to
    zero, then the side is centered and normalized.  ``seed`` is an
    integer of at least 0.
    """
    if variant not in P3_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose one of {sorted(P3_VARIANTS)}")
    seed = checked_integer("p3 seed", seed, 0)
    dims = P3_VARIANTS[variant]
    op = PoissonOperator(dims, [BoundaryCondition.PERIODIC] * len(dims))
    rng = np.random.default_rng(seed)
    n = dims[0]
    wide = max(2, -(-n // 8))  # ceil(n/8)
    narrow = max(1, -(-n // 16))
    pos_start, neg_start = n // 8, (5 * n) // 8
    h = np.zeros(dims)
    h[pos_start : pos_start + wide] = rng.uniform(0.0, 1.0, size=(wide, *dims[1:]))
    neg = rng.uniform(-1.0, 0.0, size=(narrow, *dims[1:]))
    pos_sum = float(h.sum())
    neg_sum = float(neg.sum())
    h[neg_start : neg_start + narrow] = neg * (pos_sum / -neg_sum)
    return _finish(f"p3_{variant}", op, h, seed=seed)


_SWEEP = [f"jacobi:p={p},omega={w:g}" for p in (1, 3, 5) for w in (1.0, 1.15, 1.3)]
_SWEEP += [f"lowrank:r={r}" for r in (1, 2, 3, 4, 7, 10)]
_P1 = ("p1", 50, 100)

# Experiment name -> runs of (problem, preconditioner spec, budget); a problem
# is its generator's family and arguments.  ``jacobi-standalone:omega=W`` is
# the stationary Jacobi baseline run by itself, its budget counted in sweeps.
EXPERIMENTS: dict[str, list[tuple[tuple, str, int]]] = {
    "exp1": [(_P1, "none", 600)]
    + [(_P1, f"jacobi-standalone:omega={w}", 8000) for w in (1.0, 1.15, 1.3)],
    "exp2": [
        (_P1, s, 10 if s == "pinv" else 800)
        for s in dict.fromkeys(["none", "jacobi:p=3,omega=1.3", "lowrank:r=3", "pinv", *_SWEEP])
    ],
    "exp3": [
        (problem, "pinv", 10)
        for problem in [("p1", 5, 10), ("p1", 20, 40), _P1, ("p1", 500, 1000), ("p2",)]
        + [("p3", v) for v in sorted(P3_VARIANTS)]
    ],
}


def experiment_runs(name: str) -> list[tuple[str, ProblemSpec, np.ndarray, str, int]]:
    """One experiment's runs as (label, spec, h, preconditioner spec, budget),
    in table order; each problem is generated once, p3 with seed 0.

    The label is the family and the grid shape, e.g. ``p1_500x1000``, so
    it tells apart the runs of one family at several sizes.
    """
    gens = {"p1": gen_problem1, "p2": gen_problem2, "p3": gen_problem3}
    made: dict[tuple, tuple[ProblemSpec, np.ndarray]] = {}
    runs = []
    for problem, pspec, budget in EXPERIMENTS[name]:
        if problem not in made:
            made[problem] = gens[problem[0]](*problem[1:])
        spec, h = made[problem]
        label = f"{problem[0]}_{'x'.join(map(str, spec.shape))}"
        runs.append((label, spec, h, pspec, budget))
    return runs
