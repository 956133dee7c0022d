"""Elementary-operation accounting.

Costs are hardware-independent tallies of scalar multiplies and adds, each
counting 1.  The rules, applied uniformly by every counted routine:

- stencil (sparse) factor apply: 6 per entry per direction
  (3 multiplies + 3 adds; 12nq in 2D, 18nqt in 3D),
- inner product: 2 per entry,
- scaled addition (``y + a*x``): 2 per entry,
- Hadamard product or entrywise scaling: 1 per entry,
- mean-centering: 3 per entry,
- full mode product along an axis of extent m: 2m per entry.

Diagnostics (true-residual recomputation, error indicators, null-norm
bookkeeping) are free; an explicitly requested stopping-tolerance check is
counted.  Both diagnostics of a logged record come from one operator
apply, which with the residual's subtraction and norm is what a
stopping-tolerance check is charged: ``6*N*ndim + 4*N`` per record after
record 0, whose true residual is ``|h|`` from the zero start.  The zero
start itself costs nothing but the preconditioner's ``init_cost`` and, on
a singular grid, the residual's centering.  On a singular grid the final
projection of the returned iterate onto the mean-free tensors is free,
like the right-hand-side centering the caller does before the solve; the
per-iteration residual centering is counted.  Under these rules the
closed-form budgets below are exact, so instrumented counters reproduce
them identity-for-identity.

The pseudoinverse's eigenvalue sums and reciprocals are charged once, at
setup (``init_cost = ndim*N``), as in the paper's model, though each apply
rebuilds them: a ``k``-step pinv solve makes ``(k-1)*ndim*N`` uncharged ops,
``ndim / (4*(n+q[+t]))`` of an apply's ``4*N*(n+q[+t])``, 0.1% on 512x256x8.
"""

from __future__ import annotations

from math import prod

from .tensors import Shape

__all__ = ["OpCounter", "cost_model"]


class OpCounter:
    """Mutable tally of elementary operations."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def cost_model(shape: Shape, phase: str) -> int:
    """Closed-form operation budgets for the conjugate-gradient pieces.

    ``phase`` selects what is being costed:

    - ``"iter"``: one loop pass (one apply, two inner products, three
      scaled additions),
    - ``"pinv_apply"``: one application of the spectral pseudoinverse
      preconditioner (two full multi-mode transforms plus a Hadamard).
    """
    if len(shape) not in (2, 3):
        raise ValueError(f"shape must be 2D or 3D, got {shape}")
    size = prod(shape)
    extent_sum = sum(shape)
    ndim = len(shape)

    if phase == "iter":
        return 6 * size * ndim + 10 * size
    if phase == "pinv_apply":
        return 4 * size * extent_sum + size
    raise ValueError(f"unknown phase {phase!r}")
