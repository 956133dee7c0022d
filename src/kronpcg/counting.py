"""Elementary-operation accounting: the counter and the closed-form budgets.

Costs are hardware-independent tallies of scalar multiplies and adds, by
the rules of README.md's "Counting rules", the one place they are stated.
Under them the budgets of :func:`cost_model` are exact, so instrumented
counters reproduce them identity for identity.
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
    """Closed-form budget of ``phase``: ``"iter"``, one loop pass without its
    preconditioner and centering, or ``"pinv_apply"``, one pseudoinverse apply."""
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
