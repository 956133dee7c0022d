"""Elementary-operation accounting: the closed-form budgets.

Costs are hardware-independent tallies of scalar multiplies and adds, by
the rules of README.md's "Counting rules", the one place they are stated.
:func:`kronpcg.solver.pcg` charges each record one step of
``cost_model(shape, "iter")`` plus its preconditioner's ``apply_cost``, and
the pseudoinverse's ``apply_cost`` is ``cost_model(shape, "pinv_apply")``.
"""

from __future__ import annotations

from math import prod

from .tensors import Shape

__all__ = ["cost_model"]


def cost_model(shape: Shape, phase: str) -> int:
    """Closed-form budget of ``phase``: ``"iter"``, one loop pass without its
    preconditioner, centering and stopping check, or ``"pinv_apply"``, one
    pseudoinverse apply."""
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
