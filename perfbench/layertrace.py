"""Per-layer spans for kronpcg, recorded from outside the package.

:meth:`Tracer.install` wraps the public functions of the kronpcg modules on the
solve path at runtime and rebinds every name that another kronpcg module
imported with ``from ... import``, so calls made inside the package go
through the wrappers too.  No source file of the package changes.

Each wrapper records one span per call: the inclusive duration and, by
subtracting the inclusive time of the wrapped calls made inside it, the
self time.  Spans are kept as per-name totals in memory;
:meth:`Tracer.take` returns and resets them.  :meth:`Tracer.uninstall`
puts every original binding back, so untraced runs in the same process
execute the unmodified package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# Modules whose public functions are wrapped, in dependency order.
MODULES = ("tensors", "laplace1d", "operators", "precond", "solver")

# Private entry points wrapped besides each module's public functions.
EXTRA = {
    # With a stopping tolerance set, pcg computes its true residual here.
    "solver": ("_counted_true_residual",),
}

# Metric names that differ from ``<module>.<function>``.
RENAME = {
    "precond.make_preconditioner": "precond.setup",
    "solver._counted_true_residual": "solver.true_residual",
}

PRECOND_CLASSES = (
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "PinvPreconditioner",
    "LowRankPreconditioner",
)


class Stat:
    """Call count, inclusive seconds and self seconds of one metric name."""

    __slots__ = ("calls", "incl", "own")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.own = 0.0


class Tracer:
    """Span totals per metric name; children are charged to their parent."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = Stat()
                st.calls += 1
                st.incl += dur
                st.own += dur - frame[0]

        return traced

    def take(self) -> dict[str, Stat]:
        stats, self.stats = self.stats, {}
        return stats

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapped) -> None:
        """Point every kronpcg module attribute bound to ``original`` at ``wrapped``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "kronpcg" or modname.startswith("kronpcg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bind(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap the solve-path API of the imported kronpcg package."""
        for short in MODULES:
            mod = importlib.import_module(f"kronpcg.{short}")
            public = [
                attr
                for attr, value in vars(mod).items()
                if inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not attr.startswith("_")
            ]
            for attr in public + list(EXTRA.get(short, ())):
                metric = RENAME.get(f"{short}.{attr}", f"{short}.{attr}")
                original = getattr(mod, attr)
                self._rebind(original, self.wrap(metric, original))
        # Preconditioner application is a method, one per class.
        precond = importlib.import_module("kronpcg.precond")
        for cls_name in PRECOND_CLASSES:
            cls = getattr(precond, cls_name)
            self._bind(cls, "apply", self.wrap("precond.apply", cls.__dict__["apply"]))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
