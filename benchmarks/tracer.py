"""Per-function timing of echolab, applied from outside the package.

`Tracer.install()` replaces every public function of the traced modules
with a timing wrapper, in every loaded echolab module namespace that
binds it (the CLI imports names directly, so patching the defining
module alone would miss its calls). `Tracer.uninstall()` puts the
original objects back. Calls are aggregated per function: a count,
busy time (outermost invocations only, so recursion is not counted
twice) and self time (span time minus the time of traced children).
Optional size hooks add counters such as steps or matrix rows.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

TRACED_MODULES = (
    "dynsys",
    "reservoir",
    "training",
    "diagnostics",
    "topology",
    "stochastic",
    "pde",
)


class Stats:
    __slots__ = ("calls", "busy_s", "self_s", "depth", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.counters: Dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount


# A size hook receives (args, kwargs, result) and returns counter increments.
SizeHook = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """Aggregating span tracer over the public functions of echolab."""

    def __init__(
        self,
        package: str = "echolab",
        modules: Iterable[str] = TRACED_MODULES,
        hooks: Optional[Dict[str, SizeHook]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.package = package
        self.modules = tuple(modules)
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.stats: Dict[str, Stats] = {}
        # Each open span holds [time covered by its traced children].
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def targets(self) -> Dict[int, Tuple[str, Callable]]:
        """id(original function) -> (qualified name, function)."""
        found: Dict[int, Tuple[str, Callable]] = {}
        for short in self.modules:
            module = sys.modules[f"{self.package}.{short}"]
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    found[id(obj)] = (f"{short}.{name}", obj)
        return found

    def namespaces(self) -> List[object]:
        prefix = self.package + "."
        return [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(prefix))
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for module in self.namespaces():
            space = vars(module)
            for attr, obj in list(space.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def _stats(self, name: str) -> Stats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = Stats()
        return stats

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self._stats(name)
        hook = self.hooks.get(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                if stats.depth == 0:
                    stats.busy_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                for key, amount in hook(args, kwargs, result).items():
                    stats.add(key, amount)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) as a named span of the benchmark itself."""
        return self._wrap(name, fn)(*args, **kwargs)

    # -- summaries --------------------------------------------------------

    def get(self, name: str) -> Stats:
        return self.stats.get(name) or Stats()

    def self_by_prefix(self, prefix: str) -> float:
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix + "."))
