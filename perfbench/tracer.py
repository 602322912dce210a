"""Per-layer tracing from outside the program.

The tracer wraps every function and method defined in a layer's modules
(dunders and properties excepted) with a span that counts the call and
times it.  A layer's self time is the time inside its spans minus the time
covered by nested spans of any layer, so the self times of all layers add
up to the time inside the outermost spans.

Wrappers are installed on the class or module that defines each function,
and every ``repro`` module that bound a module-level function with
``from ... import`` gets its reference swapped too.  References captured
before installation (closures, dispatch tables, bound methods held by
already-built objects) keep calling the unwrapped function, so the
benchmark installs the tracer before it warms any station template, and
:meth:`Tracer.zero_boundaries` reports every boundary a workload had to
cross that still reads zero calls.
"""

from __future__ import annotations

import enum
import functools
import sys
import time
import types
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

#: Layer of every traced module: the first matching prefix wins, so the
#: more specific prefixes come first.  ``repro.sim.trace`` is the emit
#: front end of the observability layer; the Mercury component
#: implementations are components.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.fleet", "sim.fleet"),
    ("repro.sim.trace", "obs"),
    ("repro.sim", "sim"),
    ("repro.transport", "transport"),
    ("repro.bus", "bus"),
    ("repro.xmlcmd", "xmlcmd"),
    ("repro.mercury.components", "components"),
    ("repro.components", "components"),
    ("repro.mercury", "mercury"),
    ("repro.procmgr", "procmgr"),
    ("repro.detection", "detection"),
    ("repro.core", "core"),
    ("repro.faults", "faults"),
    ("repro.workload", "workload"),
    ("repro.obs", "obs"),
    ("repro.chaos", "chaos"),
    ("repro.experiments", "experiments"),
)

#: Every layer, in report order: the kernel first, then the message path
#: from wire to component, then supervision, traffic and bookkeeping.
LAYERS: Tuple[str, ...] = (
    "sim",
    "sim.fleet",
    "transport",
    "bus",
    "xmlcmd",
    "components",
    "mercury",
    "procmgr",
    "detection",
    "core",
    "faults",
    "workload",
    "obs",
    "chaos",
    "experiments",
)

#: Pseudo-layer for the benchmark's own sinks and hooks: its time is kept
#: out of every program layer and reported apart.
BENCH_LAYER = "perfbench"


def layer_of(module_name: str) -> Optional[str]:
    """The layer a module belongs to, or None when it is not traced."""
    for prefix, layer in LAYER_PREFIXES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


class Tracer:
    """Span stack, per-layer self time and per-function call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS + (BENCH_LAYER,), 0.0)
        #: Calls per wrapped function, keyed ``module.qualname``.
        self.calls: Counter = Counter()
        self._stack: List[List[float]] = []
        self._installed: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero every count and self time (wrappers stay installed)."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        self.calls.clear()

    # -- spans ----------------------------------------------------------

    def wrap(self, fn, layer: str, key: str):
        """``fn`` wrapped in a span of ``layer`` counted under ``key``."""
        calls = self.calls
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            calls[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        functools.update_wrapper(span, fn)
        span.__perfbench_span__ = True
        return span

    # -- installation ---------------------------------------------------

    def install(self) -> int:
        """Wrap every traced ``repro`` module already imported.

        Returns the number of references swapped for spans.
        """
        replaced: Dict[int, object] = {}
        for name in sorted(sys.modules):
            module = sys.modules[name]
            layer = layer_of(name)
            if layer is None or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    if value.__module__ == name and not _is_wrapped(value):
                        replaced[id(value)] = self.wrap(
                            value, layer, f"{name}.{value.__qualname__}"
                        )
                elif isinstance(value, type) and value.__module__ == name:
                    self._install_class(value, layer, name)
        # Rebind module-level functions everywhere a repro module holds
        # them, including names bound by ``from ... import``.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return len(self._installed)

    def _install_class(self, cls: type, layer: str, module_name: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__"):
                continue
            key = f"{module_name}.{cls.__qualname__}.{attr}"
            if isinstance(value, types.FunctionType):
                if _is_wrapped(value):
                    continue
                wrapped = self.wrap(value, layer, key)
            elif isinstance(value, staticmethod):
                wrapped = staticmethod(self.wrap(value.__func__, layer, key))
            elif isinstance(value, classmethod):
                wrapped = classmethod(self.wrap(value.__func__, layer, key))
            else:
                continue
            self._installed.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    # -- reading --------------------------------------------------------

    def count(self, *keys: str) -> int:
        """Total calls over the given ``module.qualname`` keys."""
        return sum(self.calls.get(key, 0) for key in keys)

    def layer_calls(self) -> Dict[str, int]:
        """Calls per layer (every wrapped function of the layer)."""
        totals: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        for key, count in self.calls.items():
            layer = layer_of(key)
            if layer is not None:
                totals[layer] += count
        return totals

    def zero_boundaries(self, required: Iterable[str]) -> List[str]:
        """Required layers or ``module.qualname`` keys with zero calls."""
        totals = self.layer_calls()
        return [
            key
            for key in required
            if (totals[key] if key in totals else self.calls.get(key, 0)) == 0
        ]


def _is_wrapped(fn) -> bool:
    return getattr(fn, "__perfbench_span__", False)
