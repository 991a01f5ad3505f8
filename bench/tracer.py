"""Span tracing of evtlab from outside the package.

``Tracer.install`` replaces every public evtlab function at every module
binding (``evtlab.quantile``, ``evtlab.dist.quantile``,
``evtlab.linear_evt.quantile`` ... are the same function bound in several
namespaces, and each binding is patched) with a wrapper that records a span.
A span is named after the module that defines the function, so a call that
``linear_evt`` makes through its own ``quantile`` binding counts under
``dist.quantile``.  Values that cross the API are traced too: a
``Distribution`` returned by a traced call gets its ``cdf`` and ``quantile``
callables wrapped (``dist.law_cdf`` / ``dist.law_quantile``) through
``dataclasses.replace``, and a ``NormalizerSequence`` gets a builder whose
``g_n`` callables are wrapped (``nonlinear_evt.g_n``).  ``uninstall`` puts
every original binding back.

Per span name the tracer keeps the call count, the self time (span duration
minus the time covered by its child spans) and the points produced (the size
of the returned array, 1 for a scalar result).
"""

import dataclasses
import importlib
import time
import types

import numpy as np

MODULES = (
    "evtlab",
    "evtlab.cli",
    "evtlab.dist",
    "evtlab.errors",
    "evtlab.geometric",
    "evtlab.linear_evt",
    "evtlab.maxima",
    "evtlab.nonlinear_evt",
    "evtlab.reports",
    "evtlab.stats",
)

LAW_QUANTILE = "dist.law_quantile"
LAW_CDF = "dist.law_cdf"
G_N = "nonlinear_evt.g_n"
DIRECT = "maxima.sample_max_direct"
EXPREP = "maxima.sample_max_exponential_rep"
EXPONENTIAL = "stats.standard_exponential"

_MARK = "_bench_span"


class Tracer:
    def __init__(self):
        self._stack = []
        self._patched = []
        self.reset()

    def reset(self):
        self.stats = {}  # span name -> [calls, self_s, points]
        self.direct_bytes = 0
        self.exprep_drawn = 0

    # -- installation ---------------------------------------------------
    def install(self):
        import evtlab.dist
        import evtlab.nonlinear_evt

        self._distribution = evtlab.dist.Distribution
        self._sequence = seq = evtlab.nonlinear_evt.NormalizerSequence
        wrappers = {}
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("evtlab."):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rpartition(".")[2]
                    wrappers[value] = self.wrap(value, f"{layer}.{value.__name__}")
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
        for attr in ("from_target", "affine"):
            raw = vars(seq)[attr]
            self._patched.append((seq, attr, raw))
            traced = self.wrap(raw.__func__, f"nonlinear_evt.NormalizerSequence.{attr}")
            setattr(seq, attr, classmethod(traced))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- spans ----------------------------------------------------------
    def wrap(self, fn, name):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
            self._record(name, parent, elapsed - frame[1], args, result)
            return self._trace_value(result)

        setattr(traced, _MARK, name)
        return traced

    def _record(self, name, parent, self_s, args, result):
        points = result.size if isinstance(result, np.ndarray) else 1
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0]
        entry[0] += 1
        entry[1] += self_s
        entry[2] += points
        if name == DIRECT:
            self.direct_bytes += 8 * points * args[0].n
        elif name == EXPONENTIAL and parent == EXPREP:
            self.exprep_drawn += points

    def _trace_value(self, value):
        # Distribution and NormalizerSequence carry callables that the
        # package calls directly; wrap them so those calls are spans too.
        if isinstance(value, self._distribution) and not hasattr(value.quantile, _MARK):
            return dataclasses.replace(
                value,
                cdf=self.wrap(value.cdf, LAW_CDF),
                quantile=self.wrap(value.quantile, LAW_QUANTILE),
            )
        if isinstance(value, self._sequence) and not hasattr(value.builder, _MARK):
            builder = value.builder

            def traced_builder(n):
                return self.wrap(builder(n), G_N)

            setattr(traced_builder, _MARK, "builder")
            return dataclasses.replace(value, builder=traced_builder)
        return value

    # -- results --------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "direct_bytes": self.direct_bytes,
            "exprep_drawn": self.exprep_drawn,
        }
