"""Spans around calls into the package's public functions.

`Tracer.install` replaces each measured function, in every loaded
``sector_radius`` module namespace that holds it, with a wrapper that
records a span (function, parent span, start, end).  Calls from one module
into another therefore nest: ``certify.ratio_check`` becomes the parent of
``numrange.numerical_radius``.  Spans stay in memory until `summary`.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs measured by spans.  A leaf calls no other
# measured function, so its self time equals its busy time and is not
# reported.  Busy and self time are reported as a share of the traced
# loop's query time: a function that a workload never calls reads 0%, where
# a time in seconds would read exactly 0 s on every run.
TRACED = {
    ("matcore", "operator_norm"): "leaf",
    ("matcore", "commutant_dimension"): "leaf",
    ("numrange", "numerical_radius"): "leaf",
    ("numrange", "min_sector_angle"): "leaf",
    ("numrange", "sector_contains"): "leaf",
    ("numrange", "grid_radius"): "leaf",
    ("extremal", "irreducible_family"): "inner",
    ("certify", "ratio_check"): "inner",
    ("certify", "certify_extremal"): "inner",
}
# Spans the benchmark opens itself, around calls it cannot wrap in-process.
EXTERNAL = {("cli", "main"): "leaf"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every span metric, in a fixed order."""
    out = []
    for (module, func), kind in {**TRACED, **EXTERNAL}.items():
        base = f"{module}.{func}"
        out.append((f"{base}.calls", "count"))
        out.append((f"{base}.busy_pct", "%"))
        if kind == "inner":
            out.append((f"{base}.self_pct", "%"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, parent, start, end)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sector_radius" or key.startswith("sector_radius.")]
        for module, func in TRACED:
            original = getattr(sys.modules[f"sector_radius.{module}"], func)
            name = f"{module}.{func}"

            @functools.wraps(original)
            def wrapper(*args, _name=name, _fn=original, **kwargs):
                return self.span(_name, _fn, *args, **kwargs)

            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self, query_s: float) -> dict[str, float]:
        """Span metrics by name, given the seconds the traced queries took.

        Also reports the share of that time inside top-level spans.
        """
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: list[float] = [0.0] * len(self.spans)
        top = 0.0
        for name, parent, start, end in self.spans:
            dur = end - start
            busy[name] = busy.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                top += dur
            else:
                child[parent] += dur
        own: dict[str, float] = {}
        for (name, _, start, end), below in zip(self.spans, child):
            own[name] = own.get(name, 0.0) + (end - start) - below
        pct = 100.0 / query_s
        stats = {"calls": calls,
                 "busy_pct": {k: v * pct for k, v in busy.items()},
                 "self_pct": {k: v * pct for k, v in own.items()}}
        out: dict[str, float] = {"trace.top_span_coverage": top * pct}
        for metric, _ in metric_names():
            base, stat = metric.rsplit(".", 1)
            out[metric] = stats[stat].get(base, 0)
        return out
