"""Outside-in tracing of palmroi's layers, installed from the benchmark.

A ``Tracer`` replaces every public function of the palmroi modules with a
wrapper, in every module namespace that holds it.  That includes names one
module imported from another (``evaluate.features_from_mask``,
``evaluate.load_pgm``, ``cli.extract_features``), so calls made through
those names are traced too.  Nothing under ``src/`` changes; leaving the
``with`` block puts the original functions back.

A layer is a package module, except that ``rng`` belongs to ``synth``.  A
call opens a span only when it enters a layer from another layer or from
the benchmark; a call inside the layer it already runs in is counted but
adds no span, so its time stays with the span that entered the layer.  That
keeps ``matcher.distance`` a counter inside ``matcher.identify`` and keeps
the cost of tracing off the 2 us calls.  A span's self time is its duration
minus the durations of the spans it opened.

Spans are aggregated in memory as they close.  The tracer keeps one stack,
so trace single-threaded runs only (``workers=1``).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("image", "kernels", "edges", "roi", "features", "matcher", "evaluate", "synth", "cli")
_LAYER_OF_MODULE = {name: name for name in LAYERS} | {"rng": "synth"}

# Work counts taken at the call boundary: function -> (counter, args, result -> amount).
WORK_COUNTS = {
    "kernels.count_components": ("kernels.label_px", lambda args, result: args[0].size),
    "image.load_pgm": ("image.load_pgm.bytes", lambda args, result: result.nbytes),
    "matcher.save_db": ("matcher.db_bytes", lambda args, result: os.path.getsize(args[1])),
}


@dataclass
class CallStats:
    calls: int = 0  # every call, inside its own layer or not
    spans: int = 0  # calls that entered the layer
    self_s: float = 0.0


@contextmanager
def patched(replacements):
    """Set ``(module, name, value)`` attributes for the block, then restore them."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "palmroi" or name.startswith("palmroi.")]


class Tracer:
    """Per-function call counts and self times plus work counters for one traced block."""

    def __init__(self):
        self.stats: dict[str, CallStats] = {}
        self.work: dict[str, int] = {}
        self._stack: list[list] = []  # [layer, seconds spent in child spans]

    def __enter__(self):
        wrappers = {}
        replacements = []
        for module in _package_modules():
            for name, value in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.removeprefix("palmroi.")
                if home not in _LAYER_OF_MODULE:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(f"{home}.{value.__name__}", _LAYER_OF_MODULE[home], value)
                replacements.append((module, name, wrappers[id(value)]))
        self._patch = patched(replacements)
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)

    def _wrap(self, qualname, layer, fn):
        entry = self.stats.setdefault(qualname, CallStats())
        stack = self._stack
        work = WORK_COUNTS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry.calls += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    entry.spans += 1
                    entry.self_s += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if work is not None:
                counter, amount = work
                self.work[counter] = self.work.get(counter, 0) + amount(args, result)
            return result

        return traced

    def calls(self, qualname: str) -> int:
        return self.stats[qualname].calls if qualname in self.stats else 0

    def self_ms(self, qualname: str) -> float:
        return self.stats[qualname].self_s * 1e3 if qualname in self.stats else 0.0

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (spans entering it, self ms)."""
        totals = {layer: (0, 0.0) for layer in LAYERS}
        for qualname, st in self.stats.items():
            layer = _LAYER_OF_MODULE[qualname.partition(".")[0]]
            spans, ms = totals[layer]
            totals[layer] = (spans + st.spans, ms + st.self_s * 1e3)
        return totals
