"""Span tracer that times gathersim's layers from outside the package.

The tracer replaces each traced function with a wrapper at every module that
binds it.  ``simulator``, ``protocol``, ``analysis`` and ``cli`` import names
with ``from .x import y``, so patching only the defining module would miss
most calls.  The monitor rules are wrapped inside ``MONITOR_RULES`` itself,
which ``attach_lemma_monitors`` reads each time it builds a battery.

Spans are kept in flat arrays (name code, start, end, parent) while the
program runs and written out once at the end.  A span's self time is its
duration minus the durations of its direct children; calls are single
threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections.abc import Sized
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterator, Optional, Sequence

# (layer module, public function) for every traced entry point, in report order.
TRACED = (
    ("geometry", "smallest_enclosing_circle"),
    ("model", "normalize"),
    ("model", "observe"),
    ("protocol", "compute_action"),
    ("protocol", "classify_branch"),
    ("protocol", "path_is_clear"),
    ("simulator", "next_active"),
    ("simulator", "step"),
    ("simulator", "trace_line"),
    ("simulator", "run"),
    ("analysis", "run_sweep"),
    ("analysis", "random_robots"),
    ("cli", "load_config"),
    ("cli", "main"),
)
MONITOR_PREFIX = "analysis.monitor."

Before = Callable[[tuple, dict], tuple]
After = Callable[[tuple, dict, object], None]


def _materialized_first(args: tuple) -> tuple:
    """Turn a one-shot iterable first argument into a list, so it can be counted."""
    if args and not isinstance(args[0], Sized):
        return (list(args[0]),) + args[1:]
    return args


def bindings(modules: Sequence[ModuleType]) -> dict[tuple[str, str], object]:
    """Every callable each module binds, plus the monitor rules, keyed by where they sit."""
    found: dict[tuple[str, str], object] = {}
    for module in modules:
        for key, value in vars(module).items():
            if callable(value):
                found[(module.__name__, key)] = value
            if key == "MONITOR_RULES":
                for name, rule in value.items():
                    found[(f"{module.__name__}.MONITOR_RULES", name)] = rule
    return found


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond.

    With 10 samples or fewer no such percentile exists; the maximum is
    returned and labelled as percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


class Tracer:
    """Collects spans and work counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(
        self,
        label: str,
        fn: Callable,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> Callable:
        """A stand-in for fn that records one span per call under ``label``."""
        if label not in self.names:
            self.names.append(label)
        code = self.names.index(label)
        codes, starts, ends, parents, stack = self.code, self.start, self.end, self.parent, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            index = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _hooks(self, label: str) -> tuple[Optional[Before], Optional[After]]:
        """Work counters computed from a traced call's arguments and result."""
        if label == "geometry.smallest_enclosing_circle":
            def before(args, kwargs):
                args = _materialized_first(args)
                self._count(label + ".points", len(args[0]))
                return args
            return before, None
        if label == "model.normalize":
            def before(args, kwargs):
                return _materialized_first(args)

            def after(args, kwargs, result):
                self._count(label + ".pairs", len(args[0]) * len(result.occupied))
            return before, after
        if label == "protocol.path_is_clear":
            def after(args, kwargs, result):
                if not result:
                    self._count(label + ".blocked", 1)
            return None, after
        if label == "simulator.step":
            def before(args, kwargs):
                active = args[1] if len(args) > 1 else kwargs["active"]
                self._count(label + ".active", len(active))
                return args
            return before, None
        if label == "simulator.trace_line":
            def after(args, kwargs, result):
                self._count("cli.trace_bytes", len(result.encode("utf-8")) + 1)
            return None, after
        if label == "simulator.run":
            def after(args, kwargs, result):
                self._count(label + ".steps", result[0].final_t)
            return None, after
        return None, None

    @contextmanager
    def installed(self, modules: Sequence[ModuleType]) -> Iterator[None]:
        """Wrap every traced function at every binding, and put the originals back."""
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        try:
            for layer, name in TRACED:
                label = f"{layer}.{name}"
                original = getattr(by_name[layer], name)
                wrapper = self.wrap(label, original, *self._hooks(label))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)
            rules = by_name["analysis"].MONITOR_RULES
            for key, rule in list(rules.items()):
                self._patched.append((rules, key, rule))
                rules[key] = self.wrap(MONITOR_PREFIX + key, rule)
            yield
        finally:
            while self._patched:
                owner, key, original = self._patched.pop()
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def self_times(self) -> tuple[dict[str, int], dict[str, float], float]:
        """Calls and self seconds per label, and the seconds top-level spans cover."""
        count = len(self.start)
        child = array("d", bytes(8 * count))
        top = 0.0
        for i in range(count):
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += duration
            else:
                top += duration
        calls = dict.fromkeys(self.names, 0)
        own = dict.fromkeys(self.names, 0.0)
        for i in range(count):
            label = self.names[self.code[i]]
            calls[label] += 1
            own[label] += self.end[i] - self.start[i] - child[i]
        return calls, own, top

    def durations(self, label: str) -> list[float]:
        if label not in self.names:
            return []
        code = self.names.index(label)
        return [e - s for c, s, e in zip(self.code, self.start, self.end) if c == code]

    def dump(self, path: Path) -> None:
        """Write all spans: one JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["code", self.code.typecode], ["start", "d"], ["end", "d"],
                       ["parent", self.parent.typecode]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.code, self.start, self.end, self.parent):
                arr.tofile(handle)


def load(path: Path) -> dict[str, object]:
    """Read back a file written by Tracer.dump."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        out: dict[str, object] = {"names": header["names"]}
        for key, typecode in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(handle, header["spans"])
            out[key] = arr
    return out
