"""A fixed reference computation that measures how fast the machine runs right now.

On a shared virtual machine the same Python code can run at half speed for
tens of seconds and then recover.  The benchmark times this reference
between runs and scales each run's wall time by NOMINAL_S / (the reference
time around it), so a metric reads in seconds at a fixed machine speed.  The
reference uses only the standard library and none of gathersim, so a change
to the program never changes it; it mixes the kinds of work the program
does: float geometry on tuples, dict and set counting, sorting, small-object
creation and JSON encoding.

Do not edit ``_reference`` or ``NOMINAL_S``: doing so changes every time the
benchmark has recorded.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

# About the reference time on the machine the benchmark was defined on
# (2 vCPU Intel Xeon, CPython 3.11), so scaled times stay near wall seconds.
NOMINAL_S = 0.002
REPEATS = 3


def _reference() -> float:
    points = [(math.sin(i * 0.7), math.cos(i * 1.3)) for i in range(120)]
    acc = 0.0
    for rnd in range(8):
        counts: dict[tuple[float, float], int] = {}
        seen = set()
        cx, cy = points[rnd]
        for x, y in points:
            d = math.hypot(x - cx, y - cy)
            acc += d
            key = (round(x, 1), round(y, 1))
            counts[key] = counts.get(key, 0) + 1
            if d < 0.5:
                seen.add(key)
        points.sort(key=lambda p: (p[0] - cx) ** 2 + (p[1] - cy) ** 2)
        acc += len(seen) + max(counts.values())
        acc += len(json.dumps([{"x": x, "y": y, "k": i} for i, (x, y) in enumerate(points[:30])]))
    return acc


def reference_seconds() -> float:
    """Median of REPEATS timings of the reference computation.

    The median, not the minimum: the speed drifts within milliseconds, and
    the minimum picks the fastest moment rather than the current speed.
    """
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        _reference()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


class Clock:
    """Scales wall seconds by the reference speed measured just before and after them."""

    def __init__(self) -> None:
        self.last = reference_seconds()
        self.samples = [self.last]

    def scale(self, seconds: float) -> float:
        """Scale the seconds just measured; call once after each measured interval."""
        now = reference_seconds()
        factor = NOMINAL_S / ((self.last + now) / 2.0)
        self.last = now
        self.samples.append(now)
        return seconds * factor
