"""The benchmark's workloads: seeded inputs, one call into the program, its checks.

Inputs are drawn with the benchmark's own ``random.Random`` streams, keyed
by (workload, seed, input index), so they do not change when the program's
own generators change, and input i is the same whatever the input count.
Every robot count is odd, so every run must gather.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

# The program's default coincidence tolerance; the benchmark unsets the
# environment override, so robots this close count as one point.
EPS = 1e-9
SWEEP_STRATEGIES = ("synchronous", "round_robin", "random_subset", "boundary_only_adversary")


@dataclass(frozen=True)
class Outcome:
    """What one run produced, as far as the checks and the metrics need."""

    steps: int
    robot_steps: int
    trace_bytes: int
    digest: str
    error: Optional[str] = None

    def fingerprint(self) -> str:
        return f"{self.steps} {self.trace_bytes} {self.digest}"


def failed(error: str) -> Outcome:
    return Outcome(0, 0, 0, "", error)


class SweepWorkload:
    """One run is a sweep across the four strategies: ``analysis.run_sweep`` at
    n=11 once per strategy, all with the same sweep seed."""

    n = 11

    def __init__(self, name: str, inputs: int, runs_per_strategy: int) -> None:
        self.name = name
        self.inputs = inputs
        self.runs_per_strategy = runs_per_strategy

    def generate(self, program: SimpleNamespace, seed: int, workdir: Path) -> list[int]:
        return [random.Random(f"{self.name}:{seed}:{index}").getrandbits(31)
                for index in range(self.inputs)]

    def call(self, program: SimpleNamespace, item: int) -> Any:
        return [program.analysis.run_sweep(self.n, self.runs_per_strategy, item, strategy)
                for strategy in SWEEP_STRATEGIES]

    def check(self, item: int, raw: Any) -> Outcome:
        records = [r for _, per_strategy in raw for r in per_strategy]
        steps = sum(r["steps"] for r in records)
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()
        bad = [r for r in records if r["status"] != "gathered" or r["violations"]]
        error = None
        if bad:
            error = f"sweep run failed: {bad[0]}"
        elif len(records) != len(SWEEP_STRATEGIES) * self.runs_per_strategy:
            error = f"{len(records)} sweep records"
        elif any(s.gathered != s.runs or any(s.violations.values()) for s, _ in raw):
            error = f"sweep summaries disagree with their records: {[s for s, _ in raw]}"
        return Outcome(steps, 0 if error else self.n * steps, 0, digest, error)


class RunWorkload:
    """``gathersim run`` (``cli.main`` in-process, stdout captured) on written configs.

    Every robot starts at its own point in the unit square with a random
    frame; the trace is written to a file, which the checks read back.
    """

    def __init__(
        self,
        name: str,
        n: int,
        strategy: str,
        fairness_bound: Optional[int],
        monitors_on: bool,
        sigma: tuple[float, float],
        inputs: int,
    ) -> None:
        self.name = name
        self.n = n
        self.strategy = strategy
        self.fairness_bound = fairness_bound
        self.monitors_on = monitors_on
        self.sigma = sigma
        self.inputs = inputs

    def _points(self, rng: random.Random) -> list[tuple[float, float]]:
        # Grid cells of width 1e-5: a point whose cell or neighbouring cells
        # are taken is redrawn, so kept points are at least 1e-5 apart.
        taken: set[tuple[int, int]] = set()
        points = []
        while len(points) < self.n:
            x, y = rng.random(), rng.random()
            cx, cy = int(x * 1e5), int(y * 1e5)
            if any((cx + dx, cy + dy) in taken for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
                continue
            taken.add((cx, cy))
            points.append((x, y))
        return points

    def config(self, seed: int, index: int, monitor_names: list[str]) -> dict:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        robots = []
        for x, y in self._points(rng):
            robots.append({
                "x": x,
                "y": y,
                "sigma": rng.uniform(*self.sigma),
                "frame": {
                    "rotation": rng.uniform(0.0, math.tau),
                    "scale": rng.uniform(0.5, 2.0),
                    "tx": rng.uniform(-3.0, 3.0),
                    "ty": rng.uniform(-3.0, 3.0),
                    "reflected": rng.random() < 0.5,
                },
            })
        config = {
            "robots": robots,
            "scheduler": {
                "strategy": self.strategy,
                "seed": rng.getrandbits(31),
                "fairness_bound": self.fairness_bound,
            },
        }
        if not self.monitors_on:
            config["monitors"] = {name: False for name in monitor_names}
        return config

    def generate(self, program: SimpleNamespace, seed: int, workdir: Path) -> list[tuple[str, str]]:
        workdir.mkdir(parents=True, exist_ok=True)
        names = list(program.analysis.MONITOR_RULES)
        trace_path = str(workdir / "trace.jsonl")
        items = []
        for index in range(self.inputs):
            path = workdir / f"config-{index:03d}.json"
            path.write_text(json.dumps(self.config(seed, index, names)), encoding="utf-8")
            items.append((str(path), trace_path))
        return items

    def call(self, program: SimpleNamespace, item: tuple[str, str]) -> Any:
        config_path, trace_path = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = program.cli.main(["run", "--config", config_path, "--trace", trace_path])
        return code, out.getvalue()

    def check(self, item: tuple[str, str], raw: Any) -> Outcome:
        code, stdout = raw
        lines = stdout.strip().splitlines()
        if not lines:
            return failed(f"exit {code}, no record on stdout")
        record = json.loads(lines[-1])
        steps = record["final_t"]
        data = Path(item[1]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        events = data.splitlines()
        error = None
        if code != 0 or record["status"] != "gathered" or record["violations"]:
            error = f"exit {code}, status {record['status']}, {len(record['violations'])} violations"
        elif len(record["occupied"]) != 1 or record["occupied"][0]["count"] != self.n:
            error = "final record is not all robots on one point"
        elif len(events) != self.n * steps:
            error = f"{len(events)} trace lines for {self.n} robots x {steps} steps"
        else:
            last = [json.loads(line) for line in events[len(events) - self.n:]]
            x0, y0 = last[0]["new_x"], last[0]["new_y"]
            spread = max(math.hypot(e["new_x"] - x0, e["new_y"] - y0) for e in last)
            if spread > EPS or last[0]["t"] != steps - 1:
                error = f"trace ends with robots {spread:.3g} apart"
        return Outcome(steps, 0 if error else self.n * steps, len(data), digest, error)


# Motion caps of at least 1.5 reach any target in the unit square in one
# activation, and dense_n201's fairness bound of 4 wakes every robot within
# 4 steps, so both gather in a step count that hardly varies between inputs
# (dense_n201: 4 or 5, sparse_n101: 101 or 102).  Run times then vary with the program,
# not with the draw.  sweep_n11 has more inputs than a run gets through, so
# its median and tail are taken over distinct sweeps.
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("sweep_n11", inputs=400, runs_per_strategy=10),
        RunWorkload("dense_n201", 201, "random_subset", fairness_bound=4, monitors_on=False,
                    sigma=(1.5, 2.0), inputs=40),
        RunWorkload("sparse_n101", 101, "round_robin", fairness_bound=None, monitors_on=True,
                    sigma=(1.5, 2.0), inputs=24),
    )
}
