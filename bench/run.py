#!/usr/bin/env python3
"""Layered benchmark for gathersim (standard library only, one process, one thread).

    python3 bench/run.py --workload sweep_n11 --seed 0 --seconds 30 --trace 0

Imports the package from ``src/`` of this checkout, generates the workload's
inputs from ``--seed``, then runs them in a closed loop (one caller, the next
run starts when the previous one returns) for ``--seconds``.  Every run's
output is checked.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` each run is made once plain and once with every layer's
public functions wrapped in spans, and the per-layer metrics are printed.
The last line of stdout is one JSON object; a fuller record, with the
machine it ran on, goes to ``bench/.work/``.

    python3 bench/run.py --record-expected

re-records ``bench/expected.json``: step counts, trace sizes and digests of
every input for the default and the held-out seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

import calibrate
import spans
from workloads import WORKLOADS, Outcome, failed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
EXPECTED_PATH = BENCH_DIR / "expected.json"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
# cli.default_eps reads this; a stray value would change every workload.
ENV_EPS = "GATHERSIM_EPS"
MAX_ERRORS_KEPT = 5


class BenchError(Exception):
    """The benchmark cannot run here at all (as opposed to a run failing)."""


def import_program() -> SimpleNamespace:
    """Import gathersim afresh from this checkout's ``src/``."""
    if not (SRC / "gathersim" / "__init__.py").is_file():
        raise BenchError(f"no gathersim package under {SRC}")
    for name in [m for m in sys.modules if m == "gathersim" or m.startswith("gathersim.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("gathersim")
        cli = importlib.import_module("gathersim.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import gathersim: {exc}") from exc
    if Path(package.__file__).resolve().parent != (SRC / "gathersim").resolve():
        raise BenchError(f"imported gathersim from {package.__file__}, not from {SRC}")
    modules = [sys.modules[n] for n in sorted(sys.modules) if n == "gathersim" or n.startswith("gathersim.")]
    return SimpleNamespace(analysis=sys.modules["gathersim.analysis"], cli=cli, modules=modules)


def set_up(workload, seed: int, workdir: Path, clock: calibrate.Clock) -> tuple[SimpleNamespace, list, list[float]]:
    """Import the package and write the inputs, SETUP_REPEATS times; keep the last.

    Returns the scaled seconds of each set-up.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        program = import_program()
        items = workload.generate(program, seed, workdir)
        times.append(clock.scale(perf_counter() - start))
    return program, items, times


def timed_call(workload, program: SimpleNamespace, item) -> tuple[float, Outcome]:
    """Wall seconds from the call into the program until it returns, and the checked outcome."""
    start = perf_counter()
    try:
        raw = workload.call(program, item)
    except Exception as exc:  # a run that raises is a failed run; the loop goes on
        return perf_counter() - start, failed(f"raised {exc!r}")
    elapsed = perf_counter() - start
    try:
        return elapsed, workload.check(item, raw)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return elapsed, failed(f"output did not parse: {exc!r}")


class Ledger:
    """Checks each outcome against its own checks, earlier repeats and recorded digests."""

    def __init__(self, expected: Optional[list[str]]) -> None:
        self.expected = expected
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, index: int, outcome: Outcome) -> None:
        self.attempted += 1
        error = outcome.error
        if error is None:
            fingerprint = outcome.fingerprint()
            if self.first.setdefault(index, fingerprint) != fingerprint:
                error = f"differs from an earlier run of the same input: {fingerprint}"
            elif self.expected is not None and (index >= len(self.expected)
                                                or self.expected[index] != fingerprint):
                error = f"differs from {EXPECTED_PATH.name}: {fingerprint}"
        if error is not None:
            self.fail(f"input {index}: {error}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)


def load_expected(workload: str, seed: int) -> Optional[list[str]]:
    if not EXPECTED_PATH.is_file():
        return None
    recorded = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    per_seed = recorded["workloads"].get(workload, {}).get(str(seed))
    return None if per_seed is None else per_seed["inputs"]


def measure(workload, program, items: list, seconds: float, ledger: Ledger, clock: calibrate.Clock) -> dict:
    """Closed loop over the inputs, tracing off; end-to-end metrics."""
    wall: list[float] = []
    times: list[float] = []
    robot_steps = 0
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        index = len(times) % len(items)
        elapsed, outcome = timed_call(workload, program, items[index])
        ledger.record(index, outcome)
        wall.append(elapsed)
        times.append(clock.scale(elapsed))
        robot_steps += outcome.robot_steps
    # Input 0 once more, untimed: sweep_n11 may not cycle within the window,
    # and every workload should prove a repeat gives the same digest.
    ledger.record(0, timed_call(workload, program, items[0])[1])
    tail_s, tail_pct = spans.tail(times)
    return {
        "runs": len(times),
        "run_s_tail_percentile": tail_pct,
        "unscaled_run_s_p50": statistics.median(wall),
        "metrics": {
            "robot_steps_per_s": (robot_steps / sum(times), "1/s"),
            "run_s_p50": (statistics.median(times), "s"),
            "run_s_tail": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
    }


def measure_traced(workload, program, items: list, seconds: float, ledger: Ledger,
                   clock: calibrate.Clock, spans_path: Path) -> dict:
    """Each input once plain and once traced, alternating; per-layer metrics."""
    tracer = spans.Tracer()
    originals = spans.bindings(program.modules)
    plain_s = traced_s = traced_wall_s = 0.0
    pairs = 0
    deadline = perf_counter() + seconds
    while not pairs or perf_counter() < deadline:
        index = pairs % len(items)
        elapsed, outcome = timed_call(workload, program, items[index])
        ledger.record(index, outcome)
        plain_s += clock.scale(elapsed)
        with tracer.installed(program.modules):
            elapsed, outcome = timed_call(workload, program, items[index])
        # The ledger compares the traced digest with the plain run's.
        ledger.record(index, outcome)
        traced_s += clock.scale(elapsed)
        traced_wall_s += elapsed
        pairs += 1
        after = spans.bindings(program.modules)
        moved = [key for key, value in originals.items() if after.get(key) is not value]
        if moved:
            ledger.fail(f"bindings not restored after tracing: {moved[:5]}")
            break
    tracer.dump(spans_path)
    # Span times are scaled by the traced runs' mean factor, not run by run.
    factor = traced_s / traced_wall_s
    return {"runs": 2 * pairs, "metrics": layer_metrics(tracer, program, plain_s, traced_s, factor)}


def layer_metrics(tracer: spans.Tracer, program, plain_s: float, traced_s: float, factor: float) -> dict:
    calls, own, covered = tracer.self_times()
    labels = [f"{layer}.{name}" for layer, name in spans.TRACED]
    labels += [spans.MONITOR_PREFIX + name for name in program.analysis.MONITOR_RULES]
    metrics: dict[str, tuple[float, str]] = {}
    for label in labels:
        metrics[label + ".calls"] = (calls.get(label, 0), "count")
        metrics[label + ".self_s"] = (own.get(label, 0.0) * factor, "s")

    def per_call(key: str, label: str) -> float:
        return tracer.counts.get(key, 0.0) / calls[label] if calls.get(label) else 0.0

    step_ms = [d * 1e3 * factor for d in tracer.durations("simulator.step")]
    metrics.update({
        "geometry.smallest_enclosing_circle.points_mean": (
            per_call("geometry.smallest_enclosing_circle.points", "geometry.smallest_enclosing_circle"), "points"),
        "model.normalize.pairs": (tracer.counts.get("model.normalize.pairs", 0), "pairs"),
        "protocol.path_is_clear.blocked_frac": (
            per_call("protocol.path_is_clear.blocked", "protocol.path_is_clear"), "fraction"),
        "simulator.step.active_mean": (per_call("simulator.step.active", "simulator.step"), "robots"),
        "simulator.step.ms_p50": (statistics.median(step_ms) if step_ms else 0.0, "ms"),
        "simulator.step.ms_tail": (spans.tail(step_ms)[0] if step_ms else 0.0, "ms"),
        "cli.trace_bytes": (tracer.counts.get("cli.trace_bytes", 0), "bytes"),
        "simulator.run.steps": (tracer.counts.get("simulator.run.steps", 0), "steps"),
        "untraced_share": (1.0 - covered * factor / traced_s, "fraction"),
        "tracing_overhead": (traced_s / plain_s, "ratio"),
    })
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "gathersim").glob("*.py")):
        source.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest(),
    }


def record_expected() -> int:
    """Run every input of both pinned seeds once and write their fingerprints."""
    out: dict = {"seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED}, "workloads": {}}
    for name, workload in WORKLOADS.items():
        program = import_program()
        out["workloads"][name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            outcomes = [timed_call(workload, program, item)[1]
                        for item in workload.generate(program, seed, WORK_DIR / name)]
            errors = [o.error for o in outcomes if o.error]
            if errors:
                print(f"{name} seed {seed}: {errors[0]}", file=sys.stderr)
                return 1
            out["workloads"][name][str(seed)] = {
                "steps": sum(o.steps for o in outcomes),
                "robot_steps": sum(o.robot_steps for o in outcomes),
                "trace_bytes": sum(o.trace_bytes for o in outcomes),
                "inputs": [o.fingerprint() for o in outcomes],
            }
            print(f"{name} seed {seed}: {len(outcomes)} inputs recorded")
    EXPECTED_PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help=f"rewrite {EXPECTED_PATH.name} and exit")
    args = parser.parse_args(argv)
    if not args.record_expected and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    os.environ.pop(ENV_EPS, None)
    try:
        if args.record_expected:
            return record_expected()
        workload = WORKLOADS[args.workload]
        clock = calibrate.Clock()
        program, items, setup_times = set_up(workload, args.seed, WORK_DIR / workload.name, clock)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    env = environment()
    print("env: " + " | ".join(f"{k} {v}" for k, v in env.items()))
    expected = load_expected(workload.name, args.seed)
    ledger = Ledger(expected)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = measure_traced(workload, program, items, args.seconds, ledger, clock,
                                WORK_DIR / f"spans-{stem}.bin")
    else:
        result = measure(workload, program, items, args.seconds, ledger, clock)
        result["metrics"]["setup_s"] = (statistics.median(setup_times), "s")
    metrics = result["metrics"]

    print(f"workload {workload.name}, seed {args.seed}: {result['runs']} runs over "
          f"{len(items)} inputs, closed loop with one caller")
    print("recorded digests: " + (f"checked against {EXPECTED_PATH.name}" if expected
                                  else "none for this seed; repeats checked against each other"))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "run_s_tail":
            note = f"  (p{result['run_s_tail_percentile']:.1f} of {result['runs']} runs)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} set-ups)"
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_frac = {ledger.failed / ledger.attempted:.6g} fraction  "
          f"({ledger.failed} of {ledger.attempted} runs)")
    for error in ledger.errors:
        print(f"FAILED {error}")

    correct = ledger.failed == 0
    record = {
        "environment": env,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": len(items),
        "runs": result["runs"],
        "run_s_tail_percentile": result.get("run_s_tail_percentile"),
        "unscaled_run_s_p50": result.get("unscaled_run_s_p50"),
        "reference_s": {"nominal": calibrate.NOMINAL_S, "median": statistics.median(clock.samples),
                        "min": min(clock.samples), "max": max(clock.samples)},
        "setup_s_samples": setup_times,
        "expected_digests_checked": expected is not None,
        "failed_frac": ledger.failed / ledger.attempted,
        "errors": ledger.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK_DIR / f"results-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
