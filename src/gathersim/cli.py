"""Command-line front end: config parsing and four thin subcommands.

run executes one configured simulation and exits 0 only if it gathered with
silent monitors, sweep runs randomized batches, check prints the verdicts of
the suites in gathersim.analysis, and demo-even shows the symmetric witness
that even robot counts never gather: a run that ends at a fixed point.
Configurations are JSON; a rejected config always names the offending
field.  The coincidence tolerance is the fixed geometry.EPS; no config key or
environment variable sets it.  A robot coordinate, and a frame's scale times
the largest coordinate magnitude, may not exceed geometry.COORD_LIMIT = 2**300
in magnitude: a robot's view must stay inside the domain where the smallest
enclosing circle is exact.  A frame's tx and ty must be numbers and are then
ignored, since a robot's frame is centred on the robot.  run --trace and
sweep --out share one output rule, _output.  Only main turns errors into exit codes: a ConfigError into 2 and an
OutputError, a file that could not be written, into 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass
from typing import Any, Iterator, Optional, Sequence, TextIO

from .analysis import (
    MONITOR_RULES,
    attach_lemma_monitors,
    check_geometry_suite,
    check_lemmas_suite,
    check_properties_suite,
    even_livelock_demo,
    run_sweep,
)
from .geometry import COORD_LIMIT, Point
from .model import Configuration, Frame
from .simulator import (
    FIXED_POINT,
    GATHERED,
    SCRIPTED,
    STRATEGIES,
    Robot,
    SchedulerSpec,
    run,
)

SUITES = ("geometry", "properties", "lemmas", "all")
SWEEP_STRATEGIES = tuple(s for s in STRATEGIES if s != SCRIPTED)


class ConfigError(ValueError):
    """Rejected configuration; the message names the offending field."""


class OutputError(Exception):
    """An output file could not be opened, written or closed; the message names it."""


@dataclass
class RunConfig:
    robots: list[Robot]
    scheduler: SchedulerSpec
    max_steps: Optional[int] = None
    monitors: Optional[dict[str, bool]] = None
    refresh_frames: bool = False


# -- parsing ----------------------------------------------------------------


def _require(raw: dict, key: str, where: str) -> Any:
    if key not in raw:
        raise ConfigError(f"{where}.{key}: required field is missing")
    return raw[key]


def _as_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, known: Sequence[str], prefix: str) -> None:
    """A misspelt key would otherwise be dropped and its default run silently."""
    for key in data:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown field; expected one of {', '.join(known)}")


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        result = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{where}: too large for a float") from exc
    if not math.isfinite(result):
        raise ConfigError(f"{where}: must be finite")
    return result


def _as_coordinate(value: Any, where: str) -> float:
    result = _as_number(value, where)
    if abs(result) > COORD_LIMIT:
        raise ConfigError(f"{where}: magnitude exceeds 2**300")
    return result


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def _as_index(value: Any, where: str, n: int) -> int:
    index = _as_int(value, where)
    if not (0 <= index < n):
        raise ConfigError(f"{where}: robot index {index} is outside [0, {n})")
    return index


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true/false, got {type(value).__name__}")
    return value


def _parse_frame(raw: Any, where: str) -> Frame:
    data = _as_mapping(raw, where)
    _reject_unknown(data, ("rotation", "scale", "tx", "ty", "reflected"), f"{where}.")
    rotation = _as_number(data.get("rotation", 0.0), f"{where}.rotation")
    scale = _as_number(data.get("scale", 1.0), f"{where}.scale")
    if scale <= 0.0:
        raise ConfigError(f"{where}.scale: must be > 0")
    # A frame is centred on its robot: an origin is checked, then dropped.
    _as_number(data.get("tx", 0.0), f"{where}.tx")
    _as_number(data.get("ty", 0.0), f"{where}.ty")
    reflected = _as_bool(data.get("reflected", False), f"{where}.reflected")
    return Frame(rotation, scale, reflected)


def _parse_robot(raw: Any, index: int) -> Robot:
    where = f"robots[{index}]"
    data = _as_mapping(raw, where)
    _reject_unknown(data, ("x", "y", "sigma", "frame"), f"{where}.")
    x = _as_coordinate(_require(data, "x", where), f"{where}.x")
    y = _as_coordinate(_require(data, "y", where), f"{where}.y")
    sigma = _as_number(_require(data, "sigma", where), f"{where}.sigma")
    if sigma <= 0.0:
        raise ConfigError(f"{where}.sigma: must be > 0")
    frame = _parse_frame(data.get("frame", {}), f"{where}.frame")
    return Robot(Point(x, y), sigma, frame)


def _parse_scheduler(raw: Any, n: int) -> SchedulerSpec:
    data = _as_mapping(raw, "scheduler")
    strategy = data.get("strategy", "synchronous")
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"scheduler.strategy: unknown strategy {strategy!r}; "
            f"expected one of {', '.join(STRATEGIES)}"
        )
    _reject_unknown(data, ("strategy", "seed", "fairness_bound", "script"), "scheduler.")
    if strategy != SCRIPTED and data.get("script") is not None:
        raise ConfigError(f"scheduler.script: only the {SCRIPTED} strategy reads a script")
    seed = _as_int(data.get("seed", 0), "scheduler.seed")
    bound = data.get("fairness_bound")
    if bound is not None:
        bound = _as_int(bound, "scheduler.fairness_bound")
        if bound < 1:
            raise ConfigError("scheduler.fairness_bound: must be >= 1")
    script = data.get("script")
    if script is not None:
        if not isinstance(script, list) or not script:
            raise ConfigError("scheduler.script: expected a non-empty list of index lists")
        parsed = []
        for si, entry in enumerate(script):
            if not isinstance(entry, list) or not entry:
                raise ConfigError(f"scheduler.script[{si}]: expected a non-empty list")
            parsed.append(
                tuple(_as_index(v, f"scheduler.script[{si}][{j}]", n) for j, v in enumerate(entry))
            )
        script = tuple(parsed)
    try:
        return SchedulerSpec(strategy, seed, bound, script)
    except ValueError as exc:
        raise ConfigError(f"scheduler: {exc}") from exc


def parse_config(data: Any) -> RunConfig:
    top = _as_mapping(data, "config")
    _reject_unknown(
        top,
        ("robots", "scheduler", "detection", "max_steps", "monitors", "refresh_frames"),
        "",
    )
    robots_raw = _require(top, "robots", "config")
    if not isinstance(robots_raw, list) or not robots_raw:
        raise ConfigError("robots: expected a non-empty list")
    robots = [_parse_robot(r, i) for i, r in enumerate(robots_raw)]
    # A robot sees every position scaled by its own frame's scale.
    largest = max(max(abs(r.pos.x), abs(r.pos.y)) for r in robots)
    for i, robot in enumerate(robots):
        if robot.frame.scale * largest > COORD_LIMIT:
            raise ConfigError(
                f"robots[{i}].frame.scale: {robot.frame.scale:g} times the largest "
                f"coordinate magnitude {largest:g} exceeds 2**300"
            )
    scheduler = _parse_scheduler(top.get("scheduler", {}), len(robots))
    # The rule needs exact counts; the key stays so that a config asking for
    # anything weaker is refused instead of silently run under strong.
    detection = top.get("detection", "strong")
    if detection != "strong":
        raise ConfigError(f"detection: only 'strong' is supported, got {detection!r}")
    max_steps = top.get("max_steps")
    if max_steps is not None:
        max_steps = _as_int(max_steps, "max_steps")
        if max_steps < 1:
            raise ConfigError("max_steps: must be >= 1")
    monitors = top.get("monitors")
    if monitors is not None:
        monitors = _as_mapping(monitors, "monitors")
        parsed_toggles = {}
        for name, enabled in monitors.items():
            if name not in MONITOR_RULES:
                raise ConfigError(
                    f"monitors.{name}: unknown monitor; "
                    f"expected one of {', '.join(MONITOR_RULES)}"
                )
            parsed_toggles[name] = _as_bool(enabled, f"monitors.{name}")
        monitors = parsed_toggles
    refresh = _as_bool(top.get("refresh_frames", False), "refresh_frames")
    return RunConfig(robots, scheduler, max_steps, monitors, refresh)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(data)


# -- subcommands ------------------------------------------------------------


@contextlib.contextmanager
def _output(path: Optional[str], what: str) -> Iterator[Optional[TextIO]]:
    """Yield ``path`` opened for the body to write ``what`` to, or None without a path.

    The file is opened before the body runs, so an unwritable path fails
    before any work is done.  If the body raises while the file is still an
    empty regular file, the file is removed: it would read as the output of
    work that never ran.  A device or pipe is never removed, and a failed
    removal never hides the body's own error.  An OSError from the open, the
    body or the close becomes an OutputError.
    """
    if path is None:
        yield None
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            try:
                yield handle
            except BaseException:
                with contextlib.suppress(OSError):
                    handle.flush()  # bytes still buffered would read as an empty file
                with contextlib.suppress(OSError):  # a close whose flush fails still closes
                    opened = os.fstat(handle.fileno())
                    handle.close()
                    if stat.S_ISREG(opened.st_mode) and opened.st_size == 0:
                        os.remove(path)
                raise
    except OSError as err:
        raise OutputError(f"cannot write {what} to {path}: {err}") from err


def _occupied(config: Configuration) -> list[dict]:
    return [{"x": p.x, "y": p.y, "count": k} for p, k in sorted(config.occupied.items())]


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    # An empty --trace, like none, writes no trace.
    with _output(args.trace or None, "trace") as handle:
        outcome, _ = run(
            config.robots,
            config.scheduler,
            max_steps=config.max_steps,
            monitors=attach_lemma_monitors(config.monitors),
            trace=handle,
            refresh_frames=config.refresh_frames,
        )
    record = {
        "status": outcome.status,
        "final_t": outcome.final_t,
        "occupied": _occupied(outcome.final_config),
        "violations": [
            {"monitor": v.monitor, "step": v.step, "description": v.description,
             "occupied": _occupied(v.snapshot)}
            for v in outcome.monitor_violations
        ],
    }
    print(json.dumps(record, sort_keys=True))
    return 0 if outcome.status == GATHERED and not outcome.monitor_violations else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    with _output(args.out, "records") as handle:
        summary, records = run_sweep(args.n, args.runs, args.seed, args.scheduler)
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    print(json.dumps(asdict(summary), sort_keys=True, separators=(",", ":")))
    return 0 if summary.clean else 1


def cmd_check(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []
    if args.suite in ("geometry", "all"):
        checks.extend(check_geometry_suite())
    if args.suite in ("properties", "all"):
        checks.extend(check_properties_suite())
    if args.suite in ("lemmas", "all"):
        checks.extend(check_lemmas_suite())
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_demo_even(args: argparse.Namespace) -> int:
    outcome = even_livelock_demo(args.n)
    print(f"status: {outcome.status} after {outcome.final_t} steps")
    occupancy = ", ".join(
        f"({p.x:g}, {p.y:g}) x{count}"
        for p, count in sorted(outcome.final_config.occupied.items())
    )
    print(f"final occupancy: {occupancy}")
    print(f"monitor findings: {len(outcome.monitor_violations)}")
    return 0 if outcome.status == FIXED_POINT and not outcome.monitor_violations else 1


# -- argument wiring --------------------------------------------------------


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _even_int(raw: str) -> int:
    value = int(raw)
    if value < 2 or value % 2 != 0:
        raise argparse.ArgumentTypeError("must be an even integer >= 2")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gathersim",
        description="Simulate and verify point-gathering of oblivious mobile robots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the run config")
    p_run.add_argument("--trace", help="write the JSONL trace here")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run randomized batches with all monitors")
    p_sweep.add_argument("--n", type=_positive_int, required=True, help="robot count")
    p_sweep.add_argument("--runs", type=_positive_int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--scheduler", choices=SWEEP_STRATEGIES, required=True)
    p_sweep.add_argument("--out", required=True, help="per-run records go here (JSONL)")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_check = sub.add_parser("check", help="run the oracle/property/monitor suites")
    p_check.add_argument("--suite", choices=SUITES, required=True)
    p_check.set_defaults(handler=cmd_check)

    p_demo = sub.add_parser("demo-even", help="show the even-count non-gathering witness")
    p_demo.add_argument("--n", type=_even_int, required=True)
    p_demo.set_defaults(handler=cmd_demo_even)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OutputError as err:
        print(err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
