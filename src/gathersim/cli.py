"""Command-line front end: config parsing and four thin subcommands.

run executes one configured simulation, sweep runs randomized batches,
check prints the verdicts of the suites in gathersim.analysis, and demo-even
shows the symmetric witness that even robot counts never gather.
Configurations are JSON; a rejected config always names the offending
field.  The GATHERSIM_EPS environment variable overrides the default
tolerance; an eps given in a config file still wins.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .analysis import (
    MONITOR_RULES,
    attach_lemma_monitors,
    check_geometry_suite,
    check_lemmas_suite,
    check_properties_suite,
    even_livelock_demo,
    run_sweep,
)
from .geometry import Point, Tolerance
from .model import Frame
from .simulator import (
    GATHERED,
    SCRIPTED,
    STRATEGIES,
    Robot,
    SchedulerSpec,
    run,
)

ENV_EPS = "GATHERSIM_EPS"
SUITES = ("geometry", "properties", "lemmas", "all")
SWEEP_STRATEGIES = tuple(s for s in STRATEGIES if s != SCRIPTED)


class ConfigError(ValueError):
    """Rejected configuration; the message names the offending field."""


def default_eps() -> float:
    raw = os.environ.get(ENV_EPS)
    if raw is None:
        return 1e-9
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENV_EPS}: not a number: {raw!r}") from exc
    if not (value >= 0.0 and math.isfinite(value)):
        raise ConfigError(f"{ENV_EPS}: eps must be finite and non-negative")
    return value


@dataclass
class RunConfig:
    robots: list[Robot]
    scheduler: SchedulerSpec
    eps: float = 1e-9
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
    result = float(value)
    if not math.isfinite(result):
        raise ConfigError(f"{where}: must be finite")
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
    tx = _as_number(data.get("tx", 0.0), f"{where}.tx")
    ty = _as_number(data.get("ty", 0.0), f"{where}.ty")
    reflected = _as_bool(data.get("reflected", False), f"{where}.reflected")
    return Frame(rotation, scale, (tx, ty), reflected)


def _parse_robot(raw: Any, index: int) -> Robot:
    where = f"robots[{index}]"
    data = _as_mapping(raw, where)
    _reject_unknown(data, ("x", "y", "sigma", "frame"), f"{where}.")
    x = _as_number(_require(data, "x", where), f"{where}.x")
    y = _as_number(_require(data, "y", where), f"{where}.y")
    sigma = _as_number(_require(data, "sigma", where), f"{where}.sigma")
    if sigma <= 0.0:
        raise ConfigError(f"{where}.sigma: must be > 0")
    frame = _parse_frame(data.get("frame", {}), f"{where}.frame")
    return Robot(index, Point(x, y), sigma, frame)


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
        ("robots", "scheduler", "detection", "eps", "max_steps", "monitors", "refresh_frames"),
        "",
    )
    robots_raw = _require(top, "robots", "config")
    if not isinstance(robots_raw, list) or not robots_raw:
        raise ConfigError("robots: expected a non-empty list")
    robots = [_parse_robot(r, i) for i, r in enumerate(robots_raw)]
    scheduler = _parse_scheduler(top.get("scheduler", {}), len(robots))
    # The rule needs exact counts; the key stays so that a config asking for
    # anything weaker is refused instead of silently run under strong.
    detection = top.get("detection", "strong")
    if detection != "strong":
        raise ConfigError(f"detection: only 'strong' is supported, got {detection!r}")
    eps = top.get("eps")
    eps = default_eps() if eps is None else _as_number(eps, "eps")
    if eps < 0.0:
        raise ConfigError("eps: must be >= 0")
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
    return RunConfig(robots, scheduler, eps, max_steps, monitors, refresh)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(data)


def dump_config(config: RunConfig) -> dict:
    """Inverse of parse_config; parse_config(dump_config(c)) == c."""
    robots = []
    for robot in config.robots:
        robots.append(
            {
                "x": robot.pos.x,
                "y": robot.pos.y,
                "sigma": robot.sigma,
                "frame": {
                    "rotation": robot.frame.rotation,
                    "scale": robot.frame.scale,
                    "tx": robot.frame.translation[0],
                    "ty": robot.frame.translation[1],
                    "reflected": robot.frame.reflected,
                },
            }
        )
    scheduler: dict[str, Any] = {
        "strategy": config.scheduler.strategy,
        "seed": config.scheduler.seed,
        "fairness_bound": config.scheduler.fairness_bound,
    }
    if config.scheduler.script is not None:
        scheduler["script"] = [list(entry) for entry in config.scheduler.script]
    return {
        "robots": robots,
        "scheduler": scheduler,
        "eps": config.eps,
        "max_steps": config.max_steps,
        "monitors": None if config.monitors is None else dict(config.monitors),
        "refresh_frames": config.refresh_frames,
    }


# -- subcommands ------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    # Opened first, so an unwritable path fails before the run, not after.
    try:
        handle = open(args.trace, "w", encoding="utf-8") if args.trace else None
    except OSError as err:
        print(f"cannot write trace to {args.trace}: {err}", file=sys.stderr)
        return 1
    with handle or contextlib.nullcontext():
        try:
            outcome, trace = run(
                config.robots,
                config.scheduler,
                Tolerance(config.eps),
                config.max_steps,
                attach_lemma_monitors(config.monitors),
                record_trace=handle is not None,
                refresh_frames=config.refresh_frames,
            )
        except BaseException:
            # An empty file would read as the trace of a run that never started.
            # Only the empty regular file opened above is removed, never a device
            # or pipe, and a failed removal never hides the run's own error.
            if handle is not None:
                with contextlib.suppress(OSError):
                    opened = os.fstat(handle.fileno())
                    handle.close()
                    if stat.S_ISREG(opened.st_mode) and opened.st_size == 0:
                        os.remove(args.trace)
            raise
        if handle is not None:
            try:
                handle.writelines(line + "\n" for line in trace)
                handle.flush()
            except OSError as err:
                print(f"cannot write trace to {args.trace}: {err}", file=sys.stderr)
                return 1
    record = {
        "status": outcome.status,
        "final_t": outcome.final_t,
        "occupied": [
            {"x": p.x, "y": p.y, "count": k}
            for p, k in sorted(outcome.final_config.occupied.items())
        ],
        "violations": [
            {"monitor": v.monitor, "step": v.step, "description": v.description}
            for v in outcome.monitor_violations
        ],
    }
    print(json.dumps(record, sort_keys=True))
    return 0 if outcome.status == GATHERED and not outcome.monitor_violations else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    tol = Tolerance(default_eps())
    summary, records = run_sweep(args.n, args.runs, args.seed, args.scheduler, tol)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError as err:
        print(f"cannot write records to {args.out}: {err}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "runs": summary.runs,
                "gathered": summary.gathered,
                "step_limit": summary.step_limit,
                "max_steps_to_gather": summary.max_steps_to_gather,
                "violations": summary.violations,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    )
    clean = summary.gathered == summary.runs and not any(summary.violations.values())
    return 0 if clean else 1


def cmd_check(args: argparse.Namespace) -> int:
    tol = Tolerance(default_eps())
    checks: list[tuple[str, bool, str]] = []
    if args.suite in ("geometry", "all"):
        checks.extend(check_geometry_suite(tol))
    if args.suite in ("properties", "all"):
        checks.extend(check_properties_suite(tol))
    if args.suite in ("lemmas", "all"):
        checks.extend(check_lemmas_suite(tol))
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_demo_even(args: argparse.Namespace) -> int:
    outcome = even_livelock_demo(args.n, args.steps)
    two_point_breaks = [
        v for v in outcome.monitor_violations if v.monitor == "two_point_persistence"
    ]
    print(f"status: {outcome.status} after {outcome.final_t} steps")
    occupancy = ", ".join(
        f"({p.x:g}, {p.y:g}) x{count}"
        for p, count in sorted(outcome.final_config.occupied.items())
    )
    print(f"final occupancy: {occupancy}")
    held = not two_point_breaks
    print(f"two occupied points at every step: {'yes' if held else 'NO'}")
    return 0 if outcome.status != GATHERED and held else 1


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
    p_demo.add_argument("--steps", type=_positive_int, required=True)
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


if __name__ == "__main__":
    sys.exit(main())
