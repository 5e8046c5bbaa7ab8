"""Byte-for-byte pins on what the engine writes out.

Refactors of the engine and the monitor layer must not change a single
byte of a trace, a sweep record, a monitor finding or a self-check line.
Each test below hashes one of these outputs and compares it with a digest
recorded before such a refactor.  A changed digest means changed output:
if the change is intended, say why and record the new digest.

The run cases cover what the benchmark's recorded digests do not: the
boundary-only adversary and frames redrawn every step.  The CLI trace cases
pin the file ``gathersim run --trace`` writes, reflected frames, a vetoed
careful move, an exact two-maxima tie under four frames and views that
merge two occupied points included.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import warnings

from gathersim import cli
from gathersim.analysis import attach_lemma_monitors, random_robots, run_sweep
from gathersim.geometry import Point
from gathersim.model import Frame, max_points, normalize, observe
from gathersim.simulator import SchedulerSpec
from streamed import traced_run

# (n, strategy, refresh_frames, seed)
RUN_CASES = (
    (7, "boundary_only_adversary", False, 0),
    (9, "boundary_only_adversary", True, 1),
    (5, "synchronous", True, 4),
    (6, "boundary_only_adversary", False, 3),
)

# Re-recorded when the tolerance became the fixed geometry.EPS: the two cases
# run at eps = 0 went, and the four left give the bytes they always gave.
RUN_DIGEST = "ccb054f685c45c667ba91e4c7c087230c61e54fa9a1b605d99d98322a0a95b51"
SWEEP_DIGEST = "9ed7f24d3e07ca2ea2574cd1ff8cd70c59dea7fadbb38b166990bf7a3fdb1347"
CHECK_DIGEST = "7bd7e3bff10cb78142331f855c530b381486c1849c6f5efd668dd39e52be2d4b"
# Re-recorded when demo-even lost its step budget: the witness now stops at
# its exact fixed point after one step and prints its monitor findings, where
# it used to run a requested number of steps and report a two-point check.
DEMO_DIGEST = "6ad385a6fa2293870d11f71a4dd115167c70a188355a210a70d3118d42584a9d"

# Frames redrawn each step under the boundary-only adversary.
BOUNDARY_CONFIG = {
    "robots": [
        {"x": 0.0, "y": 0.0, "sigma": 0.7, "frame": {"reflected": True}},
        {"x": 3.0, "y": 1.0, "sigma": 0.9, "frame": {"rotation": 1.0, "scale": 1.5, "reflected": True}},
        {"x": 1.0, "y": 4.0, "sigma": 0.8},
        {"x": -2.0, "y": 2.5, "sigma": 0.6, "frame": {"rotation": -2.5, "tx": 3.0, "ty": 1.0}},
        {"x": 0.5, "y": 1.5, "sigma": 1.2, "frame": {"scale": 0.25, "reflected": True}},
    ],
    "scheduler": {"strategy": "boundary_only_adversary", "seed": 17, "fairness_bound": 6},
    "refresh_frames": True,
}
# A unique maximum at the origin; at t=0 the robots at x=4 and x=6 have the
# robot at x=2 on their way to it, so their careful moves are vetoed.
VETO_CONFIG = {
    "robots": [
        {"x": 0.0, "y": 0.0, "sigma": 1.0},
        {"x": 0.0, "y": 0.0, "sigma": 1.0, "frame": {"rotation": 2.0, "scale": 0.5, "reflected": True}},
        {"x": 2.0, "y": 0.0, "sigma": 1.0, "frame": {"rotation": -1.0, "scale": 3.0, "tx": 1.0, "ty": -2.0}},
        {"x": 4.0, "y": 0.0, "sigma": 1.0, "frame": {"rotation": 0.5, "reflected": True}},
        {"x": 6.0, "y": 0.0, "sigma": 1.5, "frame": {"scale": 2.0, "tx": -4.0, "reflected": True}},
    ],
    "scheduler": {"strategy": "synchronous"},
}


def _tie_config(frame, near_frame=None):
    """Camps of two robots at (0, 0) and (2, 0), and a fifth robot at (1, 1)
    under ``frame``, woken first.  With ``near_frame``, a sixth robot 5e-10
    from (2, 0), inside that camp's cluster, under ``near_frame`` wakes with it."""
    robots = [{"x": x, "y": 0.0, "sigma": 2.0} for x in (0.0, 0.0, 2.0, 2.0)]
    robots.append({"x": 1.0, "y": 1.0, "sigma": 2.0, "frame": frame})
    if near_frame is not None:
        robots.append({"x": 2.0 + 5e-10, "y": 0.0, "sigma": 2.0, "frame": near_frame})
    first = list(range(4, len(robots)))
    return {"robots": robots, "scheduler": {"strategy": "scripted", "script": [first, list(range(len(robots)))]}}


# The fifth robot's exact two-maxima tie is broken in its own coordinates: it
# walks to (0, 0) under the identity, a reflection and a quarter turn, and to
# (2, 0) under a half turn.  The sixth robot is 5e-10 from the maximum at
# (2, 0), within eps, so it stays under a frame of scale 4 as under 0.25.
TIE_CONFIGS = (
    _tie_config({}),
    _tie_config({"reflected": True}),
    _tie_config({"rotation": math.pi / 2}),
    _tie_config({"rotation": math.pi}),
    _tie_config({}, {"scale": 4.0}),
    _tie_config({}, {"scale": 0.25}),
)
TIE_TRACE_DIGEST = "de37987f25f6533d3aedb7a10ac676f4958da25c7d83935a366734a4cb97be96"
BOUNDARY_TRACE_DIGEST = "cb0e015513f7bd9d96875632eaee7dceb3e4177c6d1496e0bf9e310070d33369"
VETO_TRACE_DIGEST = "2c3bf0cb842b90fd6db6d93b424d119a141b021186f011353daff4ce0da9050c"

# Two robots at neighbouring floats near 2**41, an ulp (2**-11) apart, and a
# robot at the origin under a one-radian frame, in whose view their images
# round to one point with both counts.  In the first configuration that
# point would become the unique maximum of the view; in the second it would
# join three camps of two as a fourth.  The robot decides on the
# configuration's counts, so it takes an SEC branch in both.  Everyone else
# sees every key apart.  Both runs gather; the second with a radius-progress
# finding, as one ulp at 2**45 is 2**-7, far above EPS.
_NEAR = 2.0**41
MERGE_ROTATION = 1.0
MERGE_CONFIGS = tuple(
    {
        "robots": [{"x": 0.0, "y": 0.0, "sigma": 1e15, "frame": {"rotation": MERGE_ROTATION}}]
        + [{"x": _NEAR + dx, "y": 2.0**45 + dy, "sigma": 1e15} for dx, dy in rest],
        "scheduler": {"strategy": "synchronous"},
    }
    for rest in (
        [(0.0, 0.0), (math.ulp(_NEAR), 0.0), (0.0, 1.0), (1.0, 0.0)],
        [(0.0, 0.0), (math.ulp(_NEAR), 0.0)] + [(2.0, 0.0), (0.0, 2.0), (2.0, 2.0)] * 2,
    )
)
# Re-recorded when decisions stopped merging images: the robot at the origin
# no longer walks to a merged unique maximum at t=0.
MERGE_TRACE_DIGEST = "b8bb9c858be7142c55e9ee30b070558fd05a6399eff25038bb4fc28da7a713e1"


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def _occupied(config):
    return [[p.x.hex(), p.y.hex(), count] for p, count in config.occupied.items()]


def _run_lines(n, strategy, refresh, seed):
    robots = random_robots(random.Random(f"pin:{n}:{seed}"), n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        outcome, trace = traced_run(
            robots,
            SchedulerSpec(strategy, seed),
            max_steps=300,
            monitors=attach_lemma_monitors(),
            refresh_frames=refresh,
        )
    yield from trace
    for report in outcome.monitor_violations:
        yield json.dumps([report.monitor, report.step, report.description, _occupied(report.snapshot)])
    yield json.dumps([outcome.status, outcome.final_t, _occupied(outcome.final_config)])


def _cli_lines(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue().splitlines() + [f"exit {code}"]


def _cli_trace_lines(tmp_path, config):
    """The trace file, then stdout and the exit code, of ``gathersim run --trace``."""
    config_path = tmp_path / "config.json"
    trace_path = tmp_path / "trace.jsonl"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    printed = _cli_lines(["run", "--config", str(config_path), "--trace", str(trace_path)])
    return trace_path.read_text(encoding="utf-8").splitlines() + printed


def test_monitored_run_traces_and_findings_are_pinned():
    lines = [line for case in RUN_CASES for line in _run_lines(*case)]
    assert _digest(lines) == RUN_DIGEST


def test_sweep_records_are_pinned():
    lines = []
    for strategy in cli.SWEEP_STRATEGIES:
        for seed in (0, 5):
            summary, records = run_sweep(7, 10, seed, strategy)
            lines += [json.dumps(r, sort_keys=True) for r in records]
            lines.append(json.dumps(vars(summary), sort_keys=True))
    assert _digest(lines) == SWEEP_DIGEST


def test_check_suite_output_is_pinned():
    lines = _cli_lines(["check", "--suite", "all"])
    assert lines[-1] == "exit 0"
    assert _digest(lines) == CHECK_DIGEST


def test_even_witness_output_is_pinned():
    lines = _cli_lines(["demo-even", "--n", "4"])
    assert lines[-1] == "exit 0"
    assert _digest(lines) == DEMO_DIGEST


def test_cli_trace_under_boundary_adversary_is_pinned(tmp_path):
    lines = _cli_trace_lines(tmp_path, BOUNDARY_CONFIG)
    assert lines[-1] == "exit 0"
    assert _digest(lines) == BOUNDARY_TRACE_DIGEST


def test_cli_trace_with_a_vetoed_careful_move_is_pinned(tmp_path):
    lines = _cli_trace_lines(tmp_path, VETO_CONFIG)
    assert lines[-1] == "exit 0"
    records = [json.loads(line) for line in lines[:-2]]
    vetoed = [
        r for r in records
        if r["activated"] and r["action"] == "stay" and r["branch"] in ("unique_max", "two_max")
        and (r["new_x"], r["new_y"]) != (0.0, 0.0)
    ]
    assert [(r["t"], r["robot_id"]) for r in vetoed][:2] == [(0, 3), (0, 4)]
    assert _digest(lines) == VETO_TRACE_DIGEST


def test_cli_traces_of_an_exact_two_maxima_tie_are_pinned(tmp_path):
    lines = []
    for k, config in enumerate(TIE_CONFIGS):
        case = tmp_path / str(k)
        case.mkdir()
        # Six robots warn that even counts need not gather; these do.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lines += _cli_trace_lines(case, config)
    first_moves = [json.loads(line) for line in lines if line.startswith('{"t":0,"robot_id":4,')]
    assert [(r["target_x"], r["target_y"]) for r in first_moves[:4]] == [(0.0, 0.0)] * 3 + [(2.0, 0.0)]
    assert _digest(lines) == TIE_TRACE_DIGEST


def test_cli_traces_of_views_that_merge_two_occupied_points_are_pinned(tmp_path):
    lines, ends = [], []
    for k, config in enumerate(MERGE_CONFIGS):
        seen = normalize([Point(r["x"], r["y"]) for r in config["robots"]])
        view = observe(seen, Frame(MERGE_ROTATION), Point(0.0, 0.0)).occupied
        assert len(max_points(seen.occupied)) >= 3 and len(view) == len(seen.occupied) - 1
        case = tmp_path / str(k)
        case.mkdir()
        lines += _cli_trace_lines(case, config)
        summary = json.loads(lines[-2])
        ends.append((summary["status"], summary["final_t"], [(v["monitor"], v["step"]) for v in summary["violations"]]))
    assert ends == [("gathered", 2, []), ("gathered", 3, [("radius_progress", 0)])]
    assert _digest(lines) == MERGE_TRACE_DIGEST
