"""Stalls kept as files: configs under tests/scenarios/ that the CLI accepts.

Each is an odd-n input that should gather with silent monitors.  Those in
FAILING do not yet: each test is a strict xfail, so the change that fixes a
case must flip it, and the reason states the verdict the case gets today.
Those in GATHERING once stalled and now gather; ``gathersim run`` must keep
exiting 0 on them with the same final step and occupied points.  The
inputs are never changed to make a case pass.
"""

import json
from pathlib import Path

import pytest

from gathersim.analysis import attach_lemma_monitors
from gathersim.cli import load_config, main
from gathersim.simulator import GATHERED, run

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

FAILING = [
    pytest.param(
        "three_robot_stall_1e7.json",
        marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 1: ends fixed_point at t=1 with silent monitors; "
            "each robot rounds another point off the rim by more than EPS",
        ),
        id="three-robot-stall-1e7",
    ),
    pytest.param(
        "two_cycle_1e8.json",
        marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 9: the state at t=7 equals the one at t=5; "
            "ends step_limit_reached at 3000 with silent monitors",
        ),
        id="two-cycle-1e8",
    ),
]


@pytest.mark.parametrize("name", FAILING)
def test_an_odd_scenario_gathers_with_silent_monitors(name):
    config = load_config(str(SCENARIOS / name))
    assert len(config.robots) % 2 == 1
    outcome, _ = run(
        config.robots,
        config.scheduler,
        max_steps=config.max_steps,
        monitors=attach_lemma_monitors(config.monitors),
        refresh_frames=config.refresh_frames,
    )
    assert (outcome.status, outcome.monitor_violations) == (GATHERED, [])


# (file, final_t, occupied as gathersim run prints it)
GATHERING = [
    pytest.param(
        "ulp_stall_2_45.json", 3, [{"x": -16492674416640.0, "y": 2.0**44, "count": 5}],
        id="ulp-stall-2-45",
    ),
    pytest.param(
        "frame_scale_1e-8.json", 1, [{"x": 0.0, "y": 0.0, "count": 3}],
        id="frame-scale-1e-8",
    ),
]


@pytest.mark.parametrize("name, final_t, occupied", GATHERING)
def test_a_stall_that_now_gathers_runs_clean_through_the_cli(name, final_t, occupied, capsys):
    assert main(["run", "--config", str(SCENARIOS / name)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {"status": GATHERED, "final_t": final_t, "occupied": occupied, "violations": []}
