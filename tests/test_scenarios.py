"""Failing cases kept as files: configs under tests/scenarios/ that the CLI accepts.

Each is an odd-n input that should gather with silent monitors and does not
yet.  Its test is a strict xfail, so the change that fixes it must flip the
test; the reason states the verdict the case gets today.  The inputs are
never changed to make a case pass.
"""

from pathlib import Path

import pytest

from gathersim.analysis import attach_lemma_monitors
from gathersim.cli import load_config
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
