"""Steps that move no robot, against recomputation.

A step in which nobody moves keeps its configuration object, and with it
the maxima and circle already computed on it and the stays already decided
on it (``Configuration.stays``); a robot woken again reuses its action
without observing.  A fresh ``Snapshot`` over the same robots, step and wake
times normalizes their positions anew, so its configuration holds nothing
computed and stepping it decides every woken robot afresh: that is the
oracle here.
"""

import random

import pytest

import gathersim.model as model
import gathersim.simulator as simulator
from gathersim.analysis import attach_lemma_monitors, random_point_set
from gathersim.geometry import Point, smallest_enclosing_circle
from gathersim.model import max_points, random_frame
from gathersim.protocol import BRANCH_UNIQUE_MAX, MOVE_CAREFUL, STAY
from gathersim.simulator import (
    BOUNDARY_ONLY,
    ROUND_ROBIN,
    SCRIPTED,
    STRATEGIES,
    SYNCHRONOUS,
    Robot,
    SchedulerSpec,
    Snapshot,
    next_active,
    run,
    step,
)


def _distinct_robots(n, seed):
    """n robots at distinct points of the unit square, with short caps, so runs last."""
    rng = random.Random(f"reuse:{n}:{seed}")
    return [Robot(p, rng.uniform(0.05, 0.3), random_frame(rng)) for p in random_point_set(rng, n)]


def _bits(actions, robots):
    """Actions and positions with every float's bits, the sign of zero included."""
    return repr(sorted(actions.items())), [(r.pos.x.hex(), r.pos.y.hex()) for r in robots]


def _assert_geometry_is_fresh(config):
    """The maxima and circle a configuration holds, if any, equal a fresh computation."""
    held = vars(config)
    if "maxima" in held:
        assert held["maxima"] == max_points(config.occupied)
    if "sec" in held:
        assert held["sec"] == smallest_enclosing_circle(config.occupied)


def _chain(robots, spec, max_steps):
    """Step as ``run`` does, with every lemma monitor reading every pair, and
    check each step against the same step on a fresh snapshot.

    Returns the counts of steps that moved no robot, of those whose next
    configuration came with computed maxima, of those whose next
    configuration came with a computed circle, and of actions reused.
    """
    monitors = attach_lemma_monitors()
    snap = Snapshot(robots)
    still = shared_maxima = shared_sec = reused = 0
    for _ in range(max_steps):
        if snap.config.is_gathered():
            break
        before = snap
        active = next_active(spec, before)
        stays = before.config.stays
        kept = {i: stays[i][1] for i in active if i in stays and stays[i][0] is before.robots[i]}
        fresh = Snapshot(before.robots, before.t, before.last_active)
        assert fresh.config == before.config
        snap, actions = step(before, active)
        fresh_after, fresh_actions = step(fresh, active)
        assert _bits(actions, snap.robots) == _bits(fresh_actions, fresh_after.robots)
        assert snap.last_active == fresh_after.last_active
        assert all(actions[i] is action and action.kind == STAY for i, action in kept.items())
        reused += len(kept)
        if snap.config is before.config:
            still += 1
            shared_maxima += "maxima" in vars(snap.config)
            shared_sec += "sec" in vars(snap.config)
        else:
            assert not snap.config.stays
        for rule in monitors.values():
            rule(before, snap)
        _assert_geometry_is_fresh(before.config)
        _assert_geometry_is_fresh(snap.config)
    return still, shared_maxima, shared_sec, reused


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_step_equals_a_step_that_recomputes(strategy):
    totals = [0, 0, 0, 0]
    for n in (5, 7, 11):
        for seed in range(3):
            robots = _distinct_robots(n, seed)
            script = tuple((i,) for i in range(n)) + ((0, n - 1),) if strategy == SCRIPTED else None
            counts = _chain(robots, SchedulerSpec(strategy, seed=seed, script=script), 300)
            totals = [a + b for a, b in zip(totals, counts)]
    still, shared_maxima, shared_sec, reused = totals
    if strategy != SYNCHRONOUS:
        # Every strategy but the synchronous one has steps that move no robot;
        # these chains start with three or more maxima, where the monitors
        # compute the circle that such a step keeps.
        assert still > 0 and shared_maxima > 0 and shared_sec > 0
    if strategy not in (SYNCHRONOUS, ROUND_ROBIN):
        # A round-robin robot wakes again only n steps later, and here some
        # robot moved within every n steps.
        assert reused > 0


@pytest.mark.parametrize("seed", range(6))
def test_boundary_adversary_at_n11_equals_recomputation(seed):
    still, shared_maxima, shared_sec, reused = _chain(
        _distinct_robots(11, seed), SchedulerSpec(BOUNDARY_ONLY, seed=seed), 500)
    assert still > 0 and shared_maxima > 0 and shared_sec > 0 and reused > 0


def test_robot_woken_again_on_a_frozen_configuration_reuses_its_stay():
    # Robot 3's careful move toward the double point is blocked by robot 2,
    # and robot 0 stands on the unique maximum; neither moves while the
    # script wakes only them, until fairness wakes the others at t = 11.
    robots = [Robot(Point(x, 0.0), 1.0) for x in (0.0, 0.0, 2.0, 4.0)]
    spec = SchedulerSpec(SCRIPTED, script=((3,), (0,), (0, 3)))
    blocked = step(Snapshot(robots), [3])[1][3]
    assert blocked.kind == STAY and blocked.branch == BRANCH_UNIQUE_MAX
    still, shared_maxima, _, reused = _chain(robots, spec, 11)
    # Robot 3's decision at t = 0 read the maxima, so even the first step
    # keeps them.
    assert still == 11 and shared_maxima == 11
    # 14 wakes in t = 0..10: robot 3 decides at t = 0, robot 0 at t = 1, and
    # every later wake reuses.
    assert reused == 14 - 2


@pytest.fixture
def decided(monkeypatch):
    """Every action ``decide`` returns, the rule's before the careful-move
    veto: ``step`` calls it once for each robot that does not reuse a stay."""
    actions = []
    real_decide = simulator.decide

    def recording_decide(snap, robot):
        actions.append(real_decide(snap, robot))
        return actions[-1]

    monkeypatch.setattr(simulator, "decide", recording_decide)
    return actions


def _woken(before, after):
    return [i for i, t in enumerate(after.last_active) if t == before.t]


def test_vetoed_careful_move_is_kept_as_the_stay_it_became(decided):
    snap = Snapshot([Robot(Point(x, 0.0), 1.0) for x in (0.0, 0.0, 2.0, 4.0)])
    actions = []
    for _ in range(5):
        snap, woken = step(snap, [3])
        actions.append(woken[3])
    assert [a.kind for a in decided] == [MOVE_CAREFUL]
    assert all(a is actions[0] for a in actions) and actions[0].kind == STAY


def test_refreshed_frames_reuse_nothing(decided):
    woken = []
    still = []

    def record(before, after):
        woken.extend(_woken(before, after))
        still.append(after.config is before.config)

    run(_distinct_robots(7, 0), SchedulerSpec(BOUNDARY_ONLY, seed=1), monitors={"record": record}, refresh_frames=True)
    assert any(still)
    assert len(decided) == len(woken)


def test_boundary_adversary_decides_once_per_robot_and_configuration(decided):
    """A robot decides once per configuration it is woken on; a silent loss
    of the reuse fails here, not only in the benchmark's figures."""
    befores = []  # keeps every configuration alive, so that its id names it
    first_decisions = set()
    woken = 0

    def record(before, after):
        nonlocal woken
        befores.append(before)
        for i in _woken(before, after):
            woken += 1
            first_decisions.add((i, id(before.config)))

    monitors = dict(attach_lemma_monitors(), record=record)
    outcome, _ = run(_distinct_robots(11, 1), SchedulerSpec(BOUNDARY_ONLY, seed=1), monitors=monitors)
    assert outcome.status == "gathered" and not outcome.monitor_violations
    assert len(decided) == len(first_decisions)
    # 54 decisions for 246 wakes; without the reuse every wake decides.
    assert len(decided) <= woken / 2


def test_refreshed_frames_compute_one_circle_per_configuration(monkeypatch):
    """A snapshot over the same configuration with redrawn frames keeps the
    circle computed on it: the boundary adversary and the monitors read it
    every step, and each configuration encloses its points once."""
    circles = []
    real_sec = model.smallest_enclosing_circle

    def recording_sec(points):
        circles.append(points)
        return real_sec(points)

    monkeypatch.setattr(model, "smallest_enclosing_circle", recording_sec)
    configs = {}  # keeps every configuration alive, so that its id names it

    def record(before, after):
        configs.update({id(before.config): before.config, id(after.config): after.config})

    monitors = dict(attach_lemma_monitors(), record=record)
    outcome, _ = run(_distinct_robots(11, 0), SchedulerSpec(BOUNDARY_ONLY, seed=0), max_steps=400,
                     monitors=monitors, refresh_frames=True)
    assert not outcome.monitor_violations
    assert len(circles) == sum("sec" in vars(config) for config in configs.values())
    # Steps that move no robot keep the configuration, so it is read again.
    assert outcome.final_t > len(circles) > 0
