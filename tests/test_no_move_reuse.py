"""Decisions shared and steps that move no robot, against recomputation.

Under one or two maxima a robot's action, after the careful-move veto,
reads only its point and the configuration, bar a near tie, so ``step``
decides once per occupied point and keeps the action in
``Configuration.decided``; under three or more a robot reuses only a stay it
decided itself.  A step in which nobody moves keeps its configuration
object, and with it the maxima, circle and decisions already computed on
it, so a robot woken again reuses its action without deciding.  The oracle
is a robot that decides alone: ``decide``, the veto and ``apply_motion``
on a fresh ``Snapshot`` over the same robots, step and wake times, which
normalizes their positions anew and shares nothing.
"""

import math
import random
from unittest import mock

import pytest

import gathersim.analysis as analysis
import gathersim.model as model
import gathersim.simulator as simulator
from gathersim.analysis import MONITOR_RULES, attach_lemma_monitors, random_point_set
from gathersim.geometry import Point, near_tie, on_circle, smallest_enclosing_circle
from gathersim.model import Frame, max_points, random_frame
from gathersim.protocol import BRANCH_TWO_MAX, BRANCH_UNIQUE_MAX, MOVE_CAREFUL, STAY, Action
from gathersim.protocol import maxima_target, path_is_clear
from gathersim.simulator import (
    BOUNDARY_ONLY,
    ROUND_ROBIN,
    SCRIPTED,
    STRATEGIES,
    SYNCHRONOUS,
    Robot,
    SchedulerSpec,
    Snapshot,
    apply_motion,
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


def _decided_alone(snap, active):
    """Each woken robot's action and the robots after, every robot deciding
    alone: decide, the careful-move veto and apply_motion, nothing shared."""
    robots, actions = list(snap.robots), {}
    for i in sorted(set(active)):
        robot = robots[i]
        action = simulator.decide(snap, robot)
        if action.kind == MOVE_CAREFUL and not path_is_clear(snap.config.occupied, robot.pos, action.target):
            action = Action(STAY, branch=action.branch)
        if action.target is not None:
            robots[i] = Robot(apply_motion(robot, action.target), robot.sigma, robot.frame)
        actions[i] = action
    return actions, robots


def _reads_frame(config, pos):
    """Whether the action of a robot at pos on config depends on its frame."""
    maxima = config.maxima
    if len(maxima) > 2:
        return True
    return len(maxima) == 2 and maxima_target(pos, maxima) is not None and near_tie(pos, *maxima)


def _assert_geometry_is_fresh(config):
    """The maxima, circle and rim tests a configuration holds, if any, equal a fresh computation."""
    held = vars(config)
    if "maxima" in held:
        assert held["maxima"] == max_points(config.occupied)
    if "sec" in held:
        assert held["sec"] == smallest_enclosing_circle(config.occupied)
    if "rim" in held:
        assert held["rim"] == {p: on_circle(p, held["sec"]) for p in held["rim"]}


def _chain(robots, spec, max_steps):
    """Step as ``run`` does, with every lemma monitor reading every pair, and
    check each step against robots deciding alone on a fresh snapshot.

    Returns the counts of steps that moved no robot, of those whose next
    configuration came with computed maxima, of those whose next
    configuration came with a computed circle, and of wakes that reused an
    action instead of deciding.
    """
    monitors = attach_lemma_monitors()
    snap = Snapshot(robots)
    still = shared_maxima = shared_sec = reused = 0
    for _ in range(max_steps):
        if snap.config.is_gathered():
            break
        before = snap
        active = next_active(spec, before)
        decided = before.config.decided
        if len(before.config.maxima) <= 2:
            kept = {i: decided[before.robots[i].pos] for i in active if before.robots[i].pos in decided}
        else:
            kept = {i: decided[i][1] for i in active if i in decided and decided[i][0] is before.robots[i]}
            assert all(action.kind == STAY for action in kept.values())
        fresh = Snapshot(before.robots, before.t, before.last_active)
        assert fresh.config == before.config
        with mock.patch.object(simulator, "decide", wraps=simulator.decide) as deciding:
            snap, actions = step(before, active)
        # One configuration never holds both kinds of key.
        key = Point if len(before.config.maxima) <= 2 else int
        assert all(type(k) is key for k in decided)
        reused += len(actions) - deciding.call_count
        assert _bits(actions, snap.robots) == _bits(*_decided_alone(fresh, active))
        assert snap.config == Snapshot(snap.robots).config
        assert all(actions[i] is action for i, action in kept.items())
        if snap.config is before.config:
            still += 1
            shared_maxima += "maxima" in vars(snap.config)
            shared_sec += "sec" in vars(snap.config)
        else:
            assert not snap.config.decided
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


# The rules that return at once on a kept configuration.
KEPT_RULES = ("inside_stays_inside", "center_containment", "careful_separation")


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if s != SCRIPTED])
def test_kept_configurations_get_the_verdicts_of_a_fresh_one(strategy, monkeypatch):
    """On a step that keeps its configuration, each rule that skips such a
    step gives the verdict it gives against a fresh snapshot of the same
    robots, which normalizes their positions into an equal configuration."""
    kept = []

    def oracle(before, after):
        if after.config is before.config:
            fresh = Snapshot(after.robots, after.t, after.last_active)
            assert fresh.config == after.config and fresh.config is not before.config
            for name in KEPT_RULES:
                assert MONITOR_RULES[name](before, after) == MONITOR_RULES[name](before, fresh)
            kept.append(before.t)
        return None

    battery = dict(attach_lemma_monitors(), kept=oracle)
    monkeypatch.setattr(analysis, "attach_lemma_monitors", lambda: battery)
    for n in (5, 7, 11):
        for seed in range(3):
            analysis.run_sweep(n, 4, seed, strategy)
    # Every strategy but the synchronous one has steps that move no robot.
    assert len(kept) > 0 or strategy == SYNCHRONOUS


def test_robot_woken_again_on_a_frozen_configuration_reuses_its_stay():
    # Robot 3's careful move toward the double point is blocked by robot 2,
    # and robots 0 and 1 stand on the unique maximum; none moves while the
    # script wakes only them, until fairness wakes robot 2 at t = 11.
    robots = [Robot(Point(x, 0.0), 1.0) for x in (0.0, 0.0, 2.0, 4.0)]
    spec = SchedulerSpec(SCRIPTED, script=((3,), (0,), (0, 1, 3)))
    blocked = step(Snapshot(robots), [3])[1][3]
    assert blocked.kind == STAY and blocked.branch == BRANCH_UNIQUE_MAX
    still, shared_maxima, _, reused = _chain(robots, spec, 11)
    # Robot 3's decision at t = 0 read the maxima, so even the first step
    # keeps them.
    assert still == 11 and shared_maxima == 11
    # 17 wakes in t = 0..10: robot 3 decides at t = 0 and robot 0 at t = 1;
    # robot 1, first woken at t = 2, takes robot 0's stay on their point,
    # and every later wake reuses.
    assert reused == 17 - 2


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


def _counting_decisions(frames_fixed):
    """A monitor that names each decision a run should make, and the names:
    one per configuration and point for an action that reads no frame;
    under three or more maxima one per configuration and robot while frames
    stay fixed, so that a robot keeps its stay; otherwise one per wake.
    It keeps each configuration alive, so that its id names it."""
    befores, names, wakes = [], set(), []

    def monitor(before, after):
        befores.append(before)
        for i in _woken(before, after):
            pos = before.robots[i].pos
            wakes.append((i, before.t))
            if not _reads_frame(before.config, pos):
                names.add((id(before.config), pos))
            elif frames_fixed and len(before.config.maxima) > 2:
                names.add((id(before.config), i))
            else:
                names.add((i, before.t))
        return None

    return monitor, names, wakes


def test_refreshed_frames_share_only_frame_free_decisions(decided):
    """Redrawn frames make new robots over the same configuration: an action
    that reads no frame is still decided once per point, and every action
    that reads one is decided afresh."""
    monitor, names, wakes = _counting_decisions(frames_fixed=False)
    outcome, _ = run(_distinct_robots(7, 0), SchedulerSpec(BOUNDARY_ONLY, seed=1), monitors={"record": monitor},
                     refresh_frames=True)
    assert outcome.status == "gathered"
    assert len(decided) == len(names)
    afresh = {name for name in names if name in wakes}
    assert afresh and len(names) < len(wakes)


def test_boundary_adversary_decides_once_per_robot_and_configuration(decided):
    """A robot decides once per configuration it is woken on, and under one
    or two maxima once per point, bar a near tie; a silent loss of the reuse
    fails here, not only in the benchmark's figures."""
    monitor, names, wakes = _counting_decisions(frames_fixed=True)
    outcome, _ = run(_distinct_robots(11, 1), SchedulerSpec(BOUNDARY_ONLY, seed=1),
                     monitors=dict(attach_lemma_monitors(), record=monitor))
    assert outcome.status == "gathered" and not outcome.monitor_violations
    assert len(decided) == len(names)
    # 48 decisions for 246 wakes; one per robot and configuration made 54.
    assert len(decided) <= len(wakes) / 4


def test_robots_on_one_point_break_a_near_tie_each_in_its_own_frame():
    # Robots 0 and 1 stand at (1, 1), equidistant from the camps at (0, 0)
    # and (2, 0): under the identity a robot walks to (0, 0), under a half
    # turn to (2, 0) (protocol's docstring).
    robots = [Robot(Point(1.0, 1.0), 5.0), Robot(Point(1.0, 1.0), 5.0, Frame(rotation=math.pi))]
    robots += [Robot(Point(x, 0.0), 1.0) for x in (0.0, 0.0, 0.0, 2.0, 2.0, 2.0)]
    snap = Snapshot(robots)
    assert snap.config.maxima == [Point(0.0, 0.0), Point(2.0, 0.0)]
    after, actions = step(snap, [0, 1])
    assert actions[0] == Action(MOVE_CAREFUL, Point(0.0, 0.0), BRANCH_TWO_MAX)
    assert actions[1] == Action(MOVE_CAREFUL, Point(2.0, 0.0), BRANCH_TWO_MAX)
    assert [r.pos for r in after.robots[:2]] == [Point(0.0, 0.0), Point(2.0, 0.0)]
    assert not snap.config.decided
    # A robot at (0.5, 0.5) blocks the path to (0, 0): robot 0's veto makes
    # a stay of a move its frame chose, which robot 1 must not reuse, in this
    # step or on the kept configuration.
    blocked = Snapshot(robots + [Robot(Point(0.5, 0.5), 1.0)])
    assert blocked.config.maxima == [Point(0.0, 0.0), Point(2.0, 0.0)]
    after, actions = step(blocked, [0, 1])
    assert _bits(actions, after.robots) == _bits(*_decided_alone(blocked, [0, 1]))
    assert actions[0].kind == STAY and actions[1].target == Point(2.0, 0.0)
    assert not blocked.config.decided
    step(blocked, [0])
    assert step(blocked, [1])[1][1] == actions[1]


def test_robots_on_a_signed_zero_decide_as_they_would_alone():
    # (0.0, 1.0) and (-0.0, 1.0) are one Point and one occupied point, and
    # both robots walk to a maximum, the one of three or the nearer of two;
    # each robot's action and new position match those of a step in which
    # it decides alone, bit for bit, whether it is woken first or second.
    signed = [(0.0, 1.0), (-0.0, 1.0), (2.0, 0.0)]
    for maxima in ([(0.0, -3.0)] * 3, [(-1.0, -3.0), (2.0, -3.0)] * 3):
        for sigma in (0.5, 10.0):
            robots = [Robot(Point(x, y), sigma) for x, y in signed + maxima]
            for woken in ([0, 1], [1, 0], [0, 1, 2]):
                together = step(Snapshot(robots), woken)
                assert _bits(together[1], together[0].robots) == _bits(*_decided_alone(Snapshot(robots), woken))
                for i in woken:
                    alone = step(Snapshot(robots), [i])
                    assert repr(together[1][i]) == repr(alone[1][i])
                    assert together[0].robots[i].pos.x.hex() == alone[0].robots[i].pos.x.hex()
                    assert together[0].robots[i].pos.y.hex() == alone[0].robots[i].pos.y.hex()
            # Both robots took the one action decided on their point.
            assert together[1][0] is together[1][1] and together[1][0].kind == MOVE_CAREFUL


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
