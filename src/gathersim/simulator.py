"""Discrete-time semi-synchronous execution engine.

Each step the scheduler wakes a non-empty subset of robots.  Every woken
robot observes the same frozen snapshot of the world, decides via the
protocol, and all resulting motions are committed together; nobody sees a
neighbour's move from the same step.  A fairness bound keeps the scheduler
honest: any robot left asleep for too long gets force-included.

Motion is capped per robot: a move covers min(distance, sigma) along the
straight line to the target, so a single activation may fall short but never
overshoots and never veers.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from .geometry import Circle, Point, Tolerance, dist, on_circle, points_coincide, smallest_enclosing_circle
from .model import (
    Configuration,
    Frame,
    ego_frame,
    normalize,
    observe,
    random_frame,
    to_global,
)
from .protocol import (
    MOVE_CAREFUL,
    STAY,
    Action,
    BranchInfo,
    classify_branch,
    compute_action,
    path_is_clear,
)

_DEFAULT_TOL = Tolerance()

# Scheduler strategies.
SYNCHRONOUS = "synchronous"
ROUND_ROBIN = "round_robin"
RANDOM_SUBSET = "random_subset"
BOUNDARY_ONLY = "boundary_only_adversary"
SCRIPTED = "scripted"
STRATEGIES = (SYNCHRONOUS, ROUND_ROBIN, RANDOM_SUBSET, BOUNDARY_ONLY, SCRIPTED)

# Run outcome statuses.
GATHERED = "gathered"
STEP_LIMIT_REACHED = "step_limit_reached"


@dataclass(frozen=True)
class Robot:
    """One robot: identity, true position, motion cap, and its private frame.

    Frozen, because consecutive states share the robots that did not move.
    """

    ident: int
    pos: Point
    sigma: float
    frame: Frame = Frame()

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"robot {self.ident}: sigma must be positive and finite")
        if not (math.isfinite(self.pos.x) and math.isfinite(self.pos.y)):
            raise ValueError(f"robot {self.ident}: position must be finite")

    @cached_property
    def asleep_record(self) -> str:
        """This robot's trace record of a step it slept through, minus its opening ``{"t":<t>``.

        Cached in the instance ``__dict__``, which a frozen dataclass still
        allows; fields, ``==``, ``hash`` and ``repr`` never see it.  A robot
        that moves is rebuilt by ``replace``, so the cache always shows the
        current position, and a robot asleep for many steps is formatted once.
        """
        return (
            f',"robot_id":{self.ident},"activated":false,"branch":null,"action":null,'
            f'"target_x":null,"target_y":null,"new_x":{self.pos.x!r},"new_y":{self.pos.y!r}}}'
        )


@dataclass
class SimState:
    """World state between steps.  last_active[i] is -1 until robot i wakes."""

    t: int
    robots: list[Robot]
    last_active: list[int]

    def positions(self) -> list[Point]:
        return [r.pos for r in self.robots]


def initial_state(robots: Sequence[Robot]) -> SimState:
    bots = list(robots)
    if not bots:
        raise ValueError("need at least one robot")
    idents = {r.ident for r in bots}
    if len(idents) != len(bots):
        raise ValueError("robot identifiers must be unique")
    return SimState(0, bots, [-1] * len(bots))


@dataclass(frozen=True)
class SchedulerSpec:
    """How activation sets are produced.

    ``fairness_bound`` is the K in K-fairness: a robot asleep for K
    consecutive steps is force-included.  None means 3n, resolved at run
    time.  ``script`` is only read by the scripted strategy and cycles when
    exhausted.
    """

    strategy: str = SYNCHRONOUS
    seed: int = 0
    fairness_bound: Optional[int] = None
    script: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown scheduler strategy {self.strategy!r}")
        if self.fairness_bound is not None and self.fairness_bound < 1:
            raise ValueError("fairness_bound must be a positive integer")
        if self.strategy == SCRIPTED:
            if not self.script:
                raise ValueError("scripted strategy needs a non-empty script")
            for step_ids in self.script:
                if not step_ids:
                    raise ValueError("every scripted activation set must be non-empty")


class Snapshot:
    """One configuration: the world state and its geometry, each computed once.

    ``run`` builds one snapshot per configuration, and the snapshot after a
    step is the one before the next, so the scheduler, ``step`` and every
    monitor share one normalization, one branch classification and one
    enclosing circle.
    """

    def __init__(self, state: SimState, tol: Tolerance) -> None:
        self.state = state
        self.tol = tol
        self.config = normalize(state.positions(), tol)

    @cached_property
    def branch(self) -> BranchInfo:
        return classify_branch(self.config.occupied, self.tol)

    @cached_property
    def sec(self) -> Circle:
        if self.branch.sec is not None:
            return self.branch.sec
        return smallest_enclosing_circle(self.config.points())


def _fairness_bound(spec: SchedulerSpec, n: int) -> int:
    return spec.fairness_bound if spec.fairness_bound is not None else 3 * n


def next_active(spec: SchedulerSpec, snap: Snapshot) -> list[int]:
    """Indices of the robots woken at snap.state.t, sorted ascending.

    Always non-empty.  The random strategy draws from a stream derived only
    from (seed, t), so replaying a state gives the same set without any
    shared RNG object to keep in sync.
    """
    state = snap.state
    n = len(state.robots)
    t = state.t
    if spec.strategy == SYNCHRONOUS:
        chosen = set(range(n))
    elif spec.strategy == ROUND_ROBIN:
        chosen = {t % n}
    elif spec.strategy == RANDOM_SUBSET:
        rng = random.Random(f"{spec.seed}:scheduler:{t}")
        chosen = {i for i in range(n) if rng.random() < 0.5}
        if not chosen:
            chosen = {rng.randrange(n)}
    elif spec.strategy == BOUNDARY_ONLY:
        # Adversary that starves the interior: only robots currently on the
        # enclosing circle wake up (fairness forcing aside).
        chosen = {i for i, r in enumerate(state.robots) if on_circle(r.pos, snap.sec, snap.tol)}
    else:
        assert spec.script is not None
        step_ids = spec.script[t % len(spec.script)]
        chosen = set(step_ids)
        for i in chosen:
            if not (0 <= i < n):
                raise ValueError(f"scripted activation names unknown robot index {i}")
    bound = _fairness_bound(spec, n)
    forced = {i for i in range(n) if t - state.last_active[i] >= bound}
    active = sorted(chosen | forced)
    assert active, "scheduler produced an empty activation set"
    return active


def apply_motion(robot: Robot, target: Point) -> Point:
    """Where the robot ends up after one activation aimed at target.

    Covers min(distance, sigma); a reachable target is returned bit-exactly
    so robots that arrive really do coincide.
    """
    d = dist(robot.pos, target)
    if d <= robot.sigma:
        return target
    if math.isinf(d):
        # The difference overflowed; its half is finite and points the same
        # way.  Dividing by its larger component keeps the norm finite too.
        hx = target.x / 2.0 - robot.pos.x / 2.0
        hy = target.y / 2.0 - robot.pos.y / 2.0
        m = max(abs(hx), abs(hy))
        ux, uy = hx / m, hy / m
        f = robot.sigma / math.hypot(ux, uy)
        return Point(robot.pos.x + f * ux, robot.pos.y + f * uy)
    f = robot.sigma / d
    return Point(robot.pos.x + f * (target.x - robot.pos.x),
                 robot.pos.y + f * (target.y - robot.pos.y))


def trace_line(t: int, robot: Robot, action: Optional[Action]) -> str:
    """One robot's record of step t as a JSON line with a fixed key order.

    ``robot`` is the robot after the step and ``action`` what it did, or
    None if it slept.  A careful move vetoed by the clear-path rule is a
    "stay" with no target; the branch still tells you what was attempted.

    The bytes are those of ``json.dumps(record, separators=(",", ":"))``
    over the keys t, robot_id, activated, branch, action, target_x,
    target_y, new_x and new_y.  They are written directly: ``Robot`` and
    ``Action`` admit only finite coordinates, whose ``repr`` is JSON's
    number text, and kinds and branches are fixed ASCII labels.  A sleeping
    robot's record comes from ``Robot.asleep_record``, built once per
    position.
    """
    if action is None:
        return f'{{"t":{t}{robot.asleep_record}'
    branch = "null" if action.branch is None else f'"{action.branch}"'
    tx, ty = ("null", "null") if action.target is None else map(repr, action.target)
    return (
        f'{{"t":{t},"robot_id":{robot.ident},"activated":true,"branch":{branch},'
        f'"action":"{action.kind}","target_x":{tx},"target_y":{ty},'
        f'"new_x":{robot.pos.x!r},"new_y":{robot.pos.y!r}}}'
    )


def _snap_to_occupied(target: Point, config: Configuration, tol: Tolerance) -> Point:
    """Replace a target within eps of an occupied point by that exact point.

    Local-to-global roundtrips leave crumbs of rounding; snapping makes sure
    a robot aiming at an occupied point lands exactly on it, so multiplicity
    actually grows instead of producing eps-separated dust.
    """
    for p in config.occupied:
        if points_coincide(target, p, tol):
            return p
    return target


def step(snap: Snapshot, active: Sequence[int]) -> tuple[SimState, dict[int, Action]]:
    """Execute one semi-synchronous step for the given activation set.

    Returns the next state and, for each woken robot, the action it took in
    global coordinates; a robot that did not move is the same object in both
    states.  All observations and the clear-path gate read the entry
    snapshot; positions update only at the end.  The careful-move veto also
    runs on the snapshot: the protocol asked under local coordinates, but
    blocking is a fact about the shared world, so it is re-checked globally.
    """
    state, config, tol = snap.state, snap.config, snap.tol
    if not active:
        raise ValueError("activation set must be non-empty")
    robots = list(state.robots)
    last_active = list(state.last_active)
    actions: dict[int, Action] = {}
    for i in sorted(set(active)):
        if not (0 <= i < len(robots)):
            raise ValueError(f"activation set names unknown robot index {i}")
        robot = robots[i]
        last_active[i] = state.t
        frame = ego_frame(robot.frame, robot.pos)
        action = compute_action(observe(config, frame), Point(0.0, 0.0), tol)
        if action.kind != STAY:
            assert action.target is not None
            target = _snap_to_occupied(to_global(frame, action.target), config, tol)
            if action.kind == MOVE_CAREFUL and not path_is_clear(config.occupied, robot.pos, target, tol):
                action = Action(STAY, branch=action.branch)
            else:
                action = Action(action.kind, target, action.branch)
                robots[i] = replace(robot, pos=apply_motion(robot, target))
        actions[i] = action
    return SimState(state.t + 1, robots, last_active), actions


# A monitor rule reads the snapshots around one step and returns a message
# describing a violation, or None.
Rule = Callable[[Snapshot, Snapshot], Optional[str]]


@dataclass
class MonitorReport:
    """One finding: which monitor, at which step, what it saw, and the
    configuration the step ended in."""

    monitor: str
    step: int
    description: str
    snapshot: Configuration


@dataclass
class RunOutcome:
    status: str
    final_t: int
    final_config: Configuration
    monitor_violations: list[MonitorReport] = field(default_factory=list)


def run(
    robots: Sequence[Robot],
    scheduler: SchedulerSpec,
    tol: Tolerance = _DEFAULT_TOL,
    max_steps: Optional[int] = None,
    monitors: Optional[Mapping[str, Rule]] = None,
    stop_on_gather: bool = True,
    record_trace: bool = False,
    refresh_frames: bool = False,
) -> tuple[RunOutcome, list[str]]:
    """Drive a full run: schedule, step, monitor, repeat.

    Stops as soon as the configuration collapses to one point (unless
    ``stop_on_gather`` is off, which is how stability-after-gathering gets
    exercised) or after max_steps steps, defaulting to 10000 per robot.
    ``monitors`` maps a name to a rule ``rule(before, after)`` over the
    snapshots around each step; a message it returns becomes a
    ``MonitorReport``.  Findings are collected, never raised; a violated
    invariant is data, and stopping the run would hide what happens next.
    With ``record_trace`` the second item returned is the trace, one
    ``trace_line`` per robot per step; without it the list is empty.

    ``refresh_frames`` redraws every robot's frame each step from the
    scheduler seed, an adversarial stress mode; the rule is supposed to be
    indifferent to frames, and this flag lets runs prove it.
    """
    snap = Snapshot(initial_state(robots), tol)
    n = len(snap.state.robots)
    if n % 2 == 0:
        warnings.warn(
            f"{n} robots: gathering is not guaranteed for even counts",
            RuntimeWarning,
            stacklevel=2,
        )
    if max_steps is None:
        max_steps = 10000 * n
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    trace: list[str] = []
    violations: list[MonitorReport] = []
    for _ in range(max_steps):
        if stop_on_gather and snap.config.is_gathered():
            break
        if refresh_frames:
            rng = random.Random(f"{scheduler.seed}:frames:{snap.state.t}")
            snap.state.robots = [replace(r, frame=random_frame(rng)) for r in snap.state.robots]
        state, actions = step(snap, next_active(scheduler, snap))
        before, snap = snap, Snapshot(state, tol)
        if record_trace:
            t = before.state.t
            trace.extend(trace_line(t, r, actions.get(i)) for i, r in enumerate(state.robots))
        for name, rule in (monitors or {}).items():
            message = rule(before, snap)
            if message is not None:
                violations.append(MonitorReport(name, before.state.t, message, snap.config))
    status = GATHERED if snap.config.is_gathered() else STEP_LIMIT_REACHED
    return RunOutcome(status, snap.state.t, snap.config, violations), trace
