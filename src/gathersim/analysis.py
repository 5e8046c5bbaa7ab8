"""Verification machinery around the simulator.

Four kinds of tools live here:

* brute-force oracles (exhaustive smallest-circle search, sector and hull
  cross-checks) used to validate the fast geometry,
* runtime monitors that watch every step of a run for a violated invariant,
* harnesses: randomized sweeps and the even-count livelock witness,
* the self-check suites behind ``gathersim check``, built from the above.

Monitors record and continue.  A violation is evidence, and aborting the run
would destroy the rest of the trace that explains it.

A sweep's runs draw only from their own (seed, run index) streams, so a
large sweep runs them in forked slices, one per usable CPU, through
simulator.fork_map, with records, summary and warnings the serial path's.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional, Sequence

from .geometry import (
    CONCAVE,
    EPS,
    STRAIGHT,
    Circle,
    DegenerateHull,
    Point,
    PointGrid,
    Polygon,
    convex_hull,
    dist,
    hull_boundary_contains,
    make_sector_pair,
    on_circle,
    points_coincide,
    sector_contains,
    smallest_enclosing_circle,
    strictly_inside_circle,
)
from .model import Frame, random_frame
from .simulator import (
    GATHERED,
    STEP_LIMIT_REACHED,
    Robot,
    Rule,
    RunOutcome,
    SchedulerSpec,
    Snapshot,
    fork_map,
    run,
)

_ORACLE_LIMIT = 15
# Absolute slack for the oracle's enclosure test; far below the 1e-9 the
# oracle is later compared at, far above circumcenter rounding.
_ORACLE_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Brute-force oracles


def brute_force_sec(points: Sequence[Point]) -> Circle:
    """Exhaustive smallest enclosing circle, for cross-checking only.

    Tries every pair-diameter circle and every triple circumcircle, keeps the
    smallest one that encloses the whole set.  Cubic-ish and proud of it;
    refuses more than 15 points.
    """
    pts = list(points)
    if not pts:
        raise ValueError("brute_force_sec needs at least one point")
    if len(pts) > _ORACLE_LIMIT:
        raise ValueError(f"oracle is limited to {_ORACLE_LIMIT} points, got {len(pts)}")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    if len(pts) == 1:
        return Circle(pts[0], 0.0)
    best: Optional[Circle] = None
    for a, b in combinations(pts, 2):
        cand = _midpoint_circle(a, b)
        if _oracle_encloses(cand, pts) and (best is None or cand.radius < best.radius):
            best = cand
    for a, b, c in combinations(pts, 3):
        cand = _bisector_circumcircle(a, b, c)
        if cand is None:
            continue
        if _oracle_encloses(cand, pts) and (best is None or cand.radius < best.radius):
            best = cand
    assert best is not None, "every finite point set has an enclosing circle"
    return best


def _midpoint_circle(a: Point, b: Point) -> Circle:
    center = Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
    return Circle(center, max(dist(center, a), dist(center, b)))


def _bisector_circumcircle(a: Point, b: Point, c: Point) -> Optional[Circle]:
    """Circumcircle via the two perpendicular-bisector equations.

    Deliberately a different formula from the fast path, so the oracle and
    the implementation cannot share a bug.
    """
    a11 = 2.0 * (b.x - a.x)
    a12 = 2.0 * (b.y - a.y)
    a21 = 2.0 * (c.x - a.x)
    a22 = 2.0 * (c.y - a.y)
    r1 = b.x * b.x + b.y * b.y - a.x * a.x - a.y * a.y
    r2 = c.x * c.x + c.y * c.y - a.x * a.x - a.y * a.y
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        return None
    x = (r1 * a22 - r2 * a12) / det
    y = (a11 * r2 - a21 * r1) / det
    center = Point(x, y)
    return Circle(center, max(dist(center, a), dist(center, b), dist(center, c)))


def _oracle_encloses(circle: Circle, pts: Sequence[Point]) -> bool:
    return all(dist(p, circle.center) <= circle.radius + _ORACLE_SLACK for p in pts)


def check_radius_decrease(points: Sequence[Point], lam: float) -> bool:
    """Shrink test: pull every boundary point inward, did the circle shrink?

    Moves each point on the enclosing circle toward the center by fraction
    ``lam`` of its distance, leaves interior points alone, and compares the
    radii.  True means strictly smaller.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must be in (0, 1]")
    pts = list(dict.fromkeys(points))
    if len(pts) < 2:
        raise ValueError("need at least two distinct points")
    before = smallest_enclosing_circle(pts)
    if before.radius <= EPS:
        raise ValueError("points are effectively all at one spot")
    cx, cy = before.center
    moved: list[Point] = []
    for p in pts:
        if on_circle(p, before):
            moved.append(Point(p.x + lam * (cx - p.x), p.y + lam * (cy - p.y)))
        else:
            moved.append(p)
    after = smallest_enclosing_circle(moved)
    return after.radius < before.radius


def check_concave_sectors_occupied(points: Sequence[Point]) -> Optional[str]:
    """Every concave sector at the enclosing-circle center must be occupied.

    For each pair of input points that cuts a valid sector pair at the
    center, an empty concave (wider than half-turn) sector would mean the
    circle could have been smaller, so finding one indicts the geometry.
    Describes the first offender, or returns None.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    sec = smallest_enclosing_circle(pts)
    if sec.radius <= EPS:
        return None
    found = _first_empty_sector(pts, sec.center, (CONCAVE,))
    if found is None:
        return None
    return f"empty concave sector at center {sec.center} for pair {found[0]}, {found[1]}"


def check_hull_sector_equivalence(points: Sequence[Point], probe: Point) -> bool:
    """Hull membership vs. empty wide sectors, checked as a biconditional.

    A probe lies on the hull boundary exactly when some pair of input points
    cuts an empty concave-or-straight sector at it.  The equivalence is a
    fact about probes on or inside the hull; strictly outside, an empty wide
    sector can exist even though the probe is off the hull, so feed this
    hull-interior or boundary probes (the simulator only ever cares about
    circle centers, which satisfy that).
    """
    hull = convex_hull(points)
    if isinstance(hull, DegenerateHull):
        raise ValueError("hull equivalence needs a non-collinear point set")
    on_hull = hull_boundary_contains(hull, probe)
    empty_wide = _first_empty_sector(points, probe, (CONCAVE, STRAIGHT))
    return on_hull == (empty_wide is not None)


def _first_empty_sector(
    points: Sequence[Point], apex: Point, kinds: tuple[str, ...]
) -> Optional[tuple[Point, Point]]:
    """The first pair of points away from ``apex`` that cuts, at ``apex``, an
    empty sector of one of ``kinds``, or None."""
    anchors = [p for p in points if not points_coincide(p, apex)]
    for p, pp in combinations(anchors, 2):
        pair = make_sector_pair(p, pp, apex)
        if pair is None:
            continue
        for which, kind in ((1, pair.kind1), (2, pair.kind2)):
            if kind in kinds and not any(sector_contains(pair, which, q) for q in points):
                return p, pp
    return None


def check_sec_points_on_hull(points: Sequence[Point]) -> bool:
    """Input points on the enclosing circle must all be hull-boundary points."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    sec = smallest_enclosing_circle(pts)
    hull = convex_hull(pts)
    return all(hull_boundary_contains(hull, p) for p in pts if on_circle(p, sec))


# ---------------------------------------------------------------------------
# Runtime monitors


def _closure_rule(before: Snapshot, after: Snapshot) -> Optional[str]:
    if not before.config.is_gathered():
        return None
    if not after.config.is_gathered():
        return f"gathering point split into {len(after.config.occupied)} points"
    before_p = next(iter(before.config.occupied))
    after_p = next(iter(after.config.occupied))
    if not points_coincide(before_p, after_p):
        return f"gathering point drifted from {before_p} to {after_p}"
    return None


def _unique_max_rule(before: Snapshot, after: Snapshot) -> Optional[str]:
    maxima = before.config.maxima
    if len(maxima) != 1:
        return None
    maxima_after = after.config.maxima
    if len(maxima_after) != 1:
        return f"unique maximum gave way to {len(maxima_after)} maxima"
    if not points_coincide(maxima[0], maxima_after[0]):
        return f"unique maximum moved from {maxima[0]} to {maxima_after[0]}"
    return None


def _two_max_rule(before: Snapshot, after: Snapshot) -> Optional[str]:
    if len(before.config.maxima) != 2:
        return None
    if len(after.config.maxima) > 2:
        return f"two maxima escalated to {len(after.config.maxima)}"
    return None


def _inside_rule(before: Snapshot, after: Snapshot) -> Optional[str]:
    if len(before.config.maxima) < 3 or len(after.config.maxima) < 3:
        return None
    for i, (before_bot, after_bot) in enumerate(zip(before.robots, after.robots)):
        if not strictly_inside_circle(before_bot.pos, before.config.sec):
            continue
        if not strictly_inside_circle(after_bot.pos, after.config.sec):
            return (
                f"robot {i} was strictly inside the circle "
                f"and ended on or outside the new one"
            )
    return None


def _center_containment_rule(before: Snapshot, after: Snapshot) -> Optional[str]:
    if len(before.config.maxima) < 3:
        return None
    sec = before.config.sec
    center = sec.center
    interior = {p for p in before.config.occupied if not on_circle(p, sec)}
    # The boundary-to-center branch: every occupied point off the rim is the center.
    if not interior or not all(points_coincide(p, center) for p in interior):
        return None
    boundary = [p for p in before.config.occupied if p not in interior]
    bots_b, bots_a = before.robots, after.robots
    # Hypothesis 1: some robot standing on the circle actually moved.
    moved_from_boundary = False
    for before_bot, after_bot in zip(bots_b, bots_a):
        if points_coincide(before_bot.pos, after_bot.pos):
            continue
        if any(points_coincide(before_bot.pos, b) for b in boundary):
            moved_from_boundary = True
            break
    if not moved_from_boundary:
        return None
    # Hypothesis 2: every boundary point keeps at least one robot that did
    # not arrive at the center this step.
    for b in boundary:
        holders = [i for i, bot in enumerate(bots_b) if points_coincide(bot.pos, b)]
        if holders and all(points_coincide(bots_a[i].pos, center) for i in holders):
            return None
    if not strictly_inside_circle(center, after.config.sec):
        return "old center is not strictly inside the new enclosing circle"
    return None


def _radius_rule(before: Snapshot, after: Snapshot) -> Optional[str]:
    if len(before.config.maxima) < 3:
        return None
    before_r = before.config.sec.radius
    after_r = after.config.sec.radius
    if after_r > before_r + EPS:
        return f"enclosing radius grew from {before_r} to {after_r}"
    # When every robot has left the old circle's rim, the new circle must be
    # strictly smaller; everything now sits measurably deeper than the rim.
    vacated = all(not on_circle(bot.pos, before.config.sec) for bot in after.robots)
    if vacated and not (after_r < before_r):
        return f"rim fully vacated but radius held at {after_r}"
    return None


def _careful_separation_rule(before: Snapshot, after: Snapshot) -> Optional[str]:
    maxima = before.config.maxima
    if len(maxima) > 2:
        return None
    bots_b = before.robots
    after_pos = [bot.pos for bot in after.robots]
    # Two robots that both stayed put coincide after the step exactly when
    # they did before it, so every offending pair holds a robot that moved.
    # A pair holding a robot exactly on a maximum is exempt, so movers that
    # landed on one need no check.
    maxima_set = set(maxima)
    moved = [i for i, p in enumerate(after_pos) if p != bots_b[i].pos and p not in maxima_set]
    if not moved:
        return None
    grid = PointGrid(after_pos + list(maxima), EPS)
    for j, p in enumerate(after_pos):
        grid.add(p, j)
    on_max = {j for m in maxima for j in grid.within(m)}
    merged = {(min(i, j), max(i, j)) for i in moved for j in grid.within(after_pos[i]) if j != i}
    # Lexicographically first (i, j): the pair a scan of all pairs reports.
    for i, j in sorted(merged):
        if i not in on_max and not points_coincide(bots_b[i].pos, bots_b[j].pos):
            return (
                f"robots {i} and {j} merged at "
                f"{after_pos[i]}, which is not a maximum point"
            )
    return None


MONITOR_RULES: dict[str, Rule] = {
    "closure": _closure_rule,
    "unique_max_persistence": _unique_max_rule,
    "two_max_no_escalation": _two_max_rule,
    "inside_stays_inside": _inside_rule,
    "center_containment": _center_containment_rule,
    "radius_progress": _radius_rule,
    "careful_separation": _careful_separation_rule,
}


def attach_lemma_monitors(
    toggles: Optional[Mapping[str, bool]] = None,
) -> dict[str, Rule]:
    """The full monitor battery as ``{name: rule}``, optionally filtered by a
    toggle map.

    Unknown toggle names are rejected rather than ignored; a silently
    dropped monitor is exactly the failure mode monitors exist to prevent.
    """
    if toggles:
        unknown = set(toggles) - set(MONITOR_RULES)
        if unknown:
            raise ValueError(f"unknown monitor names: {sorted(unknown)}")
    return {
        name: rule
        for name, rule in MONITOR_RULES.items()
        if toggles is None or toggles.get(name, True)
    }


# ---------------------------------------------------------------------------
# Randomized harnesses


def random_point_set(rng: random.Random, k: int) -> list[Point]:
    """k points uniform in the unit square, pairwise farther than 10*EPS.

    The resampling keeps randomized suites away from predicate knife-edges;
    deliberately degenerate inputs get their own deterministic tests.  A
    candidate is rejected with probability under k * 1e-15, so the loop ends.
    """
    min_sep = 10.0 * EPS
    pts: list[Point] = []
    while len(pts) < k:
        cand = Point(rng.random(), rng.random())
        if all(dist(cand, p) > min_sep for p in pts):
            pts.append(cand)
    return pts


def random_robots(rng: random.Random, n: int) -> list[Robot]:
    """n robots on 1..n random points with random multiplicities and frames."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = rng.randint(1, n)
    points = random_point_set(rng, k)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    robots: list[Robot] = []
    for p, count in zip(points, counts):
        for _ in range(count):
            robots.append(Robot(p, sigma=rng.uniform(0.1, 2.0), frame=random_frame(rng)))
    return robots


@dataclass
class SweepSummary:
    runs: int
    gathered: int
    step_limit: int
    max_steps_to_gather: int
    violations: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """Every run gathered and no monitor fired."""
        return self.gathered == self.runs and not any(self.violations.values())


# The robot-runs (runs times robots) that repay one forked slice of a sweep.
# A fork also slows its caller after it returns (and each page the caller
# then writes faults once, about 360 a fork here), so this was measured over
# a loop that ran a fixed computation between sweeps, not on run_sweep alone:
# with CPython 3.11 on two Linux vCPUs, in a process holding five imports of
# the package, two slices of sweeps at n = 11 ran the loop 0.93 to 0.95
# times as fast as one process at 110 robot-runs (10 runs), 1.09 at 154,
# 1.17 at 220 but below 1.0 in some phases, and 1.23 to 1.36 at 264 to 308,
# never below 1.09.  Slices of 150 keep a margin above that.
_SWEEP_WORK = 150


def run_sweep(n: int, runs: int, seed: int, strategy: str) -> tuple[SweepSummary, list[dict]]:
    """Randomized batch driver: fresh initial conditions per run, all
    monitors on, one record per run plus an aggregate summary.

    Every random draw descends from (seed, run index) through named
    sub-streams, so a sweep is reproducible as a whole and per run.  The
    runs are therefore independent, and simulator.fork_map runs them in
    contiguous slices of run indices, one per usable CPU, when the sweep
    holds two slices of _SWEEP_WORK robot-runs: the first in this process,
    each other in a forked child, which sends back its records alone.  The
    records come back in run order and the summary is derived from them, so
    neither depends on the CPU count; a warning a run raises is shown as on
    the serial path.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    monitors = attach_lemma_monitors()
    records = fork_map(lambda part: [_sweep_record(n, seed, strategy, monitors, index) for index in part],
                       list(range(runs)), runs * n, _SWEEP_WORK)
    gathered = [r["steps"] for r in records if r["status"] == GATHERED]
    step_limit = sum(r["status"] == STEP_LIMIT_REACHED for r in records)
    counts = {name: sum(r["violations"].get(name, 0) for r in records) for name in MONITOR_RULES}
    summary = SweepSummary(runs, len(gathered), step_limit, max(gathered, default=0), counts)
    return summary, records


def _sweep_record(n: int, seed: int, strategy: str, monitors: Mapping[str, Rule], index: int) -> dict:
    """The record of run index of a sweep."""
    robots = random_robots(random.Random(f"{seed}:init:{index}"), n)
    sched_seed = random.Random(f"{seed}:sched:{index}").getrandbits(63)
    outcome, _ = run(robots, SchedulerSpec(strategy, sched_seed), monitors=monitors)
    per_run: dict[str, int] = {}
    for report in outcome.monitor_violations:
        per_run[report.monitor] = per_run.get(report.monitor, 0) + 1
    return {
        "run": index,
        "seed": seed,
        "n": n,
        "scheduler": strategy,
        "status": outcome.status,
        "steps": outcome.final_t,
        "violations": per_run,
    }


def even_livelock_demo(n_even: int) -> RunOutcome:
    """The symmetric witness for why even counts cannot gather.

    Half the robots sit at each of two points, with frames rotated a half
    turn against each other so the two camps see identical worlds.  Both
    points carry the maximal multiplicity, everyone is standing on a
    maximum, so the rule says stay.  After the first synchronous step every
    robot has seen the two points and stayed, so the run ends with status
    ``FIXED_POINT``: no schedule can move this configuration again.
    """
    if n_even < 2 or n_even % 2 != 0:
        raise ValueError("the witness needs an even robot count >= 2")
    half = n_even // 2
    robots = [Robot(Point(0.0, 0.0), sigma=1.0, frame=Frame())] * half
    robots += [Robot(Point(1.0, 0.0), sigma=1.0, frame=Frame(rotation=math.pi))] * half
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        outcome, _ = run(
            robots,
            SchedulerSpec(strategy="synchronous", seed=0),
            monitors=attach_lemma_monitors(),
        )
    return outcome


# ---------------------------------------------------------------------------
# Self-check suites: (name, passed, detail) triples


def _probe_for(points: list[Point], hull: Polygon, rng: random.Random) -> Point:
    """A probe on or inside the hull: vertex, edge midpoint, or interior mix."""
    verts = hull.vertices
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(verts)
    if kind == 1:
        i = rng.randrange(len(verts))
        a, b = verts[i], verts[(i + 1) % len(verts)]
        return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
    weights = [rng.random() + 0.05 for _ in points]
    total = sum(weights)
    x = sum(w * p.x for w, p in zip(weights, points)) / total
    y = sum(w * p.y for w, p in zip(weights, points)) / total
    return Point(x, y)


def check_geometry_suite() -> list[tuple[str, bool, str]]:
    """Fast smallest enclosing circle against the brute-force oracle."""
    rng = random.Random("check:geometry")
    sets = 1000
    worst = 0.0
    support_ok = True
    support_note = ""
    for _ in range(sets):
        pts = random_point_set(rng, rng.randint(3, 12))
        fast = smallest_enclosing_circle(pts)
        slow = brute_force_sec(pts)
        worst = max(worst, dist(fast.center, slow.center), abs(fast.radius - slow.radius))
        on_rim = [p for p in pts if on_circle(p, fast)]
        if len(on_rim) < 2:
            support_ok = False
            support_note = f"{len(on_rim)} support points on {pts}"
        elif len(on_rim) == 2 and abs(dist(on_rim[0], on_rim[1]) - 2.0 * fast.radius) > 1e-8:
            support_ok = False
            support_note = f"two non-diametral support points on {pts}"
    return [
        (
            "sec_oracle_agreement",
            worst <= 1e-9,
            f"max center/radius deviation {worst:.3e} over {sets} sets",
        ),
        (
            "sec_boundary_support",
            support_ok,
            support_note or f"two-diametral-or-three support held on all {sets} sets",
        ),
    ]


def check_properties_suite() -> list[tuple[str, bool, str]]:
    """The sector, hull and shrink properties on random point sets."""
    rng = random.Random("check:properties")
    sets = 500
    concave_bad = 0
    equivalence_bad = 0
    on_hull_bad = 0
    shrink_bad = 0
    for _ in range(sets):
        pts = random_point_set(rng, rng.randint(3, 10))
        if check_concave_sectors_occupied(pts) is not None:
            concave_bad += 1
        hull = convex_hull(pts)
        if isinstance(hull, Polygon):
            probe = _probe_for(pts, hull, rng)
            if not check_hull_sector_equivalence(pts, probe):
                equivalence_bad += 1
        if not check_sec_points_on_hull(pts):
            on_hull_bad += 1
        lam = rng.choice((0.1, 0.5, 1.0))
        if not check_radius_decrease(pts, lam):
            shrink_bad += 1
    return [
        ("concave_sectors_occupied", concave_bad == 0, f"{concave_bad} violations in {sets} sets"),
        ("hull_sector_equivalence", equivalence_bad == 0, f"{equivalence_bad} violations in {sets} sets"),
        ("circle_points_on_hull", on_hull_bad == 0, f"{on_hull_bad} violations in {sets} sets"),
        ("radius_decreases", shrink_bad == 0, f"{shrink_bad} failures in {sets} shrink instances"),
    ]


def check_lemmas_suite() -> list[tuple[str, bool, str]]:
    """Small monitored sweeps; every run must gather with silent monitors."""
    results = []
    for n in (3, 5):
        for strategy in ("synchronous", "random_subset"):
            summary, _ = run_sweep(n, 20, 7, strategy)
            results.append(
                (
                    f"monitored_sweep_n{n}_{strategy}",
                    summary.clean,
                    f"{summary.gathered}/{summary.runs} gathered, "
                    f"{sum(summary.violations.values())} monitor violations",
                )
            )
    return results
