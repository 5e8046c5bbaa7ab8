"""The per-robot decision rule.

compute_action is a pure function of one robot's view and its own position in
that view.  It never remembers anything between activations; determinism and
convergence must come from the rule itself, not from state.

The rule branches on how many points carry the maximal multiplicity:

* one maximum: everyone else heads there, but only while the segment to it
  is free of other occupied points (a careful move).
* two maxima: robots standing on neither maximum walk carefully to the
  closer of the two; robots on a maximum hold still.
* three or more: the smallest enclosing circle of the occupied points is
  shrunk.  If its interior is empty, everyone heads straight for the center.
  If all interior points already sit at the center, the maximal boundary
  points move in.  Otherwise only the strays in the interior move to the
  center, and the boundary freezes so the circle cannot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import (
    Circle,
    Point,
    Tolerance,
    dist,
    on_circle,
    point_on_segment,
    points_coincide,
    smallest_enclosing_circle,
)
from .model import Configuration, max_points

_DEFAULT_TOL = Tolerance()

# Action kinds.
STAY = "stay"
MOVE_CAREFUL = "move_careful"
MOVE_DIRECT = "move_direct"

# Branch labels, named for what the movers do.
BRANCH_UNIQUE_MAX = "unique_max"
BRANCH_TWO_MAX = "two_max"
BRANCH_ALL_TO_CENTER = "all_to_center"
BRANCH_BOUNDARY_TO_CENTER = "boundary_to_center"
BRANCH_INSIDE_TO_CENTER = "inside_to_center"
BRANCHES = (
    BRANCH_UNIQUE_MAX,
    BRANCH_TWO_MAX,
    BRANCH_ALL_TO_CENTER,
    BRANCH_BOUNDARY_TO_CENTER,
    BRANCH_INSIDE_TO_CENTER,
)


@dataclass(frozen=True)
class Action:
    """What one activation decided: stay put, or move toward a target.

    Careful moves are subject to the clear-path rule; direct moves are not.
    ``branch`` records which rule fired, for traces and monitors.
    """

    kind: str
    target: Optional[Point] = None
    branch: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind == STAY:
            if self.target is not None:
                raise ValueError("a stay action carries no target")
        elif self.kind in (MOVE_CAREFUL, MOVE_DIRECT):
            if self.target is None:
                raise ValueError(f"a {self.kind} action needs a target")
            if not (math.isfinite(self.target.x) and math.isfinite(self.target.y)):
                raise ValueError("action target must be finite")
        else:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.branch is not None and self.branch not in BRANCHES:
            raise ValueError(f"unknown branch label {self.branch!r}")


@dataclass(frozen=True)
class BranchInfo:
    """Which rule applies to a configuration, plus the geometry behind it."""

    label: str
    maxima: tuple[Point, ...]  # lexicographic order
    sec: Optional[Circle] = None
    boundary: tuple[Point, ...] = ()
    interior: tuple[Point, ...] = ()


def classify_branch(occupied: dict[Point, int], tol: Tolerance = _DEFAULT_TOL) -> BranchInfo:
    """Decide which branch of the rule a configuration falls under."""
    maxima = tuple(max_points(occupied))
    if len(maxima) == 1:
        return BranchInfo(BRANCH_UNIQUE_MAX, maxima)
    if len(maxima) == 2:
        return BranchInfo(BRANCH_TWO_MAX, maxima)
    pts = list(occupied)
    sec = smallest_enclosing_circle(pts)
    boundary = tuple(p for p in pts if on_circle(p, sec, tol))
    boundary_set = set(boundary)
    interior = tuple(p for p in pts if p not in boundary_set)
    if not interior:
        label = BRANCH_ALL_TO_CENTER
    elif all(points_coincide(p, sec.center, tol) for p in interior):
        label = BRANCH_BOUNDARY_TO_CENTER
    else:
        label = BRANCH_INSIDE_TO_CENTER
    return BranchInfo(label, maxima, sec, boundary, interior)


def choose_closest_position(own: Point, p1: Point, p2: Point) -> Point:
    """The candidate nearer to ``own``; exact ties break toward p1."""
    if p1 == p2:
        raise ValueError("choose_closest_position needs two distinct candidates")
    return p1 if dist(own, p1) <= dist(own, p2) else p2


def path_is_clear(
    occupied: Sequence[Point] | dict[Point, int],
    start: Point,
    goal: Point,
    tol: Tolerance = _DEFAULT_TOL,
) -> bool:
    """No occupied point blocks the open segment from start to goal.

    Points coincident with either endpoint do not block; anything else on
    the segment does.
    """
    for q in occupied:
        if points_coincide(q, start, tol) or points_coincide(q, goal, tol):
            continue
        if point_on_segment(q, start, goal, tol):
            return False
    return True


def _standing_on(own: Point, candidates: Sequence[Point], tol: Tolerance) -> bool:
    return any(points_coincide(own, p, tol) for p in candidates)


def compute_action(
    view: Configuration,
    own_position: Point,
    tol: Tolerance = _DEFAULT_TOL,
) -> Action:
    """Run the decision rule on one robot's view.

    ``own_position`` and the view share the same (local) coordinates.  The
    view carries exact multiplicities: the rule keys on them.
    """
    info = classify_branch(view.occupied, tol)

    if info.label == BRANCH_UNIQUE_MAX:
        target = info.maxima[0]
        if points_coincide(own_position, target, tol):
            return Action(STAY, branch=info.label)
        return Action(MOVE_CAREFUL, target, info.label)

    if info.label == BRANCH_TWO_MAX:
        if _standing_on(own_position, info.maxima, tol):
            return Action(STAY, branch=info.label)
        target = choose_closest_position(own_position, info.maxima[0], info.maxima[1])
        return Action(MOVE_CAREFUL, target, info.label)

    assert info.sec is not None
    center = info.sec.center
    if info.label == BRANCH_ALL_TO_CENTER:
        moves = True
    elif info.label == BRANCH_BOUNDARY_TO_CENTER:
        maxima_set = set(info.maxima)
        movers = [p for p in info.boundary if p in maxima_set]
        moves = _standing_on(own_position, movers, tol)
    else:
        moves = _standing_on(own_position, info.interior, tol)
    if moves and not points_coincide(own_position, center, tol):
        return Action(MOVE_DIRECT, center, info.label)
    return Action(STAY, branch=info.label)
