"""The per-robot decision rule.

compute_action is a pure function of one robot's view and its own position in
that view.  It never remembers anything between activations; determinism and
convergence must come from the rule itself, not from state.

The rule branches on how many points carry the maximal multiplicity:

* one maximum: everyone else heads there, but only while the segment to it
  is free of other occupied points (a careful move).
* two maxima: robots standing on neither maximum walk carefully to the
  closer of the two; robots on a maximum hold still.  An exact tie goes to
  the lexicographically first in local coordinates, the rule's one frame
  dependence, as a view symmetric about the robot has no frame-free
  tie-break: from (1, 1) between camps at (0, 0) and (2, 0), a half turn
  picks (2, 0), and the identity, a reflection or a quarter turn (0, 0).
* three or more: the smallest enclosing circle of the occupied points is
  shrunk.  If its interior is empty, everyone heads straight for the center.
  If all interior points already sit at the center, the maximal boundary
  points move in.  Otherwise only the strays in the interior move to the
  center, and the boundary freezes so the circle cannot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

from .geometry import (
    Circle,
    EPS,
    Pair,
    Point,
    dist,
    point_on_segment,
    points_coincide,
    smallest_enclosing_circle,
)
from .model import Configuration, max_points

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


def classify_branch(occupied: dict[Point, int]) -> BranchInfo:
    """Decide which branch of the rule a configuration falls under."""
    maxima = tuple(max_points(occupied))
    if len(maxima) == 1:
        return BranchInfo(BRANCH_UNIQUE_MAX, maxima)
    if len(maxima) == 2:
        return BranchInfo(BRANCH_TWO_MAX, maxima)
    sec = smallest_enclosing_circle(occupied)
    # The on_circle test, inlined: |dist(p, center) - radius| <= EPS.
    (cx, cy), r = sec
    boundary: list[Point] = []
    interior: list[Point] = []
    for p in occupied:
        x, y = p
        if abs(math.hypot(x - cx, y - cy) - r) <= EPS:
            boundary.append(p)
        else:
            interior.append(p)
    if not interior:
        label = BRANCH_ALL_TO_CENTER
    elif all(points_coincide(p, sec.center) for p in interior):
        label = BRANCH_BOUNDARY_TO_CENTER
    else:
        label = BRANCH_INSIDE_TO_CENTER
    return BranchInfo(label, maxima, sec, tuple(boundary), tuple(interior))


def choose_closest_position(own: Point, p1: Point, p2: Point) -> Point:
    """The candidate nearer to ``own``; exact ties break toward p1."""
    if p1 == p2:
        raise ValueError("choose_closest_position needs two distinct candidates")
    return p1 if dist(own, p1) <= dist(own, p2) else p2


def path_is_clear(occupied: Sequence[Point] | dict[Point, int], start: Point, goal: Point) -> bool:
    """No occupied point blocks the open segment from start to goal.

    Points coincident with either endpoint do not block; anything else on
    the segment does.  Only the points in the segment's bounding box widened
    by m = 2*EPS + 2**-50 * V, V = max(|gx - sx|, |gy - sy|) in floats, are
    settled; no point outside it can block.  Such a point lies at least m
    beyond the box on one axis (a float past a rounded-to-nearest edge is
    past the exact edge), so with u = 2**-53 that axis's term in
    _segment_distance is, for any t in [0, 1], at least
    (1 - u)**2 * m - 4u * V less 2**-1075 of underflow: over EPS after
    hypot rounds, or else inf or NaN.  An infinite V makes the box the plane.
    """
    (sx, sy), (gx, gy) = start, goal
    m = 2.0 * EPS + max(abs(gx - sx), abs(gy - sy)) * 2.0**-50
    x0, x1 = (sx - m, gx + m) if sx <= gx else (gx - m, sx + m)
    y0, y1 = (sy - m, gy + m) if sy <= gy else (gy - m, sy + m)
    for q in [q for q in occupied if x0 <= q[0] <= x1 and y0 <= q[1] <= y1]:
        if points_coincide(q, start) or points_coincide(q, goal):
            continue
        if point_on_segment(q, start, goal):
            return False
    return True


def _standing_on(own: Point, candidates: Sequence[Point]) -> bool:
    return any(points_coincide(own, p) for p in candidates)


def maxima_target(own: Point, maxima: Sequence[Point]) -> Optional[Point]:
    """The rule under one or two maxima, in lexicographic order: where to walk carefully, or None."""
    if _standing_on(own, maxima):
        return None
    return maxima[0] if len(maxima) == 1 else choose_closest_position(own, *maxima)


def sec_action(images: Sequence[Pair], counts: Collection[int]) -> Action:
    """compute_action(view, (0, 0)) on a view of pairwise unequal images and their counts, with
    three or more maxima, in one pass; (0, 0) is within EPS of (x, y) when hypot(x, y) <= EPS."""
    (cx, cy), r = sec = smallest_enclosing_circle(images)
    top = max(counts)
    interior: list[float] = []  # distances to the center
    on_top = on_interior = False
    for (x, y), count in zip(images, counts):
        d = math.hypot(x - cx, y - cy)
        if abs(d - r) <= EPS:
            on_top = on_top or count == top and math.hypot(x, y) <= EPS
        else:
            interior.append(d)
            on_interior = on_interior or math.hypot(x, y) <= EPS
    if not interior:
        label, moves = BRANCH_ALL_TO_CENTER, True
    elif all(d <= EPS for d in interior):
        label, moves = BRANCH_BOUNDARY_TO_CENTER, on_top
    else:
        label, moves = BRANCH_INSIDE_TO_CENTER, on_interior
    if moves and not math.hypot(cx, cy) <= EPS:
        return Action(MOVE_DIRECT, sec.center, label)
    return Action(STAY, branch=label)


def compute_action(view: Configuration, own_position: Point) -> Action:
    """Run the decision rule on one robot's view.

    ``own_position`` and the view share the same (local) coordinates.  The
    view carries exact multiplicities: the rule keys on them.
    """
    info = classify_branch(view.occupied)

    if len(info.maxima) <= 2:
        target = maxima_target(own_position, info.maxima)
        if target is None:
            return Action(STAY, branch=info.label)
        return Action(MOVE_CAREFUL, target, info.label)

    assert info.sec is not None
    center = info.sec.center
    if info.label == BRANCH_ALL_TO_CENTER:
        moves = True
    elif info.label == BRANCH_BOUNDARY_TO_CENTER:
        maxima_set = set(info.maxima)
        movers = [p for p in info.boundary if p in maxima_set]
        moves = _standing_on(own_position, movers)
    else:
        moves = _standing_on(own_position, info.interior)
    if moves and not points_coincide(own_position, center):
        return Action(MOVE_DIRECT, center, info.label)
    return Action(STAY, branch=info.label)
