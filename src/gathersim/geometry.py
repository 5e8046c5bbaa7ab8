"""Planar primitives shared by the whole package.

Everything here is a plain function over small immutable values.  The one
policy decision worth calling out is the tolerance model: one fixed absolute
epsilon, EPS, governs coincidence, on-segment and on-circle tests, while
collinearity normalizes the cross product by the two leg lengths so the
verdict does not depend on the overall scale of the input.  Robots share no
unit of length, so EPS is the simulator's own rounding slack, not a
parameter of the model, and nothing sets it.

PointGrid is the eps-neighbour index behind normalize and the separation
monitor, which query it at EPS.  It is exact: for any eps >= 0 (zero and
subnormal included) and any finite coordinates, ``within(q)`` returns
precisely the indices of the stored points p with ``dist(q, p) <= eps``, the
comparison points_coincide makes at EPS.
The grid only prunes; every candidate is settled by that same comparison.

smallest_enclosing_circle is bit-for-bit a function of the point set: input
order never changes a bit of the result.  It runs on plain floats for speed,
and tests/test_sec_kernel.py pins its output bits against the object-based
construction it replaced, kept there verbatim as the oracle.  Its shuffle
inlines random.Random(seed).shuffle and makes the same permutation.  Its valid
domain is coordinates of magnitude at most COORD_LIMIT = 2**300: the
circumcenter solve multiplies a squared distance by a coordinate difference,
so the cube of the point set's span must stay well inside the float range.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
import sys
import zlib
from typing import Iterable, NamedTuple, Optional, Sequence, Union


class Point(NamedTuple):
    x: float
    y: float


class Circle(NamedTuple):
    center: Point
    radius: float


class Polygon(NamedTuple):
    """Strictly convex polygon, vertices counterclockwise."""

    vertices: tuple[Point, ...]


class DegenerateHull(NamedTuple):
    """Hull marker for an all-collinear point set: just the extreme pair."""

    a: Point
    b: Point


Hull = Union[Polygon, DegenerateHull]

# Sector kinds, by angular span at the apex.
CONVEX = "convex"
CONCAVE = "concave"
STRAIGHT = "straight"


class SectorPair(NamedTuple):
    """Two open sectors cut out of the plane by a pair of half-lines.

    Both half-lines start at ``apex``; one passes through ``ray1_through``,
    the other through ``ray2_through``.  Sector 1 is the open region swept
    counterclockwise from the first half-line to the second, sector 2 is the
    rest.  The apex and both half-lines belong to neither sector, so every
    other point of the plane lies in exactly one of the two.
    """

    apex: Point
    ray1_through: Point
    ray2_through: Point
    kind1: str
    kind2: str


# The absolute epsilon of every approximate predicate.
EPS = 1e-9
# Largest coordinate magnitude inside smallest_enclosing_circle's valid domain.
COORD_LIMIT = 2.0**300
Pair = tuple[float, float]  # a Point is one; a plain tuple is cheaper to build


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def points_coincide(a: Point, b: Point) -> bool:
    return dist(a, b) <= EPS


class PointGrid:
    """Exact eps-neighbour index over points whose magnitudes ``extent`` bounds.

    Points are bucketed into square cells of width w, a power of two above
    both 2*eps and 2**-50 times the largest coordinate magnitude in
    ``extent``.  Division by a power of two is exact short of underflow, and
    two points within eps differ by less than w/2 per coordinate, so they
    land in the same or adjacent cells; the second bound keeps x / w finite
    for every coordinate up to the largest float.  A query scans the 3x3
    cells around its own and keeps the points within eps of it.  Every point
    added or queried must be finite and no larger in magnitude than the
    largest coordinate of ``extent``.
    """

    def __init__(self, extent: Iterable[Point], eps: float) -> None:
        # A NaN can hide from max(); it raises in math.floor once added or queried.
        largest = max(map(abs, itertools.chain.from_iterable(extent)), default=0.0)
        if not largest <= sys.float_info.max:
            raise ValueError("PointGrid needs finite coordinates")
        _, exponent = math.frexp(max(eps, largest * 2.0**-51))
        # Multiplying rather than ldexp-ing the doubled width lets an eps near
        # the largest float give w = inf: one cell, still exact.
        self._width = math.ldexp(1.0, exponent) * 2.0
        self._eps = eps
        self._cells: dict[tuple[int, int], list[tuple[Point, int]]] = {}

    def _cell(self, p: Point) -> tuple[int, int]:
        return math.floor(p.x / self._width), math.floor(p.y / self._width)

    def add(self, p: Point, index: int) -> None:
        self._cells.setdefault(self._cell(p), []).append((p, index))

    def within(self, q: Point) -> list[int]:
        """Indices of the stored points p with dist(q, p) <= eps, in no set order."""
        cx, cy = self._cell(q)
        cells, eps = self._cells, self._eps
        found = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for p, index in cells.get((cx + dx, cy + dy), ()):
                    if dist(q, p) <= eps:
                        found.append(index)
        return found


def _cross(o: Point, a: Point, b: Point) -> float:
    """Twice the signed area of triangle (o, a, b)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def collinear(a: Point, b: Point, c: Point) -> bool:
    """Scale-free collinearity of three points.

    The cross product at ``a`` is compared against eps times the product of
    the leg lengths, so stretching the whole configuration does not change
    the answer.  Coincident inputs count as collinear.
    """
    la = dist(a, b)
    lb = dist(a, c)
    if la == 0.0 or lb == 0.0:
        return True
    return abs(_cross(a, b, c)) <= EPS * la * lb


def _segment_distance(q: Point, a: Point, b: Point) -> float:
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = q.x - a.x, q.y - a.y
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / vv
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(wx - t * vx, wy - t * vy)


def point_on_segment(q: Point, a: Point, b: Point) -> bool:
    """Whether q lies on the closed segment [a, b], endpoints included."""
    return _segment_distance(q, a, b) <= EPS


def point_between_collinear(c: Point, r: Point, rp: Point) -> bool:
    """Whether c sits strictly between r and rp on their common line.

    Raises ValueError when the three points are not collinear; returns False
    when c coincides with either endpoint.
    """
    if not collinear(r, rp, c):
        raise ValueError("point_between_collinear needs collinear input")
    if points_coincide(c, r) or points_coincide(c, rp):
        return False
    return (r.x - c.x) * (rp.x - c.x) + (r.y - c.y) * (rp.y - c.y) < 0.0


def make_sector_pair(r: Point, rp: Point, c: Point) -> Optional[SectorPair]:
    """Build the two open sectors at apex c through r and rp.

    Kinds: a span under half a turn is "convex", over is "concave", and when
    c lies strictly between collinear r and rp both sectors are open
    half-planes ("straight").  Returns None when the three points are
    collinear with c not strictly between, since the two half-lines then
    overlap and cut out nothing usable.  Coincident inputs are rejected.
    """
    if (
        points_coincide(r, rp)
        or points_coincide(r, c)
        or points_coincide(rp, c)
    ):
        raise ValueError("sector pair needs three pairwise distinct points")
    if collinear(c, r, rp):
        if point_between_collinear(c, r, rp):
            return SectorPair(c, r, rp, STRAIGHT, STRAIGHT)
        return None
    if _cross(c, r, rp) > 0.0:
        return SectorPair(c, r, rp, CONVEX, CONCAVE)
    return SectorPair(c, r, rp, CONCAVE, CONVEX)


def _on_closed_half_line(c: Point, through: Point, q: Point) -> bool:
    if not collinear(c, through, q):
        return False
    # Collinear with the ray: on it unless strictly behind the apex.
    return (through.x - c.x) * (q.x - c.x) + (through.y - c.y) * (q.y - c.y) >= 0.0


def sector_contains(sectors: SectorPair, which: int, q: Point) -> bool:
    """Open-sector membership; ``which`` picks sector 1 or 2.

    Points on either bounding half-line, or at the apex, are in neither
    sector, so for any other q exactly one of the two calls answers True.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    c = sectors.apex
    if points_coincide(q, c):
        return False
    if _on_closed_half_line(c, sectors.ray1_through, q):
        return False
    if _on_closed_half_line(c, sectors.ray2_through, q):
        return False
    r, rp = sectors.ray1_through, sectors.ray2_through
    turn = _cross(c, r, rp)
    if collinear(c, r, rp):
        # Straight pair: sector 1 is the open half-plane left of the r ray.
        in_first = _cross(c, r, q) > 0.0
    elif turn > 0.0:
        in_first = _cross(c, r, q) > 0.0 and _cross(c, q, rp) > 0.0
    else:
        in_second = _cross(c, rp, q) > 0.0 and _cross(c, q, r) > 0.0
        in_first = not in_second
    return in_first if which == 1 else not in_first


def on_circle(p: Point, circle: Circle) -> bool:
    return abs(dist(p, circle.center) - circle.radius) <= EPS


def strictly_inside_circle(p: Point, circle: Circle) -> bool:
    return dist(p, circle.center) < circle.radius - EPS


def _require_distinct(points: Sequence[Point]) -> None:
    if len(set(points)) == len(points):
        return
    seen = set()
    for p in points:
        if p in seen:
            raise ValueError(f"duplicate point {p}; inputs must be pairwise distinct")
        seen.add(p)


# Multiplicative slack on every enclosure test; it soaks up the rounding in
# the circumcenter solve.
_SLACK = 1.0 + 1e-14


def smallest_enclosing_circle(points: Iterable[Pair]) -> Circle:
    """Smallest circle enclosing the given distinct points.

    Randomized move-to-front construction (Welzl 1991); expected linear time.
    The shuffle is seeded from a checksum of the sorted input coordinates, so
    the same point set always walks the same path and returns bit-identical
    output, regardless of input order.
    """
    pts = list(points)
    if not pts:
        raise ValueError("smallest_enclosing_circle needs at least one point")
    _require_distinct(pts)
    shuffled = sorted(pts)
    seed = zlib.crc32(struct.pack(f"<{2 * len(shuffled)}d", *itertools.chain.from_iterable(shuffled)))
    _shuffle(shuffled, seed)
    # A negative limit encloses nothing, so the first point starts the circle.
    cx = cy = r = 0.0
    lim = -1.0
    for i, (px, py) in enumerate(shuffled):
        if not (math.hypot(px - cx, py - cy) <= lim):
            cx, cy, r = _sec_one_known(shuffled, i + 1, px, py)
            lim = r * _SLACK
    return Circle(Point(cx, cy), r)


def _shuffle(items: list, seed: int) -> None:
    """random.Random(seed).shuffle(items) inlined: the same loop and getrandbits draws."""
    getrandbits = random.Random(seed).getrandbits
    for i in range(len(items) - 1, 0, -1):
        j, k = i + 1, (i + 1).bit_length()
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def _sec_one_known(
    pts: list[Pair], m: int, px: float, py: float
) -> tuple[float, float, float]:
    """SEC of pts[:m] with p = pts[m - 1] on its boundary."""
    cx, cy, r = px, py, 0.0
    lim = 0.0
    for j, (qx, qy) in enumerate(pts[:m], 1):
        if not (math.hypot(qx - cx, qy - cy) <= lim):
            if r == 0.0:
                cx, cy, r = _diameter_circle(px, py, qx, qy)
            else:
                cx, cy, r = _sec_two_known(pts, j, px, py, qx, qy)
            lim = r * _SLACK
    return cx, cy, r


def _sec_two_known(
    pts: list[Pair], m: int, px: float, py: float, qx: float, qy: float
) -> tuple[float, float, float]:
    """SEC of pts[:m] with p and q on its boundary."""
    mx, my, mr = _diameter_circle(px, py, qx, qy)
    mlim = mr * _SLACK
    ux = qx - px
    uy = qy - py
    # min and max fold left to right, as the builtins do over (p, q, r).
    pq_minx = qx if qx < px else px
    pq_maxx = qx if qx > px else px
    pq_miny = qy if qy < py else py
    pq_maxy = qy if qy > py else py
    # Pick the best circumcenter on each side of line pq, by its cross
    # product with pq, and keep the third point it passes through: the radius
    # is a function of the center and the three points, so only the two
    # winners ever need one.
    left_cc = right_cc = None
    lcx = lcy = lpx = lpy = rcx = rcy = rpx = rpy = 0.0
    for rx, ry in pts[:m]:
        if math.hypot(rx - mx, ry - my) <= mlim:
            continue
        side = ux * (ry - py) - uy * (rx - px)
        if not (side > 0.0 or side < 0.0):
            continue
        # Shift toward the bounding-box midpoint before solving; this keeps
        # the determinant well conditioned far from the origin.
        lo = rx if rx < pq_minx else pq_minx
        hi = rx if rx > pq_maxx else pq_maxx
        ox = (lo + hi) / 2.0
        lo = ry if ry < pq_miny else pq_miny
        hi = ry if ry > pq_maxy else pq_maxy
        oy = (lo + hi) / 2.0
        ax, ay = px - ox, py - oy
        bx, by = qx - ox, qy - oy
        cx, cy = rx - ox, ry - oy
        d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
        if d == 0.0:
            continue
        sa = ax * ax + ay * ay
        sb = bx * bx + by * by
        sc = cx * cx + cy * cy
        x = ox + (sa * (by - cy) + sb * (cy - ay) + sc * (ay - by)) / d
        y = oy + (sa * (cx - bx) + sb * (ax - cx) + sc * (bx - ax)) / d
        cc = ux * (y - py) - uy * (x - px)
        if side > 0.0:
            if left_cc is None or cc > left_cc:
                left_cc, lcx, lcy, lpx, lpy = cc, x, y, rx, ry
        elif right_cc is None or cc < right_cc:
            right_cc, rcx, rcy, rpx, rpy = cc, x, y, rx, ry
    if left_cc is None and right_cc is None:
        return mx, my, mr
    if left_cc is None:
        return rcx, rcy, _circumradius(rcx, rcy, px, py, qx, qy, rpx, rpy)
    left = lcx, lcy, _circumradius(lcx, lcy, px, py, qx, qy, lpx, lpy)
    if right_cc is None:
        return left
    right = rcx, rcy, _circumradius(rcx, rcy, px, py, qx, qy, rpx, rpy)
    return left if left[2] <= right[2] else right


def _diameter_circle(px: float, py: float, qx: float, qy: float) -> tuple[float, float, float]:
    cx = (px + qx) / 2.0
    cy = (py + qy) / 2.0
    dp = math.hypot(cx - px, cy - py)
    dq = math.hypot(cx - qx, cy - qy)
    return cx, cy, (dq if dq > dp else dp)


def _circumradius(
    x: float, y: float, ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> float:
    """max() of the distances from the center (x, y) to a, b and c, in that order."""
    r = math.hypot(x - ax, y - ay)
    d = math.hypot(x - bx, y - by)
    if d > r:
        r = d
    d = math.hypot(x - cx, y - cy)
    if d > r:
        r = d
    return r


def convex_hull(points: Iterable[Point]) -> Hull:
    """Convex hull with strictly convex vertices, counterclockwise.

    Monotone chain with exact orientation tests builds the structure; an
    eps-collinear merge pass then removes corners flatter than the shared
    tolerance, so no three surviving vertices are collinear under the same
    predicate everything else uses.  Merging can leave an input point within
    about eps of the boundary rather than exactly inside, which is the
    resolution the rest of the package works at anyway.  An all-collinear
    input yields a DegenerateHull holding the farthest-apart pair.
    """
    pts = sorted(points)
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    _require_distinct(pts)
    # Degeneracy is judged against the farthest-apart pair, not the
    # lexicographic extremes: on a near-vertical line the lex order follows
    # coordinate noise instead of the line, and the longest baseline keeps
    # the normalized collinearity test well conditioned.
    far1 = max(pts, key=lambda p: dist(pts[0], p))
    far2 = max(pts, key=lambda p: dist(far1, p))
    lo, hi = (far1, far2) if far1 <= far2 else (far2, far1)
    if all(collinear(lo, hi, p) for p in pts):
        return DegenerateHull(lo, hi)

    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    ring = _merge_flat_corners(lower[:-1] + upper[:-1])
    if len(ring) < 3:
        # The set is eps-flat even though no single baseline showed it.
        return DegenerateHull(lo, hi)
    start = ring.index(min(ring))
    return Polygon(tuple(ring[start:] + ring[:start]))


def _merge_flat_corners(ring: list[Point]) -> list[Point]:
    verts = list(ring)
    changed = True
    while changed and len(verts) >= 3:
        changed = False
        for i in range(len(verts)):
            a = verts[i - 1]
            b = verts[i]
            c = verts[(i + 1) % len(verts)]
            if collinear(a, b, c):
                del verts[i]
                changed = True
                break
    return verts


def hull_boundary_contains(hull: Hull, q: Point) -> bool:
    """Whether q lies on the hull boundary (vertices and edges included)."""
    if isinstance(hull, DegenerateHull):
        return point_on_segment(q, hull.a, hull.b)
    verts = hull.vertices
    if len(verts) == 1:
        return points_coincide(q, verts[0])
    return any(
        point_on_segment(q, verts[i], verts[(i + 1) % len(verts)])
        for i in range(len(verts))
    )
