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

smallest_enclosing_circle is bit-for-bit a function of the set of points it
is given: neither input order nor repeats change a bit of the result, bar
the sign of a zero (of two points equal but for it, the first given is
kept).  It runs on plain floats for speed, and tests/test_sec_kernel.py pins
its output bits against the object-based construction it replaced, kept
there verbatim as the oracle.  Two shortcuts
keep every bit: an enclosure test compares a squared distance before it calls
hypot (proof in the comment above _SHRINK), and the two-point step skips the
circumcircles that cannot win (proof in _sec_two_known's docstring).  Its shuffle
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


def near_tie(own: Point, p: Point, q: Point) -> bool:
    """Whether dist(own, p) and dist(own, q) are within 2**-45 (M + dp + dq),
    M the largest coordinate magnitude of the three points and dp, dq the
    float distances.  Outside that window the exact distances differ by over
    250 u (M + dp + dq), u = 2**-53, so dist and every frame order p and q as
    they do: a float distance d is off by at most 3.01 u d, and in a frame of
    scale s whose products neither overflow nor underflow an image distance
    from model.ego_images by at most 23 u s M + 5 u s d (16.1 u s M on each
    coordinate, 2u on the cosine and sine)."""
    dp, dq = dist(own, p), dist(own, q)
    m = max(abs(own.x), abs(own.y), abs(p.x), abs(p.y), abs(q.x), abs(q.y))
    return abs(dp - dq) <= 2.0**-45 * (m + dp + dq)


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
# Each enclosure test of the kernel reads
#     dx * dx + dy * dy <= lim2 or hypot(dx, dy) <= lim
# with lim2 = lim * lim * _SHRINK when _SQUARED_LOW <= lim <= _SQUARED_HIGH
# and -1.0 otherwise, which no sum meets (nor an infinite or NaN one).  It
# decides as the hypot test alone and mostly skips the call.  Proof, with
# u = 2**-53: in that range lim2 <= lim**2 (1 + u)**2 (1 - 2**-49), and the
# rounded sum is at least (dx**2 + dy**2)(1 - u)**2 less 2**-1073 of
# underflow, so a sum within lim2 puts sqrt(dx**2 + dy**2) at most
# lim (1 + 2**-52 - 2**-50) and a faithful hypot, under 2u above it, at
# most lim.
_SHRINK = 1.0 - 2.0**-49
_SQUARED_LOW = 2.0**-450
_SQUARED_HIGH = 2.0**500


def smallest_enclosing_circle(points: Iterable[Pair]) -> Circle:
    """Smallest circle enclosing the set of the given points; repeats are dropped.

    Welzl's randomized incremental construction (1991), iterative with two
    fixed boundary points at most; expected linear time.  The shuffle is
    seeded from a checksum of the sorted distinct coordinates, so the same
    point set always walks the same path and returns bit-identical output,
    regardless of input order and repeats.  The two-point step,
    _sec_two_known, skips the circumcircles that cannot win; its docstring
    proves that this keeps every bit.
    """
    shuffled = sorted(set(points))
    if not shuffled:
        raise ValueError("smallest_enclosing_circle needs at least one point")
    seed = zlib.crc32(struct.pack(f"<{2 * len(shuffled)}d", *itertools.chain.from_iterable(shuffled)))
    _shuffle(shuffled, seed)
    hypot = math.hypot
    # A negative limit encloses nothing, so the first point starts the circle.
    cx = cy = r = 0.0
    lim = lim2 = -1.0
    for i, (px, py) in enumerate(shuffled):
        dx = px - cx
        dy = py - cy
        if not (dx * dx + dy * dy <= lim2 or hypot(dx, dy) <= lim):
            cx, cy, r = _sec_one_known(shuffled, i + 1, px, py)
            lim = r * _SLACK
            lim2 = lim * lim * _SHRINK if _SQUARED_LOW <= lim <= _SQUARED_HIGH else -1.0
    return Circle(Point(cx, cy), r)


def _shuffle(items: list, seed: int) -> None:
    """random.Random(seed).shuffle(items) inlined: the same loop and getrandbits draws.

    The draw width k is (i + 1).bit_length(), computed once: it drops by one
    only where i + 1 falls below low, the power of two with that width.
    """
    getrandbits = random.Random(seed).getrandbits
    k = len(items).bit_length()
    low = (1 << k) >> 1
    for i in range(len(items) - 1, 0, -1):
        j = i + 1
        if j < low:
            k -= 1
            low >>= 1
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def _sec_one_known(
    pts: list[Pair], m: int, px: float, py: float
) -> tuple[float, float, float]:
    """SEC of pts[:m] with p = pts[m - 1] on its boundary."""
    hypot = math.hypot
    cx, cy, r = px, py, 0.0
    lim, lim2 = 0.0, -1.0
    for j, (qx, qy) in enumerate(pts[:m], 1):
        dx = qx - cx
        dy = qy - cy
        if not (dx * dx + dy * dy <= lim2 or hypot(dx, dy) <= lim):
            if r == 0.0:
                cx, cy, r = _diameter_circle(px, py, qx, qy)
            else:
                cx, cy, r = _sec_two_known(pts, j, px, py, qx, qy)
            lim = r * _SLACK
            lim2 = lim * lim * _SHRINK if _SQUARED_LOW <= lim <= _SQUARED_HIGH else -1.0
    return cx, cy, r


# _sec_two_known's prune: the relative depth inside the best circle that
# skips a candidate, and the guards a best circle must pass to prune at all.
_MARGIN = 2.0**-10
_GUARD_LOW = 2.0**-300
_GUARD_HIGH = 2.0**300
_GUARD_OFFSET = 2.0**32
_GUARD_FLAT = 2.0**12
_GUARD_THIN = 2.0**-16


def _sec_two_known(
    pts: list[Pair], m: int, px: float, py: float, qx: float, qy: float
) -> tuple[float, float, float]:
    """SEC of pts[:m] with p and q on its boundary.

    A point outside the circle on diameter pq and off line pq is a
    candidate: its circumcircle with p and q is solved, and each side of
    line pq keeps the first candidate whose center has the largest cross
    product cc with U = (ux, uy), the rounded q - p (the smallest, right of
    the line).  The radius is a function of the center and the three
    points, so a best's waits until a later candidate on its side, or the
    result, needs it.

    The prune.  Let a best circle have computed center X, radius R (the
    largest rounded distance from X to p, q and its point b) and side s_b
    (b's computed cross product with U), and pass the guards
      G1  2**-300 <= R <= 2**300,      G2  |X.x|, |X.y| <= 2**32 R,
      G3  R <= 2**12 |U|,              G4  |s_b| >= T = 2**-16 R**2.
    A later candidate r on its side with |s_r| >= T whose rounded squared
    distance to X is below the rounded ((1 - 2**-10) R)**2 is skipped: its
    computed cc would be strictly below the best's, so it could replace
    neither that best nor a later one, and the output keeps every bit.
    Every comparison with a NaN is false and an infinity fails G1 or the
    distance test, so the bounds below hold wherever the prune acts.  Proof,
    left of pq (the right side mirrors), with u = 2**-53, mu = 2**-10,
    rounding to nearest and hypot within one ulp:
    1. p, q and b lie within (1 + 4u) R of X and r within (1 - mu)(1 + 4u) R,
       so any two lie within 2.01 R and L = |q - p| <= 2.01 R, and with G2
       (a box midpoint rounds by at most 2**-20 R) every shifted coordinate
       of a solve is at most S = 1.02 R.  By G1 no product in a solve or a
       distance test exceeds 2**910, and underflow costs under 2**-60 of
       any bound below.
    2. A computed side is within 17 u R**2 of the exact cross product
       c = (q - p) x (v - p) = L y_v (y_v: v's height over line pq), since
       U is within u L of q - p; so |c| > 2**-16.01 R**2, with side's sign.
    3. A solve's d is 2c within 80 u S**2, so |d| >= 1.99 |c|, and its
       numerators are exact within 110 u S**3.  Each coordinate of its
       center is then within (117 u R**3 + 84 u R**2 D) / (1.99 |c|)
       + 1.01 u (D + Z) of the exact circumcenter O_v, where D bounds
       |O_v - o| (o the shift) and Z the coordinates of O_v.
    4. The best's exact center is O_b = mid(p, q) + t_b n (n the unit left
       normal), |t_b| <= (2.02 R)**2 L / (2 |c_b|) <= 2**18.1 R, so
       D <= 2**18.2 R, Z <= 2**32.1 R, and 3 puts X within 2**-12.8 R of O_b.
       Hence rho_b = |O_b - p| <= 1.001 R, D <= 2.45 R, and 3 again gives
       |X - O_b| <= E_b = 2**-20.3 R and rho_b >= (1 - 2**-20) R.
    5. With p = (-a, 0), q = (a, 0): O_r = (0, t_r) and
       2 y_r (t_b - t_r) = rho_b**2 - |r - O_b|**2 >= 0.99 mu R**2, as
       |r - O_b| < (1 - mu)(1 + 4u) R + E_b; and U x (O_b - O_r)
       >= (1 - u) L (t_b - t_r).  Also t_r >= -a**2 L / (2 |c_r|)
       >= -2**16.1 R, so D <= 2**16.2 R and 3 puts X_r within
       E_r = 2**22.3 u R**3 / (L y_r) + 2**-20.3 R of O_r.
    6. cc evaluates U x (C - p) within 3.1 u |U| |C - p| for a center C, so
       (cc_b - cc_r) / L >= 0.49 mu R**2 / y_r - 1.0001 (E_r + E_b)
       - 2**-35 R > 0, by G3 (L >= 2**-12.01 R) and y_r <= 2.01 R.
    Step 2 is the conditioning guard: without G4 a thin triangle (b next to
    p or q) can put X anywhere; G3 excludes near-flat best circles.
    """
    hypot = math.hypot
    mx, my, mr = _diameter_circle(px, py, qx, qy)
    mlim = mr * _SLACK
    mlim2 = mlim * mlim * _SHRINK if _SQUARED_LOW <= mlim <= _SQUARED_HIGH else -1.0
    ux = qx - px
    uy = qy - py
    # min and max fold left to right, as the builtins do over (p, q, r).
    pq_minx = qx if qx < px else px
    pq_maxx = qx if qx > px else px
    pq_miny = qy if qy < py else py
    pq_maxy = qy if qy > py else py
    # Per side: the best cc, center and point, whether its radius and prune
    # limits are still to be computed (for a later candidate on that side, or
    # the radius alone at the end), its radius, and the prune's bound on the
    # squared distance to its center and side threshold; a negative bound
    # prunes nothing.
    left_cc = right_cc = None
    lcx = lcy = lbx = lby = lside = lr = rcx = rcy = rbx = rby = rside = rr = 0.0
    lfresh = rfresh = False
    llim = rlim = -1.0
    lthr = rthr = 0.0
    for rx, ry in pts[:m]:
        dx = rx - mx
        dy = ry - my
        if dx * dx + dy * dy <= mlim2 or hypot(dx, dy) <= mlim:
            continue
        side = ux * (ry - py) - uy * (rx - px)
        if side > 0.0:
            if lfresh:
                lr, llim, lthr = _best_circle(lcx, lcy, px, py, qx, qy, lbx, lby, lside, ux, uy)
                lfresh = False
            dx = rx - lcx
            dy = ry - lcy
            if dx * dx + dy * dy < llim and side >= lthr:
                continue
        elif side < 0.0:
            if rfresh:
                rr, rlim, rthr = _best_circle(rcx, rcy, px, py, qx, qy, rbx, rby, -rside, ux, uy)
                rfresh = False
            dx = rx - rcx
            dy = ry - rcy
            if dx * dx + dy * dy < rlim and -side >= rthr:
                continue
        else:
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
                left_cc, lcx, lcy, lbx, lby, lside, lfresh = cc, x, y, rx, ry, side, True
        elif right_cc is None or cc < right_cc:
            right_cc, rcx, rcy, rbx, rby, rside, rfresh = cc, x, y, rx, ry, side, True
    if lfresh:
        lr = _circumradius(lcx, lcy, px, py, qx, qy, lbx, lby)
    if rfresh:
        rr = _circumradius(rcx, rcy, px, py, qx, qy, rbx, rby)
    if left_cc is None and right_cc is None:
        return mx, my, mr
    if left_cc is None:
        return rcx, rcy, rr
    if right_cc is None or lr <= rr:
        return lcx, lcy, lr
    return rcx, rcy, rr


def _best_circle(
    x: float, y: float, px: float, py: float, qx: float, qy: float, rx: float, ry: float,
    height: float, ux: float, uy: float,
) -> tuple[float, float, float]:
    """The radius of a best circle of _sec_two_known, centered at (x, y) through p, q
    and r, whose r has side magnitude height, then the prune's bound on a squared
    distance to (x, y) and its side threshold, or -1.0 and 0.0, which prune nothing,
    unless the circle passes G1 to G4 (G3 as R <= 2**12 max(|ux|, |uy|), which
    implies it)."""
    r = _circumradius(x, y, px, py, qx, qy, rx, ry)
    thr = _GUARD_THIN * r * r
    if (
        _GUARD_LOW <= r <= _GUARD_HIGH
        and abs(x) <= _GUARD_OFFSET * r
        and abs(y) <= _GUARD_OFFSET * r
        and (r <= _GUARD_FLAT * abs(ux) or r <= _GUARD_FLAT * abs(uy))
        and height >= thr
    ):
        inner = r * (1.0 - _MARGIN)
        return r, inner * inner, thr
    return r, -1.0, 0.0


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
    hypot = math.hypot
    r = hypot(x - ax, y - ay)
    d = hypot(x - bx, y - by)
    if d > r:
        r = d
    d = hypot(x - cx, y - cy)
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
