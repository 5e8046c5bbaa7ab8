"""The flat-float SEC kernel against the object-based construction it replaced.

smallest_enclosing_circle once built a Point and a Circle for every
candidate and called small helpers for distance, enclosure, orientation and
circumcircle.  Those functions are kept here, verbatim, as the oracle: the
kernel must return the same center and radius, bit for bit, for every input
family below and every ordering of the input.  The oracle refuses repeated
points; the kernel encloses the set of the points it is given, so with
repeats it must return the oracle's circle on the distinct points, the first
given of two that differ only in the sign of a zero.  Its two-point step skips the circumcircles that cannot
win; families aimed at that prune check it against the oracle's step, and a
count shows what it saves.
"""

import inspect
import itertools
import math
import random
import struct
import sys
import zlib
from typing import Iterable, Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gathersim import geometry
from gathersim.geometry import Circle, Point

# -- oracle: the object-based construction, verbatim ---------------------------


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _cross(o: Point, a: Point, b: Point) -> float:
    """Twice the signed area of triangle (o, a, b)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _require_distinct(points: Sequence[Point]) -> None:
    seen = set()
    for p in points:
        if p in seen:
            raise ValueError(f"duplicate point {p}; inputs must be pairwise distinct")
        seen.add(p)


def _input_seed(points: Sequence[Point]) -> int:
    coords = []
    for p in points:
        coords.append(p.x)
        coords.append(p.y)
    return zlib.crc32(struct.pack(f"<{len(coords)}d", *coords))


def smallest_enclosing_circle(points: Iterable[Point]) -> Circle:
    """Smallest circle enclosing the given distinct points.

    Randomized move-to-front construction; expected linear time.  The shuffle
    is seeded from a checksum of the input coordinates, so the same point set
    always walks the same path and returns bit-identical output, regardless
    of input order.
    """
    pts = list(points)
    if not pts:
        raise ValueError("smallest_enclosing_circle needs at least one point")
    _require_distinct(pts)
    shuffled = sorted(pts)
    random.Random(_input_seed(shuffled)).shuffle(shuffled)
    circle: Optional[Circle] = None
    for i, p in enumerate(shuffled):
        if circle is None or not _encloses(circle, p):
            circle = _sec_one_known(shuffled[: i + 1], p)
    assert circle is not None
    return circle


def _encloses(circle: Circle, p: Point) -> bool:
    # Multiplicative slack soaks up the rounding in the circumcenter solve.
    return dist(p, circle.center) <= circle.radius * (1.0 + 1e-14)


def _sec_one_known(points: Sequence[Point], p: Point) -> Circle:
    circle = Circle(p, 0.0)
    for i, q in enumerate(points):
        if not _encloses(circle, q):
            if circle.radius == 0.0:
                circle = _diameter_circle(p, q)
            else:
                circle = _sec_two_known(points[: i + 1], p, q)
    return circle


def _sec_two_known(points: Sequence[Point], p: Point, q: Point) -> Circle:
    base = _diameter_circle(p, q)
    left: Optional[Circle] = None
    right: Optional[Circle] = None
    # Pick the best boundary circle on each side of line pq.
    for r in points:
        if _encloses(base, r):
            continue
        side = _cross(p, q, r)
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        cc_side = _cross(p, q, c.center)
        if side > 0.0 and (left is None or cc_side > _cross(p, q, left.center)):
            left = c
        elif side < 0.0 and (right is None or cc_side < _cross(p, q, right.center)):
            right = c
    if left is None and right is None:
        return base
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _diameter_circle(a: Point, b: Point) -> Circle:
    cx = (a.x + b.x) / 2.0
    cy = (a.y + b.y) / 2.0
    center = Point(cx, cy)
    return Circle(center, max(dist(center, a), dist(center, b)))


def _circumcircle(a: Point, b: Point, c: Point) -> Optional[Circle]:
    # Shift toward the bounding-box midpoint before solving; this keeps the
    # determinant well conditioned when the triangle sits far from the origin.
    ox = (min(a.x, b.x, c.x) + max(a.x, b.x, c.x)) / 2.0
    oy = (min(a.y, b.y, c.y) + max(a.y, b.y, c.y)) / 2.0
    ax, ay = a.x - ox, a.y - oy
    bx, by = b.x - ox, b.y - oy
    cx, cy = c.x - ox, c.y - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    y = oy + (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    center = Point(x, y)
    return Circle(center, max(dist(center, a), dist(center, b), dist(center, c)))


# -- input families --------------------------------------------------------------


def _bits(circle):
    return struct.pack("<3d", circle.center.x, circle.center.y, circle.radius)


def _distinct(raw):
    return list(dict.fromkeys(Point(float(x), float(y)) for x, y in raw))


@st.composite
def uniform_sets(draw):
    coord = st.floats(-1e3, 1e3, allow_nan=False)
    return _distinct(draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=201)))


@st.composite
def cocircular_sets(draw):
    cx = draw(st.floats(-10.0, 10.0))
    cy = draw(st.floats(-10.0, 10.0))
    radius = draw(st.floats(1e-6, 1e3))
    angles = draw(st.lists(st.floats(0.0, math.tau), min_size=1, max_size=201))
    return _distinct((cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles)


@st.composite
def collinear_sets(draw):
    ox = draw(st.floats(-10.0, 10.0))
    oy = draw(st.floats(-10.0, 10.0))
    angle = draw(st.sampled_from((0.0, math.pi / 2, math.pi / 4)) | st.floats(0.0, math.pi))
    ts = draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=201))
    dx, dy = math.cos(angle), math.sin(angle)
    return _distinct((ox + t * dx, oy + t * dy) for t in ts)


@st.composite
def grid_sets(draw):
    cell = st.integers(-6, 6)
    return _distinct(draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=169)))


@st.composite
def cluster_sets(draw):
    bx = draw(st.floats(-1.0, 1.0))
    by = draw(st.floats(-1.0, 1.0))
    offset = st.floats(-1e-12, 1e-12)
    raw = draw(st.lists(st.tuples(offset, offset), min_size=1, max_size=201))
    return _distinct((bx + dx, by + dy) for dx, dy in raw)


@st.composite
def huge_sets(draw):
    # Squares overflow here, which makes the construction cubic; keep n small.
    coord = st.floats(-1e300, 1e300) | st.sampled_from((1e300, -1e300, 0.0))
    return _distinct(draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12)))


@st.composite
def tiny_sets(draw):
    """Uniform, cocircular and grid sets scaled by 2**e, e from -1074 to -300:
    down into the subnormals, and across the radius 2**-300 below which the
    prune's guard G1 turns the prune off."""
    pts = draw(st.one_of(uniform_sets(), cocircular_sets(), grid_sets()))
    e = draw(st.integers(-1074, -300) | st.sampled_from((-1074, -1022, -300)))
    return _distinct((math.ldexp(p.x, e), math.ldexp(p.y, e)) for p in pts)


MARGIN = geometry._MARGIN  # the prune's relative depth
SCALES = st.integers(-40, 299).map(lambda e: 2.0**e)  # radii up to geometry.COORD_LIMIT


def _on(cx, cy, radius, angle):
    return Point(cx + radius * math.cos(angle), cy + radius * math.sin(angle))


@st.composite
def near_cocircular_sets(draw):
    """Points on a circle, some a few ulps or a few prune margins off it, at scales from 2**-40 to COORD_LIMIT."""
    scale = draw(SCALES)
    cx, cy = draw(st.floats(-1.0, 1.0)) * scale, draw(st.floats(-1.0, 1.0)) * scale
    radius = draw(st.floats(0.5, 2.0)) * scale
    depth = st.sampled_from([0.0, 0.0, 2.0**-52, -(2.0**-52), 2.0**-40, MARGIN, -MARGIN, 4 * MARGIN])
    rim = draw(st.lists(st.tuples(st.floats(0.0, math.tau), depth), min_size=1, max_size=60))
    return _distinct(_on(cx, cy, radius * (1.0 - d), angle) for angle, d in rim)


FAMILIES = {
    "near_cocircular": near_cocircular_sets(),
    "uniform": uniform_sets(),
    "cocircular": cocircular_sets(),
    "collinear": collinear_sets(),
    "grid": grid_sets(),
    "cluster": cluster_sets(),
    "huge": huge_sets(),
    "tiny": tiny_sets(),
}


def _seeded_family(rng, family, n):
    """The same families from a seeded stream, for the exhaustive sweep."""
    if family == "uniform":
        return [(rng.random(), rng.random()) for _ in range(n)]
    if family == "cocircular":
        cx, cy, radius = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(1e-3, 10)
        angles = [rng.uniform(0.0, math.tau) for _ in range(n)]
        return [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles]
    if family == "collinear":
        slope, icept = rng.uniform(-3, 3), rng.uniform(-3, 3)
        return [(t, slope * t + icept) for t in (rng.uniform(-2, 2) for _ in range(n))]
    if family == "grid":
        return [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)]
    if family == "cluster":
        bx, by = rng.random(), rng.random()
        return [(bx + rng.uniform(-1e-12, 1e-12), by + rng.uniform(-1e-12, 1e-12)) for _ in range(n)]
    if family == "tiny":
        e = rng.randint(-1074, -300)
        base = _seeded_family(rng, rng.choice(("uniform", "cocircular", "grid")), n)
        return [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in base]
    return [(rng.uniform(-1e300, 1e300), rng.uniform(-1e300, 1e300)) for _ in range(min(n, 12))]


# -- the kernel against the oracle -------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_oracle_bit_for_bit(family, data):
    pts = data.draw(FAMILIES[family])
    expected = _bits(smallest_enclosing_circle(pts))
    assert _bits(geometry.smallest_enclosing_circle(pts)) == expected
    repeats = data.draw(st.lists(st.sampled_from(pts), max_size=len(pts)))
    permuted = data.draw(st.permutations(pts + repeats))
    assert _bits(geometry.smallest_enclosing_circle(permuted)) == expected


def test_kernel_matches_oracle_on_a_seeded_sweep():
    rng = random.Random("sec-kernel")
    families = ("uniform", "cocircular", "collinear", "grid", "cluster", "huge", "tiny")
    for index in range(420):
        family = families[index % len(families)]
        n = rng.choice((1, 2, 3, 4, 5, 8, 13, 50, 101, 201)) if index % 2 else rng.randint(1, 201)
        pts = _distinct(_seeded_family(rng, family, n))
        got = geometry.smallest_enclosing_circle(reversed(pts))
        assert _bits(got) == _bits(smallest_enclosing_circle(pts)), (family, pts)


def test_single_point_and_pair_bits():
    for pts in ([Point(-0.0, 5e-324)], [Point(1e300, -1e300)], [Point(0.0, 0.0), Point(5e-324, 0.0)]):
        assert _bits(geometry.smallest_enclosing_circle(pts)) == _bits(smallest_enclosing_circle(pts))


@pytest.mark.parametrize(
    "pts",
    [
        [Point(1.0, 1.0), Point(1.0, 1.0)],
        [Point(0.0, 0.0), Point(2.0, 0.0), Point(-0.0, 0.0)],
        [Point(3.0, 3.0), Point(1.0, 1.0), Point(1.0, 1.0), Point(3.0, 3.0)],
        [Point(3.0, 3.0), Point(1.0, 1.0), Point(3.0, 3.0), Point(1.0, 1.0)],
        [Point(0.0, 0.0), Point(4.0, 0.0), Point(2.0, 1.0), Point(4.0, 0.0), Point(0.0, 0.0)],
    ],
)
def test_repeats_give_the_oracle_circle_on_the_distinct_points(pts):
    for ordering in itertools.permutations(pts):
        expected = smallest_enclosing_circle(list(dict.fromkeys(ordering)))
        assert _bits(geometry.smallest_enclosing_circle(ordering)) == _bits(expected)


def test_of_two_points_equal_but_for_the_sign_of_a_zero_the_first_given_is_kept():
    a, b = Point(-0.0, 0.0), Point(0.0, -0.0)
    assert _bits(geometry.smallest_enclosing_circle([a, b])) == _bits(Circle(a, 0.0))
    assert _bits(geometry.smallest_enclosing_circle([b, a])) == _bits(Circle(b, 0.0))


@pytest.mark.parametrize(
    "p, q, others",
    [
        # Circles through p and q on either side with radius exactly 1.25: the
        # left one wins the tie.  No valid call gets here without rounding, so
        # the state is built by hand.
        (Point(-1.0, 0.0), Point(1.0, 0.0), [Point(0.0, 2.0), Point(0.0, -2.0)]),
        (Point(-1.0, 0.0), Point(1.0, 0.0), [Point(0.0, -2.0), Point(0.0, 2.0)]),
        (Point(1.0, 0.0), Point(-1.0, 0.0), [Point(0.0, 2.0), Point(0.0, -2.0)]),
        (Point(-1.0, 0.0), Point(1.0, 0.0), [Point(0.5, 3.0), Point(-0.5, 2.0), Point(0.0, 0.5)]),
        (Point(-1.0, 0.0), Point(1.0, 0.0), [Point(0.5, -3.0), Point(3.0, 0.0)]),
        (Point(-1.0, 0.0), Point(1.0, 0.0), [Point(0.0, 0.5)]),
    ],
)
def test_two_known_step_matches_oracle(p, q, others):
    pts = [p, q, *others]
    got = geometry._sec_two_known(pts, len(pts), p.x, p.y, q.x, q.y)
    expected = _sec_two_known(pts, p, q)
    assert struct.pack("<3d", *got) == _bits(expected)


# -- the prune of the two-point step -------------------------------------------------


@st.composite
def prune_cases(draw):
    """p, q and the points _sec_two_known scans, aimed at its prune's edges.

    A circle through p and q, at a scale from 2**-40 to COORD_LIMIT and up to
    2**33 radii from the origin (guard G2 stops at 2**32).  The first point
    lies on it and becomes the first best circle: anywhere, or next to p or
    q (a thin triangle, up to past guard G4), with p and q anywhere or close
    together (a near-flat circle, up to past guard G3's 2**12).  The rest lie
    on the circle within an ulp or so, or a few prune margins inside or
    outside it, or anywhere inside."""
    shape = draw(st.sampled_from(["cocircular", "margins", "thin", "flat"]))
    scale = draw(SCALES)
    offset = draw(st.sampled_from([0.0, 3.0, 2.0**31, 2.0**33]))
    cx, cy = (offset + draw(st.floats(-1.0, 1.0))) * scale, draw(st.floats(-1.0, 1.0)) * scale
    radius = draw(st.floats(0.5, 2.0)) * scale
    a = draw(st.floats(0.0, math.tau))
    span = 2.0 ** -draw(st.floats(3.0, 16.0)) if shape == "flat" else draw(st.floats(0.3, math.pi))
    p, q = _on(cx, cy, radius, a), _on(cx, cy, radius, a + span)
    if shape == "thin":
        nudge = 2.0 ** -draw(st.floats(8.0, 53.0))
        first = _on(cx, cy, radius, draw(st.sampled_from([a - nudge, a + span + nudge])))
    else:
        first = _on(cx, cy, radius, draw(st.floats(0.0, math.tau)))
    if shape == "cocircular":
        depth = st.sampled_from([0.0, 2.0**-53, -(2.0**-53), 2.0**-52, 2.0**-40])
    else:
        depth = st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0, 4.0]).map(lambda k: k * MARGIN) | st.floats(-MARGIN, 1.0)
    rest = draw(st.lists(st.tuples(st.floats(0.0, math.tau), depth), min_size=1, max_size=12))
    points = [first] + [_on(cx, cy, radius * (1.0 - d), angle) for angle, d in rest]
    return p, q, [r for r in dict.fromkeys(points) if r not in (p, q)]


@settings(max_examples=1500, deadline=None)
@given(prune_cases())
# Four points on the unit circle: the second lies inside the first's computed
# circle by rounding alone, and its computed center differs in the last bits.
@example((
    Point(-0.9826670763420833, 0.1853791171445755),
    Point(0.01738660519292835, 0.9998488415554949),
    [Point(-0.9599140927560976, -0.28029437120327266), Point(-0.8896414894342058, -0.4566596328528369)],
))
# The first point sits 3e-14 from q on the circle: the thin triangle's solve
# puts its center far off, and the later points, inside that circle, still win.
@example((
    Point(1.5000377753837109, 0.24592580653605187),
    Point(1.051762452797229, 1.4747310067686057),
    [
        Point(1.0517624527972096, 1.4747310067686228),
        Point(-1.2243610154825737, 0.6047548104381664),
        Point(-1.0262195482432643, 0.32628414188607335),
        Point(1.2112062841900733, -0.4151215540504718),
        Point(1.1878190185875068, -0.4433946109599455),
        Point(1.4137079297807325, -0.07090120084145923),
        Point(-1.1700741578643532, 0.051432054369265845),
        Point(0.20278347745196365, -0.926603355773868),
    ],
))
def test_two_known_step_matches_oracle_at_the_prune(case):
    p, q, pts = case
    got = geometry._sec_two_known(pts, len(pts), p.x, p.y, q.x, q.y)
    assert struct.pack("<3d", *got) == _bits(_sec_two_known(pts, p, q))


def _solves(function, *args):
    """function(*args), and how many circumcenters _sec_two_known solved
    meanwhile: the runs of its line that computes the determinant d."""
    lines, first = inspect.getsourcelines(geometry._sec_two_known)
    target = first + next(i for i, line in enumerate(lines) if line.lstrip().startswith("d = "))
    code = geometry._sec_two_known.__code__
    count = 0

    def lines_of_the_step(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == target
        return lines_of_the_step

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: lines_of_the_step if frame.f_code is code else None)
    try:
        result = function(*args)
    finally:
        sys.settrace(previous)
    return result, count


def test_the_prune_skips_most_circumcenters_of_uniform_sets(monkeypatch):
    # The oracle solves the circumcircle of every point outside the diameter
    # circle of p and q: the unpruned scan, on the same shuffled walk.
    unpruned = 0
    real = _circumcircle

    def counted(a, b, c):
        nonlocal unpruned
        unpruned += 1
        return real(a, b, c)

    monkeypatch.setitem(globals(), "_circumcircle", counted)
    rng = random.Random("sec prune")
    solved = 0
    for _ in range(5):
        pts = [Point(rng.random(), rng.random()) for _ in range(201)]
        expected = smallest_enclosing_circle(pts)
        got, count = _solves(geometry.smallest_enclosing_circle, pts)
        assert _bits(got) == _bits(expected)
        solved += count
    assert 0 < solved and 2 * solved <= unpruned
