"""The flat-float SEC kernel against the object-based construction it replaced.

smallest_enclosing_circle once built a Point and a Circle for every
candidate and called small helpers for distance, enclosure, orientation and
circumcircle.  Those functions are kept here, verbatim, as the oracle: the
kernel must return the same center and radius, bit for bit, for every input
family below and every ordering of the input, and must refuse duplicates with
the same message.  classify_branch inlines the on_circle test for its
boundary split; the last tests hold it to on_circle itself.
"""

import math
import random
import struct
import zlib
from typing import Iterable, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gathersim import geometry
from gathersim.geometry import Circle, Point, on_circle
from gathersim.protocol import classify_branch
from other_eps import at_eps

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


FAMILIES = {
    "uniform": uniform_sets(),
    "cocircular": cocircular_sets(),
    "collinear": collinear_sets(),
    "grid": grid_sets(),
    "cluster": cluster_sets(),
    "huge": huge_sets(),
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
    return [(rng.uniform(-1e300, 1e300), rng.uniform(-1e300, 1e300)) for _ in range(min(n, 12))]


# -- the kernel against the oracle -------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_oracle_bit_for_bit(family, data):
    pts = data.draw(FAMILIES[family])
    expected = _bits(smallest_enclosing_circle(pts))
    assert _bits(geometry.smallest_enclosing_circle(pts)) == expected
    permuted = data.draw(st.permutations(pts))
    assert _bits(geometry.smallest_enclosing_circle(permuted)) == expected


def test_kernel_matches_oracle_on_a_seeded_sweep():
    rng = random.Random("sec-kernel")
    families = ("uniform", "cocircular", "collinear", "grid", "cluster", "huge")
    for index in range(360):
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
        # Two different repeated points: the first repeat in input order is named.
        [Point(3.0, 3.0), Point(1.0, 1.0), Point(1.0, 1.0), Point(3.0, 3.0)],
        [Point(3.0, 3.0), Point(1.0, 1.0), Point(3.0, 3.0), Point(1.0, 1.0)],
    ],
)
def test_duplicates_are_refused_with_the_oracle_message(pts):
    with pytest.raises(ValueError) as expected:
        smallest_enclosing_circle(pts)
    with pytest.raises(ValueError) as got:
        geometry.smallest_enclosing_circle(pts)
    assert str(got.value) == str(expected.value)


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


# -- classify_branch's inlined boundary test ------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    pts=st.one_of(uniform_sets(), cocircular_sets(), grid_sets(), cluster_sets()),
    eps=st.sampled_from((0.0, 5e-324, 1e-12, 1e-9, 1e-3, 0.5)),
)
def test_boundary_split_is_the_on_circle_split(pts, eps):
    if len(pts) < 3:
        pts = pts + [Point(1e4, 1e4), Point(-1e4, 1e4), Point(0.0, -1e4)][: 3 - len(pts)]
    occupied = {p: 1 for p in pts}
    with at_eps(eps):
        info = classify_branch(occupied)
        assert info.sec == geometry.smallest_enclosing_circle(pts)
        assert info.boundary == tuple(p for p in pts if on_circle(p, info.sec))
        assert info.interior == tuple(p for p in pts if not on_circle(p, info.sec))
