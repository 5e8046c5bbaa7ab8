"""Configuration, view and frame tests.

A frame is centred on its robot, so every map is ego_images from some
robot's position, and to_global is the map back that it returns.  The frame
examples are chosen so the expected locals are exact in binary
(axis-aligned rotations, power-of-two scales); round trips through arbitrary
frames only get the shared 1e-9 budget.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gathersim.geometry import Point, dist
from gathersim.model import (
    Configuration,
    Frame,
    ego_images,
    max_points,
    normalize,
    observe,
    random_frame,
)

ORIGIN = Point(0.0, 0.0)


def _frames():
    return st.builds(
        Frame,
        rotation=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        reflected=st.booleans(),
    )


def to_global(frame, pos, q):
    """The global point whose image in the frame of a robot at pos is q."""
    return ego_images(frame, pos, [])[1](q)


def to_local(frame, pos, p):
    """The image of p in the frame of a robot at pos, written out plainly:
    scale * R * M applied to p, less the same applied to pos."""
    c, s = math.cos(frame.rotation), math.sin(frame.rotation)
    px, py, ox, oy = p.x, p.y, pos.x, pos.y
    if frame.reflected:
        py, oy = -py, -oy
    lx, ly = frame.scale * (c * ox - s * oy), frame.scale * (s * ox + c * oy)
    return Point(frame.scale * (c * px - s * py) + -lx, frame.scale * (s * px + c * py) + -ly)


def _coords():
    return st.floats(min_value=-30.0, max_value=30.0, allow_nan=False, width=64)


def _keys_separated(occupied, min_sep=1e-6):
    pts = list(occupied)
    return all(
        dist(pts[i], pts[j]) > min_sep
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )


# -- configurations -----------------------------------------------------------


def test_configuration_counts_and_gathered():
    cfg = Configuration({Point(0, 0): 3, Point(1, 1): 2})
    assert sum(cfg.occupied.values()) == 5
    assert not cfg.is_gathered()
    assert Configuration({Point(2, 2): 4}).is_gathered()


def test_configuration_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        Configuration({})
    with pytest.raises(ValueError):
        Configuration({Point(0, 0): 0})


def test_max_points_unique_maximum():
    assert max_points({Point(0, 0): 3, Point(1, 1): 2}) == [Point(0, 0)]


def test_max_points_tie():
    got = max_points({Point(0, 0): 2, Point(1, 1): 2, Point(2, 2): 1})
    assert got == [Point(0, 0), Point(1, 1)]


def test_max_points_all_equal():
    occupied = {Point(0, 0): 1, Point(1, 0): 1, Point(0, 1) : 1}
    assert max_points(occupied) == sorted(occupied)


def test_max_points_requires_counts():
    with pytest.raises(ValueError):
        max_points({})


# -- frames -------------------------------------------------------------------


def test_frame_scale_validation():
    with pytest.raises(ValueError):
        Frame(scale=0.0)
    with pytest.raises(ValueError):
        Frame(scale=-2.0)
    with pytest.raises(ValueError):
        Frame(scale=math.inf)


@pytest.mark.parametrize("rotation", [math.inf, -math.inf, math.nan])
def test_frame_rotation_must_be_finite(rotation):
    # math.cos would raise mid-run on an infinite angle, and a NaN one would
    # make every image NaN in silence.
    with pytest.raises(ValueError, match="rotation"):
        Frame(rotation=rotation)


def test_frame_has_no_origin():
    assert [f.name for f in dataclasses.fields(Frame)] == ["rotation", "scale", "reflected"]


def test_to_global_identity():
    assert to_global(Frame(), ORIGIN, Point(3, 4)) == Point(3, 4)


def test_to_global_undoes_scale():
    frame = Frame(scale=2.0)
    assert to_global(frame, ORIGIN, Point(2, 0)) == Point(1, 0)


def test_to_global_undoes_reflection():
    frame = Frame(reflected=True)
    assert to_global(frame, ORIGIN, Point(0, 1)) == Point(0, -1)


@settings(max_examples=300)
@given(_frames(), st.tuples(_coords(), _coords()), st.tuples(_coords(), _coords()))
def test_frame_round_trip(frame, raw, own):
    p, pos = Point(*raw), Point(*own)
    q = to_global(frame, pos, Point(*ego_images(frame, pos, [p])[0][0]))
    assert dist(p, q) <= 1e-9 * max(1.0, abs(p.x), abs(p.y), abs(pos.x), abs(pos.y))


@settings(max_examples=200)
@given(_frames(), st.tuples(_coords(), _coords()))
def test_ego_frame_puts_self_at_exact_origin(frame, raw):
    # The robot's own image is (0.0, 0.0), bit for bit, zeros of either sign included.
    pos = Point(*raw)
    ((x, y),) = ego_images(frame, pos, [pos])[0]
    assert (x.hex(), y.hex()) == ((0.0).hex(), (0.0).hex())


def test_random_frame_ranges():
    rng = random.Random(3)
    for _ in range(50):
        f = random_frame(rng)
        assert 0.0 <= f.rotation < math.tau
        assert 0.5 <= f.scale <= 2.0
        assert isinstance(f.reflected, bool)


def test_random_frame_draws_as_many_numbers_as_before():
    # Two draws once made an origin; they are made and dropped, so seeded streams are unchanged.
    rng, replay = random.Random(11), random.Random(11)
    frame = random_frame(rng)
    rotation, scale, _, _, flip = (replay.uniform(0.0, math.tau), replay.uniform(0.5, 2.0),
                                   replay.uniform(-3.0, 3.0), replay.uniform(-3.0, 3.0), replay.random())
    assert frame == Frame(rotation, scale, flip < 0.5)
    assert rng.random() == replay.random()


# -- observation --------------------------------------------------------------


def test_observe_identity_strong():
    view = observe(Configuration({Point(0, 0): 3}), Frame(), ORIGIN)
    assert isinstance(view, Configuration)
    assert view.occupied == {Point(0, 0): 3}


def test_observe_quarter_turn():
    view = observe(Configuration({Point(1, 0): 2}), Frame(rotation=math.pi / 2), ORIGIN)
    ((q, count),) = view.occupied.items()
    assert count == 2
    assert dist(q, Point(0, 1)) <= 1e-9


def test_observe_centres_the_view_on_the_robot():
    view = observe(Configuration({Point(3, 4): 1, Point(5, 4): 2}), Frame(scale=2.0), Point(3, 4))
    assert view.occupied == {Point(0, 0): 1, Point(4, 0): 2}


@settings(max_examples=150)
@given(
    _frames(),
    st.lists(st.tuples(_coords(), _coords()).map(lambda t: Point(*t)), min_size=1, max_size=12, unique=True),
    st.tuples(_coords(), _coords()),
)
def test_observe_maps_every_point_exactly_as_to_local(frame, pts, own):
    pos = Point(*own)
    config = Configuration({p: k + 1 for k, p in enumerate(pts)})
    expected = {}
    for p, count in config.occupied.items():
        q = to_local(frame, pos, p)
        expected[q] = expected.get(q, 0) + count
    assert [Point(*q) for q in ego_images(frame, pos, config.occupied)[0]] == [to_local(frame, pos, p) for p in pts]
    assert list(observe(config, frame, pos).occupied.items()) == list(expected.items())


def test_observe_adds_the_counts_of_points_that_map_to_one_local_point():
    # Two keys one ulp apart at 1e8 round to one local point in this frame.
    config = normalize(
        [Point(1e8, 0.0), Point(math.nextafter(1e8, math.inf), 0.0), Point(0.0, 0.0), Point(0.0, 0.0)]
    )
    assert config.occupied == {Point(1e8, 0.0): 1, Point(math.nextafter(1e8, math.inf), 0.0): 1, Point(0.0, 0.0): 2}
    view = observe(config, Frame(rotation=4.5220379111216165, scale=0.8277059073373241), ORIGIN)
    assert len(view.occupied) == 2
    assert sum(view.occupied.values()) == 4


@settings(max_examples=150)
@given(
    st.dictionaries(
        st.tuples(_coords(), _coords()).map(lambda t: Point(*t)),
        st.integers(min_value=1, max_value=5),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=2**30),
)
def test_view_equivariance(raw_occupied, seed):
    """Mapping a strong view back through to_global recovers the configuration.

    Only well-formed configurations qualify: keys closer than the coincidence
    tolerance would have been merged by normalize and can alias after the
    round trip, so the strategy keeps them clearly separated.  The view is
    taken from the first occupied point.
    """
    assume(_keys_separated(raw_occupied))
    cfg = Configuration(raw_occupied)
    frame, pos = random_frame(random.Random(seed)), next(iter(raw_occupied))
    view = observe(cfg, frame, pos)
    assert sum(view.occupied.values()) == sum(cfg.occupied.values())
    recovered = {to_global(frame, pos, q): count for q, count in view.occupied.items()}
    assert len(recovered) == len(cfg.occupied)
    for p, count in cfg.occupied.items():
        match = [g for g in recovered if dist(g, p) <= 1e-9 * max(1.0, abs(p.x), abs(p.y), abs(pos.x), abs(pos.y))]
        assert len(match) == 1
        assert recovered[match[0]] == count


@settings(max_examples=150)
@given(
    st.dictionaries(
        st.tuples(_coords(), _coords()).map(lambda t: Point(*t)),
        st.integers(min_value=1, max_value=4),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=2**30),
)
def test_max_points_frame_invariant(raw_occupied, seed):
    assume(_keys_separated(raw_occupied))
    cfg = Configuration(raw_occupied)
    frame, pos = random_frame(random.Random(seed)), next(iter(raw_occupied))
    view = observe(cfg, frame, pos)
    local_max = max_points(view.occupied)
    global_max = max_points(cfg.occupied)
    back = [to_global(frame, pos, q) for q in local_max]
    assert len(back) == len(global_max)
    for g in back:
        assert any(dist(g, p) <= 1e-8 * max(1.0, abs(p.x), abs(p.y), abs(pos.x), abs(pos.y)) for p in global_max)


# -- normalize ----------------------------------------------------------------


def test_normalize_exact_duplicates():
    cfg = normalize([Point(0, 0), Point(0, 0), Point(1, 0)])
    assert cfg.occupied == {Point(0, 0): 2, Point(1, 0): 1}


def test_normalize_merges_below_eps():
    cfg = normalize([Point(0, 0), Point(0, 5e-10)])
    assert cfg.occupied == {Point(0, 0): 2}


def test_normalize_distinct_points_stay_apart():
    cfg = normalize([Point(0, 0), Point(1, 0), Point(2, 0)])
    assert cfg.occupied == {Point(0, 0): 1, Point(1, 0): 1, Point(2, 0): 1}


def test_normalize_representative_is_first_encountered():
    cfg = normalize([Point(1e-10, 0), Point(0, 0)])
    assert cfg.occupied == {Point(1e-10, 0): 2}


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(_coords(), _coords()).map(lambda t: Point(*t)), min_size=1, max_size=20
    )
)
def test_normalize_conserves_robot_count(raw):
    assert sum(normalize(raw).occupied.values()) == len(raw)
