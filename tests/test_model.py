"""Configuration, view and frame tests.

The frame examples are chosen so the expected locals are exact in binary
(axis-aligned rotations, power-of-two scales); round trips through arbitrary
frames only get the shared 1e-9 budget.
"""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gathersim.geometry import Point, dist
from gathersim.model import (
    Configuration,
    Frame,
    ego_frame,
    max_points,
    normalize,
    observe,
    random_frame,
    to_global,
    to_local,
)



def _frames():
    return st.builds(
        Frame,
        rotation=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        translation=st.tuples(
            st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
            st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        ),
        reflected=st.booleans(),
    )


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


def test_to_global_identity():
    assert to_global(Frame(), Point(3, 4)) == Point(3, 4)


def test_to_global_undoes_scale():
    frame = Frame(scale=2.0)
    assert to_global(frame, Point(2, 0)) == Point(1, 0)


def test_to_global_undoes_reflection():
    frame = Frame(reflected=True)
    assert to_global(frame, Point(0, 1)) == Point(0, -1)


def test_translation_applies_after_linear_part():
    frame = Frame(scale=2.0, translation=(10.0, -1.0))
    assert to_local(frame, Point(3, 4)) == Point(16.0, 7.0)
    assert to_global(frame, Point(16.0, 7.0)) == Point(3, 4)


@settings(max_examples=300)
@given(_frames(), st.tuples(_coords(), _coords()))
def test_frame_round_trip(frame, raw):
    p = Point(*raw)
    q = to_global(frame, to_local(frame, p))
    assert dist(p, q) <= 1e-9 * max(1.0, abs(p.x), abs(p.y))


@settings(max_examples=200)
@given(_frames(), st.tuples(_coords(), _coords()))
def test_ego_frame_puts_self_at_exact_origin(frame, raw):
    pos = Point(*raw)
    ego = ego_frame(frame, pos)
    assert to_local(ego, pos) == Point(0.0, 0.0)
    assert (ego.rotation, ego.scale, ego.reflected) == (
        frame.rotation,
        frame.scale,
        frame.reflected,
    )


def test_random_frame_ranges():
    rng = random.Random(3)
    for _ in range(50):
        f = random_frame(rng)
        assert 0.0 <= f.rotation < math.tau
        assert 0.5 <= f.scale <= 2.0
        assert all(-3.0 <= t <= 3.0 for t in f.translation)
        assert isinstance(f.reflected, bool)


# -- observation --------------------------------------------------------------


def test_observe_identity_strong():
    view = observe(Configuration({Point(0, 0): 3}), Frame())
    assert isinstance(view, Configuration)
    assert view.occupied == {Point(0, 0): 3}


def test_observe_quarter_turn():
    view = observe(Configuration({Point(1, 0): 2}), Frame(rotation=math.pi / 2))
    ((q, count),) = view.occupied.items()
    assert count == 2
    assert dist(q, Point(0, 1)) <= 1e-9


@settings(max_examples=150)
@given(
    _frames(),
    st.lists(st.tuples(_coords(), _coords()).map(lambda t: Point(*t)), min_size=1, max_size=12, unique=True),
)
def test_observe_maps_every_point_exactly_as_to_local(frame, pts):
    config = Configuration({p: k + 1 for k, p in enumerate(pts)})
    expected = {}
    for p, count in config.occupied.items():
        q = to_local(frame, p)
        expected[q] = expected.get(q, 0) + count
    assert list(observe(config, frame).occupied.items()) == list(expected.items())


def test_observe_adds_the_counts_of_points_that_map_to_one_local_point():
    # Two keys one ulp apart at 1e8 round to one local point in this frame.
    config = normalize(
        [Point(1e8, 0.0), Point(math.nextafter(1e8, math.inf), 0.0), Point(0.0, 0.0), Point(0.0, 0.0)]
    )
    assert config.occupied == {Point(1e8, 0.0): 1, Point(math.nextafter(1e8, math.inf), 0.0): 1, Point(0.0, 0.0): 2}
    frame = ego_frame(Frame(rotation=4.5220379111216165, scale=0.8277059073373241), Point(0.0, 0.0))
    view = observe(config, frame)
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
    round trip, so the strategy keeps them clearly separated.
    """
    assume(_keys_separated(raw_occupied))
    cfg = Configuration(raw_occupied)
    frame = random_frame(random.Random(seed))
    view = observe(cfg, frame)
    assert sum(view.occupied.values()) == sum(cfg.occupied.values())
    recovered = {to_global(frame, q): count for q, count in view.occupied.items()}
    assert len(recovered) == len(cfg.occupied)
    for p, count in cfg.occupied.items():
        match = [g for g in recovered if dist(g, p) <= 1e-9 * max(1.0, abs(p.x), abs(p.y))]
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
    frame = random_frame(random.Random(seed))
    view = observe(cfg, frame)
    local_max = max_points(view.occupied)
    global_max = max_points(cfg.occupied)
    back = [to_global(frame, q) for q in local_max]
    assert len(back) == len(global_max)
    for g in back:
        assert any(dist(g, p) <= 1e-8 * max(1.0, abs(p.x), abs(p.y)) for p in global_max)


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
