"""Derived snapshots against normalize.

After the first step of a run, each snapshot's configuration comes from
model.successor: the configuration before, with the counts of the robots
that moved carried over.  It must equal normalize of the new positions in
items, order and creating robots.  Every move the derivation cannot follow
falls back to normalize, and each of those fallbacks is exercised here.
"""

import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import gathersim.model as model
from gathersim.analysis import attach_lemma_monitors, random_point_set, random_robots
from gathersim.cli import load_config
from gathersim.geometry import EPS, Point, PointGrid, dist, points_coincide
from gathersim.model import normalize, random_frame, successor
from gathersim.simulator import BOUNDARY_ONLY, GATHERED, SCRIPTED, STRATEGIES, Robot, SchedulerSpec, run


def _items(config):
    """Items in order, with the sign of zero kept: Point(-0.0, 0) == Point(0.0, 0)."""
    return [(p.x.hex(), p.y.hex(), count) for p, count in config.occupied.items()]


def _creators(config):
    return [(p.x.hex(), p.y.hex(), i) for p, i in config.clustering.creators.items()]


def _assert_is_normalize_of(config, positions):
    fresh = normalize(positions)
    assert _items(config) == _items(fresh)
    assert _creators(config) == _creators(fresh)


@pytest.fixture
def normalize_calls(monkeypatch):
    calls = []
    real_normalize = model.normalize

    def counting_normalize(positions):
        calls.append(positions)
        return real_normalize(positions)

    monkeypatch.setattr(model, "normalize", counting_normalize)
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_snapshot_of_a_monitored_run_equals_normalize(strategy, normalize_calls):
    checked = 0
    derived = 0

    def check(before, after):
        nonlocal checked
        _assert_is_normalize_of(after.config, [r.pos for r in after.robots])
        checked += 1
        return None

    monitors = dict(attach_lemma_monitors(), successor_check=check)
    for n in (3, 5, 7, 9):
        for seed in range(6):
            robots = random_robots(random.Random(f"successor:{n}:{seed}"), n)
            script = tuple((i,) for i in range(n)) if strategy == SCRIPTED else None
            spec = SchedulerSpec(strategy, seed=seed, script=script)
            steps_before = checked
            calls_before = len(normalize_calls)
            outcome, _ = run(robots, spec, max_steps=300, monitors=monitors)
            assert not outcome.monitor_violations
            assert checked - steps_before == outcome.final_t
            # Every step whose snapshot did not fall back was derived.
            derived += outcome.final_t - (len(normalize_calls) - calls_before)
    assert derived > 0


# -- single moves, one per path through successor --------------------------------

A, B, C = Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)
NEAR_A = Point(EPS / 2, 0.0)
BESIDE_A = Point(1.5 * EPS, 0.0)


def _move(before, after, normalize_calls):
    config = normalize(before)
    del normalize_calls[:]
    moved = {i: p for i, p in enumerate(before) if after[i] is not p}
    derived = successor(config, after, moved)
    _assert_is_normalize_of(derived, after)
    return bool(normalize_calls)


@pytest.mark.parametrize(
    "before, after",
    [
        pytest.param([A, B, B], [A, B, A], id="member-joins-a-lower-key"),
        pytest.param([A, B, B], [A, A, A], id="whole-key-leaves-with-its-creator"),
        pytest.param([A, NEAR_A, B], [A, A, B], id="member-off-its-key-leaves"),
        pytest.param([B, A, C], [B, A, B], id="last-member-of-a-later-key-leaves"),
        pytest.param([A, B, C], [B, A, C], id="movers-swap-keys"),
        pytest.param([A, B, C], [C, B, A], id="mover-lands-on-a-vacated-key"),
        pytest.param([A, B, C], [A, Point(0.5, 0.5), C], id="move-creates-a-new-key"),
        pytest.param([A, B, B], [B, B, B], id="mover-joins-a-key-of-a-higher-creator"),
        pytest.param([B, A, C, C], [B, Point(0.5, 0.5), C, A], id="new-keys-are-ranked-by-creator"),
    ],
)
def test_moves_that_keep_every_key_are_derived(before, after, normalize_calls):
    assert not _move(before, after, normalize_calls)


@pytest.mark.parametrize(
    "before, after",
    [
        pytest.param([A, A, B], [B, A, B], id="creator-leaves-while-members-stay"),
        pytest.param([A, B, C], [A, NEAR_A, C], id="mover-lands-within-eps-of-a-key"),
        pytest.param([A, B, C], [A, BESIDE_A, C], id="new-key-within-2-eps-of-a-key"),
        pytest.param([B, A, BESIDE_A], [A, A, BESIDE_A], id="re-ranked-key-within-2-eps-of-a-key"),
        pytest.param([A, C], [Point(-0.0, 1.0), C], id="re-rank-changes-the-sign-of-a-zero"),
        # The dropped key's entry stays in the grid, equal to the new point as
        # a Point: a lookup could not tell which bits the key has.
        pytest.param([C, A], [Point(-0.0, 1.0), A], id="creator-changes-the-sign-of-a-zero"),
        pytest.param([A, B, C], [A, Point(2.0, 2.0), C], id="new-key-beyond-the-grid-extent"),
    ],
)
def test_moves_that_change_the_keys_fall_back_to_normalize(before, after, normalize_calls):
    assert _move(before, after, normalize_calls)


def _entries(grid):
    """Every point the grid stores, dropped keys included."""
    return [p for cell in grid._cells.values() for p, _ in cell]


def test_the_grid_stops_growing_at_2n_entries(normalize_calls):
    # One robot, first at (1, 1): the grid's extent is 1 and n = 1.
    config = normalize([Point(1.0, 1.0)])
    sizes = []
    for old, new in ((Point(1.0, 1.0), Point(0.5, 0.5)), (Point(0.5, 0.5), Point(1.0, 1.0)),
                     (Point(1.0, 1.0), Point(0.25, 0.25))):
        config = successor(config, [new], {0: old})
        _assert_is_normalize_of(config, [new])
        sizes.append(len(_entries(config.clustering.grid)))
    # The first move adds an entry, the return finds (1, 1) still indexed,
    # and a third entry for one robot is refused: normalize builds a new grid.
    assert sizes == [2, 2, 1] and len(normalize_calls) == 1


# -- random move sequences -------------------------------------------------------

SITES = (A, B, C, Point(-0.0, 1.0), Point(1.0, 1.0), Point(1.0, -0.0), Point(1e-300, 0.0))


def _spot():
    """Exact sites, points within eps of them, points 1 to 2.5 eps from them, and points far from all."""
    exact = st.sampled_from(SITES)
    offset = st.floats(min_value=-0.6 * EPS, max_value=0.6 * EPS)
    near = st.builds(lambda p, dx, dy: Point(p.x + dx, p.y + dy), exact, offset, offset)
    ring = st.one_of(st.floats(-2.5 * EPS, -EPS), st.floats(EPS, 2.5 * EPS))
    beside = st.builds(lambda p, dx, dy: Point(p.x + dx, p.y + dy), exact, ring, st.one_of(ring, offset))
    far = st.builds(Point, st.floats(2.0, 3.0), st.floats(2.0, 3.0))
    return st.one_of(exact, near, beside, far)


def _bits(p):
    return p.x.hex(), p.y.hex()


def _fallback_reasons(config, positions, moved):
    """Why successor must call normalize for this move: the first reason it
    meets, with the movers removed and then landed in index order; empty
    when it derives the move."""
    grid, creators = config.clustering
    keys = list(config.occupied)
    left = dict(config.occupied)
    for old in moved.values():
        # A robot belongs to the first key within eps of it.
        left[next(key for key in keys if points_coincide(old, key))] -= 1
    if any(creators[key] in moved and left[key] for key in keys):
        return {"creator leaves while members stay"}
    live = {key: creators[key] for key in keys if creators[key] not in moved}
    size, added = len(_entries(grid)), []
    for i in sorted(moved):
        new = positions[i]
        if live.get(new, i) < i:
            continue  # joins a key of a lower creator
        if max(abs(new.x), abs(new.y)) > grid.largest:
            return {"new point beyond the grid's extent"}
        # A grid of the same extent has the same cells.
        others = PointGrid([Point(grid.largest, 0.0)], EPS)
        for key in live:
            if key != new:
                others.add(key, key)
        near = [key for key, _ in others.block(new)]
        if near:
            close = any(dist(new, key) <= 2 * EPS for key in near)
            return {"another live key within 2 eps" if close else "another live key in the block"}
        twins = [p for p in _entries(grid) + added if p == new]
        if any(_bits(p) != _bits(new) for p in twins):
            reason = "re-rank changes" if new in live else "a dropped key differs in"
            return {reason + " the sign of a zero"}
        if not twins:
            if size >= 2 * len(positions):
                return {"the grid holds 2n entries"}
            size += 1
            added.append(new)
        live[new] = i
    return set()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_move_sequences_equal_normalize(data):
    n = data.draw(st.integers(1, 8), label="n")
    positions = data.draw(st.lists(_spot(), min_size=n, max_size=n), label="start")
    config = normalize(positions)
    for _ in range(data.draw(st.integers(1, 6), label="moves")):
        movers = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="movers")
        after = list(positions)
        for i in sorted(movers):
            # Moving onto another robot's spot is the common case in a run.
            after[i] = data.draw(st.one_of(st.sampled_from(positions), _spot()))
        # Drawn movers may stay put, or change only the sign of a zero.
        moved = {i: positions[i] for i in sorted(movers)}
        reasons = _fallback_reasons(config, after, moved)
        event(" and ".join(sorted(reasons)) or "derived")
        with mock.patch.object(model, "normalize", wraps=model.normalize) as fresh:
            config = successor(config, after, moved)
        assert fresh.called == bool(reasons)
        _assert_is_normalize_of(config, after)
        # A lookup returns a key with its own bits.
        oracle = normalize(after)
        for q in after + list(SITES):
            assert repr(config.key_near(q)) == repr(oracle.key_near(q))
        assert len(_entries(config.clustering.grid)) <= 2 * n
        positions = after


def test_the_view_index_finds_the_first_key_within_eps():
    config = normalize([A, Point(1.5 * EPS, 0.0), B])
    assert config.key_near(Point(0.8 * EPS, 0.0)) == A
    assert config.key_near(Point(2.0 * EPS, 0.0)) == Point(1.5 * EPS, 0.0)
    assert config.key_near(Point(0.5, 0.0)) is None
    # A key that a derived configuration dropped is no longer found.
    derived = successor(config, [A, B, B], {1: Point(1.5 * EPS, 0.0)})
    assert list(derived.occupied) == [A, B]
    assert derived.key_near(Point(2.0 * EPS, 0.0)) is None
    assert derived.key_near(Point(0.8 * EPS, 0.0)) == A


# -- the index bound -------------------------------------------------------------


def _grid_sizes(robots, spec, max_steps, monitors):
    """The entries in the configuration's grid after every step of a run, and its outcome."""
    sizes = []

    def count(before, after):
        sizes.append(len(_entries(after.config.clustering.grid)))
        return None

    outcome, _ = run(robots, spec, max_steps=max_steps, monitors=dict(monitors, grid=count))
    assert outcome.final_t == len(sizes)
    return sizes, outcome


def test_the_two_cycle_keeps_its_grid_within_2n_entries():
    # Three robots that alternate between two configurations for 3000 steps
    # (ROADMAP item 9): dropped keys would pile up without the bound.
    config = load_config(str(Path(__file__).resolve().parent / "scenarios" / "two_cycle_1e8.json"))
    sizes, outcome = _grid_sizes(config.robots, config.scheduler, config.max_steps,
                                 attach_lemma_monitors(config.monitors))
    assert outcome.final_t == 3000
    assert max(sizes) == 2 * len(config.robots)


def test_a_boundary_adversary_run_keeps_its_grid_within_2n_entries():
    rng = random.Random("grid-bound:11")
    robots = [Robot(p, rng.uniform(0.05, 0.3), random_frame(rng)) for p in random_point_set(rng, 11)]
    sizes, outcome = _grid_sizes(robots, SchedulerSpec(BOUNDARY_ONLY, seed=3), None, attach_lemma_monitors())
    assert outcome.status == GATHERED and not outcome.monitor_violations
    assert max(sizes) <= 2 * len(robots)
    # Derived steps index new keys beside the dropped ones.
    assert max(sizes) > len(robots)
