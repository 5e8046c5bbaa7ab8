"""Derived snapshots against normalize.

After the first step of a run, each snapshot's configuration comes from
model.successor: the configuration before, with the counts of the robots
that moved carried over.  It must equal normalize of the new positions in
items, order and creating robots.  Every move the derivation cannot follow
falls back to normalize, and each of those fallbacks is exercised here.
"""

import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import gathersim.model as model
from gathersim.analysis import attach_lemma_monitors, random_robots
from gathersim.geometry import EPS, Point, points_coincide
from gathersim.model import normalize, successor
from gathersim.simulator import SCRIPTED, STRATEGIES, SchedulerSpec, run


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
    ],
)
def test_moves_that_keep_every_key_are_derived(before, after, normalize_calls):
    assert not _move(before, after, normalize_calls)


@pytest.mark.parametrize(
    "before, after",
    [
        pytest.param([A, A, B], [B, A, B], id="creator-leaves-while-members-stay"),
        pytest.param([A, B, B], [B, B, B], id="mover-joins-a-key-of-a-higher-creator"),
        pytest.param([A, B, C], [A, NEAR_A, C], id="mover-lands-within-eps-of-a-key"),
        pytest.param([A, B, C], [A, Point(2.0, 2.0), C], id="move-creates-a-new-key"),
        pytest.param([A, B, C], [B, A, C], id="movers-swap-keys"),
        pytest.param([A, B, C], [C, B, A], id="mover-lands-on-a-vacated-key"),
        pytest.param([C, A], [Point(-0.0, 1.0), A], id="creator-changes-the-sign-of-a-zero"),
    ],
)
def test_moves_that_change_the_keys_fall_back_to_normalize(before, after, normalize_calls):
    assert _move(before, after, normalize_calls)


# -- random move sequences -------------------------------------------------------

SITES = (A, B, C, Point(-0.0, 1.0), Point(1.0, 1.0))


def _spot():
    """Exact sites, points within eps of them, and points far from all."""
    exact = st.sampled_from(SITES)
    offset = st.floats(min_value=-0.6 * EPS, max_value=0.6 * EPS)
    near = st.builds(lambda p, dx, dy: Point(p.x + dx, p.y + dy), exact, offset, offset)
    far = st.builds(Point, st.floats(2.0, 3.0), st.floats(2.0, 3.0))
    return st.one_of(exact, near, far)


def _fallback_reasons(config, positions, moved):
    """Why successor must call normalize for this move; empty when it need not."""
    creators = config.clustering.creators
    reasons = set()
    for i in moved:
        new = positions[i]
        if new not in config.occupied:
            near = any(points_coincide(new, key) for key in config.occupied)
            reasons.add("lands within eps of a key" if near else "creates a new key")
        elif creators[new] > i or creators[new] in moved:
            reasons.add("joins a key of a higher or moving creator")
    stayed = {key: 0 for key in config.occupied}
    for i, p in enumerate(positions):
        if i not in moved:
            # A robot belongs to the first key within eps of it.
            stayed[next(key for key in config.occupied if points_coincide(p, key))] += 1
    for key, creator in creators.items():
        if creator in moved and stayed[key]:
            reasons.add("creator leaves while members stay")
    return reasons


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
        for reason in _fallback_reasons(config, after, moved) or {"derived"}:
            event(reason)
        config = successor(config, after, moved)
        _assert_is_normalize_of(config, after)
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
