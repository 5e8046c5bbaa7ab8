"""Oracle and monitor tests.

The monitor cases fabricate before/after states by hand, including physically
impossible ones (teleports), because the monitors' whole job is to notice
evolutions the protocol should never produce.  A monitor that only ever sees
legal runs is untested by definition.
"""

import math
import random
import warnings

import pytest

from gathersim.analysis import (
    MONITOR_RULES,
    attach_lemma_monitors,
    brute_force_sec,
    check_concave_sectors_occupied,
    check_hull_sector_equivalence,
    check_radius_decrease,
    check_sec_points_on_hull,
    even_livelock_demo,
    random_point_set,
    random_robots,
    run_sweep,
)
from gathersim.geometry import EPS, Point, dist, smallest_enclosing_circle
from gathersim.simulator import (
    FIXED_POINT,
    GATHERED,
    Robot,
    Snapshot,
)
from other_eps import at_eps


SQUARE = [Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]


def _transition(before_pts, after_pts):
    """Hand-built (before, after) snapshots; positions given as coordinate pairs."""
    n = len(before_pts)
    assert len(after_pts) == n
    before = Snapshot([Robot(Point(*p), 5.0) for p in before_pts])
    after = Snapshot([Robot(Point(*p), 5.0) for p in after_pts], 1, [0] * n)
    return before, after


def _check(name, transition):
    """The named monitor's message for the transition, or None."""
    return attach_lemma_monitors()[name](*transition)


# -- brute-force circle oracle ------------------------------------------------


def test_oracle_two_points():
    got = brute_force_sec([Point(0, 0), Point(2, 0)])
    assert dist(got.center, Point(1, 0)) <= 1e-12
    assert abs(got.radius - 1.0) <= 1e-12


def test_oracle_unit_square():
    got = brute_force_sec([Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)])
    assert dist(got.center, Point(0.5, 0.5)) <= 1e-12
    assert abs(got.radius - math.sqrt(2) / 2) <= 1e-12


def test_oracle_single_point():
    assert brute_force_sec([Point(3, 3)]) == (Point(3, 3), 0.0)


def test_oracle_input_limits():
    with pytest.raises(ValueError):
        brute_force_sec([])
    with pytest.raises(ValueError):
        brute_force_sec([Point(i, 0) for i in range(16)])
    with pytest.raises(ValueError):
        brute_force_sec([Point(0, 0), Point(0, 0)])


def test_oracle_agrees_with_fast_implementation():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(150):
        pts = random_point_set(rng, rng.randint(3, 12))
        fast = smallest_enclosing_circle(pts)
        slow = brute_force_sec(pts)
        worst = max(worst, dist(fast.center, slow.center), abs(fast.radius - slow.radius))
    assert worst <= 1e-9, f"worst oracle deviation {worst}"


# -- radius shrink check ------------------------------------------------------


def test_radius_decrease_equilateral_halves():
    tri = [Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2)]
    assert check_radius_decrease(tri, 0.5)
    # pulling every vertex halfway to the center is a similarity with ratio
    # one half, so the new radius must be exactly half the old
    before = smallest_enclosing_circle(tri)
    cx, cy = before.center
    moved = [Point(p.x + 0.5 * (cx - p.x), p.y + 0.5 * (cy - p.y)) for p in tri]
    after = smallest_enclosing_circle(moved)
    assert abs(after.radius - before.radius / 2) <= 1e-12


def test_radius_decrease_two_points_collapse():
    assert check_radius_decrease([Point(0, 0), Point(4, 0)], 1.0)


def test_radius_decrease_square_with_center():
    pts = SQUARE + [Point(0, 0)]
    assert check_radius_decrease(pts, 0.25)


def test_radius_decrease_validates_inputs():
    pts = [Point(0, 0), Point(1, 0)]
    with pytest.raises(ValueError):
        check_radius_decrease(pts, 0.0)
    with pytest.raises(ValueError):
        check_radius_decrease(pts, 1.5)
    with pytest.raises(ValueError):
        check_radius_decrease([Point(1, 1), Point(1, 1)], 0.5)


def test_radius_decrease_random_sets():
    rng = random.Random(33)
    for _ in range(60):
        pts = random_point_set(rng, rng.randint(2, 10))
        for lam in (0.1, 0.5, 1.0):
            assert check_radius_decrease(pts, lam)


# -- sector occupancy around the circle center --------------------------------


def test_concave_sectors_random_sets_pass():
    rng = random.Random(55)
    for _ in range(60):
        assert check_concave_sectors_occupied(random_point_set(rng, 5)) is None


def test_concave_sectors_obtuse_triangle():
    # The circle through all three corners is NOT the smallest enclosing one;
    # the check runs against the true two-point circle and must still pass.
    pts = [Point(0, 0), Point(4, 0), Point(1, 1)]
    sec = smallest_enclosing_circle(pts)
    assert dist(sec.center, Point(2, 0)) <= 1e-12
    assert check_concave_sectors_occupied(pts) is None


def test_concave_sectors_collinear_pair_vacuous():
    assert check_concave_sectors_occupied([Point(0, 0), Point(2, 0)]) is None


def test_concave_sectors_degenerate_and_small_inputs():
    assert check_concave_sectors_occupied([Point(0, 0), Point(0, 5e-10)]) is None
    with pytest.raises(ValueError):
        check_concave_sectors_occupied([Point(0, 0)])


# -- hull membership vs. empty wide sectors -----------------------------------


def test_hull_equivalence_triangle_probes():
    tri = [Point(0, 0), Point(4, 0), Point(0, 4)]
    assert check_hull_sector_equivalence(tri, Point(2, 0))   # edge midpoint
    assert check_hull_sector_equivalence(tri, Point(4 / 3, 4 / 3))  # centroid
    assert check_hull_sector_equivalence(tri, Point(0, 0))   # vertex


def test_hull_equivalence_random_probes():
    rng = random.Random(77)
    for _ in range(40):
        pts = random_point_set(rng, rng.randint(3, 8))
        hull = smallest_enclosing_circle(pts)  # center is inside the hull
        assert check_hull_sector_equivalence(pts, hull.center)
        assert check_hull_sector_equivalence(pts, pts[0])


def test_hull_equivalence_rejects_collinear():
    with pytest.raises(ValueError):
        check_hull_sector_equivalence([Point(0, 0), Point(1, 0), Point(2, 0)], Point(1, 0))


# -- circle points lie on the hull --------------------------------------------


def test_sec_points_on_hull_examples():
    assert check_sec_points_on_hull(SQUARE + [Point(0, 0)])
    assert check_sec_points_on_hull([Point(0, 0), Point(2, 0), Point(4, 0)])


def test_sec_points_on_hull_random():
    rng = random.Random(88)
    for _ in range(60):
        assert check_sec_points_on_hull(random_point_set(rng, 8))


# -- monitors against fabricated transitions ----------------------------------


def test_closure_monitor_catches_split():
    tr = _transition([(0, 0)] * 3, [(0, 0), (0, 0), (1, 0)])
    assert _check("closure", tr) == "gathering point split into 2 points"


def test_closure_monitor_catches_drift():
    tr = _transition([(0, 0)] * 3, [(5, 5)] * 3)
    assert "drifted" in _check("closure", tr)


def test_closure_monitor_silent_when_stable():
    tr = _transition([(0, 0)] * 3, [(0, 0)] * 3)
    assert _check("closure", tr) is None


def test_unique_max_monitor_catches_move():
    tr = _transition([(0, 0), (0, 0), (1, 0)], [(0, 0), (1, 0), (1, 0)])
    assert "moved" in _check("unique_max_persistence", tr)


def test_unique_max_monitor_catches_escalation():
    tr = _transition([(0, 0), (0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)])
    assert "gave way" in _check("unique_max_persistence", tr)


def test_unique_max_monitor_silent_on_growth():
    tr = _transition([(0, 0), (0, 0), (1, 0)], [(0, 0), (0, 0), (0, 0)])
    assert _check("unique_max_persistence", tr) is None


def test_two_max_monitor_catches_escalation():
    before = [(0, 0), (0, 0), (1, 0), (1, 0), (2, 0)]
    after = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    assert "escalated" in _check("two_max_no_escalation", tr := _transition(before, after))
    assert tr[1].config.maxima != tr[0].config.maxima


def test_two_max_monitor_allows_resolution_to_one():
    before = [(0, 0), (0, 0), (1, 0), (1, 0), (2, 0)]
    after = [(0, 0), (0, 0), (0, 0), (1, 0), (2, 0)]
    assert _check("two_max_no_escalation", _transition(before, after)) is None


def test_inside_monitor_catches_escape_to_rim():
    rim = (math.cos(0.5), math.sin(0.5))
    before = [(1, 0), (0, 1), (-1, 0), (0, -1), (0.2, 0.1)]
    after = [(1, 0), (0, 1), (-1, 0), (0, -1), rim]
    assert "strictly inside" in _check("inside_stays_inside", _transition(before, after))


def test_inside_monitor_silent_for_interior_motion():
    before = [(1, 0), (0, 1), (-1, 0), (0, -1), (0.2, 0.1)]
    after = [(1, 0), (0, 1), (-1, 0), (0, -1), (0.1, 0.05)]
    assert _check("inside_stays_inside", _transition(before, after)) is None


def test_center_containment_monitor_fires_when_center_reaches_rim():
    # All four rim robots bolt to one far point, none arriving at the old
    # center; the old center lands exactly on the new circle's rim.
    before = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
    after = [(2, 0), (2, 0), (2, 0), (2, 0), (0, 0)]
    assert "not strictly inside" in _check("center_containment", _transition(before, after))


def test_center_containment_monitor_silent_on_contraction():
    before = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
    after = [(0.5, 0), (0, 0.5), (-0.5, 0), (0, -0.5), (0, 0)]
    assert _check("center_containment", _transition(before, after)) is None


def test_center_containment_monitor_skips_when_a_point_fully_arrives():
    # The lone robot on (1,0) arrives at the center, so the lemma's second
    # hypothesis fails and the monitor must not judge this step.
    before = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
    after = [(0, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
    assert _check("center_containment", _transition(before, after)) is None


def test_radius_monitor_catches_growth():
    before = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    after = [(3, 0), (0, 1), (-1, 0), (0, -1)]
    assert "grew" in _check("radius_progress", _transition(before, after))


def test_radius_monitor_catches_vacated_rim_without_shrink():
    # Everyone leaves the old rim, yet the set is just the same circle
    # shifted: the radius did not drop, which the shrink lemma forbids.
    before = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    after = [(1.3, 0), (-0.7, 0), (0.3, 1), (0.3, -1)]
    assert "vacated" in _check("radius_progress", _transition(before, after))


def test_radius_monitor_silent_on_contraction():
    before = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    after = [(0.5, 0), (0, 0.5), (-0.5, 0), (0, -0.5)]
    assert _check("radius_progress", _transition(before, after)) is None


def test_careful_separation_monitor_catches_merge_off_maximum():
    before = [(0, 0), (0, 0), (4, 0), (6, 0)]
    after = [(0, 0), (0, 0), (5, 0), (5, 0)]
    assert "merged" in _check("careful_separation", _transition(before, after))


def test_careful_separation_monitor_reports_the_first_pair():
    # Robots 2+5 and 3+4 merge off the unique maximum at (0, 0); (2, 5) comes
    # first in (i, j) order although (3, 4) has the smaller j.
    before = [(0, 0), (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    after = [(0, 0), (0, 0), (1, 0), (2, 0), (2, 0), (1, 0)]
    assert _check("careful_separation", _transition(before, after)) == (
        "robots 2 and 5 merged at Point(x=1, y=0), which is not a maximum point"
    )


def test_careful_separation_monitor_allows_merge_at_maximum():
    before = [(0, 0), (0, 0), (4, 0), (6, 0)]
    after = [(0, 0), (0, 0), (0, 0), (0, 0)]
    assert _check("careful_separation", _transition(before, after)) is None


def test_attach_lemma_monitors_battery_and_toggles():
    battery = attach_lemma_monitors()
    assert battery == MONITOR_RULES and battery is not MONITOR_RULES
    assert len(battery) == 7
    trimmed = attach_lemma_monitors({"closure": False})
    assert list(trimmed) == [n for n in battery if n != "closure"]
    with pytest.raises(ValueError):
        attach_lemma_monitors({"psychic": True})


# -- randomized harnesses -----------------------------------------------------


def _reference_random_point_set(rng, k, eps):
    min_sep = 10.0 * eps
    pts = []
    while len(pts) < k:
        cand = Point(rng.random(), rng.random())
        if all(dist(cand, p) > min_sep for p in pts):
            pts.append(cand)
    return pts


@pytest.mark.parametrize("seed, k, eps", [(5, 12, 1e-9), (1, 201, 1e-9), (2, 30, 0.01), (3, 8, 0.03)])
def test_random_point_set_makes_the_draws_it_always_made(seed, k, eps):
    # The coarse spacings make rejections common enough to exercise the resampling.
    rng, ref = random.Random(seed), random.Random(seed)
    with at_eps(eps):
        got = random_point_set(rng, k)
    assert got == _reference_random_point_set(ref, k, eps)
    assert rng.getstate() == ref.getstate()


def test_random_point_set_spacing():
    rng = random.Random(5)
    pts = random_point_set(rng, 12)
    assert len(pts) == 12
    assert all(0.0 <= p.x <= 1.0 and 0.0 <= p.y <= 1.0 for p in pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert dist(pts[i], pts[j]) > 10 * EPS


def test_random_robots_shape():
    rng = random.Random(6)
    for n in (1, 4, 9):
        bots = random_robots(rng, n)
        assert len(bots) == n
        assert all(0.1 <= b.sigma <= 2.0 for b in bots)
    with pytest.raises(ValueError):
        random_robots(rng, 0)


def test_run_sweep_deterministic_and_clean():
    first = run_sweep(3, 5, seed=1, strategy="synchronous")
    second = run_sweep(3, 5, seed=1, strategy="synchronous")
    assert first == second
    summary, records = first
    assert summary.runs == 5
    assert summary.gathered == 5
    assert summary.step_limit == 0
    assert all(count == 0 for count in summary.violations.values())
    assert [r["run"] for r in records] == list(range(5))
    assert all(r["status"] == GATHERED for r in records)
    assert all(r["violations"] == {} for r in records)


def test_run_sweep_validates_runs():
    with pytest.raises(ValueError):
        run_sweep(3, 0, seed=1, strategy="synchronous")


def test_run_sweep_counts_only_step_limits_as_step_limits():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        summary, records = run_sweep(2, 10, seed=0, strategy="synchronous")
    statuses = [r["status"] for r in records]
    assert statuses.count(FIXED_POINT) == 5
    assert statuses.count(GATHERED) == summary.gathered == 5
    assert summary.step_limit == 0


# -- the even-count witness ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_even_livelock_never_gathers(n):
    # Every robot wakes in the first synchronous step and stays, so the
    # configuration is a fixed point after one step.
    outcome = even_livelock_demo(n)
    assert outcome.status == FIXED_POINT
    assert outcome.final_t == 1
    assert outcome.monitor_violations == []
    assert sorted(outcome.final_config.occupied.values()) == [n // 2, n // 2]


def test_even_livelock_validates_inputs():
    with pytest.raises(ValueError):
        even_livelock_demo(3)
    with pytest.raises(ValueError):
        even_livelock_demo(0)
