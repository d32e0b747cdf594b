"""Covers and control: components, Lebesgue numbers, coset closures, pullbacks."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from wreathdim import (
    BudgetExceededError,
    CyclicGroup,
    GroupWindowView,
    IntegerGroup,
    LengthOracle,
    StructureError,
    VirtuallyZStructure,
    WreathContext,
    ball,
    ball_window,
    component_diameters,
    coset_cover,
    cover_of,
    default_setup,
    growth_linear_bound,
    kernel_control_bound,
    kernel_window,
    lebesgue_ok,
    max_diameter,
    pullback_cover,
    r_components,
    vz_closure_constant,
)


def line_view(n=10):
    return GroupWindowView(IntegerGroup(), range(n))


# -- group windows ------------------------------------------------------------


def test_explicit_view_distances():
    view = line_view()
    assert view.dist(2, 7) == 5
    assert view.dist(7, 2) == 5
    assert view.dist(2, 2) == 0


def test_group_window_view_matches_word_metric(lamplighter, oracle_lamplighter):
    window = oracle_lamplighter.ball(4).elements
    view = GroupWindowView(lamplighter, window, oracle_lamplighter)
    for x in window[:6]:
        for y in window[:6]:
            assert view.dist(x, y) == oracle_lamplighter.distance(x, y)
            assert view.dist(x, y) == view.dist(y, x)


def test_group_window_view_takes_an_oracle_of_an_equal_spec_group():
    setup = default_setup()
    L2, W2 = setup.wreaths["L2"], setup.wreaths["W2"]
    oracle = LengthOracle(L2)
    fresh = WreathContext(CyclicGroup(2), IntegerGroup())
    assert fresh is not L2
    window = oracle.ball(4).elements
    view = GroupWindowView(fresh, window, oracle)
    reference = GroupWindowView(L2, window, oracle)
    for x in window[:6]:
        assert view.dists_from(x, window) == reference.dists_from(x, window)
    with pytest.raises(StructureError, match="different marked group"):
        GroupWindowView(fresh, window, LengthOracle(W2))


def test_window_rows_of_distances_equal_single_distances(lamplighter):
    oracle = LengthOracle(lamplighter)
    views = [
        GroupWindowView(lamplighter, kernel_window(lamplighter, 6, oracle=oracle), oracle),
        ball_window(oracle, 3),
    ]
    for view in views:
        for a in view.points:
            row = view.dists_from(a, view.points)
            assert row == [view.dist(a, b) for b in view.points]
            assert row == [oracle.distance(a, b) for b in view.points]
    line = line_view()
    assert line.dists_from(3, (0, 3, 9)) == [3, 0, 6]


# -- components ----------------------------------------------------------------


def test_ball_window_prefills_every_pair_distance(lamplighter, searched_levels, monkeypatch):
    oracle = LengthOracle(lamplighter)
    searches = []
    search = LengthOracle.search

    def recording_search(self, r):
        searches.append(r)
        return search(self, r)

    monkeypatch.setattr(LengthOracle, "search", recording_search)
    view = ball_window(oracle, Fraction(5, 2))
    # window points have length <= 2, so pairs reach distance 4: one search of
    # the radius-5 ball holds every pair, a radius-4 ball (lengths <= 3) would not.
    assert searches == [5]
    assert searched_levels == [1, 2, 3, 4]
    assert oracle._bfs.reach == 4
    # the search built no radius-5 table, and the window's ball came from its states
    assert list(oracle._tables) == [2]
    ctx, searched, state_of = lamplighter, oracle._bfs.seen, oracle._bfs.space.state_of
    assert list(view.points) == sorted(view.points, key=ctx.encode)
    assert sorted(map(state_of, view.points)) == sorted(s for s, n in searched.items() if n <= 2)
    gaps = [ctx.multiply(ctx.inverse(a), b) for a in view.points for b in view.points]
    assert all(state_of(g) in searched for g in gaps)
    assert max(searched[state_of(g)] for g in gaps) == 4


def test_ball_window_runs_one_search(lamplighter, searched_levels):
    oracle = LengthOracle(lamplighter)
    view = ball_window(oracle, 8)
    # each level to depth 14 once: the window's 8-ball is a prefix of that search
    assert searched_levels == list(range(1, 15))
    fresh = ball(lamplighter, 8)
    assert view.points == fresh.elements
    assert oracle.ball(8).lengths == fresh.lengths


def test_ball_window_under_a_small_budget_measures_pairs_one_by_one(lamplighter):
    small = LengthOracle(lamplighter, budget=200)
    with pytest.raises(BudgetExceededError, match="at depth 7;"):
        small.search(9)
    # a search over the budget keeps exactly its complete levels, as a fresh search lists them
    held = small._bfs
    assert held.reach == 6 and held.counts == [1, 4, 10, 22, 44, 84, 155]
    fresh = LengthOracle(lamplighter)
    fresh.search(7)
    assert list(held.seen.items()) == list(fresh._bfs.seen.items())
    with pytest.raises(BudgetExceededError, match="at depth 7;"):
        small.search(9)
    assert list(held.seen.items()) == list(fresh._bfs.seen.items())
    # and later calls within the budget still answer from it
    assert small.growth(7) == 155
    assert small.ball(6).elements == ball(lamplighter, 6).elements
    view = ball_window(small, 5)
    full = ball_window(LengthOracle(lamplighter), 5)
    assert view.points == full.points
    for a in view.points:
        assert view.dists_from(a, view.points) == full.dists_from(a, full.points)
    for r in (1, 2, 3):
        assert max_diameter(view, r_components(view, None, r)) == max_diameter(
            full, r_components(full, None, r)
        )
    assert max_diameter(view, [view.points]) == max_diameter(full, [full.points]) == 8


def test_r_components_split_on_gaps():
    view = line_view()
    assert r_components(view, (0, 1, 5, 6), 2) == ((0, 1), (5, 6))


def test_r_components_r1_is_singletons():
    view = line_view(4)
    assert r_components(view, None, 1) == ((0,), (1,), (2,), (3,))


def test_r_components_merge_at_larger_scale():
    view = line_view()
    assert r_components(view, (0, 1, 5, 6), 5) == ((0, 1, 5, 6),)


def test_r_components_deterministic_order():
    view = line_view()
    assert r_components(view, (6, 5, 1, 0), 2) == ((6, 5), (1, 0))


# -- covers and control -----------------------------------------------------------


def test_cover_of_reports_first_missing_point():
    cover = cover_of([[0, 1], [2]])
    assert cover.covers([0, 1, 2]) is None
    assert cover.covers([0, 3]) == 3
    with pytest.raises(ValueError):
        cover.require_covers([3])


def test_lebesgue_number_of_interval_cover():
    view = line_view()
    cover = cover_of([range(0, 6), range(4, 10)])
    assert lebesgue_ok(view, cover, 2).ok
    bad = lebesgue_ok(view, cover, 4)
    assert not bad.ok
    assert bad.witness == 3  # its open 4-ball {0..6} fits in neither part


def test_component_diameters_on_interval_cover():
    view = line_view()
    cover = cover_of([range(0, 6), range(4, 10)])
    meas = component_diameters(view, cover, 2)
    assert meas.per_part == (5, 5)
    assert meas.value == 5


def test_control_sample_combines_lebesgue_and_diameter():
    view = line_view()
    cover = cover_of([range(0, 6), range(4, 10)])
    checks = [lebesgue_ok(view, cover, r) for r in (2, 4)]
    assert [c.ok for c in checks] == [True, False]
    # at scale 4 the Lebesgue check fails, but the diameters stay the same
    assert [component_diameters(view, cover, r).value for r in (2, 4)] == [5, 5]
    assert checks[1].witness == 3


# -- kernel control ------------------------------------------------------------


def test_kernel_control_bound_scales_with_base_growth(lamplighter, c2, z2, f2):
    assert kernel_control_bound(lamplighter, 1) == 3
    assert kernel_control_bound(lamplighter, 2) == 15
    assert kernel_control_bound(WreathContext(c2, z2), 1) == 3
    assert kernel_control_bound(WreathContext(c2, f2), 2) == 25


def test_kernel_control_bound_needs_nontrivial_fiber(z):
    trivial = WreathContext(CyclicGroup(1), z)
    with pytest.raises(StructureError):
        kernel_control_bound(trivial, 2)


def test_kernel_control_bound_refuses_an_oracle_of_another_base(lamplighter, c3, z):
    # a C3 oracle reads growth 3 at r=3 where Z reads 5: a bound of 21, not 35
    message = f"{c3.spec_string()}, a different marked group than {z.spec_string()}"
    with pytest.raises(StructureError, match=re.escape(message)):
        kernel_control_bound(lamplighter, 3, base_oracle=LengthOracle(c3))


def test_kernel_components_within_bound(lamplighter, oracle_lamplighter):
    # Every r-component of a kernel window stays within (2r+1) * growth(r).
    window = kernel_window(lamplighter, 6)
    view = GroupWindowView(lamplighter, window, oracle_lamplighter)
    for r in (1, 2):
        bound = kernel_control_bound(lamplighter, r)
        for comp in r_components(view, window, r):
            for x in comp:
                for y in comp:
                    assert view.dist(x, y) <= bound


# -- coset closures -------------------------------------------------------------


def test_coset_cover_small_window(lamplighter, oracle_lamplighter):
    window = kernel_window(lamplighter, 4)
    cc = coset_cover(lamplighter, window, 2, oracle=oracle_lamplighter)
    assert len(cc.closure) == 2
    assert cc.max_length == 1
    assert len(cc.cosets) == 3


def test_coset_cover_refuses_an_oracle_of_another_group(lamplighter, plane_lamplighter):
    window = kernel_window(lamplighter, 6)
    with pytest.raises(StructureError, match="different marked group"):
        coset_cover(lamplighter, window, 2, oracle=LengthOracle(plane_lamplighter))


def test_coset_cover_partitions_window(lamplighter, oracle_lamplighter):
    window = kernel_window(lamplighter, 8)
    cc = coset_cover(lamplighter, window, 3, oracle=oracle_lamplighter)
    seen = [g for part in cc.cosets for g in part]
    assert sorted(seen, key=lamplighter.sort_key) == sorted(
        window, key=lamplighter.sort_key
    )
    assert len(seen) == len(set(seen))


def test_coset_closure_is_held_to_the_oracle_budget(z):
    # the short elements +-1 generate all of Z, so the closure never closes up
    with pytest.raises(BudgetExceededError, match="closure exceeded the node budget of 50"):
        coset_cover(z, range(-3, 4), 2, oracle=LengthOracle(z, budget=50))
    # the closure of C100 under 1 and 50 is all 100 elements: it raises
    # exactly when the budget is below that, and the next search is a length
    c100 = CyclicGroup(100)
    with pytest.raises(BudgetExceededError) as exc:
        coset_cover(c100, [0, 1, 50], 2, oracle=LengthOracle(c100, budget=99))
    assert str(exc.value) == "subgroup closure exceeded the node budget of 99"
    with pytest.raises(BudgetExceededError) as exc:
        coset_cover(c100, [0, 1, 50], 2, oracle=LengthOracle(c100, budget=100))
    assert str(exc.value) == "word-length search exceeded the node budget of 100"
    cc = coset_cover(c100, [0, 1, 50], 2, oracle=LengthOracle(c100, budget=150))
    assert (len(cc.closure), len(cc.cosets), cc.max_length) == (100, 1, 50)


def test_coset_cover_parts_lie_in_single_cosets(lamplighter, oracle_lamplighter):
    window = kernel_window(lamplighter, 8)
    cc = coset_cover(lamplighter, window, 3, oracle=oracle_lamplighter)
    closure = set(cc.closure)
    for part in cc.cosets:
        rep = part[0]
        for g in part[1:]:
            assert lamplighter.multiply(lamplighter.inverse(rep), g) in closure


def test_vz_closure_constant_values(z_structure, zxc2_structure, z):
    assert vz_closure_constant(z_structure) == 8
    assert vz_closure_constant(zxc2_structure) == 24
    distorted = VirtuallyZStructure(z, 1, (0,), Fraction(2))
    assert vz_closure_constant(distorted) == 14


def test_growth_linear_bound_values(z_structure, zxc2_structure):
    assert growth_linear_bound(z_structure, 2) == 7
    assert growth_linear_bound(zxc2_structure, 2) == 26


# -- pullbacks -----------------------------------------------------------------


def make_pullback(oracle_lamplighter, oracle_z, z):
    view = ball_window(oracle_lamplighter, 6)
    sub_points = tuple(range(-15, 16))
    sub_view = GroupWindowView(z, sub_points, oracle_z)
    parts = [{a for a in sub_points if ((a - 8 * j) % 16) <= 11} for j in (0, 1)]
    return view, sub_view, cover_of(parts)


def test_pullback_cover_controls_components(lamplighter, oracle_lamplighter, oracle_z, z):
    view, sub_view, sub_cover = make_pullback(oracle_lamplighter, oracle_z, z)
    result = pullback_cover(view, sub_view, sub_cover, 2)
    assert result.base_control == 11
    # measured interval control d = 11 plus the kernel bound at 2 + 2*11.
    assert result.predicted == 11 + kernel_control_bound(lamplighter, 24)
    assert result.predicted == 2314
    for part, sub_part in zip(result.cover.parts, sub_cover.parts):
        assert part == {x for x in view.points if x.cursor in sub_part}
    meas = component_diameters(view, result.cover, 2)
    assert meas.value == 10
    assert meas.value <= result.predicted


def test_pullback_rejects_low_lebesgue_subcover(oracle_lamplighter, oracle_z, z):
    view, sub_view, _ = make_pullback(oracle_lamplighter, oracle_z, z)
    singletons = cover_of([{a} for a in sub_view.points])
    with pytest.raises(ValueError, match="Lebesgue"):
        pullback_cover(view, sub_view, singletons, 2)


def test_pullback_rejects_a_sub_window_outside_the_base_group(oracle_lamplighter, oracle_z, z, z2):
    view, _, _ = make_pullback(oracle_lamplighter, oracle_z, z)
    plane = GroupWindowView(z2, [(a, 0) for a in range(-15, 16)])
    with pytest.raises(StructureError, match="base group"):
        pullback_cover(view, plane, cover_of([plane.points]), 2)

