"""Covers and control: components, Lebesgue numbers, coset closures, pullbacks."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from wreathdim import (
    BudgetExceededError,
    CosetCover,
    CyclicGroup,
    GroupWindowView,
    IntegerGroup,
    LengthOracle,
    StructureError,
    VirtuallyZStructure,
    WreathContext,
    as_radius,
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
    max_length_below,
    pullback_cover,
    r_components,
    vz_closure_constant,
)
from wreathdim.groups import _BallSearch, _CayleySpace, _sorted_table


def line_view(n=10):
    return GroupWindowView(IntegerGroup(), range(n))


# -- group windows ------------------------------------------------------------


def test_explicit_view_distances():
    view = line_view()
    assert view.dist(2, 7) == 5
    assert view.dist(7, 2) == 5
    assert view.dist(2, 2) == 0


def test_group_window_view_refuses_a_repeated_point(lamplighter):
    with pytest.raises(ValueError, match=r"^window repeats the point 1$"):
        GroupWindowView(IntegerGroup(), [0, 1, 1, 5])
    x = lamplighter.element([(2, 1)], -1)
    # a point equal to an earlier one once canonicalized is a repeat too
    with pytest.raises(ValueError, match=re.escape("window repeats the point {2:1}|-1")):
        GroupWindowView(lamplighter, [lamplighter.identity(), x, (((2, 1),), -1)])


def test_r_components_refuses_a_subset_that_repeats_a_point(lamplighter):
    with pytest.raises(ValueError, match=r"^subset repeats the point 1$"):
        r_components(line_view(6), [0, 1, 1, 5], 2)
    x = lamplighter.element([(2, 1)], -1)
    view = GroupWindowView(lamplighter, [lamplighter.identity(), x])
    with pytest.raises(ValueError, match=re.escape("subset repeats the point {2:1}|-1")):
        r_components(view, [x, lamplighter.identity(), x], 3)


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
    # the fresh context's space hands out position ids in another order than L2's
    fresh._search_space().state_of(fresh.element([(5, 1), (-3, 1)], -7))
    other = LengthOracle(fresh)
    window = oracle.ball(4).elements
    view = GroupWindowView(fresh, window, oracle)
    reference = GroupWindowView(L2, window, oracle)
    across = GroupWindowView(L2, window, other)
    for x in window[:6]:
        assert view.dists_from(x, window) == reference.dists_from(x, window)
        assert across.dists_from(x, window) == reference.dists_from(x, window)
    kernel = kernel_window(L2, 8, oracle=other)
    assert kernel == kernel_window(L2, 8, oracle=oracle)
    kernel_view, kernel_reference = GroupWindowView(L2, kernel, other), GroupWindowView(L2, kernel, oracle)
    for r in (1, 2, 3, 4):
        components = r_components(kernel_view, None, r)
        assert components == r_components(kernel_reference, None, r)
        assert max_diameter(kernel_view, components) == max_diameter(kernel_reference, components)
        assert coset_cover(L2, kernel, r, oracle=other) == coset_cover(L2, kernel, r, oracle=oracle)
    assert fresh._search_space()._positions[:3] != L2._search_space()._positions[:3]
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


def test_ball_window_prefills_every_pair_distance(lamplighter):
    oracle = LengthOracle(lamplighter)
    view = ball_window(oracle, Fraction(5, 2))
    # the window searches only its own ball: window points have length <= 2
    assert oracle._bfs.reach == 2 and list(oracle._tables) == [2]
    ctx, searched, state_of = lamplighter, oracle._bfs.seen, oracle._bfs.space.state_of
    assert list(view.points) == sorted(view.points, key=ctx.encode)
    assert sorted(map(state_of, view.points)) == sorted(s for s, n in searched.items() if n <= 2)
    # measuring each pair once, the misses' weight extends the held search until
    # it holds every pair distance; pairs reach distance 4
    assert max(max(view.dists_from(a, view.points)) for a in view.points) == 4
    assert oracle._bfs.reach == 4
    gaps = [ctx.multiply(ctx.inverse(a), b) for a in view.points for b in view.points]
    assert all(state_of(g) in searched for g in gaps)
    assert max(searched[state_of(g)] for g in gaps) == 4


def test_ball_window_runs_one_search(lamplighter, searched_levels):
    oracle = LengthOracle(lamplighter)
    view = ball_window(oracle, 8)
    # each level of the window's ball once and no deeper: pair distances are misses
    assert searched_levels == list(range(1, 8))
    assert oracle._bfs.reach == 7 and list(oracle._tables) == [7]
    fresh = ball(lamplighter, 8)
    assert view.points == fresh.elements
    assert oracle.ball(8).lengths == fresh.lengths


def test_ball_window_under_a_small_budget_measures_pairs_one_by_one(lamplighter):
    small = LengthOracle(lamplighter, budget=200)
    with pytest.raises(BudgetExceededError, match="at depth 7;"):
        small.growth(9)
    # a search over the budget keeps exactly its complete levels, as a fresh search lists them
    held = small._bfs
    assert held.reach == 6 and held.counts == [1, 4, 10, 22, 44, 84, 155]
    fresh = LengthOracle(lamplighter)
    fresh.growth(7)
    assert list(held.seen.items()) == list(fresh._bfs.seen.items())
    with pytest.raises(BudgetExceededError, match="at depth 7;"):
        small.growth(9)
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


@pytest.mark.parametrize(
    ("ctx_name", "counts"),
    [
        ("lamplighter", (1, 4, 10, 22, 44, 84, 155)),
        ("plane_lamplighter", (1, 6, 22, 70, 210, 610, 1732)),
    ],
)
def test_r_components_size_the_hop_ball_against_the_budget(request, ctx_name, counts):
    # counts[d] is the number of elements of length at most d
    ctx = request.getfixturevalue(ctx_name)
    window = LengthOracle(ctx).ball(5).elements
    full = GroupWindowView(ctx, window)
    for r in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 4, 5, 6, Fraction(13, 2)):
        need = counts[max_length_below(as_radius(r))]
        for budget in {1, need - 1, need} - {0}:
            view = GroupWindowView(ctx, window, LengthOracle(ctx, budget=budget))
            if budget >= need:
                assert r_components(view, None, r) == r_components(full, None, r)
                continue
            depth = next(d for d, count in enumerate(counts) if count > budget)
            with pytest.raises(BudgetExceededError) as exc:
                r_components(view, None, r)
            assert str(exc.value) == (
                f"ball search exceeded the node budget of {budget} at depth {depth}; "
                "raise the budget to continue"
            )


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



def _brute_force_control(view, cover, r):
    """Per part: the largest all-pairs ``view.dist`` within one chain component
    of the part's window points, the components grown from all-pairs hops < r."""
    per_part = []
    for part in cover.parts:
        pts = [x for x in view.points if x in part]
        unplaced, worst = set(pts), 0
        while unplaced:
            comp = [unplaced.pop()]
            for a in comp:
                hops = {b for b in unplaced if view.dist(a, b) < r}
                unplaced -= hops
                comp += hops
            worst = max([worst] + [view.dist(a, b) for a in comp for b in comp])
        per_part.append(worst)
    return tuple(per_part)


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("window", ["L2 6-ball", "W2 4-ball"])
def test_component_diameters_equal_the_all_pairs_brute_force(
    lamplighter, plane_lamplighter, window, parts
):
    ctx, radius = (lamplighter, 6) if window == "L2 6-ball" else (plane_lamplighter, 4)
    view = ball_window(LengthOracle(ctx), radius)
    rng = random.Random(f"{window} {parts}")
    # each point in one part, and a quarter of them in a second one too
    members = [set() for _ in range(parts)]
    for x in view.points:
        first, second = rng.randrange(parts), rng.randrange(parts)
        members[first].add(x)
        if rng.random() < 0.25:
            members[second].add(x)
    cover = cover_of(members)
    for r in (2, 3):
        measured = component_diameters(view, cover, r)
        want = _brute_force_control(view, cover, r)
        assert measured.per_part == want
        assert measured.value == max(want)
        assert measured.radius == r

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


def _scanned_coset_cover(ctx, window, r, oracle):
    """``coset_cover`` as it was: each point tested against every coset opened so far."""
    radius = as_radius(r)
    budget, space, length = oracle.budget, oracle._bfs.space, oracle._state_length
    cutoff = max_length_below(radius)
    states, gens = [], []
    for x in window:
        state = space.state_of(ctx.canonicalize(x))
        states.append(state)
        if length(state, cutoff) is not None:
            gens.append(state)
    gens += [space.inverse_state(s) for s in gens]
    search = _BallSearch(_CayleySpace(ctx, tuple(gens), over=space), budget)
    while search.frontier:
        assert search.step(budget)
    closure = search.seen
    table = _sorted_table(ctx, space, radius, {s: length(s) for s in closure})[0]
    rep_inverses, cosets = [], []
    for x, state in zip(window, states):
        for inv, members in zip(rep_inverses, cosets):
            if space.multiply_states(inv, state) in closure:
                members.append(x)
                break
        else:
            rep_inverses.append(space.inverse_state(state))
            cosets.append([x])
    return CosetCover(table.elements, tuple(map(tuple, cosets)), max(table.lengths.values()))


def _multiplications(cover, ctx, radius, r):
    """``cover`` of the kernel window of ``radius`` at ``r`` on a fresh oracle, and the
    ``multiply_states`` calls it made, those of the closure search included."""
    oracle = LengthOracle(ctx)
    window = kernel_window(ctx, radius, oracle=oracle)
    space = oracle._bfs.space
    calls = 0
    multiply = space.multiply_states

    def counted(s, t):
        nonlocal calls
        calls += 1
        return multiply(s, t)

    space.multiply_states = counted
    try:
        return cover(ctx, window, r, oracle=oracle), calls
    finally:
        del space.multiply_states


# name -> (kernel window radius, {r: (calls of the scan, calls of coset_cover)})
COSET_CALLS = {
    "L2": (10, {2: (393, 49), 3: (393, 49), 4: (198, 124), 5: (230, 156), 6: (573, 568)}),
    "W2": (6, {2: (107, 31), 3: (107, 31)}),
    "C3wrZ": (8, {2: (876, 92), 3: (876, 92), 4: (552, 498), 5: (984, 930), 6: (9306, 9306)}),
}


@pytest.mark.parametrize(
    "name, r", [(name, r) for name, (_, calls) in COSET_CALLS.items() for r in calls]
)
def test_coset_cover_equals_the_scan_with_no_more_multiplications(name, r):
    contexts = {**default_setup().wreaths, "C3wrZ": WreathContext(CyclicGroup(3), IntegerGroup())}
    ctx = contexts[name]
    radius, calls = COSET_CALLS[name]
    want, scanned = _multiplications(_scanned_coset_cover, ctx, radius, r)
    got, enumerated = _multiplications(coset_cover, ctx, radius, r)
    assert got == want
    assert enumerated <= scanned
    assert (scanned, enumerated) == calls[r]


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

