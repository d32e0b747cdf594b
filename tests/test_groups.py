"""Marked groups: arithmetic, canonical forms, BFS metrics, and exponent solving.

Numeric expectations are frozen from independent counts: odometer balls in Z
and Z^2 are small enough to enumerate by hand, and the free-group ball sizes
come from the reduced-word recurrence (gamma(r+1) = gamma(r) + boundary * 3).
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import pkgutil
from fractions import Fraction

import pytest

import wreathdim
from wreathdim import groups
from wreathdim import (
    BudgetExceededError,
    CyclicGroup,
    EncodingError,
    FreeGroup,
    IntegerGroup,
    LengthOracle,
    MarkedGroup,
    ProductGroup,
    StructureError,
    TableGroup,
    VirtuallyZGroup,
    VirtuallyZStructure,
    WreathContext,
    as_radius,
    ball,
    evaluate_word,
    max_length_below,
    minimal_word,
    vz_decompose,
    vz_distortion_constant,
    word_length,
)
from wreathdim.groups import _BallSearch, _CayleySpace, _meet

KLEIN_TABLE = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))

# A quasigroup with identity and two-sided inverses that is not associative:
# 1*(1*2) = 3 but (1*1)*2 = 2.
NONASSOCIATIVE_LOOP = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


# -- radii ----------------------------------------------------------------


def test_as_radius_accepts_ints_and_fractions():
    assert as_radius(3) == Fraction(3)
    assert as_radius(Fraction(5, 2)) == Fraction(5, 2)


def test_as_radius_rejects_nonpositive():
    with pytest.raises(ValueError):
        as_radius(0)
    with pytest.raises(ValueError):
        as_radius(-1)


def test_max_length_below_open_ball_threshold():
    # Open ball of radius r holds the lengths strictly below r.
    assert max_length_below(Fraction(3)) == 2
    assert max_length_below(Fraction(5, 2)) == 2
    assert max_length_below(Fraction(1)) == 0
    assert max_length_below(Fraction(1, 2)) == 0


# -- integers -------------------------------------------------------------


def test_integers_arithmetic(z):
    assert z.identity() == 0
    assert z.multiply(3, -5) == -2
    assert z.inverse(7) == -7
    assert z.power(2, 10) == 20
    assert z.order() is None


def test_integers_ball_radius_3_frozen(z):
    table = ball(z, 3)
    assert table.elements == (0, -1, 1, -2, 2)
    assert [table.lengths[g] for g in table.elements] == [0, 1, 1, 2, 2]


def test_integers_growth_is_odd_numbers(z):
    assert [len(ball(z, r)) for r in range(1, 7)] == [1, 3, 5, 7, 9, 11]


def test_integers_word_length(z):
    assert word_length(z, 5) == 5
    assert word_length(z, -5) == 5
    assert word_length(z, 0) == 0


def test_integers_nonstandard_marking_changes_metric():
    g = IntegerGroup(generators=(2, 3))
    # 1 = 3 - 2 needs two letters; 6 = 3 + 3 needs two.
    assert word_length(g, 1) == 2
    assert word_length(g, 6) == 2
    assert word_length(g, 2) == 1


def test_integers_format_parse(z):
    assert z.format_element(-12) == "-12"
    assert z.parse_element("-12") == -12
    with pytest.raises(ValueError):
        z.parse_element("twelve")


# -- cyclic ---------------------------------------------------------------


def test_cyclic_arithmetic(c3):
    assert c3.multiply(2, 2) == 1
    assert c3.inverse(1) == 2
    assert c3.order() == 3
    assert c3.elements() == (0, 1, 2)


def test_cyclic_trivial_group():
    e = CyclicGroup(1)
    assert e.elements() == (0,)
    assert len(ball(e, 5)) == 1


def test_cyclic_rejects_identity_generator():
    with pytest.raises(StructureError):
        CyclicGroup(5, generators=(0,))


def test_cyclic_rejects_non_generating_marking():
    with pytest.raises(StructureError):
        CyclicGroup(6, generators=(2,))


def test_generation_check_sizes_the_group_before_searching(monkeypatch):
    # a group past the node budget is refused by its order, before any BFS level
    def no_step(self, budget):
        raise AssertionError("searched a group too large to enumerate")

    monkeypatch.setattr(groups, "DEFAULT_BUDGET", 1000)
    monkeypatch.setattr(groups._BallSearch, "step", no_step)
    with pytest.raises(BudgetExceededError, match="has 5000 elements, more than the node budget of 1000"):
        CyclicGroup(5000)


def test_product_elements_are_the_pairs_in_encoding_order(z, c2, c3):
    for ctx in (ProductGroup(c2, c3), ProductGroup(_s3(), c2)):
        # the pair enumeration that the BFS ball replaced
        pairs = itertools.product(ctx.left.elements(), ctx.right.elements())
        assert ctx.elements() == tuple(sorted(pairs, key=ctx.encode))
    with pytest.raises(StructureError, match="product: cannot enumerate an infinite group"):
        ProductGroup(c2, z).elements()


def test_cyclic_growth_saturates(c3):
    assert [len(ball(c3, r)) for r in (1, 2, 3)] == [1, 3, 3]


# -- free -----------------------------------------------------------------


def test_free_reduction_on_multiply(f2):
    assert f2.multiply((1, 2), (-2, -1)) == ()
    assert f2.multiply((1, 1, -2), (2,)) == (1, 1)
    assert f2.inverse((1, -2)) == (2, -1)


def test_free_canonicalize_rejects_non_reduced(f2):
    with pytest.raises(EncodingError):
        f2.canonicalize((1, -1))


def test_free_format_parse(f2):
    assert f2.format_element((1, 1, -2)) == "aaB"
    assert f2.parse_element("aaB") == (1, 1, -2)
    assert f2.parse_element("e") == ()
    assert f2.format_element(()) == "e"


def test_free_growth_reduced_word_counts(f2):
    # gamma(1) = 1 and each new sphere multiplies by 3 after the first step:
    # 1, 1+4, 5+12, 17+36, 53+108.
    assert [len(ball(f2, r)) for r in range(1, 6)] == [1, 5, 17, 53, 161]


def test_free_ball_matches_reduced_word_enumeration(f2):
    words = {()}
    frontier = {()}
    for _ in range(3):
        nxt = set()
        for w in frontier:
            for letter in (1, -1, 2, -2):
                if w and w[-1] == -letter:
                    continue
                nxt.add(w + (letter,))
        frontier = nxt - words
        words |= nxt
    table = ball(f2, 4)
    assert set(table.elements) == words
    assert all(table.lengths[w] == len(w) for w in table.elements)


def test_free_rank_bounds():
    # rank 5 would name its fifth letter e, the identity literal
    for rank in (0, 5, 27):
        with pytest.raises(ValueError, match="rank"):
            FreeGroup(rank)


# -- table ----------------------------------------------------------------


def test_table_klein_four_group():
    k4 = TableGroup(KLEIN_TABLE, (1, 2))
    assert k4.order() == 4
    assert k4.multiply(1, 2) == 3
    assert k4.inverse(3) == 3
    assert [len(ball(k4, r)) for r in (1, 2, 3)] == [1, 3, 4]


def test_table_rejects_non_permutation_row():
    with pytest.raises(StructureError):
        TableGroup(((0, 0), (1, 1)), (1,))


def test_table_rejects_missing_identity():
    subtraction = tuple(tuple((i - j) % 3 for j in range(3)) for i in range(3))
    with pytest.raises(StructureError):
        TableGroup(subtraction, (1,))


def test_table_rejects_nonassociative_loop():
    with pytest.raises(StructureError, match="associativity"):
        TableGroup(NONASSOCIATIVE_LOOP, (1,))


def test_table_rejects_a_swapped_intercalate_past_order_64():
    # Z/66 with one 2x2 subsquare swapped is still a loop, but not a group
    n = 66
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[1][1], table[34][34], table[1][34], table[34][1] = 35, 35, 2, 2
    with pytest.raises(StructureError, match="associativity"):
        TableGroup(table, (1,))
    assert TableGroup([[(i + j) % n for j in range(n)] for i in range(n)], (1,)).order() == n


# -- product --------------------------------------------------------------


def test_product_componentwise(z2):
    assert z2.multiply((1, 2), (3, -1)) == (4, 1)
    assert z2.inverse((3, -4)) == (-3, 4)
    assert z2.identity() == (0, 0)


def test_product_default_marking_embeds_factors(z, c2):
    g = ProductGroup(z, c2)
    assert g.generators == ((1, 0), (0, 1))


def test_product_word_length_is_l1_for_plane(z2):
    assert word_length(z2, (3, 4)) == 7
    assert word_length(z2, (-2, 5)) == 7


def test_product_ball_radius_2_frozen(z2):
    table = ball(z2, 2)
    assert table.elements == ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0))


def test_product_format_parse_nested(z, z2):
    nested = ProductGroup(z, z2)
    text = nested.format_element((3, (1, -2)))
    assert text == "(3|(1|-2))"
    assert nested.parse_element(text) == (3, (1, -2))
    for bad in ("(1| 2)", "(1|2)3", "(1_000|2)", "(+3|2)", "(\u0663|2)", "(1|2"):
        with pytest.raises(ValueError):
            z2.parse_element(bad)


def test_product_finite_order(c3, c2):
    assert ProductGroup(c3, c2).order() == 6


# -- exponent solving ------------------------------------------------------


def test_exponent_solutions_integers(z):
    assert z.exponent_solutions(1, 7) == ("unique", 7, 0)
    assert z.exponent_solutions(2, 7) == ("none", 0, 0)
    assert z.exponent_solutions(0, 0) == ("periodic", 0, 1)


def test_exponent_solutions_cyclic(c3):
    assert c3.exponent_solutions(1, 2) == ("periodic", 2, 3)


def test_exponent_solutions_free(f2):
    assert f2.exponent_solutions((1,), (1, 1, 1)) == ("unique", 3, 0)
    assert f2.exponent_solutions((1,), (2,)) == ("none", 0, 0)


def test_exponent_solutions_product_intersects_constraints(z, c2, c3):
    zc = ProductGroup(z, c2)
    assert zc.exponent_solutions((1, 1), (3, 1)) == ("unique", 3, 0)
    assert zc.exponent_solutions((1, 1), (3, 0)) == ("none", 0, 0)
    # Residues 2 mod 3 and 1 mod 2 combine to 5 mod 6.
    cc = ProductGroup(c3, c2)
    assert cc.exponent_solutions((1, 1), (2, 1)) == ("periodic", 5, 6)


@pytest.mark.parametrize(
    "make_ctx",
    [
        pytest.param(lambda: CyclicGroup(6), id="C6"),
        pytest.param(lambda: _s3(), id="S3"),
        pytest.param(lambda: ProductGroup(CyclicGroup(2), CyclicGroup(3)), id="C2xC3"),
        pytest.param(lambda: WreathContext(CyclicGroup(2), CyclicGroup(3)), id="C2wrC3"),
    ],
)
def test_exponent_solutions_on_finite_groups_match_the_powers(make_ctx):
    ctx = make_ctx()
    ident = ctx.identity()
    for t in ctx.elements():
        powers = [ident]
        while ctx.multiply(powers[-1], t) != ident:
            powers.append(ctx.multiply(powers[-1], t))
        for h in ctx.elements():
            expected = ("periodic", powers.index(h), len(powers)) if h in powers else ("none", 0, 0)
            assert ctx.exponent_solutions(t, h) == expected


def test_exponent_solutions_on_an_infinite_wreath_are_not_implemented(lamplighter):
    g = lamplighter.generators[0]
    with pytest.raises(NotImplementedError):
        lamplighter.exponent_solutions(g, g)


# -- virtually-Z structures --------------------------------------------------


def test_vz_requires_infinite_order_translation(c3):
    with pytest.raises(StructureError):
        VirtuallyZStructure(c3, 1, (0,))


def test_vz_decompose_integers(z, z_structure):
    assert vz_decompose(z_structure, 7) == (1, 7)
    assert vz_decompose(z_structure, 0) == (1, 0)


def test_vz_decompose_product(zxc2, zxc2_structure):
    assert vz_decompose(zxc2_structure, (3, 1)) == (2, 3)
    assert vz_decompose(zxc2_structure, (-4, 0)) == (1, -4)


def test_vz_decompose_rejects_overlapping_reps(z):
    overlapping = VirtuallyZStructure(z, 1, (0, 1))
    with pytest.raises(StructureError, match="overlap"):
        vz_decompose(overlapping, 5)


def test_vz_decompose_rejects_incomplete_reps(zxc2):
    partial = VirtuallyZStructure(zxc2, (1, 0), ((0, 0),))
    with pytest.raises(StructureError):
        vz_decompose(partial, (3, 1))


def test_vz_distortion_constant_standard_marking(z_structure):
    assert vz_distortion_constant(z_structure, 6) == 1


def test_vz_distortion_constant_distorted_marking():
    g = IntegerGroup(generators=(2, 3))
    st = VirtuallyZStructure(g, 2, (0, 1))
    # t^3 = 6 = 3+3 has length 2, so |e| = 3 needs C = 3/2.
    assert vz_distortion_constant(st, 6) == Fraction(3, 2)


def test_vz_distortion_requires_undistorted_upper_bound():
    g = IntegerGroup(generators=(2, 3))
    st = VirtuallyZStructure(g, 1, (0,))
    with pytest.raises(StructureError):
        vz_distortion_constant(st, 3)


def test_vz_group_wrapper_round_trip(zxc2, zxc2_structure):
    # (i, e) pairs multiply consistently with the base group.
    vzg = VirtuallyZGroup(zxc2_structure)
    a = vzg.from_base((3, 1))
    b = vzg.from_base((-1, 1))
    assert vzg.to_base(vzg.multiply(a, b)) == zxc2.multiply((3, 1), (-1, 1))
    assert vzg.to_base(vzg.inverse(a)) == zxc2.inverse((3, 1))
    assert vzg.identity() == vzg.from_base((0, 0))


def test_vz_group_metric_matches_base(zxc2, zxc2_structure):
    vzg = VirtuallyZGroup(zxc2_structure)
    for g in (ball(zxc2, 4)).elements:
        assert word_length(vzg, vzg.from_base(g)) == word_length(zxc2, g)


# -- BFS metrics ------------------------------------------------------------


def test_ball_lengths_respect_open_threshold(z):
    table = ball(z, Fraction(5, 2))
    assert max(table.lengths.values()) <= 2
    assert table.elements == (0, -1, 1, -2, 2)


def test_ball_membership_protocol(z):
    table = ball(z, 3)
    assert 2 in table
    assert 3 not in table
    assert len(table) == 5
    assert list(table) == [0, -1, 1, -2, 2]


def test_ball_budget_exceeded(z):
    with pytest.raises(BudgetExceededError):
        ball(z, 100, budget=10)


def test_word_length_agrees_with_ball_on_free_group(f2):
    table = ball(f2, 4)
    for g in table.elements:
        assert word_length(f2, g) == table.lengths[g]


def test_word_length_at_most_early_exit(f2):
    far = (1, 2) * 6  # length 12
    assert word_length(f2, far, at_most=3) is None
    assert word_length(f2, far, at_most=11) is None
    assert word_length(f2, far, at_most=12) == 12


def _s3() -> TableGroup:
    # S3 as permutations of 0..2, marked by a transposition and a 3-cycle
    perms = [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    return TableGroup(table, (1, 2))


@pytest.mark.parametrize(
    "make_ctx",
    [
        pytest.param(lambda: CyclicGroup(7), id="C7"),
        pytest.param(_s3, id="S3"),
        pytest.param(lambda: WreathContext(CyclicGroup(2), CyclicGroup(3)), id="C2wrC3"),
    ],
)
def test_bounded_lengths_on_finite_groups_match_the_ball(make_ctx):
    # every bound up to past the diameter, on every element, from a fresh
    # search and from a fresh oracle
    ctx = make_ctx()
    table = ball(ctx, ctx.order() + 1)
    assert len(table) == ctx.order()
    diameter = max(table.lengths.values())
    for g, length in table.lengths.items():
        assert word_length(ctx, g) == length
        assert LengthOracle(ctx).length(g) == length
        for bound in range(diameter + 2):
            expected = length if length <= bound else None
            assert word_length(ctx, g, at_most=bound) == expected
            assert LengthOracle(ctx).length_at_most(g, bound) == expected


def test_meet_off_the_generated_subgroup_runs_out_of_states():
    # the letters 3 and 9 of C12 generate {0, 3, 6, 9}, so both halves of a
    # meet with 1 exhaust: unbounded that is a structure error, and with a
    # bound the first exhausted half puts the length past it
    space = _CayleySpace(CyclicGroup(12), (3, 9))
    with pytest.raises(StructureError, match="not generated"):
        _meet(_BallSearch(space, 1000), 1, None, 1000)
    for bound in (0, 1, 2, 10):
        assert _meet(_BallSearch(space, 1000), 1, bound, 1000) is None


def test_meet_steps_forward_while_its_frontier_is_within_the_weight(f2):
    # F2's spheres grow 1, 4, 12, 36, 108 from either end: at weight 1 the
    # halves meet in the middle, and a larger weight deepens the held half
    reaches = {}
    for weight in (1, 3, 36):
        forward = _BallSearch(_CayleySpace(f2), 10**6)
        assert _meet(forward, (1, 2, 1, 2, 1, 2), None, 10**6, weight) == 6
        reaches[weight] = forward.reach
    assert reaches == {1: 3, 3: 4, 36: 5}


def test_meet_drops_a_weighted_level_over_half_the_budget_once(f2, monkeypatch):
    expanded = []
    step = _BallSearch.step

    def recording_step(search, budget):
        ok = step(search, budget)
        if search is forward:
            expanded.append((search.reach, ok))
        return ok

    monkeypatch.setattr(_BallSearch, "step", recording_step)
    forward = _BallSearch(_CayleySpace(f2), 600)
    # weight 36 asks for level 5 (485 states), over half the budget of 600
    assert _meet(forward, (1, 2, 1, 2, 1, 2), None, 600, 36) == 6
    assert _meet(forward, (2, 1, 2, 1, 2, 1), None, 600, 37) == 6
    assert forward.reach == forward.refused == 4 and len(forward.seen) == 161
    assert expanded == [(1, True), (2, True), (3, True), (4, True), (4, False)]


def test_a_level_in_runs_ends_at_its_first_goal_state_as_one_expand_does(f2):
    # F2 to depth 2 holds 17 words and level 3 adds 36: budgets of 53 to 64
    # take the level in runs, 65 and more in one expand call, and 52 refuses it
    goal = {(2, 1, 2), (1, 1, 1)}
    frontiers = []
    for budget in (52, 53, 64, 65, 10**6):
        search = _BallSearch(_CayleySpace(f2), budget)
        search.extend(2)
        search.goal = goal
        if budget == 52:
            assert not search.step(budget) and len(search.seen) == 17
            continue
        assert search.step(budget)
        frontiers.append(search.frontier)
    assert all(frontier == frontiers[0] for frontier in frontiers)
    assert frontiers[0][-1] in goal and not goal & set(frontiers[0][:-1])


def test_minimal_word_round_trip(z, f2):
    for ctx in (z, f2):
        for g in ball(ctx, 4).elements:
            word = minimal_word(ctx, g)
            assert len(word) == word_length(ctx, g)
            assert evaluate_word(ctx, word) == g
            assert all(x in ctx.symmetric_generators() for x in word)


def test_evaluate_word_empty_is_identity(z, f2):
    assert evaluate_word(z, ()) == 0
    assert evaluate_word(f2, ()) == ()


# -- length oracle -----------------------------------------------------------


def test_length_oracle_length_and_distance(f2):
    oracle = LengthOracle(f2)
    assert oracle.length((1, 2, 1)) == 3
    assert oracle.distance((1,), (1, 2)) == 1
    assert oracle.distance((1, 2), (1,)) == 1
    assert oracle.distance((1,), (1,)) == 0


def test_length_oracle_distance_at_most(f2):
    oracle = LengthOracle(f2)
    far = (1, 2) * 6
    assert oracle.distance_at_most((), far, 3) is None
    assert oracle.distance_at_most((), (1, 2), 3) == 2


def test_length_oracle_ball_filtering_is_consistent(z):
    oracle = LengthOracle(z)
    big = oracle.ball(6)
    small = oracle.ball(3)
    assert set(small.elements) <= set(big.elements)
    assert all(big.lengths[g] == small.lengths[g] for g in small.elements)


def test_length_oracle_growth(z):
    oracle = LengthOracle(z)
    assert [oracle.growth(r) for r in range(1, 5)] == [1, 3, 5, 7]


# -- canonical identity ------------------------------------------------------


def test_spec_strings_frozen(z, c2, f2, z2):
    assert z.spec_string() == "integers(gens=1)"
    assert c2.spec_string() == "cyclic(n=2|gens=1)"
    assert f2.spec_string() == "free(rank=2|gens=a,b)"
    assert (
        z2.spec_string()
        == "product(left=integers(gens=1)|right=integers(gens=1)|gens=(1|0),(0|1))"
    )
    k4 = TableGroup(KLEIN_TABLE, (1, 2))
    assert k4.spec_string() == "table(rows=0.1.2.3;1.0.3.2;2.3.0.1;3.2.1.0|gens=1,2)"


def test_spec_hash_is_sha256_of_spec_string(z, z2):
    for g in (z, z2):
        expect = hashlib.sha256(g.spec_string().encode("utf-8")).hexdigest()
        assert g.spec_hash == expect


def test_spec_string_distinguishes_markings(z):
    other = IntegerGroup(generators=(2, 3))
    assert other.spec_string() == "integers(gens=2,3)"
    assert other.spec_hash != z.spec_hash


# -- encodings ---------------------------------------------------------------


def test_encode_decode_round_trip_each_kind(z, c3, f2, z2):
    for ctx in (z, c3, f2, z2):
        for g in ball(ctx, 4).elements:
            assert ctx.decode(ctx.encode(g)) == g


def test_decode_rejects_trailing_bytes(z):
    with pytest.raises(EncodingError):
        z.decode(z.encode(5) + b"\x00")


def test_sort_key_orders_like_encoded_bytes(f2):
    elements = list(ball(f2, 3).elements)
    by_key = sorted(elements, key=f2.sort_key)
    by_bytes = sorted(elements, key=f2.encode)
    assert by_key == by_bytes


# -- text forms ----------------------------------------------------------------


def test_every_kind_reads_its_own_literal():
    # MarkedGroup.parse_element is the only whole-text parser; each kind reads
    # just its own literal in parse_from, so nested literals need no scanner
    modules = [
        importlib.import_module(f"wreathdim.{info.name}")
        for info in pkgutil.iter_modules(wreathdim.__path__)
    ]
    kinds = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, MarkedGroup) and cls is not MarkedGroup
    }
    assert {cls.__name__ for cls in kinds} >= {
        "IntegerGroup",
        "CyclicGroup",
        "FreeGroup",
        "TableGroup",
        "ProductGroup",
        "VirtuallyZGroup",
        "WreathContext",
    }
    for cls in kinds:
        assert "parse_from" in vars(cls), cls.__name__
        assert "parse_element" not in vars(cls), cls.__name__
