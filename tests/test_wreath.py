"""Wreath products: arithmetic, normal forms, bulbs, and kernel machinery.

Frozen lengths come from the coupled BFS oracle; small cases (single bulbs,
two-bulb products) are also checkable by hand via cursor-walk counting.
"""

from __future__ import annotations

import hashlib

import pytest

from wreathdim import (
    DEFAULT_BUDGET,
    CyclicGroup,
    EncodingError,
    IntegerGroup,
    LengthOracle,
    ProductGroup,
    StructureError,
    TableGroup,
    VirtuallyZStructure,
    WreathContext,
    WreathElement,
    as_radius,
    ball,
    bulb,
    bulb_decompose,
    bulb_lower_bound,
    bulb_product,
    bulb_word,
    evaluate_word,
    growth,
    kernel_bulbs,
    kernel_window,
    max_length_below,
    minimal_word,
    word_length,
)
from wreathdim.encoding import encode_uvarint
from wreathdim.groups import _bfs_lengths, _CayleySpace


# -- construction -----------------------------------------------------------


def test_requires_finite_fiber(z):
    with pytest.raises(StructureError):
        WreathContext(z, z)


def test_generators_are_lamp_values_then_cursor_letters(lamplighter):
    ctx = lamplighter
    assert ctx.generators == (
        WreathElement(((0, 1),), 0),
        WreathElement((), 1),
    )
    assert ctx.symmetric_generators() == (
        WreathElement(((0, 1),), 0),
        WreathElement((), 1),
        WreathElement((), -1),
    )


def test_larger_fiber_contributes_all_nonidentity_values(c3, z):
    ctx = WreathContext(c3, z)
    assert [ctx.format_element(g) for g in ctx.generators] == [
        "{0:1}|0",
        "{0:2}|0",
        "{}|1",
    ]


def test_order_finite_iff_both_factors_finite(lamplighter, c2, c3):
    assert lamplighter.order() is None
    assert WreathContext(c2, c3).order() == 24


# -- canonical form -----------------------------------------------------------


def test_canonicalize_sorts_and_drops_identity_lamps(lamplighter):
    ctx = lamplighter
    g = ctx.element([(2, 1), (0, 1), (1, 0)], 0)
    assert g == WreathElement(((0, 1), (2, 1)), 0)


def test_canonicalize_rejects_duplicate_positions(lamplighter):
    with pytest.raises(EncodingError):
        lamplighter.element([(0, 1), (0, 1)], 0)


def test_canonicalize_rejects_malformed_entries(lamplighter):
    with pytest.raises(EncodingError):
        lamplighter.canonicalize(((0,), 0))
    with pytest.raises(EncodingError):
        lamplighter.canonicalize("nope")


# -- multiplication -----------------------------------------------------------


def test_cursor_translates_incoming_lamps(lamplighter):
    ctx = lamplighter
    t = ctx.element([], 1)
    a = ctx.element([(0, 1)], 0)
    assert ctx.format_element(ctx.multiply(t, a)) == "{1:1}|1"
    assert ctx.format_element(ctx.multiply(a, t)) == "{0:1}|1"


def test_conjugation_by_cursor_is_a_bulb(lamplighter):
    ctx = lamplighter
    t = ctx.element([], 1)
    a = ctx.element([(0, 1)], 0)
    conj = ctx.multiply(ctx.multiply(t, a), ctx.inverse(t))
    assert conj == bulb(ctx, 1, 1)


def test_inverse_on_ball(lamplighter):
    ctx = lamplighter
    for g in ball(ctx, 5).elements:
        assert ctx.multiply(g, ctx.inverse(g)) == ctx.identity()
        assert ctx.multiply(ctx.inverse(g), g) == ctx.identity()


def test_associativity_sample(plane_lamplighter):
    ctx = plane_lamplighter
    elems = ball(ctx, 3).elements
    for a in elems:
        for b in elems[:5]:
            for c in elems[:5]:
                assert ctx.multiply(ctx.multiply(a, b), c) == ctx.multiply(
                    a, ctx.multiply(b, c)
                )


# -- text form ----------------------------------------------------------------


def test_format_parse_round_trip(lamplighter):
    ctx = lamplighter
    for g in ball(ctx, 5).elements:
        assert ctx.parse_element(ctx.format_element(g)) == g


def test_format_parse_plane_positions(plane_lamplighter):
    ctx = plane_lamplighter
    g = ctx.element([((0, 0), 1), ((1, -2), 1)], (1, 0))
    text = ctx.format_element(g)
    assert text == "{(0|0):1,(1|-2):1}|(1|0)"
    assert ctx.parse_element(text) == g


def test_parse_rejects_garbage(lamplighter):
    for bad in ("", "{0:1}", "0|1", "{0:1|0", "{0:1,0:1}|0"):
        with pytest.raises(ValueError):
            lamplighter.parse_element(bad)


# -- binary form ----------------------------------------------------------------


def test_encode_decode_round_trip(lamplighter, plane_lamplighter):
    for ctx in (lamplighter, plane_lamplighter):
        for g in ball(ctx, 4).elements:
            assert ctx.decode(ctx.encode(g)) == g


def test_decode_rejects_unsorted_lamp_positions(lamplighter, z, c2):
    raw = bytearray()
    raw += encode_uvarint(2)
    raw += z.encode(2) + c2.encode(1)
    raw += z.encode(0) + c2.encode(1)
    raw += z.encode(0)
    with pytest.raises(EncodingError):
        lamplighter.decode(bytes(raw))


def test_decode_rejects_identity_lamp_value(lamplighter, z, c2):
    raw = bytearray()
    raw += encode_uvarint(1)
    raw += z.encode(0) + c2.encode(0)
    raw += z.encode(0)
    with pytest.raises(EncodingError):
        lamplighter.decode(bytes(raw))


def test_spec_string_and_hash(lamplighter, plane_lamplighter):
    assert (
        lamplighter.spec_string()
        == "wreath(fiber=cyclic(n=2|gens=1)|base=integers(gens=1))"
    )
    assert plane_lamplighter.spec_string() == (
        "wreath(fiber=cyclic(n=2|gens=1)|base=product(left=integers(gens=1)"
        "|right=integers(gens=1)|gens=(1|0),(0|1)))"
    )
    for ctx in (lamplighter, plane_lamplighter):
        expect = hashlib.sha256(ctx.spec_string().encode("utf-8")).hexdigest()
        assert ctx.spec_hash == expect


# -- metric --------------------------------------------------------------------


def test_lamplighter_growth_frozen(lamplighter):
    assert [growth(lamplighter, r) for r in range(1, 7)] == [1, 4, 10, 22, 44, 84]


def test_larger_fiber_growth_frozen(c3, z):
    ctx = WreathContext(c3, z)
    assert [growth(ctx, r) for r in range(1, 5)] == [1, 5, 15, 41]


def test_finite_wreath_growth_saturates(c2, c3):
    ctx = WreathContext(c2, c3)
    assert [growth(ctx, r) for r in range(1, 9)] == [1, 4, 8, 14, 20, 23, 24, 24]


def test_single_bulb_length_is_round_trip_walk(lamplighter):
    # Walk out, light the lamp, walk back: 2|e| + 1 letters, and no shorter
    # word exists because the cursor must visit the lamp position.
    for e in (-2, -1, 1, 2):
        assert word_length(lamplighter, bulb(lamplighter, e, 1)) == 2 * abs(e) + 1
    assert word_length(lamplighter, bulb(lamplighter, 0, 1)) == 1


def test_two_bulb_product_length(lamplighter):
    # Lamps at 1 and 2 with return to the origin: t a t a t^-1 t^-1.
    g = bulb_product(lamplighter, [(1, 1), (2, 1)]).element(lamplighter)
    assert word_length(lamplighter, g) == 6


def _s3_identity_not_row_0() -> TableGroup:
    # S3 as permutations of 0..2, listed so the identity is row 1
    perms = [(1, 0, 2), (0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    return TableGroup(table, (0, 2))


@pytest.mark.parametrize(
    ("make_ctx", "r", "small_r"),
    [
        pytest.param(lambda: WreathContext(CyclicGroup(2), IntegerGroup()), 7, 5, id="C2-Z"),
        pytest.param(lambda: WreathContext(CyclicGroup(3), IntegerGroup()), 5, 4, id="C3-Z"),
        pytest.param(
            lambda: WreathContext(_s3_identity_not_row_0(), IntegerGroup()), 4, 3, id="S3-Z"
        ),
        pytest.param(
            lambda: WreathContext(CyclicGroup(3), ProductGroup(IntegerGroup(), IntegerGroup())),
            4,
            3,
            id="C3-Z2",
        ),
    ],
)
def test_packed_space_matches_cayley_bfs(make_ctx, r, small_r):
    ctx = make_ctx()
    reference = _bfs_lengths(_CayleySpace(ctx), max_length_below(as_radius(r)), DEFAULT_BUDGET)
    table = ball(ctx, r)
    assert table.elements == tuple(sorted(reference, key=ctx.encode))
    assert table.lengths == reference
    space = ctx._search_space()
    for g in ball(ctx, small_r).elements:
        assert word_length(ctx, g) == reference[g]
        word = minimal_word(ctx, g)
        assert len(word) == reference[g]
        assert evaluate_word(ctx, word) == g
        state = space.state_of(g)
        assert space.value_of(state) == g
        assert [(letter, space.value_of(other)) for letter, other in space.moves(state)] == [
            (s, ctx.multiply(g, s)) for s in ctx.symmetric_generators()
        ]


def test_minimal_word_round_trip(lamplighter):
    ctx = lamplighter
    for g in ball(ctx, 5).elements:
        word = minimal_word(ctx, g)
        assert len(word) == word_length(ctx, g)
        assert evaluate_word(ctx, word) == g


# -- bulbs ---------------------------------------------------------------------


def test_bulb_needs_nonidentity_value(lamplighter):
    with pytest.raises(ValueError):
        bulb(lamplighter, 2, 0)


def test_bulb_product_merges_and_cancels(lamplighter):
    # In a C2 fiber, two bulbs at the same index cancel.
    assert bulb_product(lamplighter, [(2, 1), (2, 1)]).bulbs == ()
    p = bulb_product(lamplighter, [(3, 1), (1, 1)])
    assert p.support() == (1, 3)
    assert bulb_lower_bound(p) == 2


def test_bulb_product_element_is_lamp_configuration(lamplighter):
    p = bulb_product(lamplighter, [(1, 1), (2, 1)])
    assert p.element(lamplighter) == WreathElement(((1, 1), (2, 1)), 0)


def test_kernel_bulbs_round_trip(lamplighter):
    ctx = lamplighter
    for g in kernel_window(ctx, 6):
        p = kernel_bulbs(ctx, g)
        assert p.element(ctx) == g
        assert p.support() == tuple(pos for pos, _ in g.lamps)


def test_kernel_bulbs_rejects_moved_cursor(lamplighter):
    with pytest.raises(ValueError):
        kernel_bulbs(lamplighter, lamplighter.element([], 1))


def test_bulb_length_lower_bound_vs_bfs(lamplighter):
    # Distinct-index products need at least one letter per lamp.
    ctx = lamplighter
    for pairs in ([(0, 1)], [(1, 1), (-1, 1)], [(0, 1), (1, 1), (2, 1)]):
        p = bulb_product(ctx, pairs)
        g = p.element(ctx)
        assert word_length(ctx, g) >= bulb_lower_bound(p)


# -- words to and from bulb products ----------------------------------------------


def test_bulb_decompose_tracks_cursor_prefixes(lamplighter):
    ctx = lamplighter
    t = ctx.element([], 1)
    a = ctx.element([(0, 1)], 0)
    t_inv = ctx.inverse(t)
    product, residual = bulb_decompose(ctx, [t, a, t, a, t_inv, t_inv])
    assert product.support() == (1, 2)
    assert residual == 0


def test_bulb_decompose_reports_residual_cursor(lamplighter):
    ctx = lamplighter
    t = ctx.element([], 1)
    a = ctx.element([(0, 1)], 0)
    product, residual = bulb_decompose(ctx, [a, t])
    assert product.support() == (0,)
    assert residual == 1


def test_bulb_decompose_rejects_non_generator_letters(lamplighter):
    far = lamplighter.element([], 5)
    with pytest.raises(ValueError):
        bulb_decompose(lamplighter, [far])


def test_bulb_decompose_minimal_words_of_kernel_window(lamplighter):
    ctx = lamplighter
    for g in kernel_window(ctx, 6):
        word = minimal_word(ctx, g)
        product, residual = bulb_decompose(ctx, word)
        assert residual == 0
        assert product.element(ctx) == g


def test_bulb_word_evaluates_and_respects_bound(lamplighter, z_structure):
    ctx = lamplighter
    p = bulb_product(ctx, [(1, 1), (3, 1)])
    bw = bulb_word(ctx, z_structure, p)
    # One coset, two bulbs, furthest exponent 3: bound 1 * (2 + 2 + 4*3).
    assert bw.bound == 16
    assert len(bw.letters) == 8
    assert evaluate_word(ctx, bw.letters) == p.element(ctx)


def test_bulb_word_rejects_foreign_structure(lamplighter, zxc2_structure):
    p = bulb_product(lamplighter, [(1, 1)])
    with pytest.raises(StructureError):
        bulb_word(lamplighter, zxc2_structure, p)


def test_bulb_word_requires_marked_translation(lamplighter, z):
    doubled = VirtuallyZStructure(z, 2, (0, 1))
    p = bulb_product(lamplighter, [(2, 1)])
    with pytest.raises(StructureError):
        bulb_word(lamplighter, doubled, p)


def test_bulb_word_empty_product(lamplighter, z_structure):
    bw = bulb_word(lamplighter, z_structure, bulb_product(lamplighter, []))
    assert bw.letters == ()
    assert evaluate_word(lamplighter, bw.letters) == lamplighter.identity()


# -- kernel windows ----------------------------------------------------------------


def test_kernel_window_frozen_small(lamplighter):
    ctx = lamplighter
    assert [ctx.format_element(g) for g in kernel_window(ctx, 4)] == [
        "{}|0",
        "{0:1}|0",
        "{-1:1}|0",
        "{1:1}|0",
    ]


def test_kernel_window_counts(lamplighter):
    assert len(kernel_window(lamplighter, 3)) == 2
    assert len(kernel_window(lamplighter, 10)) == 38


def test_kernel_window_filters_a_larger_oracle_ball(lamplighter, plane_lamplighter):
    oracle = LengthOracle(lamplighter)
    oracle.ball(9)
    assert kernel_window(lamplighter, 6, oracle=oracle) == kernel_window(lamplighter, 6)
    with pytest.raises(StructureError):
        kernel_window(lamplighter, 6, oracle=LengthOracle(plane_lamplighter))


def test_kernel_window_has_identity_cursor(plane_lamplighter):
    base_id = plane_lamplighter.base.identity()
    for g in kernel_window(plane_lamplighter, 4):
        assert g.cursor == base_id
