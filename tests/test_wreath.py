"""Wreath products: arithmetic, normal forms, bulbs, and kernel machinery.

Frozen lengths come from the coupled BFS oracle; small cases (single bulbs,
two-bulb products) are also checkable by hand via cursor-walk counting.
"""

from __future__ import annotations

import hashlib

import pytest

from wreathdim import (
    DEFAULT_BUDGET,
    BallStore,
    CyclicGroup,
    EncodingError,
    FreeGroup,
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
    bulb_decompose,
    bulb_lower_bound,
    bulb_product,
    bulb_word,
    evaluate_word,
    growth,
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
    assert conj == bulb_product(ctx, [(1, 1)])


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


@pytest.mark.parametrize("base", ["z", "z2", "f2"])
def test_decode_checks_lamp_order_on_the_position_bytes(base, c2, request):
    ctx = WreathContext(c2, request.getfixturevalue(base))

    def raw(lamps, cursor):
        out = bytearray(encode_uvarint(len(lamps)))
        for pos, val in lamps:
            out += ctx.base.encode(pos) + ctx.fiber.encode(val)
        return bytes(out + ctx.base.encode(cursor))

    for g in ball(ctx, 5).elements:
        assert raw(g.lamps, g.cursor) == ctx.encode(g)
        if len(g.lamps) < 2:
            continue
        with pytest.raises(EncodingError, match="strictly increasing"):
            ctx.decode(raw(g.lamps[::-1], g.cursor))
        with pytest.raises(EncodingError, match="strictly increasing"):
            ctx.decode(raw(g.lamps[:1] * 2, g.cursor))


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
        assert word_length(lamplighter, bulb_product(lamplighter, [(e, 1)])) == 2 * abs(e) + 1
    assert word_length(lamplighter, bulb_product(lamplighter, [(0, 1)])) == 1


def test_two_bulb_product_length(lamplighter):
    # Lamps at 1 and 2 with return to the origin: t a t a t^-1 t^-1.
    g = bulb_product(lamplighter, [(1, 1), (2, 1)])
    assert word_length(lamplighter, g) == 6


def _s3_identity_not_row_0() -> TableGroup:
    # S3 as permutations of 0..2, listed so the identity is row 1
    perms = [(1, 0, 2), (0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    return TableGroup(table, (0, 2))


# (context factory, radius, smaller radius) for the packed lamp space
PACKED_CASES = [
    pytest.param(lambda: WreathContext(CyclicGroup(2), IntegerGroup()), 7, 5, id="C2-Z"),
    pytest.param(lambda: WreathContext(CyclicGroup(3), IntegerGroup()), 5, 4, id="C3-Z"),
    pytest.param(lambda: WreathContext(_s3_identity_not_row_0(), IntegerGroup()), 4, 3, id="S3-Z"),
    pytest.param(
        lambda: WreathContext(CyclicGroup(3), ProductGroup(IntegerGroup(), IntegerGroup())),
        4,
        3,
        id="C3-Z2",
    ),
]


@pytest.mark.parametrize(("make_ctx", "r", "small_r"), PACKED_CASES)
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
        assert space.encoded_values([state]) == ([ctx.encode(g)], [g])
        # the i-th neighbour is the product with the i-th symmetric letter
        products = [ctx.multiply(g, s) for s in ctx.symmetric_generators()]
        others = space.neighbors(state)
        assert space.encoded_values(others) == ([ctx.encode(h) for h in products], products)


@pytest.mark.parametrize(("make_ctx", "r", "small_r"), PACKED_CASES)
def test_packed_encoded_values_build_each_mask_once(make_ctx, r, small_r):
    ctx = make_ctx()
    space = ctx._search_space()
    states = list(_bfs_lengths(space, max_length_below(as_radius(r)), DEFAULT_BUDGET))
    encodings, elements = space.encoded_values(states)
    assert len(encodings) == len(elements) == len(states)
    for data, x in zip(encodings, elements):
        assert data == _reference_encoding(ctx, x) == ctx.encode(x)
        assert ctx.canonicalize(x) == x
    lamps_of: dict[int, list[WreathElement]] = {}
    for (mask, _), x in zip(states, elements):
        lamps_of.setdefault(mask, []).append(x)
    assert len(lamps_of) < len(states)
    shared = [xs for xs in lamps_of.values() if len({x.cursor for x in xs}) > 1]
    assert shared
    for xs in shared:
        assert all(x.lamps is xs[0].lamps for x in xs)


def _reference_encoding(ctx, x):
    if not isinstance(ctx, WreathContext):
        return ctx.encode(x)
    lamps = b"".join(ctx.base.encode(pos) + ctx.fiber.encode(val) for pos, val in x.lamps)
    return encode_uvarint(len(x.lamps)) + lamps + ctx.base.encode(x.cursor)


@pytest.mark.parametrize(
    ("make_ctx", "r"),
    [
        pytest.param(lambda: WreathContext(CyclicGroup(2), IntegerGroup()), 12, id="L2"),
        pytest.param(lambda: WreathContext(CyclicGroup(3), IntegerGroup()), 10, id="C3-Z"),
        pytest.param(lambda: WreathContext(_s3_identity_not_row_0(), IntegerGroup()), 8, id="S3-Z"),
        pytest.param(
            lambda: WreathContext(CyclicGroup(2), ProductGroup(IntegerGroup(), IntegerGroup())),
            6,
            id="W2",
        ),
        pytest.param(lambda: FreeGroup(2), 6, id="F2"),
    ],
)
def test_ball_orders_elements_by_their_encoding(make_ctx, r):
    ctx = make_ctx()
    table = ball(ctx, r)
    encodings = [_reference_encoding(ctx, x) for x in table.elements]
    assert all(a < b for a, b in zip(encodings, encodings[1:]))
    assert encodings == [ctx.encode(x) for x in table.elements]
    space = ctx._search_space()
    states = _bfs_lengths(space, max_length_below(as_radius(r)), DEFAULT_BUDGET)
    assert sorted(zip(*space.encoded_values(states))) == list(zip(encodings, table.elements))


def _table_parts(table):
    return table.elements, table.lengths, list(table.lengths)


@pytest.mark.parametrize(
    "make_ctx",
    [
        pytest.param(lambda: WreathContext(CyclicGroup(3), IntegerGroup()), id="C3-Z"),
        pytest.param(
            lambda: WreathContext(CyclicGroup(2), ProductGroup(IntegerGroup(), IntegerGroup())),
            id="W2",
        ),
    ],
)
def test_ball_is_stable_across_calls_and_cache_order(make_ctx, tmp_path):
    r = 5
    ctx = make_ctx()
    first = ball(ctx, r)
    assert _table_parts(ball(ctx, r)) == _table_parts(first)
    busy = make_ctx()
    for x in reversed(first.elements):
        busy.canonicalize(busy.multiply(busy.multiply(x, x), busy.inverse(x)))
    assert list(busy._position_bytes) != list(ctx._position_bytes)
    assert _table_parts(ball(busy, r)) == _table_parts(first)
    store = BallStore(tmp_path)
    saved = ball(ctx, r, store=store)
    record = store.load(ctx.spec_hash, as_radius(r))
    assert record.encodings == tuple(ctx.encode(x) for x in saved.elements)
    assert record.lengths == tuple(saved.lengths[x] for x in saved.elements)


def test_oracle_distances_still_reject_malformed_elements(lamplighter):
    oracle = LengthOracle(lamplighter)
    oracle.ball(3)  # the memo now holds the lamp at 0 with value 1, which equals True
    bad = WreathElement(((0, True),), 0)
    for query in (
        lambda: oracle.distance(lamplighter.identity(), bad),
        lambda: oracle.distance_at_most(lamplighter.identity(), bad, 5),
        lambda: oracle.length(bad),
        lambda: oracle.length_at_most(bad, 5),
    ):
        with pytest.raises(EncodingError):
            query()


def test_minimal_word_round_trip(lamplighter):
    ctx = lamplighter
    for g in ball(ctx, 5).elements:
        word = minimal_word(ctx, g)
        assert len(word) == word_length(ctx, g)
        assert evaluate_word(ctx, word) == g


# -- bulbs ---------------------------------------------------------------------


def test_bulb_product_merges_and_cancels(lamplighter):
    # In a C2 fiber, two bulbs at the same index cancel.
    assert bulb_product(lamplighter, [(2, 1), (2, 1)]) == lamplighter.identity()
    p = bulb_product(lamplighter, [(3, 1), (1, 1)])
    assert p == WreathElement(((1, 1), (3, 1)), 0)
    assert bulb_lower_bound(p) == 2


def test_bulb_product_element_is_lamp_configuration(lamplighter):
    p = bulb_product(lamplighter, [(1, 1), (2, 1)])
    assert p == WreathElement(((1, 1), (2, 1)), 0)


def test_bulb_product_of_kernel_lamps_round_trips(lamplighter):
    ctx = lamplighter
    for g in kernel_window(ctx, 6):
        assert bulb_product(ctx, g.lamps) == g


def test_bulb_length_lower_bound_vs_bfs(lamplighter):
    # Distinct-index products need at least one letter per lamp.
    ctx = lamplighter
    for pairs in ([(0, 1)], [(1, 1), (-1, 1)], [(0, 1), (1, 1), (2, 1)]):
        p = bulb_product(ctx, pairs)
        assert word_length(ctx, p) >= bulb_lower_bound(p)
    # Every lit lamp costs a letter whatever the cursor does.
    table = ball(ctx, 6)
    for g in table.elements:
        assert table.lengths[g] >= bulb_lower_bound(g)


# -- words to and from bulb products ----------------------------------------------


def test_bulb_decompose_tracks_cursor_prefixes(lamplighter):
    ctx = lamplighter
    t = ctx.element([], 1)
    a = ctx.element([(0, 1)], 0)
    t_inv = ctx.inverse(t)
    product, residual = bulb_decompose(ctx, [t, a, t, a, t_inv, t_inv])
    assert product == WreathElement(((1, 1), (2, 1)), 0)
    assert residual == 0


def test_bulb_decompose_reports_residual_cursor(lamplighter):
    ctx = lamplighter
    t = ctx.element([], 1)
    a = ctx.element([(0, 1)], 0)
    product, residual = bulb_decompose(ctx, [a, t])
    assert product == WreathElement(((0, 1),), 0)
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
        assert product == g


def test_bulb_word_evaluates_and_respects_bound(lamplighter, z_structure):
    ctx = lamplighter
    p = bulb_product(ctx, [(1, 1), (3, 1)])
    bw = bulb_word(ctx, z_structure, p)
    # One coset, two bulbs, furthest exponent 3: bound 1 * (2 + 2 + 4*3).
    assert bw.bound == 16
    assert len(bw.letters) == 8
    assert evaluate_word(ctx, bw.letters) == p


def test_bulb_word_rejects_foreign_structure(lamplighter, zxc2_structure):
    p = bulb_product(lamplighter, [(1, 1)])
    with pytest.raises(StructureError):
        bulb_word(lamplighter, zxc2_structure, p)


def test_bulb_word_requires_marked_translation(lamplighter, z):
    doubled = VirtuallyZStructure(z, 2, (0, 1))
    p = bulb_product(lamplighter, [(2, 1)])
    with pytest.raises(StructureError):
        bulb_word(lamplighter, doubled, p)


def test_bulb_word_rejects_moved_cursor(lamplighter, z_structure):
    moved = lamplighter.element([(1, 1)], 1)
    with pytest.raises(ValueError, match=r"\{1:1\}\|1 is not in the kernel"):
        bulb_word(lamplighter, z_structure, moved)


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
