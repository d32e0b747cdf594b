"""Wreath products: arithmetic, normal forms, bulbs, and kernel machinery.

Frozen lengths come from the coupled BFS oracle; small cases (single bulbs,
two-bulb products) are also checkable by hand via cursor-walk counting.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from unittest import mock

import pytest

from wreathdim import (
    DEFAULT_BUDGET,
    BallStore,
    BudgetExceededError,
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
    default_setup,
    evaluate_word,
    kernel_window,
    max_length_below,
    minimal_word,
    word_length,
)
from wreathdim import wreath as wreath_module
from wreathdim.encoding import encode_uvarint
from wreathdim.groups import _BallSearch, _CayleySpace


def _bfs_lengths(space, max_len):
    """The depth of every state of one BFS of ``space`` to ``max_len``, in search order."""
    search = _BallSearch(space, DEFAULT_BUDGET)
    search.extend(max_len)
    return search.seen


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


def test_finite_wreath_lists_its_elements_in_canonical_order(c2, c3):
    ctx = WreathContext(c2, c3)
    values = ctx.elements()
    assert len(values) == len(set(values)) == ctx.order() == 24
    assert list(values) == sorted(values, key=ctx.encode)
    assert set(values) == set(_bfs_lengths(_CayleySpace(ctx), 24))
    with pytest.raises(StructureError, match="infinite"):
        WreathContext(c2, IntegerGroup()).elements()
    # 2**24 * 24 elements: refused before any is built
    with pytest.raises(BudgetExceededError, match="402653184 elements"):
        WreathContext(c2, CyclicGroup(24)).elements()


def test_finite_wreath_can_be_a_fiber(c2, c3, z):
    outer = WreathContext(WreathContext(c2, c3), z)
    assert len(outer.generators) == 23 + 1
    for r in (1, 2, 3, 4):
        table = ball(outer, r)
        assert table.lengths == _bfs_lengths(_CayleySpace(outer), r - 1)
        assert list(table.elements) == sorted(table.lengths, key=outer.encode)


# -- canonical form -----------------------------------------------------------


def test_canonicalize_sorts_and_drops_identity_lamps(lamplighter):
    ctx = lamplighter
    g = ctx.element([(2, 1), (0, 1), (1, 0)], 0)
    assert g == WreathElement(((0, 1), (2, 1)), 0)


def test_canonicalize_rejects_duplicate_positions(lamplighter):
    with pytest.raises(EncodingError, match="^duplicate lamp position 0$"):
        lamplighter.element([(0, 1), (0, 1)], 0)


def test_canonicalize_drops_identity_entries_before_the_duplicate_check(lamplighter):
    ctx = lamplighter
    assert ctx.element([(0, 1), (0, 0)], 0) == ctx.element([(0, 1)], 0)
    assert ctx.element([(0, 0), (0, 1)], 0) == ctx.element([(0, 1)], 0)
    assert ctx.element([(0, 0), (0, 0)], 0) == ctx.identity()


@pytest.mark.parametrize(
    "fiber, base, lamps, position",
    [
        ("c3", "z", [(0, 1), (0, 2)], 0),
        # 5 and 2 are one position of C3, so the check runs on canonical positions
        ("c2", "c3", [(5, 1), (2, 1)], 2),
    ],
)
def test_canonicalize_names_the_duplicate_lamp_position(request, fiber, base, lamps, position):
    ctx = WreathContext(request.getfixturevalue(fiber), request.getfixturevalue(base))
    with pytest.raises(EncodingError, match=f"^duplicate lamp position {position}$"):
        ctx.element(lamps, 0)


def test_canonicalize_rejects_malformed_entries(lamplighter):
    with pytest.raises(EncodingError):
        lamplighter.canonicalize(((0,), 0))
    with pytest.raises(EncodingError):
        lamplighter.canonicalize("nope")


@pytest.mark.parametrize("bad", [(5, 0), (None, 0), (1, None)])
def test_canonicalize_names_the_lamps_field_when_they_are_not_iterable(
    lamplighter, plane_lamplighter, bad
):
    for ctx in (lamplighter, plane_lamplighter):
        with pytest.raises(EncodingError, match="^wreath lamps must be an iterable"):
            ctx.canonicalize(bad)
    with pytest.raises(EncodingError, match="^wreath lamps must be an iterable"):
        word_length(lamplighter, bad)


# WreathElements given to L2's canonicalize: (lamps, cursor), and the canonical
# lamps or the error it gives; -1 sorts before 2, whose position byte is larger
CANONICAL_CASES = {
    "canonical": (((-1, 1), (2, 1)), 3, ((-1, 1), (2, 1))),
    "no lamps": ((), -4, ()),
    "unsorted": (((2, 1), (-1, 1)), 3, ((-1, 1), (2, 1))),
    "duplicate position": (((2, 1), (2, 1)), 0, "^duplicate lamp position 2$"),
    "identity value": (((-1, 0), (2, 1)), 0, ((2, 1),)),
    "True as a position": (((True, 1),), 0, "^integers element must be an int, got True$"),
    "C2 value of 3": (((2, 3),), 0, ((2, 1),)),
    "list entry": (([2, 1],), 0, "^lamp entry must be"),
    "True as the cursor": (((2, 1),), True, "^integers element must be an int, got True$"),
    "lamps as a list": ([(-1, 1), (2, 1)], 0, ((-1, 1), (2, 1))),
    "lamps as a set": ({(2, 1), (-1, 1)}, 0, ((-1, 1), (2, 1))),
}


@pytest.mark.parametrize("case", list(CANONICAL_CASES))
def test_canonicalize_returns_a_canonical_element_as_it_is(lamplighter, case):
    ctx = lamplighter
    lamps, cursor, want = CANONICAL_CASES[case]
    x = WreathElement(lamps, cursor)
    if isinstance(want, str):
        with pytest.raises(EncodingError, match=want):
            ctx.canonicalize(x)
        # a plain pair is never returned as it is, and fails the same way
        with pytest.raises(EncodingError, match=want):
            ctx.canonicalize((lamps, cursor))
        return
    got = ctx.canonicalize(x)
    assert got == ctx.canonicalize((lamps, cursor)) == WreathElement(want, cursor)
    assert type(got.lamps) is tuple
    assert (got is x) == (case in ("canonical", "no lamps"))


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
    for bad in (
        "",
        "{0:1}",
        "0|1",
        "{0:1|0",
        "{0:1,0:1}|0",
        "{0:1,}|0",
        "{,0:1}|0",
        "{0: 1}|0",
        "{}|1_000",
        "{}|+3",
        "{}|\u0663",
        "{0:1}|0 x",
    ):
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
    assert [len(ball(lamplighter, r)) for r in range(1, 7)] == [1, 4, 10, 22, 44, 84]


def test_larger_fiber_growth_frozen(c3, z):
    ctx = WreathContext(c3, z)
    assert [len(ball(ctx, r)) for r in range(1, 5)] == [1, 5, 15, 41]


def test_finite_wreath_growth_saturates(c2, c3):
    ctx = WreathContext(c2, c3)
    assert [len(ball(ctx, r)) for r in range(1, 9)] == [1, 4, 8, 14, 20, 23, 24, 24]


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
    pytest.param(
        lambda: WreathContext(ProductGroup(CyclicGroup(2), CyclicGroup(3)), IntegerGroup()),
        4,
        3,
        id="C2xC3-Z",
    ),
]


@pytest.mark.parametrize(("make_ctx", "r", "small_r"), PACKED_CASES)
def test_packed_space_matches_cayley_bfs(make_ctx, r, small_r):
    ctx = make_ctx()
    reference = _bfs_lengths(_CayleySpace(ctx), max_length_below(as_radius(r)))
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
        others = space.expand([state], {}, 1)
        assert space.encoded_values(others) == ([ctx.encode(h) for h in products], products)


@pytest.mark.parametrize(("make_ctx", "r", "small_r"), PACKED_CASES)
def test_packed_encoded_values_build_each_mask_once(make_ctx, r, small_r):
    ctx = make_ctx()
    space = ctx._search_space()
    states = list(_bfs_lengths(space, max_length_below(as_radius(r))))
    encodings, elements = space.encoded_values(states)
    assert len(encodings) == len(elements) == len(states)
    for data, x in zip(encodings, elements):
        assert data == _reference_encoding(ctx, x) == ctx.encode(x)
        assert ctx.canonicalize(x) == x
    lamps_of: dict[tuple, list[WreathElement]] = {}
    for state, x in zip(states, elements):
        lamps_of.setdefault(tuple(space._lit(state)), []).append(x)
    assert len(lamps_of) < len(states)
    shared = [xs for xs in lamps_of.values() if len({x.cursor for x in xs}) > 1]
    assert shared
    for xs in shared:
        assert all(x.lamps is xs[0].lamps for x in xs)


# packed spaces, then Cayley spaces, each with the radius of the ball checked
STEP_ORDER_CASES = [
    pytest.param(lambda: WreathContext(CyclicGroup(2), IntegerGroup()), 5, id="C2-Z"),
    pytest.param(lambda: WreathContext(CyclicGroup(3), IntegerGroup()), 4, id="C3-Z"),
    pytest.param(
        lambda: WreathContext(ProductGroup(CyclicGroup(2), CyclicGroup(3)), IntegerGroup()),
        3,
        id="C2xC3-Z",
    ),
    pytest.param(
        lambda: WreathContext(CyclicGroup(2), ProductGroup(IntegerGroup(), IntegerGroup())),
        4,
        id="C2-Z2",
    ),
    pytest.param(lambda: FreeGroup(2), 4, id="F2"),
    pytest.param(lambda: ProductGroup(IntegerGroup(), CyclicGroup(2)), 5, id="ZxC2"),
]


@pytest.mark.parametrize(("make_ctx", "r"), STEP_ORDER_CASES)
def test_walk_expand_and_minimal_word_share_the_step_order(make_ctx, r):
    ctx = make_ctx()
    space = ctx._search_space()
    letters = ctx.symmetric_generators()
    for g in ball(ctx, r).elements:
        state = space.state_of(g)
        assert space.element_of(state) == g
        steps = [space.walk(state, [i]) for i in range(len(letters))]
        assert steps == [space.state_of(ctx.multiply(g, s)) for s in letters]
        # the neighbour search finds them in that order
        assert space.expand([state], {}, 1) == steps
        word = minimal_word(ctx, g)
        indices = [letters.index(s) for s in word]
        assert space.walk(space.identity_state(), indices) == state


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
    states = _bfs_lengths(space, max_length_below(as_radius(r)))
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
    e = lamplighter.identity()
    bad = WreathElement(((0, True),), 0)
    for query in (
        lambda: oracle.distance(e, bad),
        lambda: oracle.distance_at_most(e, bad, 5),
        lambda: oracle.length(bad),
        lambda: oracle.length_at_most(bad, 5),
    ):
        with pytest.raises(EncodingError):
            query()
    # the first argument is canonicalized too: a bool lookalike, a repeated
    # lamp position and a non-tuple are refused, not inverted as they stand
    for first in (bad, WreathElement(((0, 1), (0, 1)), 0), "x"):
        for query in (
            lambda: oracle.distance(first, e),
            lambda: oracle.distance_at_most(first, e, 5),
        ):
            with pytest.raises(EncodingError):
                query()


def test_generator_lookalikes_are_still_rejected(lamplighter):
    ctx = lamplighter
    bad = WreathElement(((0, True),), 0)
    assert bad == ctx.symmetric_generators()[0]
    t = ctx.symmetric_generators()[1]
    for call in (
        lambda: ctx.canonicalize(bad),
        lambda: evaluate_word(ctx, [bad]),
        lambda: evaluate_word(ctx, [t, bad, t]),
        lambda: bulb_decompose(ctx, [bad]),
        lambda: bulb_decompose(ctx, [t, bad]),
    ):
        with pytest.raises(EncodingError):
            call()


def test_canonicalize_passes_own_letters_through(lamplighter, z_structure):
    ctx = lamplighter
    for g in ctx.symmetric_generators():
        assert ctx.canonicalize(g) is g
        rebuilt = WreathElement(tuple(g.lamps), g.cursor)
        assert ctx.canonicalize(rebuilt) == g
    p = bulb_product(ctx, [(-2, 1), (3, 1)])
    own = {id(g) for g in ctx.symmetric_generators()}
    assert all(id(letter) in own for letter in bulb_word(ctx, z_structure, p).letters)



# -- the context's own objects, recognised by identity -------------------------


def _identity_contexts():
    """L2, W2 (tuple positions) and C2xC3 wr Z (tuple fiber values), built fresh."""
    z = IntegerGroup()
    return {
        "L2": WreathContext(CyclicGroup(2), z),
        "W2": WreathContext(CyclicGroup(2), ProductGroup(z, z)),
        "LP": WreathContext(ProductGroup(CyclicGroup(2), CyclicGroup(3)), z),
    }


def _fresh(v):
    """``v``, rebuilt as another object if it is a tuple (small ints are shared)."""
    return tuple(list(v)) if isinstance(v, tuple) else v


def _copy(x):
    """An element equal to ``x`` whose tuple positions and values are other objects."""
    return WreathElement(tuple((_fresh(p), _fresh(v)) for p, v in x.lamps), _fresh(x.cursor))


@pytest.mark.parametrize("name", ["L2", "W2", "LP"])
def test_equal_copies_of_own_letters_give_the_own_letters_results(name):
    ctx = _identity_contexts()[name]
    letters = ctx.symmetric_generators()
    copies = [_copy(g) for g in letters]
    assert all(c == g and c is not g for c, g in zip(copies, letters))
    for n in range(4):
        for word in itertools.product(range(len(letters)), repeat=n):
            own = [letters[i] for i in word]
            other = [copies[i] for i in word]
            value = evaluate_word(ctx, own)
            folded = ctx.identity()
            for g in own:
                folded = ctx.multiply(folded, g)
            assert value == folded == evaluate_word(ctx, other)
            assert bulb_decompose(ctx, other) == bulb_decompose(ctx, own)


@pytest.mark.parametrize("name", ["L2", "W2", "LP"])
def test_equal_copies_of_searched_elements_give_the_same_lengths(name):
    ctx = _identity_contexts()[name]
    oracle = LengthOracle(ctx)
    table = oracle.ball(4)
    for x in table.elements:
        y = _copy(x)
        assert ctx.canonicalize(x) is x and ctx.canonicalize(y) is y
        assert word_length(ctx, y) == word_length(ctx, x) == table.lengths[x]
        assert oracle.length(y) == table.lengths[x]


# (wreath, lamps, cursor) with True where a search has registered the position
# or value 1 (or a tuple holding it)
TRUE_FOR_ONE = {
    "L2 position": ("L2", ((True, 1),), 0),
    "L2 value": ("L2", ((1, True),), 0),
    "L2 cursor": ("L2", (), True),
    "W2 position": ("W2", (((True, 0), 1),), (0, 0)),
    "W2 cursor": ("W2", (), (0, True)),
    "LP value": ("LP", ((1, (True, 0)),), 0),
}


@pytest.mark.parametrize("case", list(TRUE_FOR_ONE))
def test_true_for_one_is_refused_after_a_search_registered_one(case):
    name, lamps, cursor = TRUE_FOR_ONE[case]
    ctx = _identity_contexts()[name]
    oracle = LengthOracle(ctx)
    oracle.growth(4)
    space = ctx._search_space()
    position, value = ((1, 0), 1) if name == "W2" else (1, (1, 0)) if name == "LP" else (1, 1)
    assert position in space._ids and value in space._value_index
    x = WreathElement(lamps, cursor)
    calls = {
        "evaluate_word": lambda: evaluate_word(ctx, [x]),
        "bulb_decompose": lambda: bulb_decompose(ctx, [x]),
        "word_length": lambda: word_length(ctx, x),
        "LengthOracle.length": lambda: oracle.length(x),
    }
    for call in calls.values():
        with pytest.raises(EncodingError, match="must be an int, got True$"):
            call()


def test_an_id_table_entry_is_trusted_only_for_its_own_object(c2, z):
    # the id table holds its letters, so no other live object has their ids;
    # an entry planted under another object's id must still not be taken
    ctx = WreathContext(c2, z)
    own, _ = ctx._letter_steps()
    t = ctx._cursor_letters[1]
    far = ctx.element([], 5)
    unsorted = WreathElement(((2, 1), (-1, 1)), 0)
    for x in (far, unsorted):
        own[id(x)] = own[id(t)]
    assert evaluate_word(ctx, [far]) == far
    assert ctx.canonicalize(unsorted) == evaluate_word(ctx, [unsorted])
    assert ctx.canonicalize(unsorted) == WreathElement(((-1, 1), (2, 1)), 0)
    with pytest.raises(ValueError, match="is not a marked generator"):
        bulb_decompose(ctx, [far])


def test_a_position_the_space_has_not_met_must_be_canonical(c2, z):
    # registered positions are taken as canonical unchecked, so the space
    # never registers one that is not
    ctx = WreathContext(c2, z)
    space = ctx._search_space()
    assert 1 not in space._ids
    with pytest.raises(EncodingError, match="got True$"):
        space.state_of(WreathElement(((True, 1),), 0))
    assert True not in space._ids and space._positions == [0]

def test_minimal_word_round_trip(lamplighter):
    ctx = lamplighter
    for g in ball(ctx, 5).elements:
        word = minimal_word(ctx, g)
        assert len(word) == word_length(ctx, g)
        assert evaluate_word(ctx, word) == g


# -- the search kernel -----------------------------------------------------------


def _far_element(ctx):
    """Lamps at ``t^-3`` and ``t^4`` and the cursor at ``t^5``, for the first base generator t."""
    t = ctx.base.generators[0]
    lit = [h for h in ctx.fiber.elements() if h != ctx.fiber.identity()]
    lamps = [(ctx.base.power(t, -3), lit[0]), (ctx.base.power(t, 4), lit[-1])]
    return ctx.element(lamps, ctx.base.power(t, 5))


@pytest.mark.parametrize(("make_ctx", "r", "small_r"), PACKED_CASES)
def test_ball_does_not_depend_on_earlier_searches(make_ctx, r, small_r):
    fresh = make_ctx()
    warm = make_ctx()
    # the far element's positions take the first ids, and its search many more
    far = _far_element(warm)
    assert word_length(warm, far) == word_length(make_ctx(), far) > r
    assert len(warm._search_space()._positions) > len(fresh._search_space()._positions)
    cold_table, warm_table = ball(fresh, r), ball(warm, r)
    assert warm_table.elements == cold_table.elements
    assert list(warm_table.lengths.items()) == list(cold_table.lengths.items())
    # the spaces list the ball in the same search order, with the same encodings
    in_search_order = []
    for ctx in (fresh, warm):
        space = ctx._search_space()
        states = _bfs_lengths(space, max_length_below(as_radius(r)))
        in_search_order.append((space.encoded_values(states), list(states.values())))
    assert in_search_order[0] == in_search_order[1]
    words = [[minimal_word(ctx, x) for x in warm_table] for ctx in (fresh, warm)]
    assert words[0] == words[1]


# The smallest budgets these searches succeed with, their results there, and
# the message one less raises, as measured on the search loops before they
# shared one kernel.
_BALL_MESSAGE = (
    "ball search exceeded the node budget of {} at depth {}; raise the budget to continue"
)
_FAR = "{-2:1,3:1}|1"


def _resumed_ball(ctx, budget, r):
    """``len(oracle.ball(r))`` of an oracle that answered ``growth(3)`` first."""
    oracle = LengthOracle(ctx, budget=budget)
    oracle.growth(3)
    return len(oracle.ball(r))


def _oracle_length(ctx, budget, r):
    """``oracle.length(_FAR)`` of an oracle that searched the open ``r``-ball first.

    After a failed search the oracle holds its complete levels and still
    answers the farthest element in them.
    """
    oracle = LengthOracle(ctx, budget=budget)
    oracle.growth(r)
    try:
        return oracle.length(ctx.parse_element(_FAR))
    except BudgetExceededError:
        held = oracle._bfs
        table = ball(ctx, held.reach + 1)
        far = max(table.elements, key=table.lengths.__getitem__)
        assert len(held.seen) == len(table)
        assert oracle.length(far) == table.lengths[far] == held.reach
        raise


BUDGET_CASES = [
    pytest.param(
        "lamplighter",
        lambda ctx, b: len(ball(ctx, 9, budget=b)),
        490,
        490,
        _BALL_MESSAGE.format(489, 8),
        id="ball-L2-9",
    ),
    pytest.param(
        "f2",
        lambda ctx, b: len(ball(ctx, 5, budget=b)),
        161,
        161,
        _BALL_MESSAGE.format(160, 4),
        id="ball-F2-5",
    ),
    pytest.param(
        "lamplighter",
        lambda ctx, b: _resumed_ball(ctx, b, 9),
        490,
        490,
        _BALL_MESSAGE.format(489, 8),
        id="resumed-ball-L2-9",
    ),
    pytest.param(
        "f2",
        lambda ctx, b: _resumed_ball(ctx, b, 5),
        161,
        161,
        _BALL_MESSAGE.format(160, 4),
        id="resumed-ball-F2-5",
    ),
    pytest.param(
        "lamplighter",
        lambda ctx, b: word_length(ctx, ctx.parse_element(_FAR), budget=b),
        239,
        11,
        "word-length search exceeded the node budget of 238",
        id="word-length-L2",
    ),
    pytest.param(
        "lamplighter",
        lambda ctx, b: word_length(ctx, ctx.parse_element(_FAR), at_most=9, budget=b),
        128,
        None,
        "word-length search exceeded the node budget of 127",
        id="word-length-at-most-L2",
    ),
    pytest.param(
        "lamplighter",
        lambda ctx, b: _oracle_length(ctx, b, 1),
        239,
        11,
        "word-length search exceeded the node budget of 238",
        id="oracle-length-L2",
    ),
    pytest.param(
        "lamplighter",
        lambda ctx, b: _oracle_length(ctx, b, 7),
        239,
        11,
        "word-length search exceeded the node budget of 238",
        id="resumed-oracle-length-L2",
    ),
    pytest.param(
        "lamplighter",
        lambda ctx, b: len(minimal_word(ctx, ctx.parse_element(_FAR), budget=b)),
        2474,
        11,
        "geodesic search exceeded the node budget of 2473",
        id="minimal-word-L2",
    ),
    pytest.param(
        "f2",
        lambda ctx, b: len(minimal_word(ctx, ctx.parse_element("abAAb"), budget=b)),
        485,
        5,
        "geodesic search exceeded the node budget of 484",
        id="minimal-word-F2",
    ),
]


@pytest.mark.parametrize(("name", "search", "smallest", "result", "message"), BUDGET_CASES)
def test_budget_boundaries_are_frozen(name, search, smallest, result, message, request):
    ctx = request.getfixturevalue(name)
    assert search(ctx, smallest) == result
    with pytest.raises(BudgetExceededError) as exc:
        search(ctx, smallest - 1)
    assert str(exc.value) == message


def test_an_oracle_refused_a_weighted_level_answers_as_an_unbounded_one(lamplighter, monkeypatch):
    # the 85 products of check 1: misses enough to weigh level 10 of the
    # held search, 1,457 states to that depth, over half the budget of 2,000
    products = [
        bulb_product(lamplighter, [(e, 1) for e in support])
        for n in range(1, 5)
        for support in itertools.combinations(range(-3, 4), n)
    ]
    unbounded = LengthOracle(lamplighter)
    expected = [unbounded.length(p) for p in products]
    # 60 of them miss, and their growing weight buys levels 9 to 12 (at
    # weight 1 the held search stops at level 8)
    assert unbounded._misses == 60 and unbounded._bfs.reach == 12
    refused = []
    step = _BallSearch.step

    def recording_step(search, budget):
        ok = step(search, budget)
        if search is small._bfs and not ok:
            refused.append(search.reach)
        return ok

    monkeypatch.setattr(_BallSearch, "step", recording_step)
    small = LengthOracle(lamplighter, budget=2000)
    assert [small.length(p) for p in products] == expected
    assert refused == [9]
    assert small._bfs.reach == small._bfs.refused == 9 and len(small._bfs.seen) == 850


def _first_geodesics(ctx, max_len):
    """Each element's word along the BFS tree that keeps every first discovery."""
    words = {ctx.identity(): ()}
    frontier = [ctx.identity()]
    for _ in range(max_len):
        nxt = []
        for x in frontier:
            for letter in ctx.symmetric_generators():
                y = ctx.multiply(x, letter)
                if y not in words:
                    words[y] = (*words[x], letter)
                    nxt.append(y)
        frontier = nxt
    return words


@pytest.mark.parametrize(("make_ctx", "r", "small_r"), PACKED_CASES)
def test_minimal_word_follows_the_first_discovery_tree(make_ctx, r, small_r):
    ctx = make_ctx()
    reference = _first_geodesics(ctx, max_length_below(as_radius(r)))
    assert {g: minimal_word(ctx, g) for g in reference} == reference


def test_cursor_id_field_overflow_is_a_budget_error(monkeypatch):
    monkeypatch.setattr(wreath_module, "_CURSOR_BITS", 2)  # ids 0..3
    ctx = WreathContext(CyclicGroup(2), IntegerGroup())
    assert len(ball(ctx, 2)) == 4  # positions 0, 1, -1
    with pytest.raises(BudgetExceededError, match="the 2-bit cursor-id field holds at most 4"):
        ball(ctx, 3)  # expanding at cursors 1 and -1 meets 2 and -2
    with pytest.raises(BudgetExceededError, match="cursor-id field"):
        word_length(ctx, ctx.element([(7, 1)], 0))
    space = ctx._search_space()
    assert len(space._positions) == 4
    # no state carries a lamp written over the field, and the space still works
    assert ball(ctx, 2).elements == ball(WreathContext(CyclicGroup(2), IntegerGroup()), 2).elements


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


def test_bulb_word_over_a_base_with_two_cosets():
    setup = default_setup()
    ctx = WreathContext(CyclicGroup(2), setup.groups["ZxC2"])
    structure = setup.structures["ZxC2"]
    oracle = LengthOracle(ctx)
    positions = [(e, c) for e in range(-2, 3) for c in (0, 1)]
    slack = []
    for size in (1, 2, 3):
        for support in itertools.combinations(positions, size):
            p = bulb_product(ctx, [(pos, 1) for pos in support])
            bw = bulb_word(ctx, structure, p)
            assert evaluate_word(ctx, bw.letters) == p
            assert oracle.length(p) <= len(bw.letters) <= bw.bound
            # the (0|1) coset is entered and left through its representative
            crossings = sum(letter.cursor == (0, 1) for letter in bw.letters)
            assert crossings == 2 * any(c == 1 for _, c in support)
            slack.append(len(bw.letters) - oracle.length(p))
    assert (len(slack), max(slack)) == (175, 4)


def test_bulb_word_requires_marked_coset_representatives():
    base = ProductGroup(IntegerGroup(), CyclicGroup(2), ((1, 0), (1, 1)))
    structure = VirtuallyZStructure(base, (1, 0), ((0, 0), (0, 1)))
    ctx = WreathContext(CyclicGroup(2), base)
    p = bulb_product(ctx, [((0, 1), 1)])
    with pytest.raises(StructureError, match=re.escape("coset representative (0|1) must be")):
        bulb_word(ctx, structure, p)


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


# (context factory, largest radius) for kernel windows read from an oracle's search
KERNEL_CASES = [
    pytest.param(lambda: WreathContext(CyclicGroup(2), IntegerGroup()), 10, id="L2"),
    pytest.param(lambda: WreathContext(CyclicGroup(3), IntegerGroup()), 6, id="C3-Z"),
    pytest.param(
        lambda: WreathContext(CyclicGroup(2), ProductGroup(IntegerGroup(), IntegerGroup())),
        6,
        id="W2",
    ),
    pytest.param(lambda: WreathContext(_s3_identity_not_row_0(), IntegerGroup()), 4, id="S3-Z"),
]


@pytest.mark.parametrize("make, top", KERNEL_CASES)
def test_kernel_window_materializes_only_the_kernel_of_the_ball(make, top):
    ctx = make()
    base_id = ctx.base.identity()
    space = ctx._search_space()
    deep = LengthOracle(ctx)
    deep.growth(top + 2)  # its search is already deeper than every radius below
    for r in range(1, top + 1):
        for oracle in (LengthOracle(ctx), deep):
            with mock.patch.object(space, "encoded_values", wraps=space.encoded_values) as spy:
                window = kernel_window(ctx, r, oracle=oracle)
            (states,), _ = spy.call_args
            assert spy.call_count == 1 and len(states) == len(window)
            assert all(space.element_of(s).cursor == base_id for s in states)
            assert window == tuple(w for w in oracle.ball(r).elements if w.cursor == base_id)


def test_kernel_window_has_identity_cursor(plane_lamplighter):
    base_id = plane_lamplighter.base.identity()
    for g in kernel_window(plane_lamplighter, 4):
        assert g.cursor == base_id
