"""Property-based invariants: group axioms, metric laws, and canonical encodings."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathdim import groups
from wreathdim import (
    DEFAULT_BUDGET,
    CyclicGroup,
    FreeGroup,
    GroupWindowView,
    IntegerGroup,
    LengthOracle,
    ProductGroup,
    TableGroup,
    VirtuallyZGroup,
    VirtuallyZStructure,
    WreathContext,
    WreathElement,
    ball,
    bulb_product,
    cover_of,
    evaluate_word,
    kernel_window,
    lattice_cover_witness,
    lattice_points,
    lebesgue_ok,
    max_diameter,
    minimal_word,
    r_components,
    word_length,
)
from wreathdim.encoding import (
    EncodingError,
    encode_svarint,
    encode_uvarint,
    read_svarint,
    read_uvarint,
)

Z = IntegerGroup()
C3 = CyclicGroup(3)
F2 = FreeGroup(2)
Z2 = ProductGroup(Z, Z)
L2 = WreathContext(CyclicGroup(2), Z)

GROUPS = {"Z": Z, "C3": C3, "F2": F2, "Z2": Z2, "L2": L2}

# S3 as permutations of 0..2, listed so that the identity is not row 0
_PERMS = [(1, 0, 2), (0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0)]
S3 = TableGroup(
    [[_PERMS.index(tuple(p[q[k]] for k in range(3))) for q in _PERMS] for p in _PERMS], (0, 2)
)
_ZxC2 = ProductGroup(Z, CyclicGroup(2))
_C2wrZ2 = WreathContext(CyclicGroup(2), Z2)
_C2wrL2 = WreathContext(CyclicGroup(2), L2)
# literals nested up to depth 3, for the text round trip and the search kernel
NESTED = {
    "S3": S3,
    "L2xZ": ProductGroup(L2, Z),
    "C2wrZ2": _C2wrZ2,
    "C2wrL2": _C2wrL2,
    "ZxVZ": ProductGroup(Z, VirtuallyZGroup(VirtuallyZStructure(_ZxC2, (1, 0), ((0, 0), (0, 1))))),
    "Zx(C2wrZ2)": ProductGroup(Z, _C2wrZ2),
    "(C2wrL2)xF2": ProductGroup(_C2wrL2, F2),
}


def words(ctx, max_size=6):
    letters = st.sampled_from(ctx.symmetric_generators())
    return st.lists(letters, max_size=max_size)


def elements(ctx, max_size=6):
    return words(ctx, max_size).map(lambda w: evaluate_word(ctx, w))


# -- varints -------------------------------------------------------------------


@given(st.integers(min_value=0))
def test_uvarint_round_trip(value):
    data = encode_uvarint(value)
    assert read_uvarint(data, 0) == (value, len(data))


@given(st.integers())
def test_svarint_round_trip(value):
    data = encode_svarint(value)
    assert read_svarint(data, 0) == (value, len(data))


@given(st.lists(st.integers(), max_size=10))
def test_svarint_streams_are_self_delimiting(values):
    data = b"".join(encode_svarint(v) for v in values)
    decoded = []
    pos = 0
    while pos < len(data):
        value, pos = read_svarint(data, pos)
        decoded.append(value)
    assert decoded == values


# -- group axioms ----------------------------------------------------------------


@given(
    st.sampled_from(sorted(GROUPS)),
    st.data(),
)
def test_group_axioms(name, data):
    ctx = GROUPS[name]
    a = data.draw(elements(ctx))
    b = data.draw(elements(ctx))
    c = data.draw(elements(ctx))
    e = ctx.identity()
    assert ctx.multiply(ctx.multiply(a, b), c) == ctx.multiply(a, ctx.multiply(b, c))
    assert ctx.multiply(a, e) == a
    assert ctx.multiply(e, a) == a
    assert ctx.multiply(a, ctx.inverse(a)) == e
    assert ctx.inverse(ctx.inverse(a)) == a


@given(st.sampled_from(sorted(GROUPS)), st.data())
def test_encode_decode_round_trip(name, data):
    ctx = GROUPS[name]
    g = data.draw(elements(ctx))
    assert ctx.decode(ctx.encode(g)) == g


@given(st.sampled_from(sorted(GROUPS | NESTED)), st.data())
def test_format_parse_round_trip(name, data):
    ctx = (GROUPS | NESTED)[name]
    g = data.draw(elements(ctx))
    assert ctx.parse_element(ctx.format_element(g)) == g


@given(st.sampled_from(sorted(GROUPS)), st.data())
def test_sort_key_matches_encoded_byte_order(name, data):
    ctx = GROUPS[name]
    g = data.draw(elements(ctx))
    h = data.draw(elements(ctx))
    assert (ctx.sort_key(g) < ctx.sort_key(h)) == (ctx.encode(g) < ctx.encode(h))


# -- wreath arithmetic on canonical elements --------------------------------------

WREATHS = {
    "C3wrZ": WreathContext(C3, Z),
    "S3wrZ": WreathContext(S3, Z),
    "C2wrZ2": _C2wrZ2,
    "C2wrF2": WreathContext(CyclicGroup(2), F2),
}


def raw_lamps(ctx):
    """Lamps at distinct positions in no particular order, identity values included."""
    values = st.sampled_from(ctx.fiber.elements())
    return st.dictionaries(elements(ctx.base, 4), values, max_size=6).map(lambda d: list(d.items()))


def wreath_elements(ctx):
    return st.builds(ctx.element, raw_lamps(ctx), elements(ctx.base, 4))


def _by_base_sort_key(ctx, lamps, cursor):
    lit = [(pos, val) for pos, val in lamps if val != ctx.fiber.identity()]
    return WreathElement(tuple(sorted(lit, key=lambda lamp: ctx.base.sort_key(lamp[0]))), cursor)


def _reference_multiply(ctx, x, y):
    lamps = dict(x.lamps)
    for pos, val in y.lamps:
        p = ctx.base.multiply(x.cursor, pos)
        lamps[p] = ctx.fiber.multiply(lamps.get(p, ctx.fiber.identity()), val)
    return _by_base_sort_key(ctx, lamps.items(), ctx.base.multiply(x.cursor, y.cursor))


def _reference_inverse(ctx, x):
    c = ctx.base.inverse(x.cursor)
    lamps = [(ctx.base.multiply(c, pos), ctx.fiber.inverse(val)) for pos, val in x.lamps]
    return _by_base_sort_key(ctx, lamps, c)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(WREATHS)), st.data())
def test_products_of_canonical_elements_are_canonical(name, data):
    # multiply and inverse return canonical values without a canonicalize call
    ctx = WREATHS[name]
    x = data.draw(wreath_elements(ctx))
    y = data.draw(wreath_elements(ctx))
    gap = ctx.multiply(ctx.inverse(x), y)
    assert ctx.canonicalize(gap) == gap
    assert ctx.canonicalize(ctx.inverse(x)) == ctx.inverse(x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(WREATHS)), st.data())
def test_wreath_arithmetic_sorts_lamps_by_base_sort_key(name, data):
    ctx = WREATHS[name]
    lamps = data.draw(raw_lamps(ctx))
    cursor = data.draw(elements(ctx.base, 4))
    x = ctx.canonicalize(WreathElement(tuple(lamps), cursor))
    assert x == _by_base_sort_key(ctx, lamps, cursor)
    y = data.draw(wreath_elements(ctx))
    assert ctx.multiply(x, y) == _reference_multiply(ctx, x, y)
    assert ctx.inverse(x) == _reference_inverse(ctx, x)


def _spoil(ctx, lamps, cursor, how):
    """``(lamps, cursor)`` of a canonical element, spoiled one way."""
    lamps = list(lamps)
    if how == "swap" and len(lamps) > 1:
        lamps[0], lamps[1] = lamps[1], lamps[0]
    elif how == "duplicate" and lamps:
        lamps.append(lamps[0])
    elif how == "identity value" and lamps:
        lamps.insert(0, (lamps[0][0], ctx.fiber.identity()))
    elif how == "True position" and lamps:
        lamps[-1] = (True, lamps[-1][1])
    elif how == "value past the order" and lamps:
        lamps[0] = (lamps[0][0], lamps[0][1] + ctx.fiber.order())
    elif how == "True cursor":
        cursor = True
    return (lamps if how == "list" else tuple(lamps)), cursor


def _canonical_or_error(call):
    """The value ``call`` returns, or the message of the EncodingError it raises."""
    try:
        return call()
    except EncodingError as exc:
        return str(exc)


SPOILS = ["none", "swap", "duplicate", "identity value", "True position"]
SPOILS += ["value past the order", "True cursor", "list"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(WREATHS)), st.sampled_from(SPOILS), st.data())
def test_canonicalize_answers_a_wreath_element_as_the_pair_it_holds(name, how, data):
    # a plain pair is always rebuilt, so it is the reference for the
    # WreathElement that canonicalize may return as it is
    ctx = WREATHS[name]
    x = data.draw(wreath_elements(ctx))
    lamps, cursor = _spoil(ctx, x.lamps, x.cursor, how)
    given_element = WreathElement(lamps, cursor)
    got = _canonical_or_error(lambda: ctx.canonicalize(given_element))
    assert got == _canonical_or_error(lambda: ctx.canonicalize((lamps, cursor)))
    if how == "none":
        assert got is given_element


# -- batch decoding -------------------------------------------------------------------

_C2 = CyclicGroup(2)
# (context, radius of the ball whose encodings are decoded)
BATCHED = {
    "L2": (L2, 6),
    "C3wrZ": (WREATHS["C3wrZ"], 5),
    "W2": (_C2wrZ2, 4),
    "F1": (FreeGroup(1), 7),
    "F2": (F2, 4),
    "F4": (FreeGroup(4), 4),
    "ZxC2": (_ZxC2, 5),
    "C2wr(ZxC2)": (WreathContext(_C2, _ZxC2), 5),
    "(C2wrC2)wrZ": (WreathContext(WreathContext(_C2, _C2), Z), 4),
}


@functools.cache
def ball_encodings(name):
    ctx, r = BATCHED[name]
    return tuple(ctx.encode(x) for x in ball(ctx, r).elements)


def _wreath_bytes(ctx, lamps, cursor):
    """The encoding layout of ``(lamps, cursor)`` as given: no sorting, no dropped values."""
    lit = b"".join(ctx.base.encode(pos) + ctx.fiber.encode(val) for pos, val in lamps)
    return encode_uvarint(len(lamps)) + lit + ctx.base.encode(cursor)


def mutations(ctx, enc):
    """Encodings near ``enc`` that ``decode`` refuses."""
    out = [enc + b"\x00", enc[:-1]]
    if isinstance(ctx, WreathContext):
        x = ctx.decode(enc)
        prefix = enc[: len(enc) - len(ctx.base.encode(x.cursor))]
        out.append(prefix + b"\x80\x00")  # a non-minimal cursor varint
        if x.lamps:
            (pos, _), *rest = x.lamps
            out.append(_wreath_bytes(ctx, [(pos, ctx.fiber.identity()), *rest], x.cursor))
        if len(x.lamps) >= 2:
            out.append(_wreath_bytes(ctx, x.lamps[::-1], x.cursor))
    elif isinstance(ctx, FreeGroup):
        # letter 0, an unreduced word, a letter past the rank, a non-minimal letter
        out += [bytes([1, 0]), bytes([2, 2, 1]), bytes([1, 9]), bytes([1, 0x82, 0x00])]
        # the source word (the parent) plus a letter past the rank, and plus
        # the inverse of its last letter
        x = ctx.decode(enc)
        out.append(_free_bytes((*x, ctx.rank + 1)))
        if x:
            out.append(_free_bytes((*x, -x[-1])))
    return out


def _free_bytes(letters):
    """The varint layout of a word of ``letters`` as given: nothing checked."""
    return encode_uvarint(len(letters)) + b"".join(encode_svarint(a) for a in letters)


def _refused_or(decode, batch):
    try:
        return decode(batch)
    except EncodingError:
        return EncodingError


def _check_sorted_batch(ctx, encs):
    """``decode_many(encs)`` is ``decode`` on each, and refuses each mutation after its source."""
    assert list(encs) == sorted(encs)
    assert ctx.decode_many(encs) == [ctx.decode(e) for e in encs]
    for enc in encs:
        for bad in mutations(ctx, enc):
            with pytest.raises(EncodingError):
                ctx.decode(bad)
            # right after its source, a mutation shares the source's lamp prefix
            with pytest.raises(EncodingError):
                ctx.decode_many([enc, bad])


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_decode_many_equals_decode_on_a_sorted_ball(name):
    ctx, _ = BATCHED[name]
    _check_sorted_batch(ctx, ball_encodings(name))


# zigzag varints of 2, 1, 1, 1, 2 and 2 bytes; fiber values 1 and 150 take 1 and 2 bytes
_MIXED_POSITIONS = (-70, -3, 0, 5, 64, 100)
_MIXED_VALUES = (1, 150)
_MIXED_CURSORS = (-65, 0, 3, 64)


@pytest.mark.parametrize("order, widths", [(2, {2, 3}), (200, {2, 3, 4})], ids=["C2", "C200"])
def test_decode_many_equals_decode_with_lamp_cells_of_mixed_widths(order, widths):
    # every element lighting some of the positions, with values in the fiber
    ctx = WreathContext(CyclicGroup(order), Z)
    values = [v for v in _MIXED_VALUES if v < order]
    elements = [
        ctx.element(zip(positions, lit), cursor)
        for k in range(len(_MIXED_POSITIONS) + 1)
        for positions in itertools.combinations(_MIXED_POSITIONS, k)
        for lit in itertools.product(values, repeat=k)
        for cursor in _MIXED_CURSORS
    ]
    cells = {len(Z.encode(p)) + len(ctx.fiber.encode(v)) for x in elements for p, v in x.lamps}
    assert cells == widths
    _check_sorted_batch(ctx, sorted(ctx.encode(x) for x in elements))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BATCHED)), st.data())
def test_decode_many_refuses_exactly_what_decode_refuses(name, data):
    ctx, _ = BATCHED[name]
    encs = ball_encodings(name)
    batch = sorted(data.draw(st.lists(st.sampled_from(encs), max_size=20, unique=True)))
    source = data.draw(st.sampled_from(encs))
    at = data.draw(st.integers(0, len(source) - 1))
    edited = source[:at] + bytes([data.draw(st.integers(0, 255))]) + source[at + 1 :]
    odd = data.draw(st.sampled_from([*mutations(ctx, source), edited]) | st.binary(max_size=8))
    batch.insert(data.draw(st.integers(0, len(batch))), odd)
    if data.draw(st.booleans()):
        batch.sort()
    one_by_one = _refused_or(lambda b: [ctx.decode(e) for e in b], batch)
    assert _refused_or(ctx.decode_many, batch) == one_by_one


BATCHED_WREATHS = [name for name in sorted(BATCHED) if isinstance(BATCHED[name][0], WreathContext)]


@pytest.mark.parametrize("name", BATCHED_WREATHS)
def test_decode_many_orders_the_first_parsed_lamp_after_the_kept_ones(name):
    ctx, _ = BATCHED[name]
    for enc in ball_encodings(name):
        x = ctx.decode(enc)
        if len(x.lamps) >= 2:
            # every lamp but the last kept, then the first lamp again
            bad = _wreath_bytes(ctx, [*x.lamps[:-1], x.lamps[0]], x.cursor)
            for batch in ([bad], [enc, bad]):
                with pytest.raises(EncodingError, match="strictly increasing"):
                    ctx.decode_many(batch)


BATCHED_FREE = [name for name in sorted(BATCHED) if isinstance(BATCHED[name][0], FreeGroup)]


@pytest.mark.parametrize("r", [2, 6, 9])
def test_free_decode_many_canonicalizes_only_the_identity_of_a_sorted_ball(r):
    # a group of its own, so patching it touches no other test's group
    ctx = FreeGroup(2)
    elements = ball(ctx, r).elements
    encs = [ctx.encode(x) for x in elements]
    assert encs == sorted(encs)
    with mock.patch.object(ctx, "canonicalize", side_effect=ctx.canonicalize) as calls:
        assert ctx.decode_many(encs) == list(elements)
    assert calls.call_count == 1


def test_free_decode_many_canonicalizes_each_word_whose_parent_is_not_before_it():
    ctx = FreeGroup(2)
    encs = [ctx.encode(x) for x in ball(ctx, 5).elements]
    two_letters = [e for e in encs if e[0] == 2]
    for batch, canonicalized in (
        (encs[::-1], 161),  # every parent after its words
        ([e for e in encs if e[0] != 2], 1 + 36),  # the identity and the 3-letter words
        (two_letters + encs, 12 + 1),  # the 2-letter words before their parents
    ):
        one_by_one = [ctx.decode(e) for e in batch]
        with mock.patch.object(ctx, "canonicalize", side_effect=ctx.canonicalize) as calls:
            assert ctx.decode_many(batch) == one_by_one
        assert calls.call_count == canonicalized


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BATCHED_FREE), st.data())
def test_free_decode_many_equals_decode_with_parents_missing_or_out_of_order(name, data):
    ctx, _ = BATCHED[name]
    encs = ball_encodings(name)
    batch = data.draw(st.lists(st.sampled_from(encs), max_size=40))
    if data.draw(st.booleans()):
        batch.sort(reverse=data.draw(st.booleans()))
    assert ctx.decode_many(batch) == [ctx.decode(e) for e in batch]


@st.composite
def reduced_words(draw, rank):
    """Reduced words of up to 300 letters within ``rank``, some of 0x80 letters or more."""
    size = draw(st.integers(0, 0x7F) | st.integers(0x7E, 300) | st.integers(0, 3))
    letters = [a for a in range(-rank, rank + 1) if a]
    word: list[int] = []
    for pick in draw(st.lists(st.integers(0, 2 * rank - 1), min_size=size, max_size=size)):
        choices = [a for a in letters if not word or a != -word[-1]]
        word.append(choices[pick % len(choices)])
    return tuple(word)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda rank: st.tuples(st.just(rank), reduced_words(rank))))
def test_free_encode_writes_the_varint_bytes(rank_and_word):
    rank, word = rank_and_word
    ctx = FreeGroup(rank)
    assert ctx.encode(word) == _free_bytes(word)
    assert ctx.decode(ctx.encode(word)) == word
    assert ctx.decode_many([ctx.encode(word)]) == [word]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(-300, 300), max_size=0x90))
def test_free_encode_keeps_the_varint_bytes_of_any_letters(rank, letters):
    # letter 0, letters past the rank and multi-byte letters take the varint path
    assert FreeGroup(rank).encode(tuple(letters)) == _free_bytes(letters)


@pytest.mark.parametrize("fiber, r, parses", [(2, 12, 44), (3, 10, 53)])
def test_decode_many_parses_each_lamp_cell_and_cursor_once(fiber, r, parses):
    # a context of its own, so patching its base touches no other test's group
    ctx = WreathContext(CyclicGroup(fiber), IntegerGroup())
    elements = ball(ctx, r).elements
    encs = [ctx.encode(x) for x in elements]
    assert encs == sorted(encs)
    lamps = {lamp for x in elements for lamp in x.lamps}
    cursors = {x.cursor for x in elements}
    with mock.patch.object(ctx.base, "decode_from", side_effect=ctx.base.decode_from) as calls:
        assert ctx.decode_many(encs) == list(elements)
    assert calls.call_count == len(lamps) + len(cursors) == parses


def test_decode_many_shares_one_pair_tuple_per_distinct_lamp():
    decoded = L2.decode_many([L2.encode(x) for x in ball(L2, 12).elements])
    pairs = [lamp for x in decoded for lamp in x.lamps]
    assert len({id(lamp) for lamp in pairs}) == len(set(pairs)) == 21


def _outcome(decode_from, data, pos):
    try:
        return decode_from(data, pos)
    except EncodingError as exc:
        return str(exc)


def _read_residue(modulus):
    def read(data, pos):
        value, pos = read_uvarint(data, pos)
        if value >= modulus:
            raise EncodingError(f"cyclic residue {value} out of range for modulus {modulus}")
        return value, pos

    return read


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=6), st.data())
def test_one_byte_decoders_match_the_varint_readers(data, draw):
    pos = draw.draw(st.integers(0, len(data)))
    for raw in (data, memoryview(data)):
        assert _outcome(Z.decode_from, raw, pos) == _outcome(read_svarint, raw, pos)
        for modulus in (3, 100, 300):
            assert _outcome(CyclicGroup(modulus).decode_from, raw, pos) == _outcome(
                _read_residue(modulus), raw, pos
            )


def test_one_byte_decoders_still_refuse_non_minimal_and_truncated_varints():
    for decode_from in (Z.decode_from, CyclicGroup(300).decode_from):
        with pytest.raises(EncodingError, match="non-minimal varint at byte 0"):
            decode_from(b"\x80\x00", 0)
        for data, pos in ((b"", 0), (b"\x05", 1), (b"\x80", 0), (b"\x01\xff", 1)):
            with pytest.raises(EncodingError, match=f"truncated varint at byte {pos}"):
                decode_from(data, pos)


# -- the search kernel ----------------------------------------------------------------

# every kind of search space: generic Cayley states, and packed lamp states
# over Z, Z^2, F2 and L2 bases
SPACES = {**GROUPS, **NESTED, **WREATHS}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SPACES)), st.data())
def test_expand_lists_the_products_with_the_symmetric_generators_in_order(name, data):
    ctx = SPACES[name]
    far = isinstance(ctx, WreathContext) and data.draw(st.booleans())
    g = data.draw(wreath_elements(ctx) if far else elements(ctx))
    space = ctx._search_space()
    seen = {}
    around = space.expand([space.state_of(g)], seen, 3)
    products = [ctx.multiply(g, s) for s in ctx.symmetric_generators()]
    assert space.encoded_values(around) == ([ctx.encode(x) for x in products], products)
    assert list(seen) == around and set(seen.values()) == {3}


# packed lamp spaces, whose neighbours are XOR masks, over Z, Z^2, F2 and Z x C2
# bases, with fibers C2, C3 and S3, and the radius each is searched to
XOR_SPACES = {
    "L2": (L2, 5),
    "C3wrZ": (WREATHS["C3wrZ"], 4),
    "S3wrZ": (WREATHS["S3wrZ"], 3),
    "W2": (_C2wrZ2, 4),
    "C2wrF2": (WREATHS["C2wrF2"], 3),
    "C2wr(ZxC2)": (WreathContext(CyclicGroup(2), _ZxC2), 4),
}


def _searched(space, depth):
    search = groups._BallSearch(space, DEFAULT_BUDGET)
    search.extend(depth)
    return search


@pytest.mark.parametrize("name", sorted(XOR_SPACES))
def test_walk_takes_the_steps_of_expand_on_every_state_of_a_small_ball(name):
    ctx, r = XOR_SPACES[name]
    space = ctx._search_space()
    degree = len(ctx.symmetric_generators())
    for state in _searched(space, r).seen:
        around = space.expand([state], {}, 1)
        assert len(around) == degree
        assert [space.walk(state, [i]) for i in range(degree)] == around


@pytest.mark.parametrize("name", sorted(XOR_SPACES))
def test_packed_balls_and_geodesics_equal_the_cayley_reference(name):
    ctx, r = XOR_SPACES[name]
    space = ctx._search_space()
    packed = _searched(space, r).seen
    reference = _searched(groups._CayleySpace(ctx), r).seen
    # the same elements at the same depths, discovered in the same order
    assert [(space.element_of(s), n) for s, n in packed.items()] == list(reference.items())
    near = [g for g, n in reference.items() if n < r]
    with mock.patch.object(ctx, "_search_space", return_value=groups._CayleySpace(ctx)):
        expected = [minimal_word(ctx, g) for g in near]
    assert [minimal_word(ctx, g) for g in near] == expected


def _reference_expand(space, frontier, seen, depth, budget, degree):
    """``expand`` as a loop over each state's ``walk`` steps, testing the budget after every state."""
    nxt = []
    for state in frontier:
        for i in range(degree):
            other = space.walk(state, [i])
            if other not in seen:
                seen[other] = depth
                nxt.append(other)
        if len(seen) > budget:
            return None
    return nxt


# every packed lamp space above, and Cayley spaces of Z^2, F2 and Z x C2, with
# the depth of the level expanded under budgets that fall inside it
BUDGETED = {
    **{name: (ctx, r - 1) for name, (ctx, r) in XOR_SPACES.items()},
    "Z2": (Z2, 4),
    "F2": (F2, 3),
    "ZxC2": (_ZxC2, 5),
}


class _Spy:
    """A search space's ``expand``, recording ``len(seen)`` after each call."""

    def __init__(self, space):
        self.space, self.degree, self.sizes = space, space.degree, []

    def identity_state(self):
        return self.space.identity_state()

    def expand(self, frontier, seen, depth, goal=()):
        nxt = self.space.expand(frontier, seen, depth, goal)
        self.sizes.append(len(seen))
        return nxt


@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_expand_over_budget_fails_at_the_state_a_per_state_test_does(name):
    ctx, depth = BUDGETED[name]
    degree = len(ctx.symmetric_generators())
    spaces = [ctx._search_space()]
    if isinstance(ctx, WreathContext):
        spaces.append(groups._CayleySpace(ctx))
    # from depth 0 every neighbour is new, so a level can add exactly its bound
    for space, level in itertools.product(spaces, (0, depth)):
        assert space.degree == degree
        spy = _Spy(space)
        held = len(_searched(spy, level).seen)
        added = len(_searched(space, level + 1).seen) - held
        for budget in range(held - 2, held + added + 2):
            search = _searched(spy, level)
            before, frontier = list(search.seen.items()), search.frontier
            want_seen = dict(search.seen)
            want = _reference_expand(space, frontier, want_seen, level + 1, budget, degree)
            spy.sizes.clear()
            stepped = search.step(budget)
            assert stepped == (want is not None) == (held + added <= budget)
            if budget >= held:
                assert max(spy.sizes) <= budget + degree
            if stepped:
                assert search.frontier == want
                assert list(search.seen.items()) == list(want_seen.items())
            else:
                # the search tested the state the reference failed at, then
                # dropped the level
                assert spy.sizes[-1] == len(want_seen)
                assert list(search.seen.items()) == before
                assert search.frontier is frontier and search.reach == level


# -- state arithmetic ------------------------------------------------------------------

# packed lamp spaces over Z, Z^2, F2 and L2 bases, with a nonabelian fiber (S3,
# which pins the order of a lamp's product), and Cayley spaces of non-wreaths
STATE_GROUPS = {
    "L2": L2,
    "C3wrZ": WREATHS["C3wrZ"],
    "S3wrZ": WREATHS["S3wrZ"],
    "W2": _C2wrZ2,
    "C2wrF2": WREATHS["C2wrF2"],
    "C2wrL2": _C2wrL2,
    "Z": Z,
    "Z2": Z2,
    "F2": F2,
}
# the radius of the ball whose every pair is multiplied as states
STATE_RADII = {"L2": 7, "C3wrZ": 5, "S3wrZ": 4, "W2": 4, "C2wrF2": 4, "C2wrL2": 4, "Z": 6, "Z2": 4, "F2": 4}


def _check_state_arithmetic(ctx, a, b):
    space = ctx._search_space()
    sa, sb = space.state_of(a), space.state_of(b)
    assert space.element_of(space.multiply_states(sa, sb)) == ctx.multiply(a, b)
    assert space.element_of(space.inverse_state(sa)) == ctx.inverse(a)
    assert space.multiply_states(space.inverse_state(sa), sa) == space.identity_state()


@pytest.mark.parametrize("name", sorted(STATE_GROUPS))
def test_state_products_and_inverses_on_every_pair_of_a_small_ball(name):
    ctx = STATE_GROUPS[name]
    points = ball(ctx, STATE_RADII[name]).elements
    assert isinstance(ctx._search_space(), groups._CayleySpace) == (name in ("Z", "Z2", "F2"))
    for a in points:
        for b in points:
            _check_state_arithmetic(ctx, a, b)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(STATE_GROUPS)), st.data())
def test_state_products_and_inverses_of_elements_with_many_lamps(name, data):
    ctx = STATE_GROUPS[name]
    if isinstance(ctx, WreathContext):
        values = st.sampled_from(ctx.fiber.elements())
        lamps = st.dictionaries(elements(ctx.base, 6), values, min_size=4, max_size=16)
        drawn = st.builds(ctx.element, lamps.map(lambda d: list(d.items())), elements(ctx.base, 6))
    else:
        drawn = elements(ctx, 12)
    a, b = data.draw(drawn), data.draw(drawn)
    _check_state_arithmetic(ctx, a, b)
    # lamps of b land on lit lamps of a
    _check_state_arithmetic(ctx, a, ctx.multiply(ctx.inverse(a), b))


# lamp positions past +-30, where a search from the identity hands out ids above 64
_FAR = (-44, -37, -31, 0, 3, 33, 41, 47)


@pytest.mark.parametrize("name", ["L2", "C3wrZ", "S3wrZ"])
def test_state_arithmetic_past_64_position_ids(name):
    # a fresh space over Z: position p gets id 2p - 1 for p > 0 and 2|p| for
    # p < 0, and S3's 3-bit fields cross 64-bit word boundaries
    ctx = WreathContext(STATE_GROUPS[name].fiber, Z)
    space = ctx._search_space()
    moves = tuple(space.state_of(ctx.element([], t)) for t in (1, -1))
    search = groups._BallSearch(groups._CayleySpace(ctx, moves, over=space), DEFAULT_BUDGET)
    search.extend(40)
    assert len(space._positions) > 64
    values = ctx._lamp_values
    far = [
        ctx.element(
            [(p, values[(i + k) % len(values)]) for i, p in enumerate(_FAR) if (i + k) % 3],
            cursor,
        )
        for k, cursor in enumerate((-39, 0, 35, 44))
    ]
    states = list(search.seen)
    for a in far:
        sa = space.state_of(a)
        assert space.element_of(sa) == a
        assert space.element_of(space.inverse_state(sa)) == ctx.inverse(a)
        states.append(space.inverse_state(sa))
        for b in far:
            states.append(space.multiply_states(sa, space.state_of(b)))
            assert space.element_of(states[-1]) == ctx.multiply(a, b)
    assert any(idx > 64 for s in states for idx, _ in space._lit(s))
    for s in states:
        assert space.state_of(space.element_of(s)) == s


# -- word metric -----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_length_is_subadditive_and_symmetric(data):
    a = data.draw(elements(L2, 4))
    b = data.draw(elements(L2, 4))
    la = word_length(L2, a)
    lb = word_length(L2, b)
    assert word_length(L2, L2.multiply(a, b)) <= la + lb
    assert word_length(L2, L2.inverse(a)) == la


@settings(max_examples=40, deadline=None)
@given(words(L2, 6))
def test_minimal_word_never_longer_than_any_witness(letters):
    g = evaluate_word(L2, letters)
    word = minimal_word(L2, g)
    assert len(word) <= len(letters)
    assert evaluate_word(L2, word) == g


# the largest radius each resumed oracle is asked for: packed lamp states over
# Z and Z^2, Cayley states of an infinite group and of a finite one (S3)
RESUMED = {
    "L2": (L2, 8),
    "C3wrZ": (WREATHS["C3wrZ"], 6),
    "W2": (_C2wrZ2, 5),
    "F2": (F2, 5),
    "ZxC2": (_ZxC2, 8),
    "S3": (S3, 6),
}


@functools.cache
def _fresh_ball(name, r):
    table = ball(RESUMED[name][0], r)
    return table.elements, list(table.lengths.items())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(RESUMED)), st.data())
def test_a_resumed_search_answers_as_a_fresh_one(name, data):
    ctx, most = RESUMED[name]
    oracle = LengthOracle(ctx)
    query = st.tuples(st.sampled_from(["growth", "ball"]), st.integers(1, most))
    for kind, r in data.draw(st.lists(query, max_size=8)):
        if kind == "growth":
            assert oracle.growth(r) == len(_fresh_ball(name, r)[0])
        else:
            table = oracle.ball(r)
            assert (table.elements, list(table.lengths.items())) == _fresh_ball(name, r)
    held = oracle._bfs
    fresh = groups._BallSearch(ctx._search_space(), DEFAULT_BUDGET)
    fresh.extend(held.reach)
    assert list(held.seen.items()) == list(fresh.seen.items())
    if ctx.order() is not None:
        # past the diameter the frontier is empty, and the count stays the order
        assert oracle.growth(most + 1) == oracle.growth(4 * most) == ctx.order() == len(held.seen)


# each oracle's search radius, over packed lamp states (L2, C3wrZ, W2) and over
# Cayley states (F2)
SEARCHED = {"L2": (L2, 7), "C3wrZ": (WREATHS["C3wrZ"], 6), "W2": (_C2wrZ2, 5), "F2": (F2, 5)}


@functools.cache
def _spheres(name):
    """The elements of each length up to two past the search's reach."""
    ctx, radius = SEARCHED[name]
    spheres = [[] for _ in range(radius + 2)]
    for g, n in ball(ctx, radius + 2).lengths.items():
        spheres[n].append(g)
    return spheres


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SEARCHED)), st.data())
def test_searched_oracle_lengths_equal_word_lengths(name, data):
    ctx, radius = SEARCHED[name]
    oracle = LengthOracle(ctx)
    oracle.growth(radius)
    reach = radius - 1
    assert oracle._bfs.reach == reach
    near = st.integers(reach - 1, reach + 2).flatmap(lambda n: st.sampled_from(_spheres(name)[n]))
    g = data.draw(elements(ctx, reach + 3) | near)
    bound = data.draw(st.sampled_from([None, 0, reach - 1, reach, reach + 1, reach + 2]))
    expected = word_length(ctx, g, at_most=bound)
    missed = oracle._bfs.space.state_of(g) not in oracle._bfs.seen
    space = type(oracle._bfs.space)
    with mock.patch.object(space, "expand", autospec=True, side_effect=space.expand) as expand:
        assert oracle._known_length(g, bound) == expected
    # complete up to its reach, the search answers a miss within it with no level of its own
    assert expand.called == (missed and (bound is None or bound > reach))


# the oracles whose misses meet their held search: packed lamp states over Z
# and Z^2, Cayley states of infinite groups and of a finite one (C3)
MEETS = {
    "L2": L2,
    "C3wrZ": WREATHS["C3wrZ"],
    "S3wrZ": WREATHS["S3wrZ"],
    "W2": _C2wrZ2,
    "F2": F2,
    "ZxC2": _ZxC2,
    "C3": C3,
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(MEETS)), st.data())
def test_an_oracle_miss_answers_as_a_fresh_word_length(name, data):
    ctx = MEETS[name]
    oracle = LengthOracle(ctx)
    oracle.growth(data.draw(st.integers(1, 4)))
    bounds = st.none() | st.integers(0, 8)
    for g, bound in data.draw(st.lists(st.tuples(elements(ctx, 6), bounds), max_size=4)):
        assert oracle._known_length(g, bound) == word_length(ctx, g, at_most=bound)
    g = data.draw(elements(ctx, 7))
    n = word_length(ctx, g)
    # below, at and above the length
    bound = data.draw(st.sampled_from([None, max(n - 2, 0), max(n - 1, 0), n, n + 1]))
    assert oracle._known_length(g, bound) == word_length(ctx, g, at_most=bound)
    held = oracle._bfs
    fresh = groups._BallSearch(ctx._search_space(), DEFAULT_BUDGET)
    fresh.extend(held.reach)
    assert list(held.seen.items()) == list(fresh.seen.items())


# the oracles a long run of misses deepens: packed lamp states over Z and Z^2,
# Cayley states of a free group and of Z x C2
WEIGHTED = {"L2": L2, "C3wrZ": WREATHS["C3wrZ"], "W2": _C2wrZ2, "F2": F2, "ZxC2": _ZxC2}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(WEIGHTED)), st.data())
def test_a_long_run_of_misses_answers_as_fresh_word_lengths(name, data):
    ctx = WEIGHTED[name]
    oracle = LengthOracle(ctx)
    queries = st.tuples(elements(ctx, 10), st.none() | st.integers(0, 10))
    for g, bound in data.draw(st.lists(queries, min_size=12, max_size=40)):
        n = word_length(ctx, g)
        if bound is None:
            assert oracle.length(g) == n
        else:
            # None exactly past the bound
            assert oracle.length_at_most(g, bound) == (None if n > bound else n)
    # each miss weighed the held search's levels more, and it is still one BFS
    held = oracle._bfs
    fresh = groups._BallSearch(ctx._search_space(), DEFAULT_BUDGET)
    fresh.extend(held.reach)
    assert list(held.seen.items()) == list(fresh.seen.items())


# the radius of each ball whose one-directional lengths are the reference
REFERENCE_BALLS = {
    "L2": (L2, 9),
    "C3wrZ": (WREATHS["C3wrZ"], 7),
    "S3wrZ": (WREATHS["S3wrZ"], 5),
    "W2": (_C2wrZ2, 6),
    "ZxC2": (_ZxC2, 10),
    "C3": (C3, 4),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_BALLS))
def test_bidirectional_lengths_equal_the_one_directional_ball(name):
    # ball() steps one BFS from the identity, so its lengths never pass
    # through _meet; word_length and each fresh oracle's miss both do
    ctx, r = REFERENCE_BALLS[name]
    table = ball(ctx, r)
    reach = max(table.lengths.values())
    for g, n in table.lengths.items():
        for bound in [None, *range(reach + 3)]:
            want = n if bound is None or n <= bound else None
            assert word_length(ctx, g, at_most=bound) == want
            assert LengthOracle(ctx)._known_length(g, bound) == want


# -- bulbs ------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.just(1)), max_size=4))
def test_bulb_product_round_trips_through_kernel(pairs):
    product = bulb_product(L2, pairs)
    assert product.cursor == 0
    assert bulb_product(L2, product.lamps) == product
    # Lamps are strictly sorted in the base group's canonical order.
    keys = [L2.base.sort_key(pos) for pos, _ in product.lamps]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(S3.elements())), max_size=6))
def test_bulb_product_is_the_ordered_product_of_its_bulbs(pairs):
    # S3 is nonabelian, so factors at one index must multiply in order.
    ctx = WREATHS["S3wrZ"]
    folded = ctx.identity()
    for index, value in pairs:
        folded = ctx.multiply(folded, ctx.element([(index, value)], 0))
    assert bulb_product(ctx, pairs) == folded


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(-3, 3), min_size=1, max_size=3))
def test_distinct_bulb_count_lower_bounds_length(indices):
    product = bulb_product(L2, [(i, 1) for i in indices])
    assert word_length(L2, product) >= len(indices)


# -- components --------------------------------------------------------------------


@settings(max_examples=50)
@given(
    st.sets(st.integers(0, 15), min_size=1, max_size=8),
    st.integers(1, 4),
)
def test_r_components_partition_and_separate(points, r):
    view = GroupWindowView(Z, range(16))
    subset = tuple(sorted(points))
    comps = r_components(view, subset, r)
    flat = [x for comp in comps for x in comp]
    assert sorted(flat) == sorted(subset)
    assert len(flat) == len(set(flat))
    for i, comp in enumerate(comps):
        for other in comps[i + 1 :]:
            for x in comp:
                for y in other:
                    assert abs(x - y) >= r


_DIAMETER_GROUPS = {
    "L2": L2,
    "C3wrZ": WreathContext(C3, Z),
    "W2": WreathContext(CyclicGroup(2), Z2),
    "F2": F2,
    "ZxC2": _ZxC2,
}


@functools.cache
def _diameter_window(name, kind):
    ctx = _DIAMETER_GROUPS[name]
    oracle = LengthOracle(ctx)
    points = kernel_window(ctx, 7, oracle=oracle) if kind == "kernel" else oracle.ball(5).elements
    return GroupWindowView(ctx, points, oracle)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [(name, "ball") for name in _DIAMETER_GROUPS]
        + [(name, "kernel") for name in ("L2", "C3wrZ", "W2")]
    ),
    st.integers(1, 4),
    st.data(),
)
def test_max_diameter_equals_the_all_pairs_maximum(window, r, data):
    view = _diameter_window(*window)
    subset = data.draw(
        st.lists(st.sampled_from(view.points), min_size=1, max_size=24, unique=True)
    )
    # each component's first point is its pivot, so every component of a subset
    # listed in drawn order, and the subset without the identity, is off-centre
    identity = view.ctx.identity()
    for components in (
        r_components(view, subset, r),
        [tuple(x for x in subset if x != identity)],
    ):
        pairs = (pair for comp in components for pair in itertools.combinations(comp, 2))
        assert max_diameter(view, components) == max(
            (view.dist(a, b) for a, b in pairs), default=0
        )


_WINDOWS = [(name, "ball") for name in _DIAMETER_GROUPS] + [
    (name, "kernel") for name in ("L2", "C3wrZ", "W2")
]
# integer radii, and fractional ones down to r <= 1, where no hop is short enough
_HOP_RADII = [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3, 4]


def _pairwise_components(view, subset, r):
    """Chain components from every pair's distance, listed as ``r_components`` lists them."""
    parent = list(range(len(subset)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(subset)), 2):
        if view.dist(subset[i], subset[j]) < r:
            parent[root(j)] = root(i)
    by_root: dict[int, list] = {}
    for i, x in enumerate(subset):
        by_root.setdefault(root(i), []).append(x)
    return tuple(tuple(comp) for comp in by_root.values())


def _pairwise_lebesgue(view, cover, r):
    """``lebesgue_ok``'s (ok, witness) from every pair's distance."""
    for x in view.points:
        near = [y for y in view.points if view.dist(x, y) < r]
        if not any(all(y in part for y in near) for part in cover.parts):
            return False, x
    return True, None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_WINDOWS), st.sampled_from(_HOP_RADII), st.data())
def test_hops_match_pairwise_distances(window, r, data):
    full = _diameter_window(*window)
    subset = data.draw(
        st.lists(st.sampled_from(full.points), min_size=1, max_size=16, unique=True)
    )
    expected = _pairwise_components(full, subset, r)
    assert r_components(full, subset, r) == expected
    view = GroupWindowView(full.ctx, subset, full.oracle)
    assert r_components(view, None, r) == expected
    size = len(subset)
    membership = data.draw(st.lists(st.sampled_from([1, 2, 3]), min_size=size, max_size=size))
    cover = cover_of([x for x, m in zip(subset, membership) if m & bit] for bit in (1, 2))
    check = lebesgue_ok(view, cover, r)
    assert (check.radius, check.ok, check.witness) == (r, *_pairwise_lebesgue(view, cover, r))


_WORD_GROUPS = {
    **GROUPS,
    **NESTED,
    "C3wrZ": _DIAMETER_GROUPS["C3wrZ"],
    "W2": _DIAMETER_GROUPS["W2"],
    "ZxC2": _ZxC2,
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_WORD_GROUPS)), st.data())
def test_evaluate_word_is_the_fold_of_multiply(name, data):
    ctx = _WORD_GROUPS[name]
    gens = st.sampled_from(ctx.symmetric_generators())
    letter = st.one_of(
        gens,
        gens.map(lambda g: ctx.decode(ctx.encode(g))),  # equal to a generator, a new object
        st.lists(gens, min_size=2, max_size=4).map(
            lambda w: functools.reduce(ctx.multiply, w, ctx.identity())
        ),
    )
    word = data.draw(st.lists(letter, max_size=10))
    folded = ctx.identity()
    for x in word:
        folded = ctx.multiply(folded, ctx.canonicalize(x))
    assert evaluate_word(ctx, word) == folded


# -- lattice claims ------------------------------------------------------------------


@settings(max_examples=60)
@given(st.data())
def test_lattice_witness_spread_when_hypothesis_holds(data):
    points = lattice_points(2, 2)
    membership = data.draw(
        st.lists(st.sampled_from([1, 2, 3]), min_size=9, max_size=9)
    )
    parts = [
        [p for p, m in zip(points, membership) if m & 1],
        [p for p, m in zip(points, membership) if m & 2],
    ]
    out = lattice_cover_witness(2, 2, parts)
    if out.hypothesis_ok:
        _, a, b = out.witness
        assert max(abs(x - y) for x, y in zip(a, b)) == 2
    else:
        assert out.violator in points
