"""Property-based invariants: group axioms, metric laws, and canonical encodings."""

from __future__ import annotations

import functools
import itertools
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
    evaluate_word,
    kernel_window,
    lattice_cover_witness,
    lattice_points,
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
    # window views look x^-1 y up in the length memo without canonicalizing it
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


# -- batch decoding -------------------------------------------------------------------

_C2 = CyclicGroup(2)
# (context, radius of the ball whose encodings are decoded)
BATCHED = {
    "L2": (L2, 6),
    "C3wrZ": (WREATHS["C3wrZ"], 5),
    "W2": (_C2wrZ2, 4),
    "F2": (F2, 4),
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
    return out


def _refused_or(decode, batch):
    try:
        return decode(batch)
    except EncodingError:
        return EncodingError


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_decode_many_equals_decode_on_a_sorted_ball(name):
    ctx, _ = BATCHED[name]
    encs = ball_encodings(name)
    assert list(encs) == sorted(encs)
    assert ctx.decode_many(encs) == [ctx.decode(e) for e in encs]
    for enc in encs:
        for bad in mutations(ctx, enc):
            with pytest.raises(EncodingError):
                ctx.decode(bad)
            # right after its source, a mutation shares the source's lamp prefix
            with pytest.raises(EncodingError):
                ctx.decode_many([enc, bad])


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
    around = space.expand([space.state_of(g)], seen, 3, DEFAULT_BUDGET)
    products = [ctx.multiply(g, s) for s in ctx.symmetric_generators()]
    assert space.encoded_values(around) == ([ctx.encode(x) for x in products], products)
    assert list(seen) == around and set(seen.values()) == {3}


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
    oracle.search(radius)
    reach = radius - 1
    assert oracle._reach == reach
    near = st.integers(reach - 1, reach + 2).flatmap(lambda n: st.sampled_from(_spheres(name)[n]))
    g = data.draw(elements(ctx, reach + 3) | near)
    bound = data.draw(st.sampled_from([None, 0, reach - 1, reach, reach + 1, reach + 2]))
    expected = word_length(ctx, g, at_most=bound)
    if bound is not None and bound <= reach:
        # complete up to its reach, the search answers a miss with no search of its own
        with mock.patch.object(groups, "word_length", side_effect=AssertionError):
            assert oracle._known_length(g, bound) == expected
    else:
        assert oracle._known_length(g, bound) == expected


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
