"""Property-based invariants: group axioms, metric laws, and canonical encodings."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from wreathdim import (
    CyclicGroup,
    FreeGroup,
    IntegerGroup,
    ProductGroup,
    TableGroup,
    WreathContext,
    WreathElement,
    bulb_product,
    evaluate_word,
    lattice_cover_witness,
    lattice_points,
    minimal_word,
    r_components,
    word_length,
)
from wreathdim.covers import ExplicitMetricView
from wreathdim.encoding import encode_svarint, encode_uvarint, read_svarint, read_uvarint

Z = IntegerGroup()
C3 = CyclicGroup(3)
F2 = FreeGroup(2)
Z2 = ProductGroup(Z, Z)
L2 = WreathContext(CyclicGroup(2), Z)

GROUPS = {"Z": Z, "C3": C3, "F2": F2, "Z2": Z2, "L2": L2}


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


@given(st.sampled_from(sorted(GROUPS)), st.data())
def test_format_parse_round_trip(name, data):
    ctx = GROUPS[name]
    g = data.draw(elements(ctx))
    assert ctx.parse_element(ctx.format_element(g)) == g


@given(st.sampled_from(sorted(GROUPS)), st.data())
def test_sort_key_matches_encoded_byte_order(name, data):
    ctx = GROUPS[name]
    g = data.draw(elements(ctx))
    h = data.draw(elements(ctx))
    assert (ctx.sort_key(g) < ctx.sort_key(h)) == (ctx.encode(g) < ctx.encode(h))


# -- wreath arithmetic on canonical elements --------------------------------------

# S3 as permutations of 0..2, listed so that the identity is not row 0
_PERMS = [(1, 0, 2), (0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0)]
S3 = TableGroup(
    [[_PERMS.index(tuple(p[q[k]] for k in range(3))) for q in _PERMS] for p in _PERMS], (0, 2)
)
WREATHS = {
    "C3wrZ": WreathContext(C3, Z),
    "S3wrZ": WreathContext(S3, Z),
    "C2wrZ2": WreathContext(CyclicGroup(2), Z2),
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
    view = ExplicitMetricView(range(16), lambda a, b: abs(a - b))
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
