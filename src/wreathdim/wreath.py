"""Wreath products of a finite fiber group over a marked base group.

An element is a finitely supported function from the base group into the
fiber (the *lamps*) together with a base element (the *cursor*).  The
marking is the standard one: every nonidentity fiber value as a lamp at the
identity position, plus the base group's marked generators as cursor moves.

The kernel of the cursor projection is spanned by *bulbs*: a lamp value
conjugated to a single base position.  A kernel element's sorted lamps are
its bulb normal form, and the three word-length facts about it (a lower
bound counting lit lamps, a decomposition of arbitrary words, and an
explicit short word through a virtually-Z structure on the base) are
implemented here.

Searches over every finite fiber run on packed lamp states: one integer
holding the cursor's position id in a low field and, above it, a fixed-width
lamp field per visited base position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

from .encoding import EncodingError, encode_uvarint, read_uvarint, write_uvarint
from .errors import BudgetExceededError, StructureError
from .groups import (
    Element,
    LengthOracle,
    MarkedGroup,
    VirtuallyZStructure,
    _oracle_for,
    expect_at,
    same_group,
    vz_decompose,
)


class WreathElement(NamedTuple):
    """Lamps as ((position, fiber value), ...) sorted by position encoding, plus cursor.

    Instances stay tracked by the cyclic garbage collector for as long as
    they live, since CPython untracks only exact tuples, so tables of them
    are built with the collector paused.
    """

    lamps: tuple[tuple[Element, Element], ...]
    cursor: Element


class WreathContext(MarkedGroup):
    """Group operations, encodings, and search spaces for one wreath product.

    The marking is the lamp letters, one per nonidentity fiber value, then
    the base generators as cursor letters.  The fiber's nonidentity values
    are closed under inverse, so the symmetric marking is the lamp letters
    followed by the base's symmetric generators.
    """

    kind = "wreath"

    def __init__(self, fiber: MarkedGroup, base: MarkedGroup):
        if fiber.order() is None:
            raise StructureError("wreath fiber must be a finite group kind")
        self.fiber = fiber
        self.base = base
        self._fiber_id = fiber.identity()
        self._base_id = base.identity()
        self._lamp_values = tuple(h for h in fiber.elements() if h != self._fiber_id)
        # lamps sort by this; every base kind's sort_key is its encoding
        self._position_bytes = _EncodingCache(base)
        self._value_bytes = _EncodingCache(fiber)
        super().__init__(
            [WreathElement(((self._base_id, h),), self._base_id) for h in self._lamp_values]
            + [WreathElement((), g) for g in base.generators]
        )
        # one search space for the context's lifetime, so searches share its ids
        self._space = _PackedLampSpace(self)

    # -- group structure ----------------------------------------------------

    def identity(self) -> WreathElement:
        return WreathElement((), self._base_id)

    def element(self, lamps: Iterable[tuple[Element, Element]], cursor: Element) -> WreathElement:
        return self.canonicalize(WreathElement(tuple(lamps), cursor))

    def canonicalize(self, x: Element) -> WreathElement:
        if not isinstance(x, tuple) or len(x) != 2:
            raise EncodingError(f"wreath element must be (lamps, cursor), got {x!r}")
        raw_lamps, cursor = x
        if type(raw_lamps) is tuple and not raw_lamps:
            return WreathElement((), self.base.canonicalize(cursor))
        lamps = []
        for entry in raw_lamps:
            if not isinstance(entry, tuple) or len(entry) != 2:
                raise EncodingError(f"lamp entry must be (position, value), got {entry!r}")
            pos = self.base.canonicalize(entry[0])
            val = self.fiber.canonicalize(entry[1])
            if val != self._fiber_id:
                lamps.append((pos, val))
        keys = self._position_bytes
        lamps.sort(key=lambda lamp: keys[lamp[0]])
        for a, b in zip(lamps, lamps[1:]):
            if a[0] == b[0]:
                raise EncodingError(f"duplicate lamp position {a[0]!r}")
        return WreathElement(tuple(lamps), self.base.canonicalize(cursor))

    def multiply(self, x: WreathElement, y: WreathElement) -> WreathElement:
        """The product ``x y`` of canonical elements, itself canonical.

        ``x`` must be canonical: when ``y`` lights no lamp, its lamps are
        returned as they are.
        """
        # (f1, b1)(f2, b2) = (f1 * (b1.f2), b1 b2), where (b1.f2)(p) = f2(b1^-1 p).
        cursor = self.base.multiply(x.cursor, y.cursor)
        if not y.lamps:
            return WreathElement(x.lamps, cursor)
        lamps = dict(x.lamps)
        for pos, val in y.lamps:
            p = self.base.multiply(x.cursor, pos)
            cur = lamps.get(p)
            new = val if cur is None else self.fiber.multiply(cur, val)
            if new == self._fiber_id:
                del lamps[p]
            else:
                lamps[p] = new
        keys = self._position_bytes
        ordered = tuple(sorted(lamps.items(), key=lambda lamp: keys[lamp[0]]))
        return WreathElement(ordered, cursor)

    def inverse(self, x: WreathElement) -> WreathElement:
        c = self.base.inverse(x.cursor)
        keys = self._position_bytes
        lamps = tuple(
            sorted(
                ((self.base.multiply(c, pos), self.fiber.inverse(val)) for pos, val in x.lamps),
                key=lambda lamp: keys[lamp[0]],
            )
        )
        return WreathElement(lamps, c)

    def order(self) -> int | None:
        fo, bo = self.fiber.order(), self.base.order()
        if bo is None:
            return None
        assert fo is not None
        return fo**bo * bo

    # -- canonical encoding -----------------------------------------------------

    def _encode_into(self, out: bytearray, x: WreathElement) -> None:
        keys, value_bytes = self._position_bytes, self._value_bytes
        write_uvarint(out, len(x.lamps))
        for pos, val in x.lamps:
            out += keys[pos]
            out += value_bytes[val]
        out += keys[x.cursor]

    def _decode_lamps(
        self,
        data: bytes | memoryview,
        pos: int,
        count: int,
        ends: list[int],
        keys: list[bytes],
        pairs: list[tuple[Element, Element]],
    ) -> int:
        """Read lamps at ``pos`` until ``pairs`` holds ``count``; return the position after them.

        Each lamp's position must follow the last of ``keys``.  Appends its
        end offset, position key and (position, value) pair.
        """
        base_from, fiber_from = self.base.decode_from, self.fiber.decode_from
        fiber_id = self._fiber_id
        prev_key = keys[-1] if keys else None
        for _ in range(count - len(pairs)):
            start = pos
            position, pos = base_from(data, pos)
            # decoders accept only canonical bytes, so this is sort_key(position)
            key = bytes(data[start:pos])
            value, pos = fiber_from(data, pos)
            if value == fiber_id:
                raise EncodingError("identity fiber value stored as a lamp")
            if prev_key is not None and key <= prev_key:
                raise EncodingError("lamp positions not in strictly increasing canonical order")
            prev_key = key
            ends.append(pos)
            keys.append(key)
            pairs.append((position, value))
        return pos

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[WreathElement, int]:
        count, pos = read_uvarint(data, pos)
        pairs: list[tuple[Element, Element]] = []
        pos = self._decode_lamps(data, pos, count, [], [], pairs)
        cursor, pos = self.base.decode_from(data, pos)
        return WreathElement(tuple(pairs), cursor), pos

    def decode_many(self, encodings: Iterable[bytes]) -> list[WreathElement]:
        """``[decode(e) for e in encodings]``, with each lamp parsed once per
        run of shared leading lamps.

        Every kind's encoding is prefix-free and read left to right, so lamp
        bytes at the same offset decode to the same pair and end at the
        same place.  An encoding with the last parsed prefix's lamp-count
        bytes keeps that prefix's leading lamps whose bytes it repeats and
        parses from the first lamp that differs, whose position key must
        follow the last kept lamp's.  An encoding that starts with the whole
        prefix has its lamps; its tail must then decode as exactly one
        cursor, memoized by its bytes.  Kept lamp pairs are shared.
        """
        base_decode, new = self.base.decode, tuple.__new__
        cursors: dict[bytes, Element] = {}
        # the last parsed prefix, its count bytes, and per lamp its end
        # offset, position key and (position, value) pair
        prefix: bytes | None = None
        head = b""
        ends: list[int] = []
        keys: list[bytes] = []
        pairs: list[tuple[Element, Element]] = []
        lamps: tuple[tuple[Element, Element], ...] = ()
        out = []
        for enc in encodings:
            if prefix is None or not enc.startswith(prefix):
                kept = 0
                if head and enc.startswith(head):
                    # not the whole prefix, so some lamp differs
                    count, pos = len(pairs), len(head)
                    while enc.startswith(prefix[pos : ends[kept]], pos):
                        pos = ends[kept]
                        kept += 1
                else:
                    count, pos = read_uvarint(enc, 0)
                    head = enc[:pos]
                del ends[kept:], keys[kept:], pairs[kept:]
                pos = self._decode_lamps(enc, pos, count, ends, keys, pairs)
                lamps = tuple(pairs)
                prefix = enc[:pos]
            tail = enc[len(prefix) :]
            cursor = cursors.get(tail)
            if cursor is None:
                cursor = cursors[tail] = base_decode(tail)
            # tuple.__new__ skips the NamedTuple constructor's Python frame
            out.append(new(WreathElement, (lamps, cursor)))
        return out

    # -- text forms ----------------------------------------------------------------

    def format_element(self, x: WreathElement) -> str:
        lamps = ",".join(
            f"{self.base.format_element(pos)}:{self.fiber.format_element(val)}"
            for pos, val in x.lamps
        )
        return f"{{{lamps}}}|{self.base.format_element(x.cursor)}"

    def parse_from(self, text: str, pos: int) -> tuple[WreathElement, int]:
        pos = expect_at("{", text, pos)
        lamps = []
        while not text.startswith("}", pos):
            if lamps:
                pos = expect_at(",", text, pos)
            position, pos = self.base.parse_from(text, pos)
            value, pos = self.fiber.parse_from(text, expect_at(":", text, pos))
            lamps.append((position, value))
        cursor, pos = self.base.parse_from(text, expect_at("}|", text, pos))
        return self.canonicalize(WreathElement(tuple(lamps), cursor)), pos

    # -- identity of the marked structure ----------------------------------------------

    def spec_string(self) -> str:
        return f"wreath(fiber={self.fiber.spec_string()}|base={self.base.spec_string()})"

    # -- search ------------------------------------------------------------------------

    def _search_space(self) -> "_PackedLampSpace":
        return self._space


class _EncodingCache(dict):
    """Element -> ``group.encode(element)``, each computed on first use."""

    def __init__(self, group: MarkedGroup):
        super().__init__()
        self._encode = group.encode

    def __missing__(self, x: Element) -> bytes:
        data = self[x] = self._encode(x)
        return data


#: Width of the low field of a packed lamp state that holds the cursor's
#: position id; the lamp fields sit above it.
_CURSOR_BITS = 32

# A position's row: its lamp field's shift, the bits each lamp letter
# toggles for each field value, and the ids of ``position * g`` per base move.
_Row = tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]


class _PackedLampSpace:
    """BFS states for any finite fiber, each one int: lamp fields over a cursor id.

    Each base position met during a search gets the next small-int id.  The
    low ``_CURSOR_BITS`` bits of a state hold the cursor's id, and position
    ``id`` owns the ``width``-bit lamp field at ``_CURSOR_BITS + id * width``.
    The field holds the index of the lamp's value in ``(identity, *lamp
    values)``, so an unlit lamp is field 0 and the identity is state 0.

    Ids, and each position's row of moves, live as long as the space, and a
    ``WreathContext`` keeps one space for its lifetime, so its searches share
    them; a row is filled on the first expansion at that cursor.  Search
    results and their order never depend on which ids were handed out.

    A ball's elements are built in one batch by ``encoded_values``: each
    distinct lamp mask is decoded once, and its states share one lamps tuple.
    """

    def __init__(self, ctx: WreathContext):
        self.ctx = ctx
        fiber = ctx.fiber
        self._values = (ctx._fiber_id, *ctx._lamp_values)
        self._value_index = {v: i for i, v in enumerate(self._values)}
        self._width = (len(self._values) - 1).bit_length()
        self._full = (1 << self._width) - 1
        self._low = (1 << _CURSOR_BITS) - 1
        # the k-th lamp letter turns field i into i ^ _flips[k][i]
        self._flips = tuple(
            tuple(i ^ self._value_index[fiber.multiply(v, h)] for i, v in enumerate(self._values))
            for h in ctx._lamp_values
        )
        self._moves = ctx.base.symmetric_generators()
        self._ids: dict[Element, int] = {}
        self._positions: list[Element] = []
        self._rows: list[_Row | None] = []
        self._id_of(ctx._base_id)

    def _id_of(self, pos: Element) -> int:
        idx = self._ids.get(pos)
        if idx is None:
            idx = len(self._positions)
            if idx > self._low:
                raise BudgetExceededError(
                    f"packed lamp state: the {_CURSOR_BITS}-bit cursor-id field "
                    f"holds at most {idx} base positions"
                )
            self._ids[pos] = idx
            self._positions.append(pos)
            self._rows.append(None)
        return idx

    def _fill_row(self, idx: int) -> _Row:
        shift = _CURSOR_BITS + idx * self._width
        toggles = tuple(
            tuple(flip[field] << shift for flip in self._flips)
            for field in range(len(self._values))
        )
        mul, pos = self.ctx.base.multiply, self._positions[idx]
        steps = tuple(self._id_of(mul(pos, g)) for g in self._moves)
        row = self._rows[idx] = (shift, toggles, steps)
        return row

    def identity_state(self) -> int:
        return 0

    def state_of(self, value: WreathElement) -> int:
        state = self._id_of(value.cursor)
        for pos, val in value.lamps:
            state |= self._value_index[val] << (_CURSOR_BITS + self._id_of(pos) * self._width)
        return state

    def lamp_mask(self, state: int) -> int:
        """The lamp fields of ``state``; field ``id`` sits at bit ``id * width``."""
        return state >> _CURSOR_BITS

    def encoded_values(self, states: Iterable[int]) -> tuple[list[bytes], list[WreathElement]]:
        """Each state's ``ctx.encode`` and element, in the order given.

        The lamps of each distinct mask are read once, from its lit fields
        only; states with that mask share the encoded prefix and lamps tuple.
        """
        width, full, low, values = self._width, self._full, self._low, self._values
        positions = self._positions
        position_bytes, value_bytes = self.ctx._position_bytes, self.ctx._value_bytes
        # Cell rank * len(values) + field is that lamp at the position whose
        # bytes have that rank, so sorting a mask's cells sorts its lamps.
        keys = [position_bytes[pos] for pos in positions]
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        first_cell = [0] * len(ranked)
        cell_bytes: list[bytes] = []
        cell_lamps: list[tuple[Element, Element]] = []
        for rank, idx in enumerate(ranked):
            first_cell[idx] = rank * len(values)
            pos = positions[idx]
            cell_bytes += [keys[idx] + value_bytes[value] for value in values]
            cell_lamps += [(pos, value) for value in values]
        by_mask: dict[int, tuple[bytes, tuple[tuple[Element, Element], ...]]] = {}
        new = tuple.__new__
        encodings: list[bytes] = []
        elements: list[WreathElement] = []
        for state in states:
            cursor = state & low
            lit = state ^ cursor
            entry = by_mask.get(lit)
            if entry is None:
                cells = []
                rest = self.lamp_mask(lit)
                while rest:
                    idx = ((rest & -rest).bit_length() - 1) // width
                    field = (rest >> (idx * width)) & full
                    rest ^= field << (idx * width)
                    cells.append(first_cell[idx] + field)
                cells.sort()
                entry = by_mask[lit] = (
                    encode_uvarint(len(cells)) + b"".join([cell_bytes[c] for c in cells]),
                    tuple([cell_lamps[c] for c in cells]),
                )
            prefix, lamps = entry
            encodings.append(prefix + keys[cursor])
            # tuple.__new__ skips the NamedTuple constructor's Python frame
            elements.append(new(WreathElement, (lamps, positions[cursor])))
        return encodings, elements

    def expand(
        self, frontier: list[int], seen: dict[int, int], depth: int, budget: int
    ) -> list[int] | None:
        """Expand one BFS level; the contract of ``groups._CayleySpace.expand``.

        A lamp letter XORs its toggle for the cursor's field value into the
        state; a cursor move swaps the low field for the id in the row.
        """
        low, full, rows = self._low, self._full, self._rows
        nxt: list[int] = []
        append = nxt.append
        for state in frontier:
            cursor = state & low
            shift, toggles, steps = rows[cursor] or self._fill_row(cursor)
            for bits in toggles[(state >> shift) & full]:
                other = state ^ bits
                if other not in seen:
                    seen[other] = depth
                    append(other)
            rest = state ^ cursor
            for step in steps:
                other = rest | step
                if other not in seen:
                    seen[other] = depth
                    append(other)
            if len(seen) > budget:
                return None
        return nxt


# ---------------------------------------------------------------------------
# bulbs and the three word-length facts about them


def bulb_product(ctx: WreathContext, pairs: Iterable[tuple[Element, Element]]) -> WreathElement:
    """The kernel element lighting each ``(index, value)`` factor, multiplied in order.

    Factors at one index merge by fiber multiplication, and identity values
    drop out, so the lamps are the product's bulb normal form.
    """
    merged: dict[Element, Element] = {}
    for index, value in pairs:
        index = ctx.base.canonicalize(index)
        value = ctx.fiber.canonicalize(value)
        held = merged.get(index)
        merged[index] = value if held is None else ctx.fiber.multiply(held, value)
    return ctx.canonicalize(WreathElement(tuple(merged.items()), ctx._base_id))


def bulb_lower_bound(w: WreathElement) -> int:
    """Word length of ``w`` is at least its number of lit lamps: each costs a letter."""
    return len(w.lamps)


def bulb_decompose(
    ctx: WreathContext, letters: Iterable[WreathElement]
) -> tuple[WreathElement, Element]:
    """Rewrite a generator word as a bulb product times its cursor value.

    Each lamp letter at prefix x becomes the bulb ``(x, value)``; the second
    component is the product of the cursor letters.  The input word must use
    only marked generators.
    """
    allowed = set(ctx.symmetric_generators())
    prefix = ctx._base_id
    pairs: list[tuple[Element, Element]] = []
    for letter in letters:
        letter = ctx.canonicalize(letter)
        if letter not in allowed:
            raise ValueError(f"letter {ctx.format_element(letter)} is not a marked generator")
        if letter.lamps:
            pairs.append((prefix, letter.lamps[0][1]))
        else:
            prefix = ctx.base.multiply(prefix, letter.cursor)
    return bulb_product(ctx, pairs), prefix


@dataclass(frozen=True)
class BulbWord:
    """A generator word for a kernel element, with its guaranteed letter bound."""

    letters: tuple[WreathElement, ...]
    bound: int


def bulb_word(
    ctx: WreathContext,
    structure: VirtuallyZStructure,
    w: WreathElement,
) -> BulbWord:
    """Spell a kernel element with at most ``n * (k + 2 + 4 * max|e|)`` letters.

    ``k`` counts the lit lamps of ``w``, whose cursor must be the identity.
    The base group must carry the given virtually-Z structure, with ``t`` and
    every nonidentity coset representative among the marked base generators.
    Lamp positions are grouped by coset representative and visited in
    increasing t-exponent order, so the cursor sweeps each coset once.
    """
    w = ctx.canonicalize(w)
    if w.cursor != ctx._base_id:
        raise ValueError(
            f"element {ctx.format_element(w)} is not in the kernel of the cursor projection"
        )
    base = ctx.base
    if not same_group(structure.group, base):
        raise StructureError("virtually-Z structure does not describe the wreath base group")
    sym = set(base.symmetric_generators())
    if structure.t not in sym:
        raise StructureError("t of the virtually-Z structure must be a marked base generator")
    for rep in structure.coset_reps:
        if rep != base.identity() and rep not in sym:
            raise StructureError(
                f"coset representative {base.format_element(rep)} must be a marked base generator"
            )
    t_letter = WreathElement((), structure.t)
    t_inv_letter = WreathElement((), base.inverse(structure.t))

    grouped: dict[int, list[tuple[int, Element]]] = {}
    max_abs_e = 0
    for pos, value in w.lamps:
        i, e = vz_decompose(structure, pos)
        grouped.setdefault(i, []).append((e, value))
        max_abs_e = max(max_abs_e, abs(e))
    letters: list[WreathElement] = []
    for i in sorted(grouped):
        rep = structure.coset_reps[i - 1]
        runs = sorted(grouped[i])
        if rep != base.identity():
            letters.append(WreathElement((), rep))
        position = 0
        for e, value in runs:
            step = t_letter if e >= position else t_inv_letter
            letters.extend([step] * abs(e - position))
            letters.append(WreathElement(((ctx._base_id, value),), ctx._base_id))
            position = e
        step = t_letter if position < 0 else t_inv_letter
        letters.extend([step] * abs(position))
        if rep != base.identity():
            letters.append(WreathElement((), base.inverse(rep)))
    bound = structure.index * (len(w.lamps) + 2 + 4 * max_abs_e)
    word = tuple(letters)
    assert len(word) <= bound
    return BulbWord(word, bound)


def kernel_window(
    ctx: WreathContext,
    r: Any,
    *,
    oracle: LengthOracle | None = None,
) -> tuple[WreathElement, ...]:
    """Kernel elements of the open ball of radius ``r``, in canonical order.

    The ball comes from ``oracle`` (a fresh one for ``ctx`` if omitted), so
    levels the oracle has searched already are read, not searched again.
    """
    ball = _oracle_for(ctx, oracle).ball(r)
    return tuple(w for w in ball.elements if w.cursor == ctx._base_id)
