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

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

from .encoding import EncodingError, encode_uvarint, read_uvarint, write_uvarint
from .errors import BudgetExceededError, StructureError
from .groups import (
    Element,
    LengthOracle,
    MarkedGroup,
    VirtuallyZStructure,
    _oracle_for,
    _sorted_table,
    as_radius,
    expect_at,
    max_length_below,
    same_group,
    vz_decompose,
)


class WreathElement(NamedTuple):
    """Lamps as ((position, fiber value), ...) sorted by position encoding, plus cursor.

    Instances stay tracked by the cyclic garbage collector for as long as
    they live, since CPython untracks only exact tuples, so tables of them
    are built with the collector paused (``groups._collector_paused``).
    """

    lamps: tuple[tuple[Element, Element], ...]
    cursor: Element


#: Computed elements are built as ``_new(WreathElement, (lamps, cursor))``,
#: which skips the NamedTuple constructor's Python frame.
_new = tuple.__new__


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
        self._position_bytes = _Memo(base.encode)
        self._value_bytes = _Memo(fiber.encode)
        # one search space for the context's lifetime, so searches share its
        # ids; built first, since canonicalize reads the positions it registers
        self._space = _PackedLampSpace(self)
        self._own: dict[int, tuple[WreathElement, int]] = {}
        super().__init__(
            [WreathElement(((self._base_id, h),), self._base_id) for h in self._lamp_values]
            + [WreathElement((), g) for g in base.generators]
        )
        # the context holds its letters for its lifetime, so no other object has their ids
        self._own = self._letter_steps()[0]
        # the same letter objects by what they do: a lamp letter by its value,
        # a cursor letter by its base generator
        letters = self.symmetric_generators()
        self._lamp_letters = {g.lamps[0][1]: g for g in letters if g.lamps}
        self._cursor_letters = {g.cursor: g for g in letters if not g.lamps}

    # -- group structure ----------------------------------------------------

    def identity(self) -> WreathElement:
        return _new(WreathElement, ((), self._base_id))

    def element(self, lamps: Iterable[tuple[Element, Element]], cursor: Element) -> WreathElement:
        return self.canonicalize(WreathElement(tuple(lamps), cursor))

    def canonicalize(self, x: Element) -> WreathElement:
        """Validate ``x`` and return its canonical value.

        The context's own symmetric-generator objects come back unchanged,
        recognised by id and ``is``, and so does a canonical
        ``WreathElement``: a tuple of lamp entries, each a canonical
        position and a canonical nonidentity value, in strictly increasing
        order of position bytes, and a canonical cursor
        (``_is_canonical``).  Any other input is rebuilt, or refused with
        the error that names its first malformed part.
        """
        own = self._own.get(id(x))
        if own is not None and own[0] is x or self._is_canonical(x):
            return x
        if not isinstance(x, tuple) or len(x) != 2:
            raise EncodingError(f"wreath element must be (lamps, cursor), got {x!r}")
        raw_lamps, cursor = x
        try:
            entries = iter(raw_lamps)
        except TypeError:
            raise EncodingError(
                f"wreath lamps must be an iterable of (position, value) entries, got {raw_lamps!r}"
            ) from None
        lamps: dict[Element, Element] = {}
        for entry in entries:
            if not isinstance(entry, tuple) or len(entry) != 2:
                raise EncodingError(f"lamp entry must be (position, value), got {entry!r}")
            pos = self.base.canonicalize(entry[0])
            val = self.fiber.canonicalize(entry[1])
            # an identity value lights no lamp, so it repeats no position
            if val != self._fiber_id:
                if pos in lamps:
                    raise EncodingError(f"duplicate lamp position {pos!r}")
                lamps[pos] = val
        return self._from_lamps(lamps, self.base.canonicalize(cursor))

    def _is_canonical(self, x: Element) -> bool:
        """Whether ``x`` is a ``WreathElement`` that ``canonicalize`` would
        rebuild equal to itself.

        A position or cursor that is the very object the packed space
        registered for its value (``positions[ids[p]] is p``), and a value
        that is the space's own object for it, is canonical with no
        ``canonicalize`` call: the space registers only canonical objects,
        and elements it builds hold those.  An equal object that is not the
        registered one, such as ``True`` for ``1``, goes to the base's or
        fiber's ``canonicalize``.  The entries before the one tested are
        canonical and at distinct positions, so a position, value or cursor
        that the fiber or base refuses raises here the error the rebuild
        would raise; an unhashable one leaves the rebuild to raise it.
        """
        if type(x) is not WreathElement or type(x.lamps) is not tuple:
            return False
        base, fiber, keys, space = self.base, self.fiber, self._position_bytes, self._space
        ids, positions, value_index, values = (
            space._ids, space._positions, space._value_index, space._values
        )
        prev = b""  # every position key is nonempty, so it follows b""
        try:
            for entry in x.lamps:
                if type(entry) is not tuple or len(entry) != 2:
                    return False
                pos, val = entry
                idx = ids.get(pos)
                if (idx is None or positions[idx] is not pos) and base.canonicalize(pos) != pos:
                    return False
                field = value_index.get(val)
                if field is None or values[field] is not val:
                    if fiber.canonicalize(val) != val:
                        return False
                    field = value_index[val]
                key = keys[pos]
                if not field or key <= prev:  # field 0 is the fiber's identity
                    return False
                prev = key
            cursor = x.cursor
            idx = ids.get(cursor)
        except TypeError:  # unhashable
            return False
        return idx is not None and positions[idx] is cursor or base.canonicalize(cursor) == cursor

    def _from_lamps(self, lamps: dict[Element, Element], cursor: Element) -> WreathElement:
        """``lamps`` (canonical position -> fiber value) and ``cursor`` as an
        element: identity values dropped, the rest put in order by
        ``_from_lit``."""
        fiber_id = self._fiber_id
        return self._from_lit([lamp for lamp in lamps.items() if lamp[1] != fiber_id], cursor)

    def _from_lit(self, lit: list[tuple[Element, Element]], cursor: Element) -> WreathElement:
        """Lit lamps (canonical position, nonidentity value), at distinct
        positions, and ``cursor`` as an element: the lamps sorted by position
        bytes when more than one is lit.  Every computed element but a ball
        table's (``encoded_values``) is built here."""
        if len(lit) > 1:
            keys = self._position_bytes
            lit.sort(key=lambda lamp: keys[lamp[0]])
        return _new(WreathElement, (tuple(lit), cursor))

    def multiply(self, x: WreathElement, y: WreathElement) -> WreathElement:
        """The product ``x y`` of canonical elements, itself canonical.

        ``x`` must be canonical: when ``y`` lights no lamp, its lamps are
        returned as they are; otherwise ``_from_lamps`` orders the merged lamps.
        """
        # (f1, b1)(f2, b2) = (f1 * (b1.f2), b1 b2), where (b1.f2)(p) = f2(b1^-1 p).
        cursor = self.base.multiply(x.cursor, y.cursor)
        if not y.lamps:
            return _new(WreathElement, (x.lamps, cursor))
        lamps = dict(x.lamps)
        for pos, val in y.lamps:
            p = self.base.multiply(x.cursor, pos)
            held = lamps.get(p)
            lamps[p] = val if held is None else self.fiber.multiply(held, val)
        return self._from_lamps(lamps, cursor)

    def inverse(self, x: WreathElement) -> WreathElement:
        """``(f, b)^-1 = (b^-1.f^-1, b^-1)``: each lamp moved by ``b^-1`` and inverted."""
        c = self.base.inverse(x.cursor)
        mul, inv = self.base.multiply, self.fiber.inverse
        # a canonical x lights distinct positions with nonidentity values
        return self._from_lit([(mul(c, pos), inv(val)) for pos, val in x.lamps], c)

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

    def _read_lamp(
        self, data: bytes | memoryview, pos: int
    ) -> tuple[int, bytes, tuple[Element, Element]]:
        """The lamp at ``pos``: the offset after it, its position key and its
        (position, value) pair."""
        position, mid = self.base.decode_from(data, pos)
        value, end = self.fiber.decode_from(data, mid)
        if value == self._fiber_id:
            raise EncodingError("identity fiber value stored as a lamp")
        # decoders accept only canonical bytes, so this is sort_key(position)
        return end, bytes(data[pos:mid]), (position, value)

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[WreathElement, int]:
        count, pos = read_uvarint(data, pos)
        pairs: list[tuple[Element, Element]] = []
        prev_key = b""  # every position key is nonempty, so it follows b""
        for _ in range(count):
            pos, key, pair = self._read_lamp(data, pos)
            if key <= prev_key:
                raise EncodingError("lamp positions not in strictly increasing canonical order")
            prev_key = key
            pairs.append(pair)
        cursor, pos = self.base.decode_from(data, pos)
        return WreathElement(tuple(pairs), cursor), pos

    def decode_many(self, encodings: Iterable[bytes]) -> list[WreathElement]:
        """``[decode(e) for e in encodings]``, with each distinct lamp parsed once per call.

        Every kind's encoding is prefix-free and read left to right, so a
        lamp *cell* (position bytes, then value bytes) decodes to the same
        pair at any offset, and no two cells can both start at one offset.
        A memo maps each cell met so far to its width, position key and
        pair; a lamp is looked up by the bytes at its offset for each width
        seen, and parsed only on a miss.  Each lamp's key must follow the
        previous one's.  An encoding that starts with the last lamp prefix
        shares its lamps tuple; its tail must then decode as exactly one
        cursor, memoized by its bytes.
        """
        base_decode, new, read_lamp = self.base.decode, _new, self._read_lamp
        cursors: dict[bytes, Element] = {}
        cells: dict[bytes, tuple[int, bytes, tuple[Element, Element]]] = {}
        widths: list[int] = []
        prefix: bytes | None = None
        lamps: tuple[tuple[Element, Element], ...] = ()
        out = []
        for enc in encodings:
            if prefix is None or not enc.startswith(prefix):
                count, pos = read_uvarint(enc, 0)
                pairs = []
                prev_key = b""  # every position key is nonempty, so it follows b""
                for _ in range(count):
                    for w in widths:
                        cell = cells.get(enc[pos : pos + w])
                        if cell is not None:
                            break
                    else:
                        end, key, pair = read_lamp(enc, pos)
                        cell = cells[enc[pos:end]] = (end - pos, key, pair)
                        if end - pos not in widths:
                            widths.append(end - pos)
                    w, key, pair = cell
                    if key <= prev_key:
                        raise EncodingError(
                            "lamp positions not in strictly increasing canonical order"
                        )
                    prev_key = key
                    pos += w
                    pairs.append(pair)
                lamps = tuple(pairs)
                prefix = enc[:pos]
            tail = enc[len(prefix) :]
            cursor = cursors.get(tail)
            if cursor is None:
                cursor = cursors[tail] = base_decode(tail)
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


class _Memo(dict):
    """Key -> ``make(key)``, each computed on first use."""

    def __init__(self, make: Callable[[Any], Any]):
        super().__init__()
        self._make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self._make(key)
        return value


#: Width of the low field of a packed lamp state that holds the cursor's
#: position id; the lamp fields sit above it.
_CURSOR_BITS = 32

# A position's row: its lamp field's shift and, per value of that field, the
# mask each neighbour XORs into the state: each lamp letter's toggle, then
# ``id ^ id(position * g)`` per base move g, which swaps the cursor field.
_Row = tuple[int, tuple[tuple[int, ...], ...]]


class _PackedLampSpace:
    """BFS states for any finite fiber, each one int: lamp fields over a cursor id.

    Each base position met during a search gets the next small-int id.  The
    low ``_CURSOR_BITS`` bits of a state hold the cursor's id, and position
    ``id`` owns the ``width``-bit lamp field at ``_CURSOR_BITS + id * width``.
    The field holds the index of the lamp's value in ``(identity, *lamp
    values)``, so an unlit lamp is field 0 and the identity is state 0.

    Every neighbour of a state is that state XOR one mask: the cursor's
    row holds, per value of its lamp field, one mask per letter, so a BFS
    expansion is one loop of XORs.  Ids, and each position's row, live as
    long as the space, and a ``WreathContext`` keeps one space for its
    lifetime, so its searches share them; a row is filled on the first
    expansion at that cursor.  Search results and their order never depend
    on which ids were handed out.

    A ball's elements are built in one batch by ``encoded_values``: each
    distinct lamp mask is decoded once, and its states share one lamps tuple.
    A single state is built by ``element_of``.  ``walk`` takes the steps of
    ``expand`` one at a time, so a word in the symmetric generators is
    evaluated as int operations on one state.  ``multiply_states`` and
    ``inverse_state`` are ``ctx.multiply`` and ``ctx.inverse`` on states,
    which is how window distances and coset closures avoid building elements.
    """

    def __init__(self, ctx: WreathContext):
        self.ctx = ctx
        fiber, base = ctx.fiber, ctx.base
        self._values = (ctx._fiber_id, *ctx._lamp_values)
        self._value_index = {v: i for i, v in enumerate(self._values)}
        self._width = (len(self._values) - 1).bit_length()
        self._full = (1 << self._width) - 1
        self._low = (1 << _CURSOR_BITS) - 1
        # field i times field j is field _products[i][j]; field i's inverse is _inverses[i]
        self._products = tuple(
            tuple(self._value_index[fiber.multiply(v, w)] for w in self._values)
            for v in self._values
        )
        self._inverses = tuple(self._value_index[fiber.inverse(v)] for v in self._values)
        self._moves = base.symmetric_generators()
        self.degree = max(len(ctx._lamp_values) + len(self._moves), 1)
        self._ids: dict[Element, int] = {}
        self._positions: list[Element] = []
        self._rows: list[_Row | None] = []
        # _translate[c][i]: the id of position c times position i, each met on first use
        positions = self._positions
        self._translate = _Memo(
            lambda c: _Memo(lambda i: self._id_of(base.multiply(positions[c], positions[i])))
        )
        self._id_of(ctx._base_id)

    def _id_of(self, pos: Element) -> int:
        """The id of base position ``pos``, handed out on first use.

        A new position must be canonical, since ``ctx._is_canonical`` takes
        the registered objects as canonical with no check.
        """
        idx = self._ids.get(pos)
        if idx is None:
            if self.ctx.base.canonicalize(pos) != pos:
                raise EncodingError(f"base position {pos!r} is not canonical")
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
        mul, pos = self.ctx.base.multiply, self._positions[idx]
        moves = tuple(idx ^ self._id_of(mul(pos, g)) for g in self._moves)
        # the lamp letter of value j turns field i into _products[i][j]
        xors = tuple(
            tuple((field ^ product) << shift for product in products[1:]) + moves
            for field, products in enumerate(self._products)
        )
        row = self._rows[idx] = (shift, xors)
        return row

    def identity_state(self) -> int:
        return 0

    def state_of(self, value: WreathElement) -> int:
        state = self._id_of(value.cursor)
        for pos, val in value.lamps:
            state |= self._value_index[val] << (_CURSOR_BITS + self._id_of(pos) * self._width)
        return state

    def _lit(self, state: int) -> list[tuple[int, int]]:
        """(position id, field) of each lit lamp of ``state``, by position id."""
        width, full = self._width, self._full
        lit, rest = [], state >> _CURSOR_BITS
        while rest:
            idx = ((rest & -rest).bit_length() - 1) // width
            field = (rest >> (idx * width)) & full
            rest ^= field << (idx * width)
            lit.append((idx, field))
        return lit

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
        new = _new
        encodings: list[bytes] = []
        elements: list[WreathElement] = []
        for state in states:
            cursor = state & low
            lit = state ^ cursor
            entry = by_mask.get(lit)
            if entry is None:
                cells = []
                rest = lit >> _CURSOR_BITS
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
            elements.append(new(WreathElement, (lamps, positions[cursor])))
        return encodings, elements

    def element_of(self, state: int) -> WreathElement:
        """The element of one state, its lit fields' lamps (no field is the
        identity's 0) put in order by ``ctx._from_lit``."""
        values, positions = self._values, self._positions
        lit = [(positions[idx], values[field]) for idx, field in self._lit(state)]
        return self.ctx._from_lit(lit, positions[state & self._low])

    def multiply_states(self, s: int, t: int) -> int:
        """The state of ``x y``, for ``s`` the state of x and ``t`` that of y.

        ``(f1, b1)(f2, b2) = (f1 * (b1.f2), b1 b2)``: each lamp of ``t`` moves
        to ``b1`` times its position, where the field becomes that of
        ``fiber.multiply(x's value, y's value)``, in that order, since fibers
        may be nonabelian.
        """
        low, width, full, products = self._low, self._width, self._full, self._products
        cursor = s & low
        moved = self._translate[cursor]
        state = s ^ cursor
        for idx, field in self._lit(t):
            shift = _CURSOR_BITS + moved[idx] * width
            held = (state >> shift) & full
            state ^= (held ^ products[held][field]) << shift
        return state | moved[t & low]

    def inverse_state(self, s: int) -> int:
        """The state of ``x^-1``, for ``s`` the state of x.

        ``(f, b)^-1 = (b^-1.f^-1, b^-1)``: each lamp moves by ``b^-1`` and
        its field becomes that of its value's inverse.
        """
        width, inverses = self._width, self._inverses
        back = self._id_of(self.ctx.base.inverse(self._positions[s & self._low]))
        moved = self._translate[back]
        state = back
        for idx, field in self._lit(s):
            state |= inverses[field] << (_CURSOR_BITS + moved[idx] * width)
        return state

    def walk(self, state: int, steps: Iterable[int]) -> int:
        """The state reached from ``state`` by taking, per index i, the step to
        ``expand``'s i-th neighbour: lamp letter i, or base move i minus the
        number of lamp letters."""
        low, full, rows = self._low, self._full, self._rows
        for i in steps:
            cursor = state & low
            shift, xors = rows[cursor] or self._fill_row(cursor)
            state ^= xors[(state >> shift) & full][i]
        return state

    def expand(
        self, frontier: list[int], seen: dict[int, int], depth: int, goal: Any = ()
    ) -> list[int]:
        """Expand one BFS level; the contract of ``groups._CayleySpace.expand``.

        Each neighbour is the state XOR a mask of the cursor's row, picked
        by the cursor's field value: lamp letters toggle that field, cursor
        moves swap the low field's id.
        """
        low, full, rows = self._low, self._full, self._rows
        nxt: list[int] = []
        append = nxt.append
        for state in frontier:
            cursor = state & low
            shift, xors = rows[cursor] or self._fill_row(cursor)
            for bits in xors[(state >> shift) & full]:
                other = state ^ bits
                if other not in seen:
                    seen[other] = depth
                    append(other)
                    if other in goal:
                        return nxt
        return nxt


# ---------------------------------------------------------------------------
# bulbs and the three word-length facts about them


def bulb_product(ctx: WreathContext, pairs: Iterable[tuple[Element, Element]]) -> WreathElement:
    """The kernel element lighting each ``(index, value)`` factor, multiplied in order.

    Each factor's index and value are canonicalized, factors at one index
    merge by fiber multiplication, and ``ctx._from_lamps`` drops identity
    values and sorts the rest, so the lamps are the product's bulb normal form.
    """
    merged: dict[Element, Element] = {}
    for index, value in pairs:
        index = ctx.base.canonicalize(index)
        value = ctx.fiber.canonicalize(value)
        held = merged.get(index)
        merged[index] = value if held is None else ctx.fiber.multiply(held, value)
    return ctx._from_lamps(merged, ctx._base_id)


def bulb_lower_bound(w: WreathElement) -> int:
    """Word length of ``w`` is at least its number of lit lamps: each costs a letter."""
    return len(w.lamps)


def bulb_decompose(
    ctx: WreathContext, letters: Iterable[WreathElement]
) -> tuple[WreathElement, Element]:
    """Rewrite a generator word as a bulb product times its cursor value.

    Each lamp letter at prefix x becomes the bulb ``(x, value)``; the second
    component is the product of the cursor letters.  The input word must use
    only marked generators.  A letter that is one of the context's own
    generator objects is recognised by id and ``is`` (``_letter_steps``),
    with no ``canonicalize`` and no hash; any other letter is canonicalized
    and must equal a marked generator.  Bulbs at one prefix merge as they
    come, by fiber multiplication in word order, and ``ctx._from_lamps``
    drops identity values and sorts the rest, as ``bulb_product`` does:
    prefixes and values are canonical already, so none is canonicalized.
    """
    own, allowed = ctx._letter_steps()
    move, merge = ctx.base.multiply, ctx.fiber.multiply
    prefix = ctx._base_id
    merged: dict[Element, Element] = {}
    for letter in letters:
        mine = own.get(id(letter))
        if mine is None or mine[0] is not letter:
            letter = ctx.canonicalize(letter)
            if letter not in allowed:
                raise ValueError(f"letter {ctx.format_element(letter)} is not a marked generator")
        if letter.lamps:
            value = letter.lamps[0][1]
            held = merged.get(prefix)
            merged[prefix] = value if held is None else merge(held, value)
        else:
            prefix = move(prefix, letter.cursor)
    return ctx._from_lamps(merged, ctx._base_id), prefix


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
    increasing t-exponent order, so the cursor sweeps each coset once.  The
    letters are the context's own symmetric-generator objects.
    """
    w = ctx.canonicalize(w)
    if w.cursor != ctx._base_id:
        raise ValueError(
            f"element {ctx.format_element(w)} is not in the kernel of the cursor projection"
        )
    base = ctx.base
    if not same_group(structure.group, base):
        raise StructureError("virtually-Z structure does not describe the wreath base group")
    # the context's own letter objects, which canonicalize passes through
    moves, lamp_letters = ctx._cursor_letters, ctx._lamp_letters
    if structure.t not in moves:
        raise StructureError("t of the virtually-Z structure must be a marked base generator")
    for rep in structure.coset_reps:
        if rep != base.identity() and rep not in moves:
            raise StructureError(
                f"coset representative {base.format_element(rep)} must be a marked base generator"
            )
    t_letter = moves[structure.t]
    t_inv_letter = moves[base.inverse(structure.t)]

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
            letters.append(moves[rep])
        position = 0
        for e, value in runs:
            step = t_letter if e >= position else t_inv_letter
            letters.extend([step] * abs(e - position))
            letters.append(lamp_letters[value])
            position = e
        step = t_letter if position < 0 else t_inv_letter
        letters.extend([step] * abs(position))
        if rep != base.identity():
            letters.append(moves[base.inverse(rep)])
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

    The oracle (a fresh one for ``ctx`` if omitted) extends its held BFS to
    the ball's depth, so levels it has searched already are read, not
    searched again.  Of that prefix of the search, only the kernel states,
    those whose cursor field holds id 0 (the base identity), become
    elements, through ``_sorted_table``, which pauses the collector while
    it builds them; the rest of the ball is never built.
    """
    bfs = _oracle_for(ctx, oracle)._bfs
    radius = as_radius(r)
    count = bfs.extend(max_length_below(radius))
    space = bfs.space
    low = space._low
    kernel = {s: n for s, n in itertools.islice(bfs.seen.items(), count) if not s & low}
    return _sorted_table(ctx, space, radius, kernel)[0].elements
