"""Wreath products of a finite fiber group over a marked base group.

An element is a finitely supported function from the base group into the
fiber (the *lamps*) together with a base element (the *cursor*).  The
marking is the standard one: every nonidentity fiber value as a lamp at the
identity position, plus the base group's marked generators as cursor moves.

The kernel of the cursor projection is spanned by *bulbs*: a lamp value
conjugated to a single base position.  Products of bulbs with distinct
indices are the kernel normal form, and the three word-length facts about
them (a lower bound counting indices, a decomposition of arbitrary words,
and an explicit short word through a virtually-Z structure on the base) are
implemented here.

Searches over every finite fiber run on one packed lamp state: an integer
holding a fixed-width field per visited base position, plus the cursor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

from .encoding import EncodingError, read_uvarint, write_uvarint
from .errors import StructureError
from .groups import (
    Element,
    LengthOracle,
    MarkedGroup,
    VirtuallyZStructure,
    vz_decompose,
)


class WreathElement(NamedTuple):
    """Lamps as ((position, fiber value), ...) sorted by position encoding, plus cursor."""

    lamps: tuple[tuple[Element, Element], ...]
    cursor: Element


class Bulb(NamedTuple):
    """One lamp value pushed to one base position: cursor to ``index``, light, return."""

    index: Element
    value: Element


@dataclass(frozen=True)
class BulbProduct:
    """Product of bulbs with pairwise distinct indices (kernel normal form)."""

    bulbs: tuple[Bulb, ...]

    def support(self) -> tuple[Element, ...]:
        return tuple(b.index for b in self.bulbs)

    def element(self, ctx: "WreathContext") -> WreathElement:
        return WreathElement(tuple((b.index, b.value) for b in self.bulbs), ctx.base.identity())


class WreathContext:
    """Group operations, encodings, and search spaces for one wreath product."""

    kind = "wreath"

    def __init__(self, fiber: MarkedGroup, base: MarkedGroup):
        if fiber.order() is None:
            raise StructureError("wreath fiber must be a finite group kind")
        self.fiber = fiber
        self.base = base
        self._fiber_id = fiber.identity()
        self._base_id = base.identity()
        self._lamp_values = tuple(h for h in fiber.elements() if h != self._fiber_id)
        self._spec_hash: str | None = None

    # -- group structure ----------------------------------------------------

    def identity(self) -> WreathElement:
        return WreathElement((), self._base_id)

    def element(self, lamps: Iterable[tuple[Element, Element]], cursor: Element) -> WreathElement:
        return self.canonicalize(WreathElement(tuple(lamps), cursor))

    def canonicalize(self, x: Element) -> WreathElement:
        if not isinstance(x, tuple) or len(x) != 2:
            raise EncodingError(f"wreath element must be (lamps, cursor), got {x!r}")
        raw_lamps, cursor = x
        lamps = []
        for entry in raw_lamps:
            if not isinstance(entry, tuple) or len(entry) != 2:
                raise EncodingError(f"lamp entry must be (position, value), got {entry!r}")
            pos = self.base.canonicalize(entry[0])
            val = self.fiber.canonicalize(entry[1])
            if val != self._fiber_id:
                lamps.append((pos, val))
        lamps.sort(key=lambda lamp: self.base.sort_key(lamp[0]))
        for a, b in zip(lamps, lamps[1:]):
            if a[0] == b[0]:
                raise EncodingError(f"duplicate lamp position {a[0]!r}")
        return WreathElement(tuple(lamps), self.base.canonicalize(cursor))

    def multiply(self, x: WreathElement, y: WreathElement) -> WreathElement:
        # (f1, b1)(f2, b2) = (f1 * (b1.f2), b1 b2), where (b1.f2)(p) = f2(b1^-1 p).
        lamps = dict(x.lamps)
        for pos, val in y.lamps:
            p = self.base.multiply(x.cursor, pos)
            cur = lamps.get(p)
            new = val if cur is None else self.fiber.multiply(cur, val)
            if new == self._fiber_id:
                del lamps[p]
            else:
                lamps[p] = new
        ordered = tuple(
            sorted(lamps.items(), key=lambda lamp: self.base.sort_key(lamp[0]))
        )
        return WreathElement(ordered, self.base.multiply(x.cursor, y.cursor))

    def inverse(self, x: WreathElement) -> WreathElement:
        c = self.base.inverse(x.cursor)
        lamps = tuple(
            sorted(
                ((self.base.multiply(c, pos), self.fiber.inverse(val)) for pos, val in x.lamps),
                key=lambda lamp: self.base.sort_key(lamp[0]),
            )
        )
        return WreathElement(lamps, c)

    def order(self) -> int | None:
        fo, bo = self.fiber.order(), self.base.order()
        if bo is None:
            return None
        assert fo is not None
        return fo**bo * bo

    # -- marking --------------------------------------------------------------

    @property
    def generators(self) -> tuple[WreathElement, ...]:
        return self._lamp_generators() + tuple(
            WreathElement((), g) for g in self.base.generators
        )

    def symmetric_generators(self) -> tuple[WreathElement, ...]:
        return self._lamp_generators() + tuple(
            WreathElement((), g) for g in self.base.symmetric_generators()
        )

    def _lamp_generators(self) -> tuple[WreathElement, ...]:
        return tuple(
            WreathElement(((self._base_id, h),), self._base_id) for h in self._lamp_values
        )

    # -- canonical encoding -----------------------------------------------------

    def encode(self, x: WreathElement) -> bytes:
        out = bytearray()
        write_uvarint(out, len(x.lamps))
        for pos, val in x.lamps:
            self.base._encode_into(out, pos)
            self.fiber._encode_into(out, val)
        self.base._encode_into(out, x.cursor)
        return bytes(out)

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[WreathElement, int]:
        count, pos = read_uvarint(data, pos)
        lamps = []
        prev_key: bytes | None = None
        for _ in range(count):
            position, pos = self.base.decode_from(data, pos)
            value, pos = self.fiber.decode_from(data, pos)
            if value == self._fiber_id:
                raise EncodingError("identity fiber value stored as a lamp")
            key = self.base.sort_key(position)
            if prev_key is not None and key <= prev_key:
                raise EncodingError("lamp positions not in strictly increasing canonical order")
            prev_key = key
            lamps.append((position, value))
        cursor, pos = self.base.decode_from(data, pos)
        return WreathElement(tuple(lamps), cursor), pos

    def decode(self, data: bytes) -> WreathElement:
        value, pos = self.decode_from(data, 0)
        if pos != len(data):
            raise EncodingError(f"{len(data) - pos} trailing bytes after element encoding")
        return value

    def sort_key(self, x: WreathElement) -> bytes:
        return self.encode(x)

    # -- text forms ----------------------------------------------------------------

    def format_element(self, x: WreathElement) -> str:
        lamps = ",".join(
            f"{self.base.format_element(pos)}:{self.fiber.format_element(val)}"
            for pos, val in x.lamps
        )
        return f"{{{lamps}}}|{self.base.format_element(x.cursor)}"

    def parse_element(self, text: str) -> WreathElement:
        text = text.strip()
        if not text.startswith("{"):
            raise EncodingError(f"wreath element must look like {{pos:val,...}}|cursor, got {text!r}")
        depth = 0
        close = -1
        for i, ch in enumerate(text):
            if ch in "({":
                depth += 1
            elif ch in ")}":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close < 0 or close + 1 >= len(text) or text[close + 1] != "|":
            raise EncodingError(f"wreath element must look like {{pos:val,...}}|cursor, got {text!r}")
        body = text[1:close]
        cursor = self.base.parse_element(text[close + 2 :])
        lamps = []
        for piece in _split_top_level(body, ","):
            if not piece:
                continue
            parts = _split_top_level(piece, ":")
            if len(parts) != 2:
                raise EncodingError(f"lamp entry must look like pos:val, got {piece!r}")
            lamps.append((self.base.parse_element(parts[0]), self.fiber.parse_element(parts[1])))
        return self.canonicalize(WreathElement(tuple(lamps), cursor))

    # -- identity of the marked structure ----------------------------------------------

    def spec_string(self) -> str:
        return f"wreath(fiber={self.fiber.spec_string()}|base={self.base.spec_string()})"

    @property
    def spec_hash(self) -> str:
        if self._spec_hash is None:
            self._spec_hash = hashlib.sha256(self.spec_string().encode("utf-8")).hexdigest()
        return self._spec_hash

    # -- search ------------------------------------------------------------------------

    def _search_space(self) -> "_PackedLampSpace":
        return _PackedLampSpace(self)


def _split_top_level(text: str, sep: str) -> list[str]:
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


class _PackedLampSpace:
    """BFS states for any finite fiber: (packed lamp fields, cursor value).

    Each base position met during the search gets the next small-int id and
    owns the ``width``-bit field at ``id * width`` of the mask.  The field holds
    the index of the lamp's value in ``(identity, *lamp values)``, so an unlit
    lamp is field 0 and the empty configuration is mask 0.
    """

    def __init__(self, ctx: WreathContext):
        self.ctx = ctx
        fiber = ctx.fiber
        self._values = (ctx._fiber_id, *ctx._lamp_values)
        self._value_index = {v: i for i, v in enumerate(self._values)}
        self._width = (len(self._values) - 1).bit_length()
        self._full = (1 << self._width) - 1
        # the k-th lamp letter turns field i into i ^ _flips[k][i]
        self._flips = tuple(
            tuple(i ^ self._value_index[fiber.multiply(v, h)] for i, v in enumerate(self._values))
            for h in ctx._lamp_values
        )
        self._moves = ctx.base.symmetric_generators()
        self._letters = ctx.symmetric_generators()  # lamp letters, then cursor moves
        self._ids: dict[Element, int] = {}
        self._positions: list[Element] = []
        self._keys: list[bytes] = []

    def _id_of(self, pos: Element) -> int:
        idx = self._ids.get(pos)
        if idx is None:
            idx = self._ids[pos] = len(self._positions)
            self._positions.append(pos)
            self._keys.append(self.ctx.base.sort_key(pos))
        return idx

    def identity_state(self) -> tuple[int, Element]:
        return (0, self.ctx._base_id)

    def state_of(self, value: WreathElement) -> tuple[int, Element]:
        mask = 0
        for pos, val in value.lamps:
            mask |= self._value_index[val] << (self._id_of(pos) * self._width)
        return (mask, value.cursor)

    def value_of(self, state: tuple[int, Element]) -> WreathElement:
        mask, cursor = state
        width, full = self._width, self._full
        lit = []
        idx = 0
        while mask:
            field = mask & full
            if field:
                lit.append((self._keys[idx], idx, field))
            mask >>= width
            idx += 1
        lit.sort()
        lamps = tuple((self._positions[idx], self._values[field]) for _, idx, field in lit)
        return WreathElement(lamps, cursor)

    def neighbors(self, state: tuple[int, Element]) -> list[tuple[int, Element]]:
        mask, cursor = state
        shift = self._id_of(cursor) * self._width
        field = (mask >> shift) & self._full
        out = [(mask ^ (flip[field] << shift), cursor) for flip in self._flips]
        mul = self.ctx.base.multiply
        out.extend((mask, mul(cursor, g)) for g in self._moves)
        return out

    def moves(self, state: tuple[int, Element]) -> list[tuple[WreathElement, tuple[int, Element]]]:
        return list(zip(self._letters, self.neighbors(state)))


# ---------------------------------------------------------------------------
# bulbs and the three word-length facts about them


def bulb(ctx: WreathContext, index: Element, value: Element) -> WreathElement:
    """The kernel element lighting ``value`` at position ``index``."""
    value = ctx.fiber.canonicalize(value)
    if value == ctx._fiber_id:
        raise ValueError("a bulb needs a nonidentity fiber value")
    return WreathElement(((ctx.base.canonicalize(index), value),), ctx._base_id)


def bulb_product(ctx: WreathContext, pairs: Iterable[tuple[Element, Element]]) -> BulbProduct:
    """Normalize ``(index, value)`` factors: merge equal indices, drop identity values."""
    merged: dict[Element, Element] = {}
    order: list[Element] = []
    for index, value in pairs:
        index = ctx.base.canonicalize(index)
        value = ctx.fiber.canonicalize(value)
        if index in merged:
            merged[index] = ctx.fiber.multiply(merged[index], value)
        else:
            merged[index] = value
            order.append(index)
    bulbs = [
        Bulb(index, merged[index]) for index in order if merged[index] != ctx._fiber_id
    ]
    bulbs.sort(key=lambda b: ctx.base.sort_key(b.index))
    return BulbProduct(tuple(bulbs))


def kernel_bulbs(ctx: WreathContext, w: WreathElement) -> BulbProduct:
    """The bulb normal form of a kernel element (cursor must be the identity)."""
    w = ctx.canonicalize(w)
    if w.cursor != ctx._base_id:
        raise ValueError(
            f"element {ctx.format_element(w)} is not in the kernel of the cursor projection"
        )
    return BulbProduct(tuple(Bulb(pos, val) for pos, val in w.lamps))


def bulb_lower_bound(product: BulbProduct) -> int:
    """Word length of a bulb product is at least its number of distinct indices."""
    return len(product.bulbs)


def bulb_decompose(
    ctx: WreathContext, letters: Iterable[WreathElement]
) -> tuple[BulbProduct, Element]:
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
    """A generator word for a bulb product, with its guaranteed letter bound."""

    letters: tuple[WreathElement, ...]
    bound: int


def bulb_word(
    ctx: WreathContext,
    structure: VirtuallyZStructure,
    product: BulbProduct,
) -> BulbWord:
    """Spell a bulb product with at most ``n * (k + 2 + 4 * max|e|)`` letters.

    The base group must carry the given virtually-Z structure, with ``t`` and
    every nonidentity coset representative among the marked base generators.
    Indices are grouped by coset representative and visited in increasing
    t-exponent order, so the cursor sweeps each coset once.
    """
    base = ctx.base
    if structure.group is not base and structure.group.spec_string() != base.spec_string():
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
    for b in product.bulbs:
        i, e = vz_decompose(structure, b.index)
        grouped.setdefault(i, []).append((e, b.value))
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
    bound = structure.index * (len(product.bulbs) + 2 + 4 * max_abs_e)
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

    The ball comes from ``oracle`` (a fresh one for ``ctx`` if omitted), so a
    larger ball the oracle already holds is filtered instead of searched again.
    """
    if oracle is None:
        oracle = LengthOracle(ctx)
    elif oracle.ctx is not ctx and oracle.ctx.spec_string() != ctx.spec_string():
        raise StructureError("the oracle measures a different marked group than the window")
    return tuple(w for w in oracle.ball(r).elements if w.cursor == ctx._base_id)
