"""Finitely generated marked groups and exact word-metric search.

A *marked group* is a group with a fixed ordered tuple of generators.  All
metric quantities (word length, balls, growth values) are taken relative to
the symmetric closure of that marking, and balls are *open*: ``ball(ctx, r)``
holds exactly the elements of word length strictly below ``r``.

Elements are plain hashable Python values (ints, tuples) with a canonical,
self-delimiting byte encoding per kind.  The encoding doubles as the sort
key wherever deterministic ordering is required, and as the on-disk form in
the ball cache.  All arithmetic is exact: lengths are ints, radii are
``fractions.Fraction``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import math
import re
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, ClassVar, Iterable, Iterator

from .encoding import (
    EncodingError,
    read_svarint,
    read_uvarint,
    write_svarint,
    write_uvarint,
)
from .errors import BudgetExceededError, StructureError

Element = Any

#: Default node budget shared by every search.  Exceeding it raises
#: :class:`BudgetExceededError`; results are never silently truncated.
DEFAULT_BUDGET = 10_000_000


def as_radius(r: int | Fraction | str) -> Fraction:
    """Validate and normalize a ball radius to a positive ``Fraction``."""
    radius = Fraction(r)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return radius


def max_length_below(r: Fraction) -> int:
    """Largest integer word length admitted by the open ball of radius ``r``."""
    return math.ceil(r) - 1


def same_group(a: "MarkedGroup", b: "MarkedGroup") -> bool:
    """Whether two marked groups are interchangeable: their spec strings are equal."""
    return a is b or a.spec_string() == b.spec_string()


#: The signed value of each one-byte svarint, by byte.
_ZIGZAG_BYTES = tuple(read_svarint(bytes([b]), 0)[0] for b in range(0x80))
#: The one-byte uvarint of each count below 0x80.
_COUNT_BYTES = tuple(bytes([n]) for n in range(0x80))

_INTEGER = re.compile(r"-?[0-9]+")
_LETTERS = re.compile(r"[a-zA-Z]+")


def match_at(pattern: re.Pattern[str], text: str, pos: int) -> tuple[str, int]:
    """The text ``pattern`` matches at ``pos``, and the position after it."""
    found = pattern.match(text, pos)
    if found is None:
        raise EncodingError(f"expected {pattern.pattern} at position {pos} of {text!r}")
    return found.group(), found.end()


def expect_at(token: str, text: str, pos: int) -> int:
    """The position after ``token``, which must stand at ``pos``."""
    if not text.startswith(token, pos):
        raise EncodingError(f"expected {token!r} at position {pos} of {text!r}")
    return pos + len(token)


# ---------------------------------------------------------------------------
# marked groups


class MarkedGroup:
    """Base class for group kinds; subclasses fix element shape and encoding."""

    kind: ClassVar[str] = ""

    def __init__(self, generators: Iterable[Element]):
        gens = tuple(self.canonicalize(g) for g in generators)
        ident = self.identity()
        for g in gens:
            if g == ident:
                raise StructureError(f"{self.kind}: identity listed as a generator")
        if len(set(gens)) != len(gens):
            raise StructureError(f"{self.kind}: duplicate generator in marking")
        self._generators = gens
        self._symmetric: tuple[Element, ...] | None = None
        self._spec_hash: str | None = None
        self._post_validate()

    # -- group structure -------------------------------------------------

    def identity(self) -> Element:
        raise NotImplementedError

    def multiply(self, x: Element, y: Element) -> Element:
        raise NotImplementedError

    def inverse(self, x: Element) -> Element:
        raise NotImplementedError

    def canonicalize(self, x: Element) -> Element:
        """Validate ``x`` and return its canonical value (EncodingError if malformed)."""
        raise NotImplementedError

    def order(self) -> int | None:
        """Group order, or ``None`` for infinite groups."""
        raise NotImplementedError

    def elements(self) -> tuple[Element, ...]:
        """All elements in canonical order; finite kinds only.

        The elements are the ball of radius ``order + 1``, which a
        ``LengthOracle`` orders by canonical encoding.  Cyclic and table kinds
        list ``range(order)`` instead: their canonical order is numeric, which
        leaves uvarint byte order from 128 elements on, and a wreath's lamp
        letters, and so its spec string, follow its fiber's element order.
        """
        order = self._enumerable_order()
        return LengthOracle(self).ball(order + 1).elements

    def _enumerable_order(self) -> int:
        """The group's order, refused when infinite or past ``DEFAULT_BUDGET``."""
        order = self.order()
        if order is None:
            raise StructureError(f"{self.kind}: cannot enumerate an infinite group")
        if order > DEFAULT_BUDGET:
            raise BudgetExceededError(
                f"{self.spec_string()} has {order} elements, "
                f"more than the node budget of {DEFAULT_BUDGET} to enumerate"
            )
        return order

    def power(self, x: Element, k: int) -> Element:
        """``x**k`` by square-and-multiply; ``k`` may be negative."""
        if k < 0:
            return self.power(self.inverse(x), -k)
        acc = self.identity()
        base = x
        while k:
            if k & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            k >>= 1
        return acc

    # -- marking ----------------------------------------------------------

    @property
    def generators(self) -> tuple[Element, ...]:
        return self._generators

    def symmetric_generators(self) -> tuple[Element, ...]:
        """Declared generators followed by any missing inverses, deduplicated."""
        if self._symmetric is None:
            seen: list[Element] = []
            for g in self._generators:
                if g not in seen:
                    seen.append(g)
            for g in self._generators:
                inv = self.inverse(g)
                if inv not in seen:
                    seen.append(inv)
            self._symmetric = tuple(seen)
        return self._symmetric

    def _post_validate(self) -> None:
        """Kind hook run after the marking is fixed (generation checks etc.)."""

    def _check_generation(self) -> None:
        # Exhaustive closure check; only called for finite kinds.
        total = self._enumerable_order()
        reached = LengthOracle(self).growth(total + 1)
        if reached != total:
            raise StructureError(
                f"{self.kind}: marking generates only {reached} of {total} elements"
            )

    # -- canonical encoding ------------------------------------------------

    def encode(self, x: Element) -> bytes:
        out = bytearray()
        self._encode_into(out, x)
        return bytes(out)

    def _encode_into(self, out: bytearray, x: Element) -> None:
        raise NotImplementedError

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[Element, int]:
        raise NotImplementedError

    def decode(self, data: bytes) -> Element:
        value, pos = self.decode_from(data, 0)
        if pos != len(data):
            raise EncodingError(f"{len(data) - pos} trailing bytes after element encoding")
        return value

    def decode_many(self, encodings: Iterable[bytes]) -> list[Element]:
        """``[decode(e) for e in encodings]``; kinds may share work across the batch."""
        return [self.decode(e) for e in encodings]

    def sort_key(self, x: Element) -> bytes:
        return self.encode(x)

    # -- text forms ---------------------------------------------------------

    def format_element(self, x: Element) -> str:
        raise NotImplementedError

    def parse_from(self, text: str, pos: int) -> tuple[Element, int]:
        """Read the element literal at ``pos``; return (element, position after it)."""
        raise NotImplementedError

    def parse_element(self, text: str) -> Element:
        text = text.strip()
        value, pos = self.parse_from(text, 0)
        if pos != len(text):
            raise EncodingError(f"trailing text at position {pos} of {text!r}")
        return value

    # -- identity of the marked structure -----------------------------------

    def spec_string(self) -> str:
        """Canonical description of kind + parameters + marking, used for cache identity."""
        raise NotImplementedError

    @property
    def spec_hash(self) -> str:
        if self._spec_hash is None:
            self._spec_hash = hashlib.sha256(self.spec_string().encode("utf-8")).hexdigest()
        return self._spec_hash

    # -- search -------------------------------------------------------------

    def _search_space(self) -> "_CayleySpace":
        return _CayleySpace(self)

    # -- power equations ------------------------------------------------------

    def exponent_solutions(self, t: Element, h: Element) -> tuple[str, int, int]:
        """Solve ``t**e == h`` exactly.

        Returns ``("none", 0, 0)``, ``("unique", e, 0)``, or
        ``("periodic", e0, p)`` meaning the solution set is ``e0 + p*Z``.
        Finite kinds search the closure of ``t`` from the identity: the
        least solution is the depth of ``h`` and the period is the closure's
        size, the order of ``t``.  Infinite kinds that solve it override this.
        """
        order = self.order()
        if order is None:
            raise NotImplementedError
        powers = _BallSearch(_CayleySpace(self, (t,)), order)
        powers.extend(order)  # never over budget: the closure of t fits in the group
        e = powers.seen.get(h)
        return ("none", 0, 0) if e is None else ("periodic", e, len(powers.seen))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec_string()}>"


class IntegerGroup(MarkedGroup):
    """The infinite cyclic group; elements are Python ints under addition."""

    kind = "integers"

    def __init__(self, generators: Iterable[int] = (1,)):
        super().__init__(generators)

    def identity(self) -> int:
        return 0

    def multiply(self, x: int, y: int) -> int:
        return x + y

    def inverse(self, x: int) -> int:
        return -x

    def canonicalize(self, x: Element) -> int:
        if not isinstance(x, int) or isinstance(x, bool):
            raise EncodingError(f"integers element must be an int, got {x!r}")
        return x

    def order(self) -> None:
        return None

    def _encode_into(self, out: bytearray, x: int) -> None:
        write_svarint(out, x)

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[int, int]:
        # a byte below 0x80 is a whole svarint; any other input goes to read_svarint
        if pos < len(data) and data[pos] < 0x80:
            return _ZIGZAG_BYTES[data[pos]], pos + 1
        return read_svarint(data, pos)

    def format_element(self, x: int) -> str:
        return str(x)

    def parse_from(self, text: str, pos: int) -> tuple[int, int]:
        digits, pos = match_at(_INTEGER, text, pos)
        return int(digits), pos

    def spec_string(self) -> str:
        return f"integers(gens={','.join(str(g) for g in self._generators)})"

    def exponent_solutions(self, t: int, h: int) -> tuple[str, int, int]:
        if t == 0:
            return ("periodic", 0, 1) if h == 0 else ("none", 0, 0)
        q, rem = divmod(h, t)
        return ("unique", q, 0) if rem == 0 else ("none", 0, 0)


class CyclicGroup(MarkedGroup):
    """Z/n; elements are ints in ``range(n)`` under addition mod n."""

    kind = "cyclic"

    def __init__(self, modulus: int, generators: Iterable[int] | None = None):
        if modulus < 1:
            raise ValueError(f"cyclic modulus must be >= 1, got {modulus}")
        self.modulus = modulus
        if generators is None:
            generators = (1,) if modulus > 1 else ()
        super().__init__(generators)

    def identity(self) -> int:
        return 0

    def multiply(self, x: int, y: int) -> int:
        return (x + y) % self.modulus

    def inverse(self, x: int) -> int:
        return (-x) % self.modulus

    def canonicalize(self, x: Element) -> int:
        if not isinstance(x, int) or isinstance(x, bool):
            raise EncodingError(f"cyclic element must be an int, got {x!r}")
        return x % self.modulus

    def order(self) -> int:
        return self.modulus

    def elements(self) -> tuple[int, ...]:
        return tuple(range(self.modulus))

    def _post_validate(self) -> None:
        self._check_generation()

    def _encode_into(self, out: bytearray, x: int) -> None:
        write_uvarint(out, x)

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[int, int]:
        # a byte below 0x80 is a whole uvarint; any other input goes to read_uvarint
        if pos < len(data) and data[pos] < 0x80:
            value, pos = data[pos], pos + 1
        else:
            value, pos = read_uvarint(data, pos)
        if value >= self.modulus:
            raise EncodingError(f"cyclic residue {value} out of range for modulus {self.modulus}")
        return value, pos

    def format_element(self, x: int) -> str:
        return str(x)

    def parse_from(self, text: str, pos: int) -> tuple[int, int]:
        digits, pos = match_at(_INTEGER, text, pos)
        return int(digits) % self.modulus, pos

    def spec_string(self) -> str:
        gens = ",".join(str(g) for g in self._generators)
        return f"cyclic(n={self.modulus}|gens={gens})"


def _free_letter_tables(rank: int) -> tuple[bytes, tuple[int | None, ...]]:
    """By a letter's signed byte, its one-byte svarint if within ``rank``, else
    0x80; and by a one-byte svarint, its letter if within ``rank``, else None."""
    letter_bytes = bytearray([0x80] * 256)
    for b, letter in enumerate(_ZIGZAG_BYTES):
        if 0 < abs(letter) <= rank:
            letter_bytes[letter & 0xFF] = b
    in_rank = tuple(letter if 0 < abs(letter) <= rank else None for letter in _ZIGZAG_BYTES)
    return bytes(letter_bytes), in_rank


#: ``_free_letter_tables`` of each free rank, 1 to 4.
_FREE_LETTER_TABLES = tuple(_free_letter_tables(rank) for rank in range(1, 5))


class FreeGroup(MarkedGroup):
    """Free group of finite rank; elements are reduced tuples of signed letters.

    Letter ``i`` (1-based) is the i-th basis generator, ``-i`` its inverse.
    Only fully reduced tuples are canonical; ``canonicalize`` rejects the rest.
    """

    kind = "free"

    def __init__(self, rank: int, generators: Iterable[tuple[int, ...]] | None = None):
        # letters a..d name the basis; ``e`` stays free for the identity
        if not 1 <= rank <= 4:
            raise ValueError(f"free rank must be in 1..4, got {rank}")
        self.rank = rank
        self._letter_bytes, self._byte_letters = _FREE_LETTER_TABLES[rank - 1]
        if generators is None:
            generators = tuple((i,) for i in range(1, rank + 1))
        super().__init__(generators)

    def identity(self) -> tuple[int, ...]:
        return ()

    def multiply(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        xs = list(x)
        i = 0
        while xs and i < len(y) and xs[-1] == -y[i]:
            xs.pop()
            i += 1
        return tuple(xs) + y[i:]

    def inverse(self, x: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-letter for letter in reversed(x))

    def canonicalize(self, x: Element) -> tuple[int, ...]:
        if not isinstance(x, tuple):
            raise EncodingError(f"free element must be a tuple of letters, got {x!r}")
        for letter in x:
            if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
                raise EncodingError(f"letter {letter!r} out of range for rank {self.rank}")
        for a, b in zip(x, x[1:]):
            if a == -b:
                raise EncodingError(f"word {x!r} is not reduced")
        return x

    def order(self) -> None:
        return None

    def _encode_into(self, out: bytearray, x: tuple[int, ...]) -> None:
        if len(x) < 0x80:
            # fewer than 0x80 letters, all within the rank: every varint is one byte
            try:
                letters = array("b", x).tobytes().translate(self._letter_bytes)
            except (OverflowError, TypeError):
                pass
            else:
                if letters.isascii():
                    out.append(len(x))
                    out += letters
                    return
        write_uvarint(out, len(x))
        for letter in x:
            write_svarint(out, letter)

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[tuple[int, ...], int]:
        n, pos = read_uvarint(data, pos)
        letters = []
        for _ in range(n):
            letter, pos = read_svarint(data, pos)
            letters.append(letter)
        return self.canonicalize(tuple(letters)), pos

    def decode_many(self, encodings: Iterable[bytes]) -> list[tuple[int, ...]]:
        """``[decode(e) for e in encodings]``, building each word from its parent.

        A word whose count and letters are all single-byte varints is its
        count byte then one byte per letter: all bytes below 0x80 and the
        length one more than the count.  Such a word of n letters looks up
        its parent (itself minus the last letter) under the parent's
        encoding, the count byte n - 1 then the word's letters but the last,
        among the batch's n - 1 letter words decoded so far.  Found, the word
        is the parent plus its last letter, which must be within the rank
        and not the inverse of the parent's last letter; that is exact, since
        the parent was itself checked.  Any other such word goes through
        ``canonicalize``, and any other encoding to ``decode``.
        """
        letter_of, byte_letters = _ZIGZAG_BYTES, self._byte_letters
        canonicalize, decode = self.canonicalize, self.decode
        # per word length, the batch's words of that length by their encodings
        words: list[dict[bytes, tuple[int, ...]]] = [{} for _ in range(0x80)]
        out = []
        for e in encodings:
            if e and e.isascii() and len(e) == e[0] + 1:
                n = e[0]
                parent = words[n - 1].get(_COUNT_BYTES[n - 1] + e[1:-1]) if n else None
                letter = byte_letters[e[-1]]
                if parent is None or letter is None or parent and parent[-1] == -letter:
                    word = canonicalize(tuple(map(letter_of.__getitem__, e[1:])))
                else:
                    word = parent + (letter,)
                words[n][e] = word
            else:
                word = decode(e)
            out.append(word)
        return out

    def format_element(self, x: tuple[int, ...]) -> str:
        if not x:
            return "e"
        return "".join(
            chr(ord("a") + letter - 1) if letter > 0 else chr(ord("A") - letter - 1)
            for letter in x
        )

    def parse_from(self, text: str, pos: int) -> tuple[tuple[int, ...], int]:
        word, pos = match_at(_LETTERS, text, pos)
        if word == "e":
            return (), pos
        letters = tuple(
            ord(ch) - ord("a") + 1 if ch.islower() else -(ord(ch) - ord("A") + 1) for ch in word
        )
        return self.canonicalize(letters), pos

    def spec_string(self) -> str:
        gens = ",".join(self.format_element(g) for g in self._generators)
        return f"free(rank={self.rank}|gens={gens})"

    def exponent_solutions(self, t: tuple[int, ...], h: tuple[int, ...]) -> tuple[str, int, int]:
        if not t:
            return ("periodic", 0, 1) if not h else ("none", 0, 0)
        # |t**e| >= |e| for reduced t, so solutions satisfy |e| <= |h|.
        for sign in (1, -1):
            base = t if sign == 1 else self.inverse(t)
            cur: tuple[int, ...] = ()
            for e in range(len(h) + 1):
                if cur == h and (e > 0 or sign == 1):
                    return ("unique", sign * e, 0)
                cur = self.multiply(cur, base)
        return ("none", 0, 0)


class TableGroup(MarkedGroup):
    """Finite group given by an explicit multiplication table.

    ``table[x][y]`` is the product of row element x and column element y;
    elements are the row indices.  The table is validated on construction:
    rows and columns must be permutations, a two-sided identity must exist,
    every element needs a two-sided inverse, and associativity is checked
    exactly by Light's test against the symmetric generators.
    """

    kind = "table"

    def __init__(self, table: Iterable[Iterable[int]], generators: Iterable[int]):
        rows = tuple(tuple(row) for row in table)
        n = len(rows)
        if n == 0:
            raise ValueError("table: empty multiplication table")
        full = set(range(n))
        for i, row in enumerate(rows):
            if len(row) != n or set(row) != full:
                raise StructureError(f"table: row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if {row[j] for row in rows} != full:
                raise StructureError(f"table: column {j} is not a permutation of 0..{n - 1}")
        self.table = rows
        self._order = n
        self._identity = self._find_identity()
        self._inverses = self._find_inverses()
        super().__init__(generators)

    def _find_identity(self) -> int:
        n = self._order
        candidates = [e for e in range(n) if all(self.table[e][x] == x for x in range(n))]
        if len(candidates) != 1:
            raise StructureError("table: no unique left identity")
        e = candidates[0]
        if any(self.table[x][e] != x for x in range(n)):
            raise StructureError("table: identity is not two-sided")
        return e

    def _find_inverses(self) -> tuple[int, ...]:
        n, e = self._order, self._identity
        inv = []
        for x in range(n):
            ys = [y for y in range(n) if self.table[x][y] == e and self.table[y][x] == e]
            if len(ys) != 1:
                raise StructureError(f"table: element {x} has no unique two-sided inverse")
            inv.append(ys[0])
        return tuple(inv)

    def _check_associativity(self) -> None:
        # Light's test: the s with (xy)s == x(ys) for all x, y are closed under
        # products, so once every generator passes, every element the marking
        # generates does; _check_generation then makes the test exact.
        table = self.table
        for s in self.symmetric_generators():
            for x, row in enumerate(table):
                for y in range(self._order):
                    if table[row[y]][s] != row[table[y][s]]:
                        raise StructureError(f"table: associativity fails at ({x}, {y}, {s})")

    def identity(self) -> int:
        return self._identity

    def multiply(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inverse(self, x: int) -> int:
        return self._inverses[x]

    def canonicalize(self, x: Element) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self._order:
            raise EncodingError(f"table element must be an index in 0..{self._order - 1}, got {x!r}")
        return x

    def order(self) -> int:
        return self._order

    def elements(self) -> tuple[int, ...]:
        return tuple(range(self._order))

    def _post_validate(self) -> None:
        self._check_associativity()
        self._check_generation()

    def _encode_into(self, out: bytearray, x: int) -> None:
        write_uvarint(out, x)

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[int, int]:
        value, pos = read_uvarint(data, pos)
        if value >= self._order:
            raise EncodingError(f"table index {value} out of range")
        return value, pos

    def format_element(self, x: int) -> str:
        return str(x)

    def parse_from(self, text: str, pos: int) -> tuple[int, int]:
        digits, pos = match_at(_INTEGER, text, pos)
        return self.canonicalize(int(digits)), pos

    def spec_string(self) -> str:
        rows = ";".join(".".join(str(v) for v in row) for row in self.table)
        gens = ",".join(str(g) for g in self._generators)
        return f"table(rows={rows}|gens={gens})"


class ProductGroup(MarkedGroup):
    """Direct product of two marked groups; elements are pairs ``(left, right)``.

    The default marking embeds both factors' generators, so the word metric
    is the l1 combination of the factor metrics.
    """

    kind = "product"

    def __init__(
        self,
        left: MarkedGroup,
        right: MarkedGroup,
        generators: Iterable[tuple[Element, Element]] | None = None,
    ):
        self.left = left
        self.right = right
        if generators is None:
            generators = tuple((g, right.identity()) for g in left.generators) + tuple(
                (left.identity(), h) for h in right.generators
            )
        super().__init__(generators)

    def identity(self) -> tuple[Element, Element]:
        return (self.left.identity(), self.right.identity())

    def multiply(self, x: tuple[Element, Element], y: tuple[Element, Element]) -> tuple[Element, Element]:
        return (self.left.multiply(x[0], y[0]), self.right.multiply(x[1], y[1]))

    def inverse(self, x: tuple[Element, Element]) -> tuple[Element, Element]:
        return (self.left.inverse(x[0]), self.right.inverse(x[1]))

    def canonicalize(self, x: Element) -> tuple[Element, Element]:
        if not isinstance(x, tuple) or len(x) != 2:
            raise EncodingError(f"product element must be a pair, got {x!r}")
        return (self.left.canonicalize(x[0]), self.right.canonicalize(x[1]))

    def order(self) -> int | None:
        lo, ro = self.left.order(), self.right.order()
        if lo is None or ro is None:
            return None
        return lo * ro

    def _post_validate(self) -> None:
        if self.order() is not None:
            self._check_generation()

    def _encode_into(self, out: bytearray, x: tuple[Element, Element]) -> None:
        self.left._encode_into(out, x[0])
        self.right._encode_into(out, x[1])

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[tuple[Element, Element], int]:
        l, pos = self.left.decode_from(data, pos)
        r, pos = self.right.decode_from(data, pos)
        return (l, r), pos

    def format_element(self, x: tuple[Element, Element]) -> str:
        return f"({self.left.format_element(x[0])}|{self.right.format_element(x[1])})"

    def parse_from(self, text: str, pos: int) -> tuple[tuple[Element, Element], int]:
        left, pos = self.left.parse_from(text, expect_at("(", text, pos))
        right, pos = self.right.parse_from(text, expect_at("|", text, pos))
        return (left, right), expect_at(")", text, pos)

    def spec_string(self) -> str:
        gens = ",".join(self.format_element(g) for g in self._generators)
        return f"product(left={self.left.spec_string()}|right={self.right.spec_string()}|gens={gens})"

    def exponent_solutions(self, t: tuple[Element, Element], h: tuple[Element, Element]) -> tuple[str, int, int]:
        return _combine_solutions(
            self.left.exponent_solutions(t[0], h[0]),
            self.right.exponent_solutions(t[1], h[1]),
        )


def _combine_solutions(a: tuple[str, int, int], b: tuple[str, int, int]) -> tuple[str, int, int]:
    """Intersect two solution sets of the form none / unique / e0 + p*Z."""
    if a[0] == "none" or b[0] == "none":
        return ("none", 0, 0)
    if a[0] == "periodic" and b[0] == "periodic":
        _, e0, p = a
        _, f0, q = b
        for k in range(q):
            e = e0 + k * p
            if (e - f0) % q == 0:
                lcm = p * q // math.gcd(p, q)
                return ("periodic", e % lcm, lcm)
        return ("none", 0, 0)
    if a[0] == "unique":
        unique, other = a, b
    else:
        unique, other = b, a
    e = unique[1]
    if other[0] == "unique":
        return ("unique", e, 0) if e == other[1] else ("none", 0, 0)
    _, f0, q = other
    return ("unique", e, 0) if (e - f0) % q == 0 else ("none", 0, 0)


# ---------------------------------------------------------------------------
# virtually-Z structure


@dataclass(frozen=True)
class VirtuallyZStructure:
    """Declared finite-index infinite-cyclic subgroup data for a marked group.

    ``t`` generates the subgroup, ``coset_reps`` are left-coset representatives
    (so every element factors uniquely as ``rep * t**e``), and ``distortion``
    is a constant C with ``|e| / C <= word_length(t**e) <= |e|`` on the range
    of exponents the caller intends to use.
    """

    group: MarkedGroup
    t: Element
    coset_reps: tuple[Element, ...]
    distortion: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", self.group.canonicalize(self.t))
        reps = tuple(self.group.canonicalize(g) for g in self.coset_reps)
        if not reps:
            raise StructureError("virtually-Z structure needs at least one coset representative")
        if len(set(reps)) != len(reps):
            raise StructureError("virtually-Z structure lists a coset representative twice")
        object.__setattr__(self, "coset_reps", reps)
        object.__setattr__(self, "distortion", Fraction(self.distortion))
        if self.distortion <= 0:
            raise StructureError(f"distortion constant must be positive, got {self.distortion}")
        sol = self.group.exponent_solutions(self.t, self.group.identity())
        if sol != ("unique", 0, 0):
            raise StructureError("virtually-Z structure requires t of infinite order")

    @property
    def index(self) -> int:
        return len(self.coset_reps)


def vz_decompose(structure: VirtuallyZStructure, g: Element) -> tuple[int, int]:
    """Factor ``g = coset_reps[i-1] * t**e``; returns the unique ``(i, e)``, 1-based."""
    G = structure.group
    g = G.canonicalize(g)
    found: list[tuple[int, int]] = []
    for i, rep in enumerate(structure.coset_reps, start=1):
        h = G.multiply(G.inverse(rep), g)
        sol = G.exponent_solutions(structure.t, h)
        if sol[0] == "unique":
            found.append((i, sol[1]))
        elif sol[0] == "periodic":
            raise StructureError("virtually-Z structure has t of finite order")
    if not found:
        raise StructureError(
            f"element {G.format_element(g)} has no rep * t**e decomposition; "
            "declared coset representatives are incomplete"
        )
    if len(found) > 1:
        raise StructureError(
            f"element {G.format_element(g)} decomposes in {len(found)} ways; "
            "declared coset representatives overlap"
        )
    return found[0]


def vz_distortion_constant(
    structure: VirtuallyZStructure,
    e_max: int,
    *,
    budget: int | None = None,
) -> Fraction:
    """Least C with ``|e|/C <= word_length(t**e)`` for all ``|e| <= e_max``.

    Also enforces the matching upper bound ``word_length(t**e) <= |e|``; a
    violation means the declared t is not a marked generator's power and the
    structure is rejected.
    """
    if e_max < 0:
        raise ValueError(f"e_max must be nonnegative, got {e_max}")
    G = structure.group
    best = Fraction(1)
    power = G.identity()
    for e in range(1, e_max + 1):
        power = G.multiply(power, structure.t)
        for signed in (power, G.inverse(power)):
            length = word_length(G, signed, budget=budget)
            if length > e:
                raise StructureError(
                    f"word_length(t**{e}) = {length} exceeds |e|; "
                    "t must be a marked generator for this distortion bound"
                )
            best = max(best, Fraction(e, length))
    return best


class VirtuallyZGroup(MarkedGroup):
    """A marked group re-coordinatized through a virtually-Z structure.

    Elements are pairs ``(i, e)`` with ``1 <= i <= index``, standing for
    ``coset_reps[i-1] * t**e`` in the base group.  The marking is the image
    of the base marking, so word metrics agree with the base group.
    """

    kind = "vz"

    def __init__(self, structure: VirtuallyZStructure):
        self.structure = structure
        self.base = structure.group
        super().__init__(tuple(self.from_base(g) for g in self.base.generators))

    def to_base(self, x: tuple[int, int]) -> Element:
        i, e = x
        return self.base.multiply(
            self.structure.coset_reps[i - 1], self.base.power(self.structure.t, e)
        )

    def from_base(self, g: Element) -> tuple[int, int]:
        return vz_decompose(self.structure, g)

    def identity(self) -> tuple[int, int]:
        return self.from_base(self.base.identity())

    def multiply(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return self.from_base(self.base.multiply(self.to_base(x), self.to_base(y)))

    def inverse(self, x: tuple[int, int]) -> tuple[int, int]:
        return self.from_base(self.base.inverse(self.to_base(x)))

    def canonicalize(self, x: Element) -> tuple[int, int]:
        if (
            not isinstance(x, tuple)
            or len(x) != 2
            or not isinstance(x[0], int)
            or not isinstance(x[1], int)
        ):
            raise EncodingError(f"vz element must be a pair (i, e) of ints, got {x!r}")
        if not 1 <= x[0] <= self.structure.index:
            raise EncodingError(f"coset index {x[0]} out of range 1..{self.structure.index}")
        return (x[0], x[1])

    def order(self) -> int | None:
        return self.base.order()

    def _encode_into(self, out: bytearray, x: tuple[int, int]) -> None:
        write_uvarint(out, x[0] - 1)
        write_svarint(out, x[1])

    def decode_from(self, data: bytes | memoryview, pos: int) -> tuple[tuple[int, int], int]:
        i, pos = read_uvarint(data, pos)
        if i >= self.structure.index:
            raise EncodingError(f"coset index {i + 1} out of range")
        e, pos = read_svarint(data, pos)
        return (i + 1, e), pos

    def format_element(self, x: tuple[int, int]) -> str:
        return f"({x[0]}|{x[1]})"

    def parse_from(self, text: str, pos: int) -> tuple[tuple[int, int], int]:
        i, pos = match_at(_INTEGER, text, expect_at("(", text, pos))
        e, pos = match_at(_INTEGER, text, expect_at("|", text, pos))
        return self.canonicalize((int(i), int(e))), expect_at(")", text, pos)

    def spec_string(self) -> str:
        reps = ",".join(self.base.format_element(g) for g in self.structure.coset_reps)
        return (
            f"vz(base={self.base.spec_string()}"
            f"|t={self.base.format_element(self.structure.t)}|reps={reps})"
        )

    def exponent_solutions(self, t: tuple[int, int], h: tuple[int, int]) -> tuple[str, int, int]:
        return self.base.exponent_solutions(self.to_base(t), self.to_base(h))


# ---------------------------------------------------------------------------
# search


class _CayleySpace:
    """Default BFS state space: states are canonical element values.

    Every search space has the same kernel, ``expand``; the searches below
    call nothing else per state.
    """

    __slots__ = ("ctx", "letters")

    def __init__(self, ctx: Any, letters: tuple[Element, ...] | None = None):
        self.ctx = ctx
        self.letters = ctx.symmetric_generators() if letters is None else letters

    def identity_state(self) -> Any:
        return self.ctx.identity()

    def state_of(self, value: Element) -> Any:
        return value

    def encoded_values(self, states: Iterable[Any]) -> tuple[list[bytes], list[Element]]:
        values = list(states)
        encode = self.ctx.encode
        return [encode(s) for s in values], values

    def expand(
        self, frontier: list[Any], seen: dict[Any, int], depth: int, budget: int
    ) -> list[Any] | None:
        """Expand one BFS level: record each unseen neighbour in ``seen`` at ``depth``.

        Neighbours are the products with ``letters``, by default
        ``ctx.symmetric_generators()``, in that order, state by state.  Returns the new states in discovery
        order, or None as soon as ``seen`` holds more than ``budget`` states.
        """
        mul = self.ctx.multiply
        letters = self.letters
        nxt: list[Any] = []
        append = nxt.append
        for state in frontier:
            for g in letters:
                other = mul(state, g)
                if other not in seen:
                    seen[other] = depth
                    append(other)
            if len(seen) > budget:
                return None
        return nxt


@dataclass
class BallTable:
    """An open ball with exact word lengths, ordered by canonical encoding."""

    context: Any
    radius: Fraction
    elements: tuple[Element, ...]
    lengths: dict[Element, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value: Element) -> bool:
        return value in self.lengths

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector off, then restore its state.

    Building a table allocates ~10^5 containers that outlive the call.
    ``WreathElement`` is a NamedTuple, and CPython untracks only exact
    tuples, so every held wreath element (and every dict keyed by one) stays
    tracked; with the collector on, such a burst sets off full collections
    that rescan all of them.  Callers build only acyclic objects here, which
    reference counting alone frees.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class _BallSearch:
    """One BFS from a state of a search space, resumed one level at a time.

    The search starts at ``start``, the space's identity state unless given.
    ``seen`` maps each state found to its depth, in discovery order,
    ``frontier`` lists the last level searched, and ``counts[d]`` is the
    number of states of depth at most ``d``.  ``seen`` is complete up to
    depth ``reach``, infinite once a level comes out empty.  A level over
    the budget is dropped again, so a resumed search holds, and fails at,
    what a fresh one does.  ``step`` is the one BFS level loop of the
    package: balls, lengths, geodesics, subgroup closures, the element
    lists of finite groups and their power scans all run on it.
    """

    def __init__(self, space: Any, budget: int, *, start: Any = None):
        start = space.identity_state() if start is None else start
        self.space, self.budget, self.reach = space, budget, 0
        self.seen, self.frontier, self.counts = {start: 0}, [start], [1]

    def step(self, budget: int) -> bool:
        """Search one more level while ``seen`` holds at most ``budget`` states.

        Returns False, with the level dropped, when it would hold more.
        """
        seen, counts = self.seen, self.counts
        frontier = None
        try:
            frontier = self.space.expand(self.frontier, seen, self.reach + 1, budget)
        finally:
            if frontier is None:  # keep only complete levels
                while len(seen) > counts[-1]:
                    seen.popitem()
        if frontier is None:
            return False
        self.frontier = frontier
        counts.append(len(seen))
        self.reach = self.reach + 1 if frontier else math.inf
        return True

    def extend(self, max_len: int) -> int:
        """Search up to depth ``max_len``, collector paused; return the states that deep."""
        with _collector_paused():
            while self.reach < max_len:
                if not self.step(self.budget):
                    raise BudgetExceededError(
                        f"ball search exceeded the node budget of {self.budget} "
                        f"at depth {self.reach + 1}; raise the budget to continue"
                    )
        return self.counts[min(max_len, len(self.counts) - 1)]


def ball(
    ctx: Any,
    r: int | Fraction,
    *,
    budget: int | None = None,
    store: Any = None,
) -> BallTable:
    """Open ball of radius ``r`` around the identity, with exact lengths.

    With a ball store attached, a stored ball of radius >= r for the same
    marked structure is reused (filtered down): its sorted encodings are
    decoded in one batch by ``ctx.decode_many``, which on wreath products
    has each lamp parsed once per run of shared leading lamps.  Otherwise
    the ball is ``LengthOracle(ctx, budget=budget).ball(r)``, saved with the
    encodings its ordering computed.  Loads, like searches, run with the
    cyclic garbage collector paused (``_collector_paused``).
    """
    radius = as_radius(r)
    with _collector_paused():
        if store is not None:
            record = store.load(ctx.spec_hash, radius)
            if record is not None:
                elements = tuple(ctx.decode_many(record.encodings))
                lengths = dict(zip(elements, record.lengths))
                return BallTable(ctx, radius, elements, lengths)
        table, encodings = LengthOracle(ctx, budget=budget)._sorted_ball(radius)
    if store is not None:
        from .ballstore import BallRecord

        store.save(BallRecord(ctx.spec_hash, radius, tuple(encodings), tuple(table.lengths.values())))
    return table


def _sorted_table(
    ctx: Any, space: Any, radius: Fraction, dist: dict[Any, int]
) -> tuple[BallTable, list[bytes]]:
    """The ball of the states ``dist`` maps to their lengths, ordered by encoding.

    The space builds the elements and encodings in one batch (once per lamp
    mask on wreath products), and the order does not depend on the ids
    earlier searches handed out.  Returns the table, whose ``lengths``
    follow the same order, and the elements' encodings in that order.
    """
    encodings, values = space.encoded_values(dist)
    order = sorted(range(len(encodings)), key=encodings.__getitem__)
    depths = list(dist.values())
    elements = tuple(values[i] for i in order)
    lengths = {values[i]: depths[i] for i in order}
    return BallTable(ctx, radius, elements, lengths), [encodings[i] for i in order]


def word_length(
    ctx: Any,
    g: Element,
    *,
    at_most: int | None = None,
    budget: int | None = None,
) -> int | None:
    """Exact word length of ``g`` by bidirectional BFS with early exit.

    With ``at_most`` set, returns ``None`` as soon as the length is known to
    exceed it (the search never explores past that depth).  Each call
    searches afresh: a new ``LengthOracle`` answers it, so its held BFS
    holds only the identity and ``_meet`` searches back from ``g`` to it.
    """
    return LengthOracle(ctx, budget=budget)._known_length(ctx.canonicalize(g), at_most)


def _meet(forward: _BallSearch, target: Any, at_most: int | None, budget: int) -> int | None:
    """Length of the state ``target``, which ``forward`` has not found, or None past ``at_most``.

    A second ``_BallSearch``, started at ``target``, searches back and
    meets the forward search, whose levels are kept: each round steps the
    search with the smaller frontier (ties go forward) and checks its new
    states against the other half.  Both halves hold at most ``budget``
    states together; a level over it is dropped.  A half whose frontier
    empties has an infinite reach: it has met the other half, or ``target``
    lies off the subgroup that the space's letters generate.
    """
    backward = _BallSearch(forward.space, budget, start=target)
    best: int | None = None
    while True:
        reach = forward.reach + backward.reach
        if best is not None and reach >= best:
            return best
        if not forward.frontier and not backward.frontier:
            raise StructureError("element is not generated by the declared marking")
        if at_most is not None and best is None and reach >= at_most:
            return None
        if forward.frontier and (
            not backward.frontier or len(forward.frontier) <= len(backward.frontier)
        ):
            ours, theirs = forward, backward
        else:
            ours, theirs = backward, forward
        if not ours.step(budget - len(theirs.seen)):
            raise BudgetExceededError(f"word-length search exceeded the node budget of {budget}")
        met = theirs.seen.keys() & ours.frontier
        if met:
            found = ours.reach + min(map(theirs.seen.__getitem__, met))
            if best is None or found < best:
                best = found


def minimal_word(ctx: Any, g: Element, *, budget: int | None = None) -> tuple[Element, ...]:
    """One geodesic word for ``g`` as a tuple of generator values (left to right).

    A fresh ``_BallSearch`` steps until it finds ``g``.  Of the geodesics,
    the word is the one that search meets first: each letter's source is
    the earliest state of its level, in discovery order, that reaches the
    next state.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    g = ctx.canonicalize(g)
    space = ctx._search_space()
    target = space.state_of(g)
    search = _BallSearch(space, budget)
    seen = search.seen
    while target not in seen:
        if not search.frontier:
            raise StructureError("element is not generated by the declared marking")
        if not search.step(budget):
            raise BudgetExceededError(f"geodesic search exceeded the node budget of {budget}")
    # The i-th neighbour of a state is its product with letter i, so the
    # state is that neighbour times the letter's inverse.
    letters = ctx.symmetric_generators()
    undo = [letters.index(ctx.inverse(x)) for x in letters]
    order, starts = list(seen), [0, *search.counts]
    word: list[Element] = []
    state = target
    for depth in range(seen[target] - 1, -1, -1):
        level = order[starts[depth] : starts[depth + 1]]
        around = space.expand([state], {}, depth, len(letters))
        i = min(
            (i for i, other in enumerate(around) if seen.get(other) == depth),
            key=lambda i: level.index(around[i]),
        )
        word.append(letters[undo[i]])
        state = around[i]
    word.reverse()
    return tuple(word)


def evaluate_word(ctx: Any, letters: Iterable[Element]) -> Element:
    """Product of a word's letters, left to right."""
    acc = ctx.identity()
    for letter in letters:
        acc = ctx.multiply(acc, ctx.canonicalize(letter))
    return acc


class LengthOracle:
    """Memoizing exact length/distance oracle for one marked context.

    The oracle holds one BFS from the identity (``_BallSearch``), which each
    query resumes: ``search(r)`` extends it to ``max_length_below(r)``,
    ``growth(r)`` counts its states by depth, and ``ball(r)`` builds the
    table of its states to that depth, a prefix of the search, with the
    collector paused as in ``ball()`` and cached per radius.  A length query
    looks its element's state up in the search, one dict lookup with no
    element of the searched ball built; a miss with ``bound <= reach`` is
    past the bound, as the BFS is complete to its reach.  Other misses
    search back from their element until that search meets the held BFS,
    which they extend level by level, so later misses start from deeper
    levels; their lengths are memoized.  Distances use left-invariance:
    ``d(x, y) = word_length(x^-1 y)``.

    The public ``length``, ``length_at_most``, ``distance`` and
    ``distance_at_most`` canonicalize their input first, so a malformed
    element raises ``EncodingError``.  ``_known_length`` trusts that its
    element is canonical already; window views call it on products of their
    canonical points, which ``multiply`` and ``inverse`` keep canonical.
    """

    def __init__(self, ctx: Any, *, budget: int | None = None):
        self.ctx = ctx
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self._memo: dict[Element, int] = {}
        self._tables: dict[int, BallTable] = {}
        self._bfs = _BallSearch(ctx._search_space(), self.budget)

    def search(self, r: int | Fraction) -> None:
        """Extend the held BFS to the open ``r``-ball, building no element or table.

        A level over the budget raises ``BudgetExceededError`` and is
        dropped; the levels before it stay, and a later call resumes there.
        """
        self._bfs.extend(max_length_below(as_radius(r)))

    def ball(self, r: int | Fraction) -> BallTable:
        radius = as_radius(r)
        cached = self._tables.get(max_length_below(radius))
        if cached is None:
            return self._sorted_ball(radius)[0]
        return BallTable(self.ctx, radius, cached.elements, cached.lengths)

    def _sorted_ball(self, radius: Fraction) -> tuple[BallTable, list[bytes]]:
        """Build and cache the ``radius``-ball; return it and its encodings in table order."""
        max_len, seen = max_length_below(radius), self._bfs.seen
        with _collector_paused():
            count = self._bfs.extend(max_len)
            # BFS records states level by level, so the ball is a prefix of the search
            held = seen if count == len(seen) else dict(itertools.islice(seen.items(), count))
            table, encodings = _sorted_table(self.ctx, self._bfs.space, radius, held)
        self._tables[max_len] = table
        return table, encodings

    def growth(self, r: int | Fraction) -> int:
        return self._bfs.extend(max_length_below(as_radius(r)))

    def _known_length(self, g: Element, bound: int | None = None) -> int | None:
        """Length of a canonical ``g`` (None past ``bound``).

        The memo first, then the searched states.  A miss searches back from
        ``g`` to the held BFS (``_meet``), extending it, and its length is
        memoized; with ``bound <= reach`` the miss is past the bound, and
        nothing is searched.
        """
        hit = self._memo.get(g)
        if hit is None:
            bfs = self._bfs
            state = bfs.space.state_of(g)
            hit = bfs.seen.get(state)
            if hit is None:
                hit = _meet(bfs, state, bound, self.budget)
                if hit is None:
                    return None
            self._memo[g] = hit
        return hit if bound is None or hit <= bound else None

    def length(self, g: Element) -> int:
        value = self._known_length(self.ctx.canonicalize(g))
        assert value is not None
        return value

    def length_at_most(self, g: Element, bound: int) -> int | None:
        return self._known_length(self.ctx.canonicalize(g), bound)

    def distance(self, x: Element, y: Element) -> int:
        return self.length(self.ctx.multiply(self.ctx.inverse(x), y))

    def distance_at_most(self, x: Element, y: Element, bound: int) -> int | None:
        return self.length_at_most(self.ctx.multiply(self.ctx.inverse(x), y), bound)


def _oracle_for(group: MarkedGroup, oracle: LengthOracle | None) -> LengthOracle:
    """``oracle``, or a fresh one for ``group``; refuse one that measures another group."""
    if oracle is None:
        return LengthOracle(group)
    if not same_group(oracle.ctx, group):
        raise StructureError(
            f"the oracle measures {oracle.ctx.spec_string()}, "
            f"a different marked group than {group.spec_string()}"
        )
    return oracle
