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
        self._steps: tuple[dict[int, tuple[Element, int]], dict[Element, int]] | None = None
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
            # __init__ refuses a repeated generator, so only inverses can repeat
            seen = list(self._generators)
            for g in self._generators:
                inv = self.inverse(g)
                if inv not in seen:
                    seen.append(inv)
            self._symmetric = tuple(seen)
        return self._symmetric

    def _letter_steps(self) -> tuple[dict[int, tuple[Element, int]], dict[Element, int]]:
        """Each symmetric generator's index, the step ``walk`` takes for it,
        by the generator object's id and by its value; built once.

        The id table holds each generator object with its step, and the
        group holds the objects for its lifetime, so a letter found there
        that ``is`` the object held is that generator, known with no hash
        and no ``canonicalize``.  The value table serves equal letters that
        are other objects, once canonicalized.
        """
        if self._steps is None:
            letters = self.symmetric_generators()
            self._steps = (
                {id(g): (g, i) for i, g in enumerate(letters)},
                {g: i for i, g in enumerate(letters)},
            )
        return self._steps

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
            import hashlib  # OpenSSL is mapped only where a hash is computed

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

    Every search space has the same kernel, ``expand(frontier, seen,
    depth, goal)``, which only expands and stops at the first new state in
    ``goal``, and ``degree``, the most states one frontier state adds; the
    searches below call nothing else per state, and ``_BallSearch.step``
    alone tests the node budget.
    ``identity_state``, ``multiply_states`` and ``inverse_state`` are the
    context's ``identity``, ``multiply`` and ``inverse``.

    With ``over``, another search space, they are that space's, and
    ``letters`` are states of it: the search runs the Cayley graph of
    ``letters`` on ``over``'s states, which ``over`` turns into elements.  A
    coset closure searches the subgroup of a window's short elements this
    way, on the states of its oracle's space.
    """

    __slots__ = ("ctx", "letters", "degree", "identity_state", "multiply_states", "inverse_state")

    def __init__(self, ctx: Any, letters: tuple[Any, ...] | None = None, *, over: Any = None):
        self.ctx = ctx
        self.letters = ctx.symmetric_generators() if letters is None else letters
        self.degree = max(len(self.letters), 1)
        if over is None:
            self.identity_state, self.multiply_states = ctx.identity, ctx.multiply
            self.inverse_state = ctx.inverse
        else:
            self.identity_state, self.multiply_states = over.identity_state, over.multiply_states
            self.inverse_state = over.inverse_state

    def state_of(self, value: Element) -> Any:
        return value

    def element_of(self, state: Any) -> Element:
        return state

    def encoded_values(self, states: Iterable[Any]) -> tuple[list[bytes], list[Element]]:
        values = list(states)
        encode = self.ctx.encode
        return [encode(s) for s in values], values

    def walk(self, state: Any, steps: Iterable[int]) -> Any:
        """The state reached from ``state`` by taking, per index i, the step to
        ``expand``'s i-th neighbour: the product with ``letters[i]``."""
        mul, letters = self.multiply_states, self.letters
        for i in steps:
            state = mul(state, letters[i])
        return state

    def expand(
        self, frontier: list[Any], seen: dict[Any, int], depth: int, goal: Any = ()
    ) -> list[Any]:
        """Expand one BFS level: record each unseen neighbour in ``seen`` at ``depth``.

        Neighbours are the products with ``letters``, by default
        ``ctx.symmetric_generators()``, in that order, state by state.
        Returns the new states in discovery order.  The level stops at the
        first new state that ``goal`` holds, which then ends the list.
        """
        mul, letters = self.multiply_states, self.letters
        nxt: list[Any] = []
        append = nxt.append
        for state in frontier:
            for g in letters:
                other = mul(state, g)
                if other not in seen:
                    seen[other] = depth
                    append(other)
                    if other in goal:
                        return nxt
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

    A search's levels (``_BallSearch.extend``), a table's build
    (``_sorted_table``) and a store load (``ball()``) run under it.  Each
    allocates up to ~10^5 acyclic containers that outlive the call, which
    reference counting alone frees.  CPython untracks only exact tuples, so
    every held ``WreathElement`` (a NamedTuple), and every dict keyed by
    one, stays tracked; with the collector on, such a burst sets off
    young-generation collections that scan all of them.

    A built table goes straight into the oldest generation: when the
    outermost pause ends without an error, ``gc.freeze()`` then
    ``gc.unfreeze()`` move every tracked object there, so the young scan
    that resuming would start finds nothing to do.  The promotion is skipped
    when the build left no more young objects than the young threshold (no
    collection was due), when anything is frozen already (the interpreter's
    or a caller's frozen objects stay frozen), and when the collector was
    off to begin with, which the pause leaves alone.  Promoted garbage
    cycles of the caller are freed by the next full collection.  A
    ``gc.freeze()`` from another thread between the two calls would be
    undone.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
        if gc.get_count()[0] > gc.get_threshold()[0] > 0 and gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
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
    what a fresh one does.  ``refused`` is the reach at which ``_meet`` last
    dropped a level that only its weight asked for (-1 before any).
    ``goal``, empty unless ``_meet`` sets it on a half it throws away, holds
    the states at which ``step`` ends a level early.
    ``step`` is the BFS level loop of the package: balls, kernel windows,
    lengths, geodesics, coset closures (on the packed states of their
    oracle's space), a window's hop searches (one search per window,
    restarted at each of its points),
    the element lists of finite groups and their power scans all run on it.
    """

    __slots__ = ("space", "budget", "reach", "refused", "seen", "frontier", "counts", "goal")

    def __init__(self, space: Any, budget: int, *, start: Any = None):
        if start is None:
            start = space.identity_state()
        self.space, self.budget, self.goal = space, budget, ()
        self.reach, self.refused = 0, -1
        self.seen, self.frontier, self.counts = {start: 0}, [start], [1]

    def restart(self, start: Any) -> None:
        """Search afresh from ``start``, which ``seen`` then holds alone, at depth 0."""
        self.reach, self.refused = 0, -1
        self.seen, self.frontier, self.counts = {start: 0}, [start], [1]

    def step(self, budget: int) -> bool:
        """Search one more level while ``seen`` holds at most ``budget`` states.

        Returns False, with the level dropped, when it would hold more.
        Spaces only expand, and this is the one test of a level against the
        budget.  A level that cannot overrun it is one ``expand`` call.
        Otherwise the frontier goes in runs of ``(budget - len(seen)) //
        degree + 1`` states, one more than surely fit, and ``seen`` is
        tested after each, so it holds at most ``budget + degree`` states.

        Either way a level ends at its first new state in the search's
        ``goal``, if any.  ``expand`` stops there; a level in runs is
        searched whole, so that it is refused exactly where it would be
        with no goal, and then cut after that state.
        """
        seen, counts, frontier = self.seen, self.counts, self.frontier
        expand, degree, depth = self.space.expand, self.space.degree, self.reach + 1
        nxt: list[Any] | None = None
        try:
            if len(frontier) * degree <= budget - len(seen):
                nxt = expand(frontier, seen, depth, self.goal)
            else:
                level: list[Any] = []
                start = 0
                while start < len(frontier):
                    end = start + max((budget - len(seen)) // degree, 0) + 1
                    level += expand(frontier[start:end], seen, depth)
                    if len(seen) > budget:
                        break
                    start = end
                else:
                    nxt = level
                    goal = self.goal
                    if goal:
                        for i, state in enumerate(level):
                            if state in goal:
                                del level[i + 1 :]
                                break
        finally:
            if nxt is None:  # keep only complete levels
                while len(seen) > counts[-1]:
                    seen.popitem()
        if nxt is None:
            return False
        self.frontier = nxt
        counts.append(len(seen))
        self.reach = depth if nxt else math.inf
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
    parses each distinct lamp once per load.  The store
    holds the last table it decoded, at most one; a repeat load of the same
    file at a radius no larger is served from that table, after the file is
    re-read and its sha256 checked again.  Otherwise the ball is
    ``LengthOracle(ctx, budget=budget).ball(r)``, saved with the encodings
    its ordering computed.  A load runs with the cyclic garbage collector
    paused (``_collector_paused``), as the oracle's search and table build
    do, and the table it leaves, which holds no reference cycle, goes
    straight into the collector's oldest generation unless
    ``_collector_paused`` skips the promotion.
    """
    radius = as_radius(r)
    if store is not None:
        with _collector_paused():
            loaded = store._load_table(ctx, radius)
            if loaded is not None:
                elements, lengths = loaded
                return BallTable(ctx, radius, elements, dict(zip(elements, lengths)))
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
    mask on wreath products), with the collector paused; the order does not
    depend on the ids earlier searches handed out.  Returns the table, whose
    ``lengths`` follow its order, and the encodings in that order.
    """
    with _collector_paused():
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
    exceed it (the search never explores past that depth).  The identity
    has length 0 and is answered with no search.  Any other element is
    searched afresh: a forward ``_BallSearch`` from the identity and
    ``_meet`` searching back from ``g`` with weight 1, stepping the
    smaller frontier.  Neither half outlives the call, so each stops at the
    first state the two share, whose depths sum to the length (``_meet``).
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    space = ctx._search_space()
    target = space.state_of(ctx.canonicalize(g))
    if target == space.identity_state():
        length: int | None = 0
    else:
        length = _meet(_BallSearch(space, budget), target, at_most, budget, held=False)
    return length if length is None or at_most is None or length <= at_most else None


def _meet(
    forward: _BallSearch,
    target: Any,
    at_most: int | None,
    budget: int,
    weight: int = 1,
    *,
    held: bool = True,
) -> int | None:
    """Length of the state ``target``, which ``forward`` has not found, or None past ``at_most``.

    A second ``_BallSearch``, started at ``target``, searches back and
    meets the forward search: each round steps one half, and the first
    state the halves share gives the length d.  Before a round they share
    none, and each half is complete to its reach, so d > ``forward.reach +
    backward.reach``: else a geodesic would pass a state both hold.  A
    state the stepping half finds at its new depth a, one past its old
    reach, which the other half holds at depth c, then gives d <= a + c <=
    a + other.reach <= d, so a + c is the length, and the search ends
    there; no later state could give less.  A half that the call
    throws away, every backward half and, with ``held`` False, the forward
    one, ends its level at that state (``step``'s goal), so only its last
    state is looked up in the other half.  With ``held``, the forward half
    is an oracle's held BFS and finishes every level it takes, since later
    misses start from it; each level it takes is looked up whole.  Each
    round reads the two frontiers once, to choose the half that steps, and
    the two ``seen`` dicts are read once per call, since stepping fills
    them in place.

    The forward half steps while its frontier is at most ``weight`` times
    the backward one (Pohl's smaller-frontier rule at weight 1; ties go
    forward).  A held level serves every later query, so an oracle passes
    its running miss count as ``weight``, and buys a level once the misses
    so far would have paid for it.  Both halves hold at most ``budget``
    states together, and a level over it is dropped: one the
    smaller-frontier rule takes raises ``BudgetExceededError``.  One that
    only the weight asks for may hold the forward half to half the budget,
    leaving later misses room to search back; over that it is dropped, the
    round searches back instead, and ``forward.refused`` keeps later rounds
    from expanding it again.  A half whose frontier empties has an infinite
    reach: it holds all it can reach and shares no state with the other,
    so ``target`` lies off the subgroup that the space's letters generate.
    """
    backward = _BallSearch(forward.space, budget, start=target)
    fseen, bseen = forward.seen, backward.seen  # stepping fills them in place
    backward.goal = fseen
    if not held:
        forward.goal = bseen
    while True:
        ahead, behind = len(forward.frontier), len(backward.frontier)
        if not ahead and not behind:
            raise StructureError("element is not generated by the declared marking")
        if at_most is not None and forward.reach + backward.reach >= at_most:
            return None
        if ahead and (not behind or ahead <= behind):
            ours, theirs, limit = forward, bseen, budget - len(bseen)
        else:
            ours, theirs, limit = backward, fseen, budget - len(fseen)
            if 0 < ahead <= weight * behind and forward.refused != forward.reach:
                # Only the weight asks for this level, and it may fill half the
                # budget.  Over that it is dropped and remembered, and the round
                # searches back instead.
                if forward.step(min(budget - len(bseen), budget // 2)):
                    ours, theirs, limit = forward, bseen, None
                else:
                    forward.refused = forward.reach
        if limit is not None and not ours.step(limit):
            raise BudgetExceededError(f"word-length search exceeded the node budget of {budget}")
        frontier = ours.frontier
        if ours.goal:  # its level ends at the first state the other half holds
            depth = theirs.get(frontier[-1]) if frontier else None
            if depth is not None:
                return ours.reach + depth
        else:
            met = theirs.keys() & frontier
            if met:
                return ours.reach + theirs[met.pop()]


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
        around = space.expand([state], {}, depth)
        i = min(
            (i for i, other in enumerate(around) if seen.get(other) == depth),
            key=lambda i: level.index(around[i]),
        )
        word.append(letters[undo[i]])
        state = around[i]
    word.reverse()
    return tuple(word)


def evaluate_word(ctx: Any, letters: Iterable[Element]) -> Element:
    """Product of a word's letters, left to right.

    A letter that is one of the context's own symmetric-generator objects
    is recognised by identity: its id, then ``is`` against the object the
    context holds (``_letter_steps``), with no ``canonicalize`` and no hash.
    Any other letter is canonicalized first, so a malformed one raises
    ``EncodingError``, and one equal to a symmetric generator takes that
    generator's step.  A run of symmetric generators is walked on the
    context's search space (``walk``), the i-th generator taking the step to
    the i-th neighbour of ``expand``, and the state becomes an element once,
    at the end (``element_of``).  Any other letter is multiplied on.
    """
    space = ctx._search_space()
    own, step_of = ctx._letter_steps()
    state, run = space.identity_state(), []
    for letter in letters:
        mine = own.get(id(letter))
        if mine is not None and mine[0] is letter:
            run.append(mine[1])
            continue
        letter = ctx.canonicalize(letter)
        i = step_of.get(letter)
        if i is None:
            acc = ctx.multiply(space.element_of(space.walk(state, run)), letter)
            state, run = space.state_of(acc), []
        else:
            run.append(i)
    return space.element_of(space.walk(state, run))


class LengthOracle:
    """Memoizing exact length/distance oracle for one marked context.

    The oracle holds one BFS from the identity (``_BallSearch``), which each
    query resumes: ``growth(r)`` extends it to ``max_length_below(r)`` and
    counts its states by depth, and ``ball(r)`` builds the table of its
    states to that depth, a prefix of the search, through ``_sorted_table``,
    and caches it per radius.  Lengths are keyed by the state
    of the held search's space (``_state_length``): a query looks its state
    up in the search, one dict lookup with no element of the searched ball
    built; a miss with ``bound <= reach`` is past the bound, as the BFS is
    complete to its reach.  Other misses search back from their state until
    that search meets the held BFS (``_meet``), and the memo holds their
    lengths, by state; it holds misses only, since the searched states
    answer every hit.  The first state the two share gives the length, as
    neither shared one before the round that found it, so the search back
    stops there; the held BFS finishes every level it takes, since later
    misses start from it, and never keeps part of one.  The n-th miss
    weighs the held BFS's next level by n: it extends the held BFS while
    its frontier is at most n times the miss's own, so the levels later
    misses start from are bought once
    earlier misses would have paid for them.  A level that only the weight
    asks for stays within half the budget, or is left to the
    smaller-frontier rule.  Distances use left-invariance:
    ``d(x, y) = word_length(x^-1 y)``, computed on states:
    ``_state_length`` of ``multiply_states(inverse_state(sx), sy)``, as
    window views do, so no element product is built.

    Its search's levels and each table it builds run with the collector
    paused (``_BallSearch.extend``, ``_sorted_table``).

    The public ``length``, ``length_at_most``, ``distance`` and
    ``distance_at_most`` canonicalize their input first, both arguments of
    a distance, so a malformed element raises ``EncodingError``.
    ``_known_length`` trusts that its element is canonical already, and
    ``_state_length`` that its state
    belongs to the oracle's space (``_bfs.space``): window views and coset
    closures call it on products of their points' states, which
    ``multiply_states`` and ``inverse_state`` compute in that space.
    """

    def __init__(self, ctx: Any, *, budget: int | None = None):
        self.ctx = ctx
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self._memo: dict[Any, int] = {}
        self._tables: dict[int, BallTable] = {}
        self._bfs = _BallSearch(ctx._search_space(), self.budget)
        self._misses = 0

    def ball(self, r: int | Fraction) -> BallTable:
        radius = as_radius(r)
        cached = self._tables.get(max_length_below(radius))
        if cached is None:
            return self._sorted_ball(radius)[0]
        return BallTable(self.ctx, radius, cached.elements, cached.lengths)

    def _sorted_ball(self, radius: Fraction) -> tuple[BallTable, list[bytes]]:
        """Build and cache the ``radius``-ball; return it and its encodings in table order."""
        max_len, seen = max_length_below(radius), self._bfs.seen
        count = self._bfs.extend(max_len)
        # BFS records states level by level, so the ball is a prefix of the search
        held = seen if count == len(seen) else dict(itertools.islice(seen.items(), count))
        table, encodings = _sorted_table(self.ctx, self._bfs.space, radius, held)
        self._tables[max_len] = table
        return table, encodings

    def growth(self, r: int | Fraction) -> int:
        return self._bfs.extend(max_length_below(as_radius(r)))

    def _state_length(self, state: Any, bound: int | None = None) -> int | None:
        """Length of the element whose state in ``_bfs.space`` is ``state`` (None past ``bound``).

        The searched states first, then the memo of misses.  A new miss
        searches back from ``state`` to the held BFS (``_meet``), extending
        it, and its length is memoized; with ``bound <= reach`` the miss is
        past the bound, and nothing is searched.
        """
        bfs = self._bfs
        hit = bfs.seen.get(state)
        if hit is None:
            hit = self._memo.get(state)
            if hit is None:
                self._misses += 1
                hit = _meet(bfs, state, bound, self.budget, self._misses)
                if hit is None:
                    return None
                self._memo[state] = hit
        return hit if bound is None or hit <= bound else None

    def _known_length(self, g: Element, bound: int | None = None) -> int | None:
        """Length of a canonical ``g`` (None past ``bound``): ``_state_length`` of its state."""
        return self._state_length(self._bfs.space.state_of(g), bound)

    def length(self, g: Element) -> int:
        value = self._known_length(self.ctx.canonicalize(g))
        assert value is not None
        return value

    def length_at_most(self, g: Element, bound: int) -> int | None:
        return self._known_length(self.ctx.canonicalize(g), bound)

    def distance(self, x: Element, y: Element) -> int:
        value = self._distance(x, y)
        assert value is not None
        return value

    def distance_at_most(self, x: Element, y: Element, bound: int) -> int | None:
        return self._distance(x, y, bound)

    def _distance(self, x: Element, y: Element, bound: int | None = None) -> int | None:
        """``_state_length`` of ``x^-1 y``, taken on the states of canonical ``x`` and ``y``."""
        space, canonical = self._bfs.space, self.ctx.canonicalize
        sx, sy = space.state_of(canonical(x)), space.state_of(canonical(y))
        return self._state_length(space.multiply_states(space.inverse_state(sx), sy), bound)


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
