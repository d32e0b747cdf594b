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

import hashlib
import math
import random
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
        """All elements in canonical order; finite kinds only."""
        if self.order() is None:
            raise StructureError(f"{self.kind}: cannot enumerate an infinite group")
        raise NotImplementedError

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
        total = self.order()
        assert total is not None
        seen = {self.identity()}
        frontier = [self.identity()]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.symmetric_generators():
                    y = self.multiply(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        if len(seen) != total:
            raise StructureError(
                f"{self.kind}: marking generates only {len(seen)} of {total} elements"
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

    def sort_key(self, x: Element) -> bytes:
        return self.encode(x)

    # -- text forms ---------------------------------------------------------

    def format_element(self, x: Element) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> Element:
        raise NotImplementedError

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
        """
        raise NotImplementedError

    def _solutions_in_finite(self, t: Element, h: Element) -> tuple[str, int, int]:
        # Order of t is finite here; scan one period of powers.
        ident = self.identity()
        cur = ident
        order_t = None
        hit = None
        e = 0
        while True:
            if cur == h and hit is None:
                hit = e
            cur = self.multiply(cur, t)
            e += 1
            if cur == ident:
                order_t = e
                break
        if hit is None:
            return ("none", 0, 0)
        return ("periodic", hit, order_t)

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
        return read_svarint(data, pos)

    def format_element(self, x: int) -> str:
        return str(x)

    def parse_element(self, text: str) -> int:
        try:
            return int(text.strip())
        except ValueError:
            raise EncodingError(f"not an integer element: {text!r}") from None

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
        value, pos = read_uvarint(data, pos)
        if value >= self.modulus:
            raise EncodingError(f"cyclic residue {value} out of range for modulus {self.modulus}")
        return value, pos

    def format_element(self, x: int) -> str:
        return str(x)

    def parse_element(self, text: str) -> int:
        try:
            return int(text.strip()) % self.modulus
        except ValueError:
            raise EncodingError(f"not a cyclic element: {text!r}") from None

    def spec_string(self) -> str:
        gens = ",".join(str(g) for g in self._generators)
        return f"cyclic(n={self.modulus}|gens={gens})"

    def exponent_solutions(self, t: int, h: int) -> tuple[str, int, int]:
        return self._solutions_in_finite(t, h)


class FreeGroup(MarkedGroup):
    """Free group of finite rank; elements are reduced tuples of signed letters.

    Letter ``i`` (1-based) is the i-th basis generator, ``-i`` its inverse.
    Only fully reduced tuples are canonical; ``canonicalize`` rejects the rest.
    """

    kind = "free"

    def __init__(self, rank: int, generators: Iterable[tuple[int, ...]] | None = None):
        if not 1 <= rank <= 26:
            raise ValueError(f"free rank must be in 1..26, got {rank}")
        self.rank = rank
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

    def format_element(self, x: tuple[int, ...]) -> str:
        if not x:
            return "e"
        return "".join(
            chr(ord("a") + letter - 1) if letter > 0 else chr(ord("A") - letter - 1)
            for letter in x
        )

    def parse_element(self, text: str) -> tuple[int, ...]:
        text = text.strip()
        if text == "e":
            return ()
        letters = []
        for ch in text:
            if "a" <= ch <= "z":
                letters.append(ord(ch) - ord("a") + 1)
            elif "A" <= ch <= "Z":
                letters.append(-(ord(ch) - ord("A") + 1))
            else:
                raise EncodingError(f"bad free-group letter {ch!r} in {text!r}")
        return self.canonicalize(tuple(letters))

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
    exhaustively up to order 64 (random triples beyond that).
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
        self._check_associativity()
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
        n = self._order
        if n <= 64:
            triples: Iterable[tuple[int, int, int]] = (
                (x, y, z) for x in range(n) for y in range(n) for z in range(n)
            )
        else:
            rng = random.Random(0)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(4096)
            )
        for x, y, z in triples:
            if self.table[self.table[x][y]][z] != self.table[x][self.table[y][z]]:
                raise StructureError(f"table: associativity fails at ({x}, {y}, {z})")

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

    def parse_element(self, text: str) -> int:
        try:
            return self.canonicalize(int(text.strip()))
        except ValueError:
            raise EncodingError(f"not a table element: {text!r}") from None

    def spec_string(self) -> str:
        rows = ";".join(".".join(str(v) for v in row) for row in self.table)
        gens = ",".join(str(g) for g in self._generators)
        return f"table(rows={rows}|gens={gens})"

    def exponent_solutions(self, t: int, h: int) -> tuple[str, int, int]:
        return self._solutions_in_finite(t, h)


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

    def elements(self) -> tuple[tuple[Element, Element], ...]:
        if self.order() is None:
            raise StructureError("product: cannot enumerate an infinite group")
        values = [(l, r) for l in self.left.elements() for r in self.right.elements()]
        values.sort(key=self.sort_key)
        return tuple(values)

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

    def parse_element(self, text: str) -> tuple[Element, Element]:
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise EncodingError(f"product element must look like (left|right), got {text!r}")
        body = text[1:-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                return (
                    self.left.parse_element(body[:i]),
                    self.right.parse_element(body[i + 1 :]),
                )
        raise EncodingError(f"product element must look like (left|right), got {text!r}")

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

    def parse_element(self, text: str) -> tuple[int, int]:
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")) or "|" not in text:
            raise EncodingError(f"vz element must look like (i|e), got {text!r}")
        i_text, _, e_text = text[1:-1].partition("|")
        try:
            return self.canonicalize((int(i_text), int(e_text)))
        except ValueError:
            raise EncodingError(f"vz element must look like (i|e), got {text!r}") from None

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
    """Default BFS state space: states are canonical element values."""

    __slots__ = ("ctx", "letters")

    def __init__(self, ctx: Any):
        self.ctx = ctx
        self.letters = ctx.symmetric_generators()

    def identity_state(self) -> Any:
        return self.ctx.identity()

    def state_of(self, value: Element) -> Any:
        return value

    def value_of(self, state: Any) -> Element:
        return state

    def neighbors(self, state: Any) -> list[Any]:
        mul = self.ctx.multiply
        return [mul(state, g) for g in self.letters]

    def moves(self, state: Any) -> list[tuple[Element, Any]]:
        mul = self.ctx.multiply
        return [(g, mul(state, g)) for g in self.letters]


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


def _bfs_lengths(space: Any, max_len: int, budget: int) -> dict[Any, int]:
    start = space.identity_state()
    dist: dict[Any, int] = {start: 0}
    frontier = [start]
    for depth in range(1, max_len + 1):
        if not frontier:
            break
        nxt = []
        for state in frontier:
            for other in space.neighbors(state):
                if other not in dist:
                    dist[other] = depth
                    nxt.append(other)
                    if len(dist) > budget:
                        raise BudgetExceededError(
                            f"ball search exceeded the node budget of {budget} "
                            f"at depth {depth}; raise the budget to continue"
                        )
        frontier = nxt
    return dist


def ball(
    ctx: Any,
    r: int | Fraction,
    *,
    budget: int | None = None,
    store: Any = None,
) -> BallTable:
    """Open ball of radius ``r`` around the identity, with exact lengths.

    With a ball store attached, a stored ball of radius >= r for the same
    marked structure is reused (filtered down); fresh results are saved.
    """
    radius = as_radius(r)
    budget = DEFAULT_BUDGET if budget is None else budget
    if store is not None:
        record = store.load(ctx.spec_hash, radius)
        if record is not None:
            elements = tuple(ctx.decode(enc) for enc in record.encodings)
            lengths = dict(zip(elements, record.lengths))
            return BallTable(ctx, radius, elements, lengths)
    space = ctx._search_space()
    dist = _bfs_lengths(space, max_length_below(radius), budget)
    pairs = []
    for state, l in dist.items():
        value = space.value_of(state)
        pairs.append((ctx.encode(value), value, l))
    pairs.sort()  # encodings are unique, so values are never compared
    elements = tuple(value for _, value, _ in pairs)
    lengths = {value: l for _, value, l in pairs}
    table = BallTable(ctx, radius, elements, lengths)
    if store is not None:
        from .ballstore import BallRecord

        store.save(
            BallRecord(
                spec_hash=ctx.spec_hash,
                radius=radius,
                encodings=tuple(enc for enc, _, _ in pairs),
                lengths=tuple(l for _, _, l in pairs),
            )
        )
    return table


def growth(ctx: Any, r: int | Fraction, *, budget: int | None = None, store: Any = None) -> int:
    """Number of elements of word length strictly below ``r``."""
    return len(ball(ctx, r, budget=budget, store=store))


def word_length(
    ctx: Any,
    g: Element,
    *,
    at_most: int | None = None,
    budget: int | None = None,
) -> int | None:
    """Exact word length of ``g`` by bidirectional BFS with early exit.

    With ``at_most`` set, returns ``None`` as soon as the length is known to
    exceed it (the search never explores past that depth).
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    g = ctx.canonicalize(g)
    if g == ctx.identity():
        return 0
    space = ctx._search_space()
    dist_f: dict[Any, int] = {space.identity_state(): 0}
    dist_b: dict[Any, int] = {space.state_of(g): 0}
    front_f = [space.identity_state()]
    front_b = [space.state_of(g)]
    depth_f = depth_b = 0
    best: int | None = None
    while True:
        if best is not None and depth_f + depth_b >= best:
            return best
        if at_most is not None and best is None and depth_f + depth_b >= at_most:
            return None
        if not front_f and not front_b:
            raise StructureError("element is not generated by the declared marking")
        # expand the smaller live frontier one full level
        if front_f and (not front_b or len(front_f) <= len(front_b)):
            ours, theirs, frontier = dist_f, dist_b, front_f
            depth_f += 1
            depth = depth_f
        else:
            ours, theirs, frontier = dist_b, dist_f, front_b
            depth_b += 1
            depth = depth_b
        nxt = []
        for state in frontier:
            for other in space.neighbors(state):
                if other not in ours:
                    ours[other] = depth
                    nxt.append(other)
                    hit = theirs.get(other)
                    if hit is not None and (best is None or depth + hit < best):
                        best = depth + hit
                    if len(dist_f) + len(dist_b) > budget:
                        raise BudgetExceededError(
                            f"word-length search exceeded the node budget of {budget}"
                        )
        if ours is dist_f:
            front_f = nxt
        else:
            front_b = nxt


def word_length_at_most(
    ctx: Any, g: Element, bound: int, *, budget: int | None = None
) -> int | None:
    """Word length of ``g`` if it is <= bound, else ``None``."""
    return word_length(ctx, g, at_most=bound, budget=budget)


def minimal_word(ctx: Any, g: Element, *, budget: int | None = None) -> tuple[Element, ...]:
    """One geodesic word for ``g`` as a tuple of generator values (left to right)."""
    budget = DEFAULT_BUDGET if budget is None else budget
    g = ctx.canonicalize(g)
    space = ctx._search_space()
    target = space.state_of(g)
    start = space.identity_state()
    parents: dict[Any, tuple[Any, Element] | None] = {start: None}
    frontier = [start]
    while target not in parents:
        if not frontier:
            raise StructureError("element is not generated by the declared marking")
        nxt = []
        for state in frontier:
            for letter, other in space.moves(state):
                if other not in parents:
                    parents[other] = (state, letter)
                    nxt.append(other)
                    if len(parents) > budget:
                        raise BudgetExceededError(
                            f"geodesic search exceeded the node budget of {budget}"
                        )
        frontier = nxt
    letters: list[Element] = []
    state = target
    while parents[state] is not None:
        state, letter = parents[state]  # type: ignore[misc]
        letters.append(letter)
    letters.reverse()
    return tuple(letters)


def evaluate_word(ctx: Any, letters: Iterable[Element]) -> Element:
    """Product of a word's letters, left to right."""
    acc = ctx.identity()
    for letter in letters:
        acc = ctx.multiply(acc, ctx.canonicalize(letter))
    return acc


class LengthOracle:
    """Memoizing exact length/distance oracle for one marked context.

    Balls computed through the oracle prefill the length memo, so repeated
    distance queries inside a window cost one dict lookup.  Distances use
    left-invariance: ``d(x, y) = word_length(x^-1 y)``.
    """

    def __init__(self, ctx: Any, *, store: Any = None, budget: int | None = None):
        self.ctx = ctx
        self.store = store
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self._memo: dict[Element, int] = {ctx.identity(): 0}
        self._tables: dict[int, BallTable] = {}

    def ball(self, r: int | Fraction) -> BallTable:
        radius = as_radius(r)
        max_len = max_length_below(radius)
        cached = self._tables.get(max_len)
        if cached is not None:
            return BallTable(self.ctx, radius, cached.elements, cached.lengths)
        for have_len, table in sorted(self._tables.items()):
            if have_len >= max_len:
                elements = tuple(x for x in table.elements if table.lengths[x] <= max_len)
                lengths = {x: table.lengths[x] for x in elements}
                sub = BallTable(self.ctx, radius, elements, lengths)
                self._tables[max_len] = sub
                return sub
        table = ball(self.ctx, radius, budget=self.budget, store=self.store)
        self._tables[max_len] = table
        self._memo.update(table.lengths)
        return table

    def growth(self, r: int | Fraction) -> int:
        return len(self.ball(r))

    def length(self, g: Element) -> int:
        g = self.ctx.canonicalize(g)
        hit = self._memo.get(g)
        if hit is not None:
            return hit
        value = word_length(self.ctx, g, budget=self.budget)
        assert value is not None
        self._memo[g] = value
        return value

    def length_at_most(self, g: Element, bound: int) -> int | None:
        g = self.ctx.canonicalize(g)
        hit = self._memo.get(g)
        if hit is not None:
            return hit if hit <= bound else None
        value = word_length(self.ctx, g, at_most=bound, budget=self.budget)
        if value is not None:
            self._memo[g] = value
        return value

    def distance(self, x: Element, y: Element) -> int:
        return self.length(self.ctx.multiply(self.ctx.inverse(x), y))

    def distance_at_most(self, x: Element, y: Element, bound: int) -> int | None:
        return self.length_at_most(self.ctx.multiply(self.ctx.inverse(x), y), bound)
