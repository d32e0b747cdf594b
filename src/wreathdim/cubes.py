"""Lattice-cube separation witnesses and growth-driven lower-bound certificates.

The combinatorial core: any cover of the l1 lattice ``{0..k}^n`` in which
every open (n+1)-ball fits inside one part must contain, inside a single
2-component of some part i, two points whose i-th coordinates differ by the
full k.  Mapping such a lattice into a group window by an r-cube (all edges
shorter than r) turns that witness into a diameter lower bound for any
cover's components, and wreath-product kernels admit explicit r-cubes built
from bulbs whose inverse is 1-Lipschitz by the index-counting bound.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .covers import Cover, GroupWindowView, lebesgue_ok
from .errors import BudgetExceededError
from .groups import DEFAULT_BUDGET, Element, LengthOracle, _oracle_for, as_radius
from .wreath import WreathContext

Point = tuple[int, ...]


def l1(a: Point, b: Point) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def lattice_points(n: int, k: int) -> tuple[Point, ...]:
    """All points of {0..k}^n in lexicographic order."""
    return tuple(itertools.product(range(k + 1), repeat=n))


@dataclass(frozen=True)
class LatticeOutcome:
    """Result of the cover-witness search on one lattice cover."""

    hypothesis_ok: bool
    violator: Point | None
    witness: tuple[int, Point, Point] | None


def _bits(indices: Iterable[int]) -> int:
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def _members(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_lattice_shape(n: int, k: int, num_parts: int) -> None:
    for field, value in (("n", n), ("k", k), ("num_parts", num_parts)):
        if value < 1:
            raise ValueError(f"lattice {field} must be at least 1, got {value}")
    if num_parts > n:
        raise ValueError(
            f"the witness claim pairs parts with coordinates; at most {n} parts allowed"
        )


class _LatticeScanner:
    """The lattice {0..k}^n with point sets held as index bitsets.

    Bit j stands for ``points[j]`` (lexicographic order).  Built once per
    sweep, it judges one cover per call, given as one point bitset per part.
    """

    def __init__(self, n: int, k: int, num_parts: int):
        _check_lattice_shape(n, k, num_parts)
        self.num_parts = num_parts
        self.radix = (1 << num_parts) - 1
        self.digit_parts = [
            [i for i in range(num_parts) if (d + 1) >> i & 1] for d in range(self.radix)
        ]
        self.points = pts = lattice_points(n, k)
        # points[j] has j = sum(x[i] * strides[i]), so a unit step is an index offset
        strides = [(k + 1) ** (n - 1 - i) for i in range(n)]
        self.steps = [
            _bits(
                j + sign * stride
                for i, stride in enumerate(strides)
                for sign in (-1, 1)
                if 0 <= x[i] + sign <= k
            )
            for j, x in enumerate(pts)
        ]
        # l1 is the unit-step metric of the box, so n rounds of growth give the closed n-balls
        balls = [1 << j for j in range(len(pts))]
        for _ in range(n):
            grown = []
            for ball, step in zip(balls, self.steps):
                for j in _members(step):
                    ball |= balls[j]
                grown.append(ball)
            balls = grown
        self.balls = balls
        # lifts[j][digit]: what assigning digit to points[j] ORs into each part
        self.lifts = [
            [
                tuple(1 << j if i in parts else 0 for i in range(num_parts))
                for parts in self.digit_parts
            ]
            for j in range(len(pts))
        ]
        # axes[i]: stride of coordinate i, and the points that can step up and down in it
        self.axes = [
            (
                stride,
                _bits(j for j, x in enumerate(pts) if x[i] < k),
                _bits(j for j, x in enumerate(pts) if x[i] > 0),
            )
            for i, stride in enumerate(strides)
        ]
        # slabs[i]: the points whose i-th coordinate is 0, and those where it is k;
        # two points are k apart in that coordinate when they lie in different slabs
        self.slabs = [
            tuple(_bits(j for j, x in enumerate(pts) if x[i] == v) for v in (0, k))
            for i in range(num_parts)
        ]

    @functools.cached_property
    def guards(self) -> list[list[int]]:
        """guards[j]: for each closed n-ball through points[j], its points from j up.

        A sweep assigns points from the last one down, so at j these are
        assigned, and if they share no part, neither does the ball, however the
        rest is assigned.  Of two nested guards only the larger is kept.  With
        one part there is nothing to guard: it holds every ball.
        """
        through: list[set[int]] = [set() for _ in self.points]
        if self.num_parts > 1:
            for ball in self.balls:
                for j in _members(ball):
                    through[j].add(ball & ~((1 << j) - 1))
        guards = []
        for found in through:
            kept: list[int] = []
            for guard in sorted(found, key=int.bit_count, reverse=True):
                if not any(guard & wider == guard for wider in kept):
                    kept.append(guard)
            guards.append(kept)
        return guards

    def parts_of(self, code: int) -> list[int]:
        # Base (2**p - 1) digits, one per point; digit + 1 is the point's part bitmask.
        parts = [0] * self.num_parts
        for j in range(len(self.points)):
            code, digit = divmod(code, self.radix)
            for i in self.digit_parts[digit]:
                parts[i] |= 1 << j
        return parts

    def outcome(self, parts: Sequence[int]) -> LatticeOutcome:
        """Check the open-(n+1)-ball hypothesis, then find the first k-spread pair."""
        violator = self.violator(parts)
        if violator is not None:
            return LatticeOutcome(False, self.points[violator], None)
        return LatticeOutcome(True, None, self.witness(parts))

    def violator(self, parts: Sequence[int]) -> int | None:
        """The first point whose closed n-ball fits in no part, or None."""
        for j, ball in enumerate(self.balls):
            if not any(ball & part == ball for part in parts):
                return j
        return None

    def witness(self, parts: Sequence[int]) -> tuple[int, Point, Point] | None:
        """The first k-spread pair of one 2-component, in (part, component, lex) order.

        In part i the pairs k apart in coordinate i join its two slabs, so a
        component holds one exactly when it meets both, and its first such pair
        starts at its first slab point and ends at its first point of the other.
        """
        for i, (part, (low, high)) in enumerate(zip(parts, self.slabs)):
            unseen = part
            while unseen:
                comp = self._component(unseen & -unseen, part)
                unseen ^= comp
                if comp & low and comp & high:
                    ends = comp & (low | high)
                    a = ends & -ends
                    rest = comp & (high if a & low else low)
                    b = rest & -rest
                    return i + 1, self.points[a.bit_length() - 1], self.points[b.bit_length() - 1]
        return None

    def _component(self, seed: int, part: int) -> int:
        # The 2-components of ``part`` meeting ``seed``: chains of unit steps, taken
        # for all points at once by shifting the bitset one stride along each axis.
        comp = seed
        while True:
            grown = comp
            for stride, up, down in self.axes:
                grown |= ((grown & up) << stride | (grown & down) >> stride) & part
            if grown == comp:
                return comp
            comp = grown

    def fills_box(self) -> bool:
        """Whether some closed n-ball is the whole box.

        That ball must fit in one part, so every cover passing the hypothesis
        has a full part.
        """
        return (1 << len(self.points)) - 1 in self.balls

    def branch(self, missed: Sequence[int]) -> list[list[int]] | None:
        """The digits each point may take when part i first misses ``points[missed[i]]``.

        Every point below ``missed[i]`` has part i in its digit and
        ``missed[i]`` has not.  Each closed n-ball through ``missed[i]`` must
        then fit in some other part, so none of its points lies in part i
        alone; with two parts, the ball goes into the other part.  None when
        some point is left no digit.
        """
        if len(set(missed)) == 1:
            return None  # that point would lie in no part
        size = len(self.points)
        # per point: the parts it must have, must not have, and must not have alone
        need, lack, alone = [0] * size, [0] * size, [0] * size
        for i, m in enumerate(missed):
            for j in range(m):
                need[j] |= 1 << i
            lack[m] |= 1 << i
            # a closed n-ball holds m exactly when its centre lies in m's ball
            reach = 0
            for centre in _members(self.balls[m]):
                reach |= self.balls[centre]
            for j in _members(reach):
                alone[j] |= 1 << i
        allowed = []
        for must, avoid, single in zip(need, lack, alone):
            # digit + 1 is the point's part bitmask
            digits = [
                mask - 1
                for mask in range(1, self.radix + 1)
                if mask & must == must
                and not mask & avoid
                and (mask & (mask - 1) or mask & ~single)
            ]
            if not digits:
                return None
            allowed.append(digits)
        return allowed

    def sweep(self, allowed: Sequence[Sequence[int]]) -> tuple[int, int, list[int]]:
        """Tally every code whose point j takes a digit of ``allowed[j]``.

        Points are assigned depth-first from the last one, whose digit is the
        most significant, so leaves come in increasing code order.  A subtree
        is cut as soon as the assigned points of some closed n-ball share no
        part (see ``guards``): the hypothesis fails on every code below it,
        which adds to no count.  Each leaf passes the hypothesis and only hunts
        its witness.
        Returns the hypothesis count, the witness count and the failure codes.
        """
        radix, lifts, guards = self.radix, self.lifts, self.guards

        def fits(parts: tuple[int, ...], j: int) -> bool:
            return all(any(guard & part == guard for part in parts) for guard in guards[j])

        hypothesis_count = witness_count = 0
        failures: list[int] = []
        stack = [(len(self.points), 0, (0,) * self.num_parts)]
        while stack:
            j, code, parts = stack.pop()
            if j == 0:
                hypothesis_count += 1
                if self.witness(parts) is None:
                    failures.append(code)
                else:
                    witness_count += 1
                continue
            j -= 1
            children = []
            for digit in allowed[j]:
                child = tuple(part | bit for part, bit in zip(parts, lifts[j][digit]))
                if fits(child, j):
                    children.append((j, code * radix + digit, child))
            stack.extend(reversed(children))
        return hypothesis_count, witness_count, failures


def lattice_cover_witness(n: int, k: int, parts: Sequence[Iterable[Point]]) -> LatticeOutcome:
    """Check the open-(n+1)-ball hypothesis and hunt the k-spread witness.

    With the hypothesis satisfied, some part i contains two points of one
    2-component whose i-th coordinates differ by k; the first such pair in
    (part, component, lex) order is returned.  A missing witness on a
    hypothesis-satisfying cover would refute the underlying fact.
    """
    scanner = _LatticeScanner(n, k, len(parts))
    index = {x: j for j, x in enumerate(scanner.points)}
    masks = [_bits(index[x] for x in part if x in index) for part in parts]
    for j, x in enumerate(scanner.points):
        if not any(mask >> j & 1 for mask in masks):
            raise ValueError(f"parts do not cover the lattice point {x}")
    return scanner.outcome(masks)


@dataclass(frozen=True)
class LatticeSearchReport:
    """Tally of an assignment sweep over lattice covers with a fixed part count."""

    n: int
    k: int
    num_parts: int
    assignments: int
    hypothesis_count: int
    witness_count: int
    failures: tuple[int, ...]  # assignment codes passing the hypothesis without a witness
    nontrivial_count: int = 0  # hypothesis passes in which every part misses a point


def _scan_lattice_codes(
    scanner: _LatticeScanner, codes: Iterable[int]
) -> tuple[int, int, list[int], int]:
    box = (1 << len(scanner.points)) - 1
    hypothesis_count = witness_count = nontrivial_count = 0
    failures: list[int] = []
    for code in codes:
        parts = scanner.parts_of(code)
        outcome = scanner.outcome(parts)
        if not outcome.hypothesis_ok:
            continue
        hypothesis_count += 1
        nontrivial_count += box not in parts
        if outcome.witness is None:
            failures.append(code)
        else:
            witness_count += 1
    return hypothesis_count, witness_count, failures, nontrivial_count


def _trivial_cover_count(num_parts: int, points: int) -> int:
    """Covers with some part full, by inclusion-exclusion over the set of full parts.

    With s given parts full, every point has those s parts and any subset of
    the other ``num_parts - s``.
    """
    return sum(
        (-1) ** (s + 1) * math.comb(num_parts, s) * (1 << (num_parts - s) * points)
        for s in range(1, num_parts + 1)
    )


def exhaustive_lattice_search(
    n: int, k: int, num_parts: int, *, workers: int = 1, budget: int | None = None
) -> LatticeSearchReport:
    """Tally every assignment of lattice points to nonempty part subsets.

    Every assignment satisfying the open-(n+1)-ball hypothesis must yield a
    witness; assignment codes that do not are reported as failures.

    Trivial covers, in which some part is the whole box, are counted, not
    visited.  There are ``sum((-1)**(s+1) * C(p, s) * 2**((p-s)*points))``
    of them for p parts, by inclusion-exclusion over the full parts.  Each
    passes the hypothesis, since the full part holds every ball, and each
    has a witness: with ``1 <= k`` and ``i < p <= n``, a full part i is one
    2-component meeting both of its coordinate-i slabs.  So they add the same
    number to ``hypothesis_count`` and to ``witness_count``.

    Nontrivial covers, in which every part misses a point, are enumerated.
    When some closed n-ball is the whole box there are none.  Otherwise the
    sweep branches on each part's lowest missed point (see
    ``_LatticeScanner.branch``), assigns points depth-first over the digits
    each still allows, most significant digit first, and cuts a subtree as
    soon as the assigned points of some closed n-ball share no part.  Every
    leaf passes the hypothesis and has its witness hunted; the leaves are
    ``nontrivial_count``.  ``assignments`` is always the full
    ``radix**points`` and failures come in increasing code order.

    Every branch is swept in this process, and ``workers`` has no effect; it
    stays only while the benchmark's lattice workload passes ``workers=1``.

    A sweep of more than ``budget`` codes is refused before it starts, and so
    is a lattice of more than ``budget`` point pairs: the scanner's ``balls``
    and ``steps`` bitsets hold one ``points``-bit set per point, so
    ``points**2`` bounds their memory in units of the node budget.
    """
    _check_lattice_shape(n, k, num_parts)
    budget = DEFAULT_BUDGET if budget is None else budget
    radix, points = (1 << num_parts) - 1, (k + 1) ** n
    # radix is 1 or at least 3, so past budget.bit_length() points the count is over budget
    if radix ** min(points, budget.bit_length() + 1) > budget:
        raise BudgetExceededError(
            f"an exhaustive sweep of {radix}^({k + 1}^{n}) assignment codes exceeds "
            f"the budget of {budget}; raise the budget"
        )
    # the scanner's bitsets take up to points**2 bits, whatever the code count
    if points * points > budget:
        raise BudgetExceededError(
            f"the lattice scanner's ({k + 1}^{n})^2 point pairs exceed "
            f"the budget of {budget}; raise the budget"
        )
    scanner = _LatticeScanner(n, k, num_parts)
    trivial = _trivial_cover_count(num_parts, points)
    results = []
    if not scanner.fills_box():
        for missed in itertools.product(range(points), repeat=num_parts):
            allowed = scanner.branch(missed)
            if allowed is not None:
                results.append(scanner.sweep(allowed))
    h = sum(res[0] for res in results)
    w = sum(res[1] for res in results)
    failures = tuple(sorted(code for res in results for code in res[2]))
    return LatticeSearchReport(
        n, k, num_parts, radix**points, trivial + h, trivial + w, failures, h
    )


def sampled_lattice_search(
    n: int, k: int, num_parts: int, samples: int, *, seed: int = 0
) -> LatticeSearchReport:
    """Same tally over a seeded random sample of assignment codes.

    Kept, with ``_scan_lattice_codes`` and ``parts_of``, only for the
    benchmark's lattice workload; the CLI sweeps exhaustively.
    """
    if samples < 1:
        raise ValueError(f"lattice samples must be at least 1, got {samples}")
    scanner = _LatticeScanner(n, k, num_parts)
    total = scanner.radix ** len(scanner.points)
    rng = random.Random(seed)
    codes = (rng.randrange(total) for _ in range(samples))
    h, w, failures, nontrivial = _scan_lattice_codes(scanner, codes)
    return LatticeSearchReport(n, k, num_parts, samples, h, w, tuple(sorted(failures)), nontrivial)


# ---------------------------------------------------------------------------
# r-cubes in group windows


@dataclass
class RCube:
    """A lattice mapped into a group window with all edges shorter than ``scale``."""

    n: int
    k: int
    scale: Fraction
    vertices: Mapping[Point, Element]

    def __post_init__(self) -> None:
        if set(self.vertices) != set(lattice_points(self.n, self.k)):
            raise ValueError(f"cube needs exactly the vertex set of {{0..{self.k}}}^{self.n}")
        self.scale = as_radius(self.scale)

    def edges(self) -> Iterator[tuple[Point, Point]]:
        for x in lattice_points(self.n, self.k):
            for i in range(self.n):
                if x[i] < self.k:
                    yield x, x[:i] + (x[i] + 1,) + x[i + 1 :]

    def vertex_pairs(self) -> Iterator[tuple[Point, Point]]:
        pts = lattice_points(self.n, self.k)
        for a_idx, a in enumerate(pts):
            for b in pts[a_idx + 1 :]:
                yield a, b


@dataclass(frozen=True)
class CubeObstruction:
    """A pair of cube vertices forcing a large component in one cover part."""

    part_index: int
    a: Point
    b: Point
    lattice_spread: int
    separation: int


def cube_obstruction(view: GroupWindowView, cover: Cover, cube: RCube) -> CubeObstruction:
    """Turn a cube plus a cover with Lebesgue number >= n*scale into an obstruction.

    The witness pair maps to two points of one part lying in a common
    (n*scale)-component, so that component's diameter is at least the
    returned separation.
    """
    if len(cover.parts) > cube.n:
        raise ValueError(
            f"obstruction pairs parts with cube axes; at most {cube.n} parts allowed"
        )
    scale = cube.n * cube.scale
    leb = lebesgue_ok(view, cover, scale)
    if not leb.ok:
        raise ValueError(
            f"cover has Lebesgue number below {scale}; obstruction needs it at least n*scale"
        )
    parts = [{x for x, g in cube.vertices.items() if g in part} for part in cover.parts]
    outcome = lattice_cover_witness(cube.n, cube.k, parts)
    if not outcome.hypothesis_ok:
        raise ValueError(
            "cube image escapes the cover's Lebesgue guarantee; "
            f"lattice point {outcome.violator} has no enclosing part"
        )
    if outcome.witness is None:
        raise ValueError("no spread witness; the lattice fact is violated")
    index, a, b = outcome.witness
    separation = view.dist(cube.vertices[a], cube.vertices[b])
    return CubeObstruction(index, a, b, cube.k, separation)


# ---------------------------------------------------------------------------
# kernel cubes in wreath products


@dataclass
class KernelCube:
    """An r-cube in a wreath kernel read off its index table, with certified edge bounds.

    ``index_table[(j, i)]`` is the base element whose bulb is switched on when
    coordinate i passes level j, so vertex x lights its index set, the (j, i)
    with j <= x_i; all indices are distinct, so vertex supports are exactly
    readable and the inverse map is 1-Lipschitz by index counting.
    """

    ctx: WreathContext
    cube: RCube
    index_table: Mapping[tuple[int, int], Element]
    lamp_value: Element
    edge_bounds: Mapping[tuple[Point, Point], int]


def build_kernel_cube(
    ctx: WreathContext,
    n: int,
    r: int | Fraction,
    *,
    base_oracle: LengthOracle | None = None,
) -> KernelCube:
    """Build the standard (3r)-cube over the base r-ball, k = growth(r) // n.

    The base ball is enumerated in canonical order and assigned row-major to
    the n*k-entry index table.  Each index has one bound, the constructive word
    bound ``2 * length(index) + 1``, and the largest must lie below 3r; each
    edge takes the bound of the index it crosses.  A cube with more vertices,
    (k+1)^n, or edges, n*k*(k+1)^(n-1), than the base oracle's budget is
    refused before any vertex is built.
    """
    if n < 1:
        raise ValueError(f"cube dimension must be >= 1, got {n}")
    radius = as_radius(r)
    oracle = _oracle_for(ctx.base, base_oracle)
    table = oracle.ball(radius)
    gamma = len(table)
    k = gamma // n
    if k < 1:
        raise ValueError(f"cube needs {n} distinct indices but the r-ball has {gamma} elements")
    vertex_count, edge_count = (k + 1) ** n, n * k * (k + 1) ** (n - 1)
    if max(vertex_count, edge_count) > oracle.budget:
        raise BudgetExceededError(
            f"the cube {{0..{k}}}^{n} has {vertex_count} vertices and {edge_count} edge bounds, "
            f"over the budget of {oracle.budget}; raise the budget"
        )
    index_table = {
        (j, i): table.elements[(j - 1) * n + (i - 1)]
        for j in range(1, k + 1)
        for i in range(1, n + 1)
    }
    u = ctx._lamp_values[0] if ctx._lamp_values else None
    if u is None:
        raise ValueError("kernel cube needs a nontrivial fiber")
    bounds = {index: 2 * table.lengths[g] + 1 for index, g in index_table.items()}
    scale = 3 * radius
    if not max(bounds.values()) < scale:
        raise ValueError(
            f"edge bound {max(bounds.values())} is not below the cube scale {scale}; "
            "the base ball is too shallow"
        )
    vertices = {
        x: ctx._from_lamps(
            {index_table[(j, i)]: u for i in range(1, n + 1) for j in range(1, x[i - 1] + 1)},
            ctx._base_id,
        )
        for x in lattice_points(n, k)
    }
    cube = RCube(n, k, scale, vertices)
    edge_bounds: dict[tuple[Point, Point], int] = {}
    for x, y in cube.edges():
        axis = next(i for i in range(n) if x[i] != y[i])
        edge_bounds[(x, y)] = bounds[(y[axis], axis + 1)]
    return KernelCube(ctx, cube, index_table, u, edge_bounds)


#: Most vertex pairs a certificate checks; larger cubes get a seeded sample.
PAIR_LIMIT = 256


def lipschitz_pairs(kcube: KernelCube, *, seed: int = 0) -> list[tuple[Point, Point, int, int]]:
    """Per-pair unit-Lipschitz evidence: (a, b, l1, support separation).

    The support separation (number of positions where the two vertex lamp
    configurations differ) is a certified word-metric lower bound between the
    images, and for these cubes it equals the l1 distance exactly.  All pairs
    are checked when there are at most ``PAIR_LIMIT``; otherwise a seeded
    sample of pair ranks (positions in ``RCube.vertex_pairs`` order), each
    turned into its pair, so the pairs are never listed.
    """
    ctx, vertices = kcube.ctx, kcube.cube.vertices
    pts = lattice_points(kcube.cube.n, kcube.cube.k)
    count = len(pts) * (len(pts) - 1) // 2
    ranks: Iterable[int] = range(count)
    if count > PAIR_LIMIT:
        ranks = sorted(random.Random(seed).sample(ranks, PAIR_LIMIT))
    out = []
    for rank in ranks:
        # pts[-1 - m] pairs with the last m points at back ranks m(m-1)/2 to m(m+1)/2 - 1
        back = count - 1 - rank
        m = (math.isqrt(8 * back + 1) + 1) // 2
        a, b = pts[-1 - m], pts[-1 - back + m * (m - 1) // 2]
        diff = ctx.multiply(ctx.inverse(vertices[a]), vertices[b])
        out.append((a, b, l1(a, b), len(diff.lamps)))
    return out


@dataclass
class KernelCubeCertificate:
    """A fully checked kernel cube packaged with its lower-bound claim."""

    kcube: KernelCube
    growth_at_r: int
    pair_evidence: list[tuple[Point, Point, int, int]]

    def to_json_dict(self) -> dict[str, Any]:
        ctx, cube = self.kcube.ctx, self.kcube.cube
        return {
            "schema": "kernel-cube-certificate/1",
            "spec": ctx.spec_string(),
            "spec_hash": ctx.spec_hash,
            "n": cube.n,
            "k": cube.k,
            "r": str(cube.scale / 3),
            "scale": str(cube.scale),
            "growth_at_r": self.growth_at_r,
            "lamp_value": ctx.fiber.format_element(self.kcube.lamp_value),
            "index_table": [
                {"row": j, "axis": i, "element": ctx.base.format_element(g)}
                for (j, i), g in sorted(self.kcube.index_table.items())
            ],
            "edge_bounds": [
                {"from": list(x), "to": list(y), "bound": bound}
                for (x, y), bound in sorted(self.kcube.edge_bounds.items())
            ],
            "pairs": [
                {"a": list(a), "b": list(b), "l1": want, "separation": got}
                for a, b, want, got in self.pair_evidence
            ],
            "claim": {
                "lebesgue_scale": str(cube.n * cube.scale),
                "component_scale": str(cube.n * cube.scale),
                "control_lower_bound": cube.k,
            },
        }


def growth_lower_bound_certificate(
    ctx: WreathContext,
    n: int,
    r: int | Fraction,
    *,
    base_oracle: LengthOracle | None = None,
    seed: int = 0,
) -> KernelCubeCertificate:
    """Build and fully check the growth-driven kernel cube at scale 3r.

    The resulting certificate witnesses: any cover of a window containing the
    cube with Lebesgue number >= n*3r has a part with an (n*3r)-component of
    diameter at least k = growth(r) // n.
    """
    oracle = _oracle_for(ctx.base, base_oracle)
    kcube = build_kernel_cube(ctx, n, r, base_oracle=oracle)
    evidence = lipschitz_pairs(kcube, seed=seed)
    for a, b, want, got in evidence:
        if got < want:
            raise ValueError(f"vertex pair {a}, {b} separates only {got} indices; needs {want}")
    return KernelCubeCertificate(kcube, oracle.growth(as_radius(r)), evidence)
