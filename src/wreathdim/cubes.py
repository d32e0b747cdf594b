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

import itertools
import multiprocessing
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .covers import Cover, MetricView, lebesgue_ok
from .errors import BudgetExceededError
from .groups import DEFAULT_BUDGET, Element, LengthOracle, as_radius
from .wreath import WreathContext, bulb_product

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
        # far[i][j]: the points whose i-th coordinate is k away from that of points[j],
        # which is the slab at k - x[i] when x[i] is 0 or k, and nothing otherwise
        self.far = []
        for i in range(num_parts):
            slabs = {v: _bits(j for j, x in enumerate(pts) if x[i] == v) for v in (0, k)}
            self.far.append([slabs[k - x[i]] if x[i] in slabs else 0 for x in pts])

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
        for j, ball in enumerate(self.balls):
            if not any(ball & part == ball for part in parts):
                return LatticeOutcome(False, self.points[j], None)
        for i, part in enumerate(parts):
            unseen = part
            while unseen:
                comp = self._component(unseen & -unseen, part)
                unseen ^= comp
                for a in _members(comp):
                    later = comp & self.far[i][a] & ~((2 << a) - 1)
                    if later:
                        b = (later & -later).bit_length() - 1
                        return LatticeOutcome(True, None, (i + 1, self.points[a], self.points[b]))
        return LatticeOutcome(True, None, None)

    def _component(self, seed: int, part: int) -> int:
        # The 2-component of ``part`` holding ``seed``: chains of unit steps.
        comp = frontier = seed
        while frontier:
            reach = 0
            for j in _members(frontier):
                reach |= self.steps[j]
            frontier = reach & part & ~comp
            comp |= frontier
        return comp


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


def _scan_lattice_codes(
    task: tuple[_LatticeScanner, Iterable[int]]
) -> tuple[int, int, list[int]]:
    scanner, codes = task
    hypothesis_count = witness_count = 0
    failures: list[int] = []
    for code in codes:
        outcome = scanner.outcome(scanner.parts_of(code))
        if not outcome.hypothesis_ok:
            continue
        hypothesis_count += 1
        if outcome.witness is None:
            failures.append(code)
        else:
            witness_count += 1
    return hypothesis_count, witness_count, failures


def _pool_size(workers: int, cpus: int, chunks: int) -> int:
    """Processes worth starting: no more than requested, than CPUs, or than chunks."""
    return max(1, min(workers, cpus, chunks))


def exhaustive_lattice_search(
    n: int, k: int, num_parts: int, *, workers: int = 1, budget: int | None = None
) -> LatticeSearchReport:
    """Sweep every assignment of lattice points to nonempty part subsets.

    Every assignment satisfying the open-(n+1)-ball hypothesis must yield a
    witness; assignment codes that do not are reported as failures.  The
    report is identical for any worker count.  A sweep of more than
    ``budget`` codes, or of more than ``budget`` point pairs, is refused
    before it starts.
    """
    _check_lattice_shape(n, k, num_parts)
    budget = DEFAULT_BUDGET if budget is None else budget
    radix, points = (1 << num_parts) - 1, (k + 1) ** n
    # radix is 1 or at least 3, so past budget.bit_length() points the count is over budget
    if radix ** min(points, budget.bit_length() + 1) > budget:
        raise BudgetExceededError(
            f"an exhaustive sweep of {radix}^({k + 1}^{n}) assignment codes exceeds "
            f"the budget of {budget}; sample the sweep or raise the budget"
        )
    # the scanner relates every pair of points, whatever the code count
    if points * points > budget:
        raise BudgetExceededError(
            f"the lattice scanner's ({k + 1}^{n})^2 point pairs exceed "
            f"the budget of {budget}; raise the budget"
        )
    scanner = _LatticeScanner(n, k, num_parts)
    total = radix**points
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = _pool_size(workers, cpus or 1, total)
    chunk = max(1, -(-total // size))
    tasks = [(scanner, range(lo, min(lo + chunk, total))) for lo in range(0, total, chunk)]
    if size == 1:
        results = list(map(_scan_lattice_codes, tasks))
    else:
        with multiprocessing.Pool(size) as pool:
            results = pool.map(_scan_lattice_codes, tasks)
    h = sum(res[0] for res in results)
    w = sum(res[1] for res in results)
    failures = [code for res in results for code in res[2]]
    return LatticeSearchReport(n, k, num_parts, total, h, w, tuple(sorted(failures)))


def sampled_lattice_search(
    n: int, k: int, num_parts: int, samples: int, *, seed: int = 0
) -> LatticeSearchReport:
    """Same tally over a seeded random sample of assignment codes."""
    if samples < 1:
        raise ValueError(f"lattice samples must be at least 1, got {samples}")
    scanner = _LatticeScanner(n, k, num_parts)
    total = scanner.radix ** len(scanner.points)
    rng = random.Random(seed)
    codes = (rng.randrange(total) for _ in range(samples))
    h, w, failures = _scan_lattice_codes((scanner, codes))
    return LatticeSearchReport(n, k, num_parts, samples, h, w, tuple(sorted(failures)))


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
        expected = lattice_points(self.n, self.k)
        if set(self.vertices) != set(expected):
            raise ValueError(f"cube needs exactly the vertex set of {{0..{self.k}}}^{self.n}")
        self.scale = as_radius(self.scale)

    def edges(self) -> Iterator[tuple[Point, Point]]:
        for x in lattice_points(self.n, self.k):
            for i in range(self.n):
                if x[i] < self.k:
                    y = x[:i] + (x[i] + 1,) + x[i + 1 :]
                    yield x, y

    def vertex_pairs(self) -> Iterator[tuple[Point, Point]]:
        pts = lattice_points(self.n, self.k)
        for a_idx, a in enumerate(pts):
            for b in pts[a_idx + 1 :]:
                yield a, b


def verify_cube_edges(
    cube: RCube, dist_lt: Callable[[Element, Element, Fraction], bool]
) -> list[tuple[Point, Point]]:
    """Edges whose endpoint images are not strictly closer than the cube scale."""
    return [
        (x, y)
        for x, y in cube.edges()
        if not dist_lt(cube.vertices[x], cube.vertices[y], cube.scale)
    ]


@dataclass(frozen=True)
class CubeObstruction:
    """A pair of cube vertices forcing a large component in one cover part."""

    part_index: int
    a: Point
    b: Point
    lattice_spread: int
    separation: int | Fraction


def cube_obstruction(view: MetricView, cover: Cover, cube: RCube) -> CubeObstruction:
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
    image_index = {x: cube.vertices[x] for x in cube.vertices}
    parts = [
        {x for x, g in image_index.items() if g in part} for part in cover.parts
    ]
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
    """An r-cube of bulb products in a wreath kernel, with certified edge bounds.

    ``index_table[(j, i)]`` is the base element whose bulb is switched on when
    coordinate i passes level j; all indices are distinct, so vertex supports
    are exactly readable and the inverse map is 1-Lipschitz by index counting.
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
    k: int | None = None,
    *,
    base_oracle: LengthOracle | None = None,
) -> KernelCube:
    """Build the standard (3r)-cube of bulb products over the base r-ball.

    The base ball is enumerated in canonical order and assigned row-major to
    the index table; ``k`` defaults to the largest value the growth allows
    (``growth(r) // n``).  Edge bounds are the constructive word bounds
    ``2 * length(index) + 1``, each strictly below 3r.
    """
    if n < 1:
        raise ValueError(f"cube dimension must be >= 1, got {n}")
    radius = as_radius(r)
    oracle = base_oracle if base_oracle is not None else LengthOracle(ctx.base)
    table = oracle.ball(radius)
    gamma = len(table)
    if k is None:
        k = gamma // n
    if k < 1 or n * k > gamma:
        raise ValueError(
            f"cube needs {n}*{max(k, 1)} distinct indices but the r-ball only has {gamma} elements"
        )
    index_table = {
        (j, i): table.elements[(j - 1) * n + (i - 1)]
        for j in range(1, k + 1)
        for i in range(1, n + 1)
    }
    u = ctx._lamp_values[0] if ctx._lamp_values else None
    if u is None:
        raise ValueError("kernel cube needs a nontrivial fiber")
    scale = 3 * radius
    vertices: dict[Point, Element] = {}
    for x in lattice_points(n, k):
        pairs = [
            (index_table[(j, i)], u)
            for i in range(1, n + 1)
            for j in range(1, x[i - 1] + 1)
        ]
        vertices[x] = bulb_product(ctx, pairs)
    cube = RCube(n, k, scale, vertices)
    edge_bounds: dict[tuple[Point, Point], int] = {}
    for x, y in cube.edges():
        axis = next(i for i in range(n) if x[i] != y[i])
        g = index_table[(max(x[axis], y[axis]), axis + 1)]
        bound = 2 * table.lengths[g] + 1
        if not bound < scale:
            raise ValueError(
                f"edge bound {bound} is not below the cube scale {scale}; "
                "the base ball is too shallow for this k"
            )
        edge_bounds[(x, y)] = bound
    return KernelCube(ctx, cube, index_table, u, edge_bounds)


def lipschitz_pairs(
    kcube: KernelCube, *, limit: int = 256, seed: int = 0
) -> list[tuple[Point, Point, int, int]]:
    """Per-pair unit-Lipschitz evidence: (a, b, l1, support separation).

    The support separation (number of positions where the two vertex lamp
    configurations differ) is a certified word-metric lower bound between the
    images, and for these cubes it equals the l1 distance exactly.  All pairs
    are checked when there are at most ``limit``; otherwise a seeded sample.
    """
    ctx = kcube.ctx
    pairs = list(kcube.cube.vertex_pairs())
    if len(pairs) > limit:
        rng = random.Random(seed)
        pairs = [pairs[i] for i in sorted(rng.sample(range(len(pairs)), limit))]
    out = []
    for a, b in pairs:
        ga = kcube.cube.vertices[a]
        gb = kcube.cube.vertices[b]
        diff = ctx.multiply(ctx.inverse(ga), gb)
        out.append((a, b, l1(a, b), len(diff.lamps)))
    return out


@dataclass
class KernelCubeCertificate:
    """A fully checked kernel cube packaged with its lower-bound claim."""

    kcube: KernelCube
    growth_at_r: int
    pair_evidence: list[tuple[Point, Point, int, int]]

    def to_json_dict(self) -> dict[str, Any]:
        ctx = self.kcube.ctx
        cube = self.kcube.cube
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
                {
                    "row": j,
                    "axis": i,
                    "element": ctx.base.format_element(g),
                }
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
    pair_limit: int = 256,
    seed: int = 0,
) -> KernelCubeCertificate:
    """Build and fully check the growth-driven kernel cube at scale 3r.

    The resulting certificate witnesses: any cover of a window containing the
    cube with Lebesgue number >= n*3r has a part with an (n*3r)-component of
    diameter at least k = growth(r) // n.
    """
    oracle = base_oracle if base_oracle is not None else LengthOracle(ctx.base)
    kcube = build_kernel_cube(ctx, n, r, base_oracle=oracle)
    evidence = lipschitz_pairs(kcube, limit=pair_limit, seed=seed)
    for a, b, want, got in evidence:
        if got < want:
            raise ValueError(
                f"vertex pair {a}, {b} separates only {got} indices; needs {want}"
            )
    return KernelCubeCertificate(kcube, oracle.growth(as_radius(r)), evidence)
