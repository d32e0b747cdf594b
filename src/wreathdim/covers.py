"""Covers of finite metric windows and exact dimension-control bookkeeping.

A *window* is a finite point set with an exact integer/rational metric,
usually a ball in a marked group with the word metric.  A cover is judged by
two numbers at a scale r: its Lebesgue quality (does every open r-ball fit
inside one part?) and its control value (the largest diameter of an
r-component of a part, where an r-component is a chain-connectedness class
under hops of distance < r).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .errors import BudgetExceededError, StructureError
from .groups import (
    DEFAULT_BUDGET,
    Element,
    LengthOracle,
    VirtuallyZStructure,
    as_radius,
    max_length_below,
)

Radius = int | Fraction


class MetricView:
    """Finite point set with an exact distance oracle."""

    points: tuple[Any, ...]

    def dist(self, a: Any, b: Any) -> int | Fraction:
        raise NotImplementedError

    def dist_lt(self, a: Any, b: Any, r: Fraction) -> bool:
        return self.dist(a, b) < r

    def neighbors_within(self, x: Any, members: Any, r: Fraction) -> list[Any]:
        """Members at distance strictly below ``r`` from ``x`` (x excluded)."""
        return [y for y in members if y != x and self.dist_lt(x, y, r)]


class ExplicitMetricView(MetricView):
    """Metric given by a callable; axioms are checked on construction.

    Symmetry and identity-of-indiscernibles are verified on all pairs up to
    64 points and on random samples beyond; the triangle inequality is
    spot-checked on seeded random triples.
    """

    def __init__(self, points: Iterable[Any], dist: Callable[[Any, Any], int | Fraction]):
        self.points = tuple(points)
        self._dist = dist
        self._validate()

    def dist(self, a: Any, b: Any) -> int | Fraction:
        return self._dist(a, b)

    def _validate(self) -> None:
        pts = self.points
        n = len(pts)
        if n == 0:
            return
        rng = random.Random(0)
        if n <= 64:
            pairs = [(a, b) for a in pts for b in pts]
        else:
            pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(1024)]
        for a, b in pairs:
            d = self._dist(a, b)
            if (d == 0) != (a == b):
                raise ValueError(f"dist({a!r}, {b!r}) = {d} breaks identity of indiscernibles")
            if d < 0:
                raise ValueError(f"dist({a!r}, {b!r}) = {d} is negative")
            if self._dist(b, a) != d:
                raise ValueError(f"dist is asymmetric on ({a!r}, {b!r})")
        for _ in range(min(512, n * n * n)):
            a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            if self._dist(a, c) > self._dist(a, b) + self._dist(b, c):
                raise ValueError(f"triangle inequality fails on ({a!r}, {b!r}, {c!r})")


class GroupWindowView(MetricView):
    """A finite subset of a marked group under the word metric.

    Distances go through a :class:`LengthOracle` (left-invariance turns them
    into single length queries), and near-neighbor enumeration multiplies by
    a small ball instead of scanning all pairs.
    """

    def __init__(self, ctx: Any, points: Iterable[Element], oracle: LengthOracle | None = None):
        self.ctx = ctx
        self.points = tuple(ctx.canonicalize(x) for x in points)
        self.oracle = oracle if oracle is not None else LengthOracle(ctx)
        if self.oracle.ctx is not ctx:
            raise ValueError("length oracle belongs to a different context")

    def dist(self, a: Element, b: Element) -> int:
        return self.oracle.distance(a, b)

    def dist_lt(self, a: Element, b: Element, r: Fraction) -> bool:
        return self.oracle.distance_at_most(a, b, max_length_below(as_radius(r))) is not None

    def neighbors_within(self, x: Element, members: Any, r: Fraction) -> list[Element]:
        ctx = self.ctx
        out = []
        for u in self.oracle.ball(r).elements:
            y = ctx.multiply(x, u)
            if y != x and y in members:
                out.append(y)
        return out


@dataclass(frozen=True)
class Cover:
    """An indexed family of parts; parts may overlap."""

    parts: tuple[frozenset, ...]

    def covers(self, points: Iterable[Any]) -> Any | None:
        """Return a point missed by every part, or None if fully covered."""
        for x in points:
            if not any(x in part for part in self.parts):
                return x
        return None

    def require_covers(self, points: Iterable[Any]) -> None:
        missed = self.covers(points)
        if missed is not None:
            raise ValueError(f"cover misses the point {missed!r}")


def cover_of(parts: Iterable[Iterable[Any]]) -> Cover:
    return Cover(tuple(frozenset(part) for part in parts))


def r_components(
    view: MetricView, subset: Sequence[Any] | None, r: Radius
) -> tuple[tuple[Any, ...], ...]:
    """Chain components of ``subset`` under hops of distance strictly below r.

    Components are listed by first appearance in subset order, members in
    subset order, so the output is deterministic.
    """
    radius = as_radius(r)
    pts = tuple(view.points if subset is None else subset)
    order = {x: i for i, x in enumerate(pts)}
    if len(order) != len(pts):
        raise ValueError("subset contains repeated points")
    members = set(pts)
    unassigned = set(pts)
    components = []
    for seed in pts:
        if seed not in unassigned:
            continue
        comp = {seed}
        unassigned.discard(seed)
        frontier = [seed]
        while frontier:
            nxt = []
            for x in frontier:
                for y in view.neighbors_within(x, members, radius):
                    if y in unassigned:
                        unassigned.discard(y)
                        comp.add(y)
                        nxt.append(y)
            frontier = nxt
        components.append(tuple(sorted(comp, key=order.__getitem__)))
    return tuple(components)


@dataclass(frozen=True)
class LebesgueCheck:
    """Whether every open r-ball around a window point fits inside one part."""

    radius: Fraction
    ok: bool
    witness: Any | None


def lebesgue_ok(view: MetricView, cover: Cover, r: Radius) -> LebesgueCheck:
    radius = as_radius(r)
    cover.require_covers(view.points)
    members = set(view.points)
    for x in view.points:
        ball_pts = view.neighbors_within(x, members, radius)
        ball_pts.append(x)
        if not any(all(y in part for y in ball_pts) for part in cover.parts):
            return LebesgueCheck(radius, False, x)
    return LebesgueCheck(radius, True, None)


@dataclass(frozen=True)
class ControlMeasurement:
    """Largest r-component diameter per part, and the overall maximum."""

    radius: Fraction
    per_part: tuple[int | Fraction, ...]
    value: int | Fraction


def max_diameter(view: MetricView, components: Iterable[Sequence[Any]]) -> int | Fraction:
    """Largest distance between two points of one component (0 if there is none)."""
    worst: int | Fraction = 0
    for comp in components:
        for i, a in enumerate(comp):
            for b in comp[i + 1 :]:
                d = view.dist(a, b)
                if d > worst:
                    worst = d
    return worst


def component_diameters(view: MetricView, cover: Cover, r: Radius) -> ControlMeasurement:
    radius = as_radius(r)
    cover.require_covers(view.points)
    per_part = []
    for part in cover.parts:
        part_pts = [x for x in view.points if x in part]
        per_part.append(max_diameter(view, r_components(view, part_pts, radius)))
    value = max(per_part) if per_part else 0
    return ControlMeasurement(radius, tuple(per_part), value)


@dataclass(frozen=True)
class ControlPoint:
    """One sampled scale: control value and Lebesgue verdict of a fixed cover."""

    radius: Fraction
    control: int | Fraction
    per_part: tuple[int | Fraction, ...]
    lebesgue: bool
    witness: Any | None


def control_sample(view: MetricView, cover: Cover, radii: Iterable[Radius]) -> tuple[ControlPoint, ...]:
    """Measure a cover at several scales; bookkeeping only, no extrapolation."""
    out = []
    for r in radii:
        meas = component_diameters(view, cover, r)
        leb = lebesgue_ok(view, cover, r)
        out.append(ControlPoint(meas.radius, meas.value, meas.per_part, leb.ok, leb.witness))
    return tuple(out)


# ---------------------------------------------------------------------------
# control values with proofs behind them


def kernel_control_bound(
    ctx: Any,
    r: Radius,
    *,
    base_oracle: LengthOracle | None = None,
) -> Fraction:
    """Control value ``(2r+1) * growth_base(r)`` for the lamp kernel at scale r.

    Every r-component of the kernel (under the ambient word metric) has
    diameter at most this; the fiber must be a nontrivial finite group.
    """
    radius = as_radius(r)
    fiber_order = ctx.fiber.order()
    if fiber_order is None or fiber_order < 2:
        raise StructureError("kernel control bound needs a nontrivial finite fiber")
    oracle = base_oracle if base_oracle is not None else LengthOracle(ctx.base)
    return (2 * radius + 1) * oracle.growth(radius)


@dataclass(frozen=True)
class CosetCover:
    """Subgroup closure of a small ball, plus the window's left-coset partition."""

    closure: tuple[Element, ...]
    cosets: tuple[tuple[Element, ...], ...]
    max_length: int


def coset_cover(
    ctx: Any,
    window: Sequence[Element],
    r: Radius,
    *,
    oracle: LengthOracle | None = None,
    budget: int | None = None,
) -> CosetCover:
    """Partition a subgroup window by left cosets of <elements of length < r>.

    The window must be a subset of a subgroup; the subgroup generated by its
    short elements must close up within the budget (it does whenever that
    subgroup is finite, e.g. inside a lamp kernel over integers).
    """
    radius = as_radius(r)
    budget = DEFAULT_BUDGET if budget is None else budget
    oracle = oracle if oracle is not None else LengthOracle(ctx)
    cutoff = max_length_below(radius)
    gens = [x for x in window if oracle.length_at_most(x, cutoff) is not None]
    gens += [ctx.inverse(x) for x in gens]
    closure = {ctx.identity()}
    frontier = [ctx.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = ctx.multiply(x, g)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
                    if len(closure) > budget:
                        raise BudgetExceededError(
                            f"subgroup closure exceeded the node budget of {budget}"
                        )
        frontier = nxt
    ordered_closure = tuple(sorted(closure, key=ctx.sort_key))
    max_length = max((oracle.length(x) for x in ordered_closure), default=0)
    reps: list[Element] = []
    cosets: list[list[Element]] = []
    for x in window:
        for rep, members in zip(reps, cosets):
            if ctx.multiply(ctx.inverse(rep), x) in closure:
                members.append(x)
                break
        else:
            reps.append(x)
            cosets.append([x])
    return CosetCover(ordered_closure, tuple(tuple(c) for c in cosets), max_length)


def vz_closure_constant(structure: VirtuallyZStructure) -> Fraction:
    """Scale factor L with closure max length < L*r for virtually-Z groups.

    L = 4Cn^2 + 2n + 2Cn where n is the index and C the distortion constant.
    """
    n = structure.index
    c = structure.distortion
    return 4 * c * n * n + 2 * n + 2 * c * n


def growth_linear_bound(structure: VirtuallyZStructure, r: Radius) -> Fraction:
    """Growth is at most ``n * (3nC*r + 1)`` in a virtually-Z group."""
    radius = as_radius(r)
    n = structure.index
    return n * (3 * n * structure.distortion * radius + 1)


@dataclass(frozen=True)
class PullbackControl:
    """A cover pulled back through a retraction, with its predicted control value."""

    cover: Cover
    base_control: int | Fraction
    predicted: Fraction


def pullback_cover(
    ctx: Any,
    window: Sequence[Element],
    sub: Any,
    project: Callable[[Element], Element],
    embed: Callable[[Element], Element],
    sub_view: MetricView,
    sub_cover: Cover,
    r: Radius,
    *,
    kernel_bound: Callable[[Fraction], Fraction],
) -> PullbackControl:
    """Pull a controlled cover of a retract back to a window of the whole group.

    ``project`` must be a retraction homomorphism onto ``sub`` (checked on the
    window and on the marked generators), and ``sub_cover`` must have Lebesgue
    number >= r on ``sub_view``.  The predicted control value at scale r is
    ``d + kernel_bound(r + 2d)`` where d is the sub-cover's control value.
    """
    radius = as_radius(r)
    for g in sub.generators:
        if embed(g) not in ctx.symmetric_generators():
            raise ValueError(
                f"embedded generator {sub.format_element(g)} is not a marked generator"
            )
    for a in sub_view.points:
        if project(embed(a)) != a:
            raise ValueError(f"projection does not retract {sub.format_element(a)}")
    for x in window:
        px = project(x)
        for s in ctx.symmetric_generators():
            if project(ctx.multiply(x, s)) != sub.multiply(px, project(s)):
                raise ValueError("projection is not a homomorphism on the window")
    leb = lebesgue_ok(sub_view, sub_cover, radius)
    if not leb.ok:
        raise ValueError(
            f"sub-cover has Lebesgue number below {radius} "
            f"(witness {sub.format_element(leb.witness)})"
        )
    meas = component_diameters(sub_view, sub_cover, radius)
    d = meas.value
    predicted = d + kernel_bound(radius + 2 * d)
    parts = tuple(
        frozenset(x for x in window if project(x) in part) for part in sub_cover.parts
    )
    cover = Cover(parts)
    cover.require_covers(window)
    return PullbackControl(cover, d, predicted)


def weakly_dominates(
    f: Callable[[Radius], int | Fraction],
    g: Callable[[Radius], int | Fraction],
    lam: Radius,
    c: Radius,
    samples: Iterable[Radius],
) -> bool:
    """Check ``g(t) <= lam * f(lam*t + c) + c`` at each sample point."""
    lam = Fraction(lam)
    c = Fraction(c)
    if lam < 1:
        raise ValueError(f"domination scale must be >= 1, got {lam}")
    if c < 0:
        raise ValueError(f"domination offset must be >= 0, got {c}")
    return all(g(t) <= lam * f(lam * t + c) + c for t in samples)
