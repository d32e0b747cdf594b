"""Covers of group windows and exact dimension-control bookkeeping.

A *window* is a finite set of elements of a marked group under its word
metric: a ball, a lamp-kernel window, or a box in Z^n, whose l1 metric is
the word metric of Z^n.  A cover is judged by two numbers at a scale r: its
Lebesgue quality (does every open r-ball fit inside one part?) and its
control value (the largest diameter of an r-component of a part, where an
r-component is a chain-connectedness class under hops of distance < r).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .errors import BudgetExceededError, StructureError
from .groups import (
    Element,
    LengthOracle,
    VirtuallyZStructure,
    _BallSearch,
    _CayleySpace,
    _oracle_for,
    as_radius,
    max_length_below,
    same_group,
)
from .wreath import WreathContext

Radius = int | Fraction


class GroupWindowView:
    """A finite subset of a marked group under the word metric.

    Distances go through a :class:`LengthOracle` (left-invariance turns them
    into single length queries), and near-neighbor enumeration multiplies by
    a small ball instead of scanning all pairs.

    The points are canonicalized once, here.  ``dist`` and ``dists_from``
    trust their arguments to be canonical, as window points are, and look
    ``a^-1 b`` up in the oracle without canonicalizing it again; the
    oracle's public methods are the checked entry points.
    """

    def __init__(self, ctx: Any, points: Iterable[Element], oracle: LengthOracle | None = None):
        self.ctx = ctx
        self.points = tuple(ctx.canonicalize(x) for x in points)
        self.oracle = _oracle_for(ctx, oracle)

    def dist(self, a: Element, b: Element) -> int:
        return self.oracle._known_length(self.ctx.multiply(self.ctx.inverse(a), b))

    def dists_from(self, a: Element, others: Iterable[Element]) -> list[int]:
        inv, mul, known = self.ctx.inverse(a), self.ctx.multiply, self.oracle._known_length
        return [known(mul(inv, b)) for b in others]

    def _neighbors(self, x: Element, members: Any, ball: Sequence[Element]) -> list[Element]:
        # the products x*u over the open r-ball's elements u, fetched once by the caller
        mul = self.ctx.multiply
        out = []
        for u in ball:
            y = mul(x, u)
            if y != x and y in members:
                out.append(y)
        return out


def ball_window(oracle: LengthOracle, radius: Radius) -> GroupWindowView:
    """The open ball of ``radius`` as a window, with every pair distance prefilled.

    Two points of the ball are at distance at most twice its largest length,
    so one BFS to that depth, ``oracle.search``, answers every pair distance
    from its states, without building the elements of the larger ball.
    ``max_diameter`` measures only the pivot distances and the pairs its
    triangle bound cannot rule out, a few hundred on the 8-ball of the
    lamplighter, but without the search each of those would be a search of
    its own, which costs more than the one BFS.  Under a budget too small
    for that BFS, the search keeps its complete levels, and each measured
    pair past them gets its own search.
    """
    try:
        oracle.search(2 * max_length_below(as_radius(radius)) + 1)
    except BudgetExceededError:
        pass
    return GroupWindowView(oracle.ctx, oracle.ball(radius).elements, oracle)


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
    view: GroupWindowView, subset: Sequence[Element] | None, r: Radius
) -> tuple[tuple[Element, ...], ...]:
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
    ball = view.oracle.ball(radius).elements if pts else ()
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
                for y in view._neighbors(x, members, ball):
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


def lebesgue_ok(view: GroupWindowView, cover: Cover, r: Radius) -> LebesgueCheck:
    radius = as_radius(r)
    cover.require_covers(view.points)
    members = set(view.points)
    ball = view.oracle.ball(radius).elements if view.points else ()
    for x in view.points:
        ball_pts = view._neighbors(x, members, ball)
        ball_pts.append(x)
        if not any(all(y in part for y in ball_pts) for part in cover.parts):
            return LebesgueCheck(radius, False, x)
    return LebesgueCheck(radius, True, None)


@dataclass(frozen=True)
class ControlMeasurement:
    """Largest r-component diameter per part, and the overall maximum."""

    radius: Fraction
    per_part: tuple[int, ...]
    value: int


def max_diameter(view: GroupWindowView, components: Iterable[Sequence[Element]]) -> int:
    """Largest distance between two points of one component (0 if there is none).

    Each component's first point is a pivot p, measured to every point once.
    A pair (a, b) is measured only while d(a, p) + d(p, b) exceeds the largest
    distance found so far: by the triangle inequality, no skipped pair does.
    """
    worst = 0
    for comp in components:
        if len(comp) < 2:
            continue
        radii = view.dists_from(comp[0], comp)
        worst = max(worst, *radii)
        ranked = sorted(zip(radii, comp), key=lambda item: item[0], reverse=True)
        for i, (ra, a) in enumerate(ranked[:-1]):
            if ra + ranked[i + 1][0] <= worst:
                break  # every later pair sums to no more
            partners = []
            for rb, b in ranked[i + 1 :]:
                if ra + rb <= worst:
                    break
                partners.append(b)
            worst = max(worst, *view.dists_from(a, partners))
    return worst


def component_diameters(view: GroupWindowView, cover: Cover, r: Radius) -> ControlMeasurement:
    radius = as_radius(r)
    cover.require_covers(view.points)
    per_part = []
    for part in cover.parts:
        part_pts = [x for x in view.points if x in part]
        per_part.append(max_diameter(view, r_components(view, part_pts, radius)))
    value = max(per_part) if per_part else 0
    return ControlMeasurement(radius, tuple(per_part), value)


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
    return (2 * radius + 1) * _oracle_for(ctx.base, base_oracle).growth(radius)


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
) -> CosetCover:
    """Partition a subgroup window by left cosets of <elements of length < r>.

    The window must be a subset of a subgroup; the subgroup generated by its
    short elements must close up within the oracle's budget (it does whenever
    that subgroup is finite, e.g. inside a lamp kernel over integers).  The
    closure is a ``_BallSearch`` over the Cayley graph of those elements and
    their inverses, stepped until its frontier is empty; it raises
    ``BudgetExceededError`` exactly when it holds more than the budget.
    """
    radius = as_radius(r)
    oracle = _oracle_for(ctx, oracle)
    budget = oracle.budget
    cutoff = max_length_below(radius)
    gens = [x for x in window if oracle.length_at_most(x, cutoff) is not None]
    gens += [ctx.inverse(x) for x in gens]
    search = _BallSearch(_CayleySpace(ctx, tuple(gens)), budget)
    while search.frontier:
        if not search.step(budget):
            raise BudgetExceededError(f"subgroup closure exceeded the node budget of {budget}")
    closure = search.seen
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
    """A base cover pulled back through the cursor projection, with its predicted control value."""

    cover: Cover
    base_control: int
    predicted: Fraction


def pullback_cover(
    view: GroupWindowView, sub_view: GroupWindowView, sub_cover: Cover, r: Radius
) -> PullbackControl:
    """Pull a controlled cover of the base group back to a window of its wreath product.

    ``view`` is a window of ``H wr G`` and ``sub_view`` a window of G; a point
    of ``view`` lies in the pulled-back part of each part holding its cursor.
    ``sub_cover`` must have Lebesgue number >= r on ``sub_view``.  With d the
    sub-cover's control value, the predicted control value at scale r is
    ``d`` plus the kernel control bound at ``r + 2d``.
    """
    radius = as_radius(r)
    ctx, sub = view.ctx, sub_view.ctx
    if not isinstance(ctx, WreathContext) or not same_group(sub, ctx.base):
        raise StructureError("the sub-window must lie in the base group of a wreath window")
    leb = lebesgue_ok(sub_view, sub_cover, radius)
    if not leb.ok:
        raise ValueError(
            f"sub-cover has Lebesgue number below {radius} "
            f"(witness {sub.format_element(leb.witness)})"
        )
    d = component_diameters(sub_view, sub_cover, radius).value
    predicted = d + kernel_control_bound(ctx, radius + 2 * d, base_oracle=sub_view.oracle)
    cover = Cover(
        tuple(frozenset(x for x in view.points if x.cursor in part) for part in sub_cover.parts)
    )
    cover.require_covers(view.points)
    return PullbackControl(cover, d, predicted)

