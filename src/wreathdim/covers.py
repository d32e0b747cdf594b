"""Covers of group windows and exact dimension-control bookkeeping.

A *window* is a finite set of elements of a marked group under its word
metric: a ball, a lamp-kernel window, or a box in Z^n, whose l1 metric is
the word metric of Z^n.  A cover is judged by two numbers at a scale r: its
Lebesgue quality (does every open r-ball fit inside one part?) and its
control value (the largest diameter of an r-component of a part, where an
r-component is a chain-connectedness class under hops of distance < r).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .errors import BudgetExceededError, StructureError
from .groups import (
    Element,
    LengthOracle,
    VirtuallyZStructure,
    _BallSearch,
    _CayleySpace,
    _oracle_for,
    _sorted_table,
    as_radius,
    max_length_below,
    same_group,
)
from .wreath import WreathContext

Radius = int | Fraction


class GroupWindowView:
    """A finite subset of a marked group under the word metric.

    The view works on the states of its oracle's search space
    (``oracle._bfs.space``), which on wreath products are packed lamp
    states: state ids belong to one space, and the oracle may measure an
    equal-spec group built from another context object.  Each point's state
    is computed once and stored in point order (``_point_states``), which
    r-components, Lebesgue checks and component diameters read; the map
    from points to states (``_states``) is built on the first lookup by
    element.  Distances use left-invariance: ``dist(a, b)`` is the
    oracle's ``_state_length`` of ``multiply_states(inverse_state(a), b)``
    on those states, so no element product is built.  Near neighbours are
    searched, not scanned for among all pairs: the points y with
    d(x, y) <= n are the window's states in a BFS of depth n around x's
    state on that space.  That ball is x times the n-ball, so it has the
    n-ball's size, and ``_hops`` sizes it against the budget before any
    search around a point starts.

    The points are canonicalized once, here, and may not repeat.  ``dist``
    and ``dists_from`` trust their arguments to be canonical, as window
    points are; the oracle's public methods are the checked entry points.
    """

    def __init__(self, ctx: Any, points: Iterable[Element], oracle: LengthOracle | None = None):
        points = tuple(ctx.canonicalize(x) for x in points)
        self._hold(ctx, points, _oracle_for(ctx, oracle))
        if len(set(self._point_states)) < len(points):
            repeat = next(x for i, x in enumerate(points) if x in points[:i])
            raise ValueError(f"window repeats the point {ctx.format_element(repeat)}")

    @classmethod
    def _of_canonical(cls, oracle: LengthOracle, points: tuple[Element, ...]) -> "GroupWindowView":
        """The view of canonical ``points`` over ``oracle``, not canonicalized again."""
        view = cls.__new__(cls)
        view._hold(oracle.ctx, points, oracle)
        return view

    def _hold(self, ctx: Any, points: tuple[Element, ...], oracle: LengthOracle) -> None:
        self.ctx, self.points, self.oracle = ctx, points, oracle
        self.space = oracle._bfs.space
        self._point_states = tuple(map(self.space.state_of, points))

    @functools.cached_property
    def _states(self) -> dict[Element, Any]:
        """Each point's state, by point."""
        return dict(zip(self.points, self._point_states))

    def _state(self, x: Element) -> Any:
        """The state of a canonical ``x`` in the view's space, stored for window points."""
        state = self._states.get(x)
        return self.space.state_of(x) if state is None else state

    def dist(self, a: Element, b: Element) -> int:
        return self.dists_from(a, (b,))[0]

    def dists_from(self, a: Element, others: Iterable[Element]) -> list[int]:
        space, state, length = self.space, self._state, self.oracle._state_length
        inv, mul = space.inverse_state(state(a)), space.multiply_states
        return [length(mul(inv, state(b))) for b in others]

    def _hops(self, radius: Fraction, members: dict[Any, Any]) -> Callable[[Any], list[Any]]:
        """``near(state)``: ``members[s]`` (keyed by state) for each state s
        with a hop below ``radius`` from ``state``, itself included.

        With members, ``oracle.growth`` first refuses a ``radius``-ball over
        the budget, so no search around a point goes over.  ``near`` steps
        one search, restarted at ``state``, ``max_length_below(radius)``
        levels, or until a finite group's ball closes up.
        """
        if members:
            self.oracle.growth(radius)
        depth = max_length_below(radius)
        search = _BallSearch(self.space, self.oracle.budget)

        def near(state: Any) -> list[Any]:
            search.restart(state)
            while search.reach < depth:
                stepped = search.step(search.budget)
                assert stepped  # the ball was sized against the budget
            found = map(members.get, search.seen)
            return [m for m in found if m is not None]

        return near


def ball_window(oracle: LengthOracle, radius: Radius) -> GroupWindowView:
    """The open ball of ``radius`` as a window over ``oracle.ball(radius)``.

    The ball's elements are the oracle's own, canonical already, so they
    are not canonicalized again.  The oracle searches the ball's levels and
    no deeper.  Each pair distance that ``max_diameter`` and the rest
    measure past them is an oracle miss; the misses' growing weight
    (``LengthOracle``) extends the held search once enough of them would
    have paid for a level, and a level over half the budget is left to them
    to search back around.
    """
    return GroupWindowView._of_canonical(oracle, oracle.ball(radius).elements)


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

    A point's hops are the subset's points in the BFS around it to depth
    ``max_length_below(r)`` (``GroupWindowView._hops``), keyed by search
    state, the view's stored one for each point (with no subset, the
    view's states in point order, so no point is looked up).  Components
    are listed by first appearance in subset order, members in subset
    order, so the output is deterministic.
    """
    radius = as_radius(r)
    if subset is None:
        pts, states = view.points, view._point_states
    else:
        pts = tuple(subset)
        states = tuple(map(view._state, pts))
    comps = _components(view, pts, states, radius)
    return tuple(tuple(pts[i] for i in comp) for comp in comps)


def _components(
    view: GroupWindowView, pts: Sequence[Element], states: Sequence[Any], radius: Fraction
) -> list[list[int]]:
    """``r_components`` of the points ``pts`` with these states, as sorted index lists."""
    index = {s: i for i, s in enumerate(states)}
    if len(index) != len(pts):
        repeat = next(x for i, (x, s) in enumerate(zip(pts, states)) if index[s] != i)
        raise ValueError(f"subset repeats the point {view.ctx.format_element(repeat)}")
    near = view._hops(radius, index)
    assigned = [False] * len(pts)
    components = []
    for seed in range(len(pts)):
        if assigned[seed]:
            continue
        assigned[seed] = True
        comp = [seed]
        for i in comp:  # grows as hops reach unassigned points
            for j in near(states[i]):
                if not assigned[j]:
                    assigned[j] = True
                    comp.append(j)
        comp.sort()
        components.append(comp)
    return components


@dataclass(frozen=True)
class LebesgueCheck:
    """Whether every open r-ball around a window point fits inside one part."""

    radius: Fraction
    ok: bool
    witness: Any | None


def lebesgue_ok(view: GroupWindowView, cover: Cover, r: Radius) -> LebesgueCheck:
    """Whether each window point's open r-ball, within the window, fits inside one part.

    A point's ball is the window's points in the BFS around it to depth
    ``max_length_below(r)`` (``GroupWindowView._hops``); the witness is the
    first point, in window order, whose ball fits no part.
    """
    radius = as_radius(r)
    cover.require_covers(view.points)
    members = dict(zip(view._point_states, view.points))
    near = view._hops(radius, members)
    for state, x in members.items():
        ball_pts = near(state)
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
    return _diameter(view, (list(map(view._state, comp)) for comp in components if len(comp) > 1))


def _diameter(view: GroupWindowView, components: Iterable[Sequence[Any]]) -> int:
    """``max_diameter`` of components given as lists of the view's states."""
    space, length = view.space, view.oracle._state_length
    inv, mul = space.inverse_state, space.multiply_states
    worst = 0
    for comp in components:
        if len(comp) < 2:
            continue
        pivot = inv(comp[0])
        radii = [length(mul(pivot, s)) for s in comp]
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
            row = inv(a)
            worst = max(worst, *[length(mul(row, b)) for b in partners])
    return worst


def component_diameters(view: GroupWindowView, cover: Cover, r: Radius) -> ControlMeasurement:
    """The largest r-component diameter of each part's window points, and of all.

    Each window point is tested once against each part; a point no part
    holds is refused first, as ``Cover.require_covers`` refuses it.  The
    r-components and their pivot rows run on the view's stored states.
    """
    radius = as_radius(r)
    points, states = view.points, view._point_states
    members = [[i for i, x in enumerate(points) if x in part] for part in cover.parts]
    covered = set(itertools.chain.from_iterable(members))
    if len(covered) < len(points):
        missed = next(x for i, x in enumerate(points) if i not in covered)
        raise ValueError(f"cover misses the point {missed!r}")
    per_part = []
    for row in members:
        part_states = [states[i] for i in row]
        comps = _components(view, [points[i] for i in row], part_states, radius)
        per_part.append(_diameter(view, ([part_states[j] for j in comp] for comp in comps)))
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
    their inverses on the states of the oracle's space (``_CayleySpace`` over
    it, stepping by ``multiply_states``), stepped until its frontier is
    empty; it raises ``BudgetExceededError`` exactly when it holds more than
    the budget.  ``_sorted_table`` orders the closure by encoding, with the
    oracle's ``_state_length`` of each state.

    Cosets open in window order: the first point x that no coset holds
    opens xK, K the closure, and at once places each later point that no
    coset holds in or out of it.  A scan of each point against every coset
    opened before it tests exactly those points against xK, one product
    each.  So xK is listed as its states x k when K has fewer states than
    there are such points, and otherwise each such point y is tested by
    whether x^-1 y lies in K: never more products than that scan makes.
    """
    radius = as_radius(r)
    oracle = _oracle_for(ctx, oracle)
    budget, space, length = oracle.budget, oracle._bfs.space, oracle._state_length
    cutoff = max_length_below(radius)
    states, gens = [], []
    for x in window:
        state = space.state_of(ctx.canonicalize(x))
        states.append(state)
        if length(state, cutoff) is not None:
            gens.append(state)
    gens += [space.inverse_state(s) for s in gens]
    search = _BallSearch(_CayleySpace(ctx, tuple(gens), over=space), budget)
    while search.frontier:
        if not search.step(budget):
            raise BudgetExceededError(f"subgroup closure exceeded the node budget of {budget}")
    closure = search.seen
    table = _sorted_table(ctx, space, radius, {s: length(s) for s in closure})[0]
    # the first point not yet placed opens the next coset and places its members
    cosets: list[tuple[Element, ...]] = []
    mul = space.multiply_states
    pending = list(zip(window, states))
    while pending:
        (x, state), rest = pending[0], pending[1:]
        if len(closure) < len(rest):
            coset = {mul(state, k) for k in closure}
            inside = [t in coset for _, t in rest]
        else:
            inv = space.inverse_state(state)
            inside = [mul(inv, t) in closure for _, t in rest]
        cosets.append((x, *(y for (y, _), lies in zip(rest, inside) if lies)))
        pending = [point for point, lies in zip(rest, inside) if not lies]
    return CosetCover(table.elements, tuple(cosets), max(table.lengths.values()))


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

