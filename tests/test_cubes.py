"""Lattice witnesses, r-cubes, and kernel cube certificates."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
from fractions import Fraction

import pytest

from wreathdim import (
    BudgetExceededError,
    CyclicGroup,
    GroupWindowView,
    IntegerGroup,
    LatticeOutcome,
    LengthOracle,
    ProductGroup,
    RCube,
    StructureError,
    WreathContext,
    build_kernel_cube,
    cover_of,
    cube_obstruction,
    exhaustive_lattice_search,
    growth_lower_bound_certificate,
    l1,
    lattice_cover_witness,
    lattice_points,
    sampled_lattice_search,
    word_length,
)
from wreathdim import cubes


# -- lattice geometry ---------------------------------------------------------


def test_l1_distance():
    assert l1((0, 3), (2, 0)) == 5
    assert l1((1,), (1,)) == 0


def test_lattice_points_lexicographic():
    assert lattice_points(1, 2) == ((0,), (1,), (2,))
    assert lattice_points(2, 1) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(lattice_points(3, 2)) == 27


# -- cover witnesses ------------------------------------------------------------


def test_witness_for_single_covering_part():
    out = lattice_cover_witness(1, 2, [[(0,), (1,), (2,)]])
    assert out.hypothesis_ok
    # The only part contains a pair at full coordinate spread.
    assert out.witness == (1, (0,), (2,))


def test_witness_pair_always_spreads_k():
    out = lattice_cover_witness(2, 2, [lattice_points(2, 2), [(1, 1)]])
    assert out.hypothesis_ok
    part, a, b = out.witness
    assert max(abs(x - y) for x, y in zip(a, b)) == 2


def test_hypothesis_violation_reports_point():
    left = [(x, y) for x in (0, 1) for y in (0, 1, 2)]
    right = [(x, y) for x in (1, 2) for y in (0, 1, 2)]
    out = lattice_cover_witness(2, 2, [left, right])
    assert not out.hypothesis_ok
    assert out.violator == (0, 0)
    assert out.witness is None


def test_witness_requires_cover():
    with pytest.raises(ValueError):
        lattice_cover_witness(1, 2, [[(0,), (1,)]])


def test_witness_rejects_more_parts_than_coordinates():
    with pytest.raises(ValueError):
        lattice_cover_witness(1, 2, [[(0,), (1,)], [(1,), (2,)]])


def _cover(n, k, num_parts, code):
    # Base (2**p - 1) digits, one per lattice point; digit + 1 is its part bitmask.
    radix = (1 << num_parts) - 1
    parts = [[] for _ in range(num_parts)]
    for x in lattice_points(n, k):
        code, digit = divmod(code, radix)
        for i in range(num_parts):
            if (digit + 1) >> i & 1:
                parts[i].append(x)
    return parts


def _unit_step_components(points):
    """Classes of ``points`` joined by chains of unit l1 steps, each in lex order."""
    unseen = set(points)
    components = []
    for seed in points:
        if seed not in unseen:
            continue
        unseen.discard(seed)
        comp, frontier = {seed}, {seed}
        while frontier:
            frontier = {b for a in frontier for b in unseen if l1(a, b) == 1}
            unseen -= frontier
            comp |= frontier
        components.append(sorted(comp))
    return components


def _reference_outcome(n, k, parts):
    """The lattice lemma's check straight from its definitions, for comparison."""
    points = lattice_points(n, k)
    part_sets = [set(part) for part in parts]
    for x in points:
        ball = {y for y in points if l1(x, y) <= n}
        if not any(ball <= part for part in part_sets):
            return LatticeOutcome(False, x, None)
    for i, part in enumerate(part_sets, start=1):
        for comp in _unit_step_components([x for x in points if x in part]):
            for a, b in itertools.combinations(comp, 2):
                if abs(a[i - 1] - b[i - 1]) == k:
                    return LatticeOutcome(True, None, (i, a, b))
    return LatticeOutcome(True, None, None)


def test_witness_matches_reference_on_every_small_cover():
    for code in range(81):
        parts = _cover(2, 1, 2, code)
        assert lattice_cover_witness(2, 1, parts) == _reference_outcome(2, 1, parts), code


def test_witness_matches_reference_on_seeded_covers():
    rng = random.Random(0)
    outcomes = []
    for _ in range(300):
        # Points in both parts are drawn more often, so the hypothesis often holds.
        digits = rng.choices(range(3), weights=(1, 1, 4), k=9)
        parts = _cover(2, 2, 2, sum(d * 3**j for j, d in enumerate(digits)))
        outcome = lattice_cover_witness(2, 2, parts)
        assert outcome == _reference_outcome(2, 2, parts), parts
        outcomes.append(outcome)
    assert any(o.witness for o in outcomes) and any(o.violator for o in outcomes)


@pytest.mark.parametrize("n, k, num_parts", [(2, 2, 2), (3, 1, 3), (1, 4, 1), (2, 3, 2)])
def test_scanner_bitsets_equal_an_all_pairs_build(n, k, num_parts):
    scanner = cubes._LatticeScanner(n, k, num_parts)
    pts = lattice_points(n, k)

    def bits(pred, x):
        return sum(1 << j for j, y in enumerate(pts) if pred(x, y))

    assert scanner.points == pts
    assert scanner.balls == [bits(lambda x, y: l1(x, y) <= n, x) for x in pts]
    assert scanner.steps == [bits(lambda x, y: l1(x, y) == 1, x) for x in pts]
    # guards[j] keeps the widest of the balls through points[j], cut to the points
    # from j up; one part holds every ball, so it needs none
    for j, guards in enumerate(scanner.guards):
        cut = {ball & -(1 << j) for ball in scanner.balls if ball >> j & 1}
        assert set(guards) <= cut
        covered = set() if num_parts == 1 else cut
        assert all(any(c & g == c for g in guards) for c in covered)
    # two points are k apart in coordinate i exactly when they lie in different slabs
    for i, (low, high) in enumerate(scanner.slabs):
        for j, x in enumerate(pts):
            far = (high if low >> j & 1 else 0) | (low if high >> j & 1 else 0)
            assert far == bits(lambda x, y: abs(x[i] - y[i]) == k, x)


# -- exhaustive sweeps -----------------------------------------------------------


def test_exhaustive_search_square_one_step():
    # 4 points, 3 membership states each; a part must hold all 4 points for
    # the open 3-ball hypothesis, giving 2*2^4 - 1 = 31 admissible assignments.
    report = exhaustive_lattice_search(2, 1, 2)
    assert report.assignments == 81
    assert report.hypothesis_count == 31
    assert report.witness_count == 31
    assert report.failures == ()


def test_exhaustive_search_trivial_line():
    report = exhaustive_lattice_search(1, 2, 1)
    assert report.assignments == 1
    assert report.hypothesis_count == 1
    assert report.witness_count == 1


#: Lattice shapes of at most 20k assignment codes, from one part up to (2,2,2).
SWEEPABLE = [(1, 1, 1), (1, 4, 1), (2, 1, 2), (2, 2, 1), (3, 1, 2), (2, 2, 2)]


def _brute_force_report(n, k, num_parts):
    """The sweep's report with every code judged alone, as one cover."""
    scanner = cubes._LatticeScanner(n, k, num_parts)
    total = scanner.radix ** len(scanner.points)
    box = (1 << len(scanner.points)) - 1
    covers = [scanner.parts_of(code) for code in range(total)]
    outcomes = [scanner.outcome(parts) for parts in covers]
    failures = tuple(
        code for code, o in enumerate(outcomes) if o.hypothesis_ok and o.witness is None
    )
    hypotheses = sum(o.hypothesis_ok for o in outcomes)
    witnesses = sum(o.witness is not None for o in outcomes)
    nontrivial = sum(o.hypothesis_ok and box not in parts for o, parts in zip(outcomes, covers))
    return cubes.LatticeSearchReport(
        n, k, num_parts, total, hypotheses, witnesses, failures, nontrivial
    )


def _code_of(scanner, parts):
    # the inverse of parts_of: point j's digit is its part bitmask minus one
    code = 0
    for j in reversed(range(len(scanner.points))):
        mask = sum(1 << i for i, part in enumerate(parts) if part >> j & 1)
        code = code * scanner.radix + mask - 1
    return code


def test_exhaustive_search_tallies_single_cover_outcomes():
    outcomes = [lattice_cover_witness(2, 1, _cover(2, 1, 2, code)) for code in range(81)]
    report = exhaustive_lattice_search(2, 1, 2)
    assert report.hypothesis_count == sum(o.hypothesis_ok for o in outcomes)
    assert report.witness_count == sum(o.witness is not None for o in outcomes)
    assert report.failures == tuple(
        code for code, o in enumerate(outcomes) if o.hypothesis_ok and o.witness is None
    )
    # the count-then-enumerate sweep against every code judged alone, on every sweepable shape
    for shape in SWEEPABLE:
        assert exhaustive_lattice_search(*shape) == _brute_force_report(*shape), shape
    full = _brute_force_report(2, 2, 2)
    assert (full.assignments, full.hypothesis_count, full.witness_count) == (19683, 1023, 1023)
    assert (full.failures, full.nontrivial_count) == ((), 0)


@pytest.mark.parametrize("shape", SWEEPABLE)
def test_every_trivial_cover_has_a_witness_by_the_per_code_reference(shape):
    # the closed form counts the covers with a full part and credits each with a
    # witness; here each one is built and judged alone instead
    scanner = cubes._LatticeScanner(*shape)
    box = (1 << len(scanner.points)) - 1
    trivial = 0
    for code in range(scanner.radix ** len(scanner.points)):
        parts = scanner.parts_of(code)
        if box in parts:
            trivial += 1
            outcome = scanner.outcome(parts)
            assert outcome.hypothesis_ok and outcome.witness is not None, code
    assert trivial == cubes._trivial_cover_count(scanner.num_parts, len(scanner.points))


def test_exhaustive_search_freezes_the_first_shapes_with_nontrivial_covers():
    report = exhaustive_lattice_search(2, 3, 2, budget=3**16)
    assert (report.assignments, report.hypothesis_count, report.witness_count) == (
        3**16,
        131_123,
        131_123,
    )
    assert (report.failures, report.nontrivial_count) == ((), 52)
    report = exhaustive_lattice_search(2, 4, 2, budget=3**25)
    assert (report.assignments, report.hypothesis_count, report.witness_count) == (
        3**25,
        67_121_611,
        67_121_611,
    )
    assert (report.failures, report.nontrivial_count) == ((), 12_748)
    # the rest are the trivial covers of the closed form: 2 * 2^25 - 1
    assert report.hypothesis_count - report.nontrivial_count == 2 * 2**25 - 1


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 1, 2), (3, 1, 3)])
def test_branching_alone_finds_no_nontrivial_cover_where_a_ball_fills_the_box(
    monkeypatch, shape
):
    scanner = cubes._LatticeScanner(*shape)
    assert scanner.fills_box()
    expected = exhaustive_lattice_search(*shape)
    assert expected.nontrivial_count == 0
    monkeypatch.setattr(cubes._LatticeScanner, "fills_box", lambda self: False)
    assert exhaustive_lattice_search(*shape) == expected


def test_a_lossy_hunt_fails_exactly_its_chosen_nontrivial_covers(monkeypatch):
    hunt = cubes._LatticeScanner.witness
    hunted = []

    def lossy_hunt(scanner, parts):
        code = _code_of(scanner, parts)
        hunted.append(code)
        return None if code % 3 == 0 else hunt(scanner, parts)

    monkeypatch.setattr(cubes._LatticeScanner, "witness", lossy_hunt)
    report = exhaustive_lattice_search(2, 3, 2, budget=3**16)
    monkeypatch.undo()
    # trivial covers are credited, not hunted: only the 52 nontrivial ones reach the hunt
    assert len(hunted) == len(set(hunted)) == report.nontrivial_count == 52
    assert report.failures == tuple(sorted(code for code in hunted if code % 3 == 0))
    assert 0 < len(report.failures) < 52
    assert report.witness_count == report.hypothesis_count - len(report.failures)
    scanner = cubes._LatticeScanner(2, 3, 2)
    points = scanner.points
    for code in report.failures:
        parts = scanner.parts_of(code)
        cover = [[x for j, x in enumerate(points) if part >> j & 1] for part in parts]
        assert all(len(part) < len(points) for part in cover), code
        outcome = lattice_cover_witness(2, 3, cover)
        assert outcome.hypothesis_ok and outcome.witness is not None, code
    # the per-code scan judges the hunted codes alone and finds them all nontrivial
    assert cubes._scan_lattice_codes(scanner, hunted) == (52, 52, [], 52)


def test_exhaustive_search_worker_count_is_immaterial():
    assert exhaustive_lattice_search(2, 1, 2, workers=2) == exhaustive_lattice_search(
        2, 1, 2
    )
    assert exhaustive_lattice_search(2, 2, 2, workers=2) == exhaustive_lattice_search(
        2, 2, 2
    )
    assert exhaustive_lattice_search(
        2, 3, 2, workers=2, budget=3**16
    ) == exhaustive_lattice_search(2, 3, 2, budget=3**16)


def test_exhaustive_search_has_no_recursion_limit():
    # one code over 1681 points, each a level of the depth-first sweep: deeper
    # than Python's default recursion limit of 1000
    report = exhaustive_lattice_search(2, 40, 1)
    assert (report.assignments, report.hypothesis_count, report.witness_count) == (1, 1, 1)


def test_exhaustive_search_rejects_excess_parts():
    with pytest.raises(ValueError):
        exhaustive_lattice_search(1, 2, 2)


@pytest.mark.parametrize(
    "n, k, num_parts, field",
    [(2, 0, 1, "k"), (1, -1, 1, "k"), (0, 2, 1, "n"), (2, 2, 0, "num_parts")],
)
def test_degenerate_lattice_sizes_are_rejected(n, k, num_parts, field):
    with pytest.raises(ValueError, match=f"lattice {field} must be at least 1"):
        exhaustive_lattice_search(n, k, num_parts)
    with pytest.raises(ValueError, match=f"lattice {field} must be at least 1"):
        sampled_lattice_search(n, k, num_parts, 3)


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_search_rejects_non_positive_sample_counts(samples):
    with pytest.raises(ValueError, match=f"lattice samples must be at least 1, got {samples}"):
        sampled_lattice_search(2, 2, 2, samples)


def test_cover_witness_rejects_an_empty_cover():
    with pytest.raises(ValueError, match="num_parts"):
        lattice_cover_witness(1, 2, [])


def test_exhaustive_search_is_sized_against_the_budget(monkeypatch):
    # (2,2,2) has 3^9 = 19683 codes: one code over the budget refuses the sweep
    with pytest.raises(BudgetExceededError, match=r"3\^\(3\^2\)"):
        exhaustive_lattice_search(2, 2, 2, budget=19682)
    assert exhaustive_lattice_search(2, 2, 2, budget=19683).assignments == 19683

    def no_scanner(*args):
        raise AssertionError("an oversized sweep must be refused before its scanner is built")

    monkeypatch.setattr(cubes, "_LatticeScanner", no_scanner)
    with pytest.raises(BudgetExceededError):
        exhaustive_lattice_search(3, 2, 2)  # 3^27 codes
    with pytest.raises(BudgetExceededError):
        exhaustive_lattice_search(10**3, 1, 2)  # the count is never expanded


def test_exhaustive_search_sizes_its_scanner_against_the_budget(monkeypatch):
    # (2,20,1) is one code over 21^2 = 441 points, which the scanner relates pairwise
    assert exhaustive_lattice_search(2, 20, 1, budget=441**2).assignments == 1

    def no_scanner(*args):
        raise AssertionError("an oversized scanner must be refused before it is built")

    monkeypatch.setattr(cubes, "_LatticeScanner", no_scanner)
    with pytest.raises(BudgetExceededError, match=r"\(21\^2\)\^2 point pairs"):
        exhaustive_lattice_search(2, 20, 1, budget=441**2 - 1)
    with pytest.raises(BudgetExceededError):
        exhaustive_lattice_search(2, 20, 1, budget=1000)


def test_huge_worker_count_on_one_cpu_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU sweep must run in this process")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert exhaustive_lattice_search(2, 1, 2, workers=10**9) == exhaustive_lattice_search(
        2, 1, 2
    )


def test_many_workers_on_many_cpus_still_sweep_in_this_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("every branch must be swept in this process")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    report = exhaustive_lattice_search(2, 3, 2, workers=4, budget=3**16)
    assert report == exhaustive_lattice_search(2, 3, 2, budget=3**16)
    assert report.nontrivial_count == 52


def test_sampled_search_is_seeded():
    a = sampled_lattice_search(2, 2, 2, 50, seed=7)
    b = sampled_lattice_search(2, 2, 2, 50, seed=7)
    assert a == b
    assert a.assignments == 50
    assert a.failures == ()
    assert a.nontrivial_count == 0  # every cover of (2,2,2) passing the hypothesis is trivial


def test_sampled_search_rejects_excess_parts():
    with pytest.raises(ValueError, match="at most 1 parts"):
        sampled_lattice_search(1, 2, 2, 200, seed=0)


# -- r-cubes ---------------------------------------------------------------------


def test_cube_requires_full_vertex_set():
    with pytest.raises(ValueError):
        RCube(1, 2, Fraction(2), {(0,): 0, (1,): 1})


def test_cube_edges_and_pairs():
    cube = RCube(1, 2, Fraction(2), {(0,): 0, (1,): 1, (2,): 2})
    assert list(cube.edges()) == [((0,), (1,)), ((1,), (2,))]
    assert len(list(cube.vertex_pairs())) == 3
    square = RCube(
        2, 2, Fraction(2), {p: p for p in lattice_points(2, 2)}
    )
    assert len(list(square.edges())) == 12
    assert len(list(square.vertex_pairs())) == 36


# -- obstructions ------------------------------------------------------------------


def test_cube_obstruction_measures_separation(z):
    z2 = ProductGroup(z, z)
    points = lattice_points(2, 2)
    view = GroupWindowView(z2, points, LengthOracle(z2))
    cube = RCube(2, 2, Fraction(2), {p: p for p in points})
    full = cover_of([points, points])
    obs = cube_obstruction(view, full, cube)
    assert obs.part_index == 1
    assert obs.lattice_spread == 2
    assert obs.separation == 2
    assert l1(obs.a, obs.b) >= 2


def test_cube_obstruction_requires_lebesgue_gate(z):
    z2 = ProductGroup(z, z)
    points = lattice_points(2, 2)
    view = GroupWindowView(z2, points, LengthOracle(z2))
    cube = RCube(2, 2, Fraction(2), {p: p for p in points})
    straddle = cover_of(
        [
            [(x, y) for x in (0, 1) for y in (0, 1, 2)],
            [(x, y) for x in (1, 2) for y in (0, 1, 2)],
        ]
    )
    with pytest.raises(ValueError, match="Lebesgue"):
        cube_obstruction(view, straddle, cube)


def test_cube_obstruction_rejects_excess_parts():
    view = GroupWindowView(IntegerGroup(), range(5))
    cube = RCube(1, 2, Fraction(2), {(0,): 0, (1,): 2, (2,): 4})
    two_parts = cover_of([range(0, 3), range(2, 5)])
    with pytest.raises(ValueError):
        cube_obstruction(view, two_parts, cube)


# -- kernel cubes -------------------------------------------------------------------


def test_build_kernel_cube_line_frozen(lamplighter):
    ctx = lamplighter
    kcube = build_kernel_cube(ctx, 1, 2)
    cube = kcube.cube
    # gamma(2) = 3 on the line, so k = 3 and the scale is 3r = 6.
    assert (cube.n, cube.k, cube.scale) == (1, 3, Fraction(6))
    assert {p: ctx.format_element(g) for p, g in cube.vertices.items()} == {
        (0,): "{}|0",
        (1,): "{0:1}|0",
        (2,): "{0:1,-1:1}|0",
        (3,): "{0:1,-1:1,1:1}|0",
    }
    assert kcube.index_table == {(1, 1): 0, (2, 1): -1, (3, 1): 1}
    assert kcube.lamp_value == 1
    assert set(kcube.edge_bounds.values()) == {1, 3}


def test_kernel_cube_vertices_differ_by_one_bulb(lamplighter):
    ctx = lamplighter
    kcube = build_kernel_cube(ctx, 1, 2)
    for (a, b) in kcube.cube.edges():
        diff = ctx.multiply(ctx.inverse(kcube.cube.vertices[a]), kcube.cube.vertices[b])
        assert diff.cursor == 0 and len(diff.lamps) == 1


def test_kernel_cube_edges_within_bound(lamplighter):
    ctx = lamplighter
    kcube = build_kernel_cube(ctx, 1, 2)
    for (a, b), bound in kcube.edge_bounds.items():
        ga, gb = kcube.cube.vertices[a], kcube.cube.vertices[b]
        diff = ctx.multiply(ctx.inverse(ga), gb)
        assert word_length(ctx, diff) <= bound
        assert bound < kcube.cube.scale


def test_build_kernel_cube_rejects_oversized_k(lamplighter):
    # n = 4 forces k to zero: nothing to certify.
    with pytest.raises(ValueError):
        build_kernel_cube(lamplighter, 4, 2)


def test_build_kernel_cube_refuses_a_ball_too_shallow_for_its_scale(lamplighter, monkeypatch):
    def built(*args):
        raise AssertionError("a vertex was built")

    monkeypatch.setattr(WreathContext, "_from_lamps", built)
    # the 1/4-ball is the identity alone: k = 1, whose one index has bound 1 >= 3/4
    with pytest.raises(ValueError, match=r"^edge bound 1 is not below the cube scale 3/4; "):
        build_kernel_cube(lamplighter, 1, Fraction(1, 4))


def test_build_kernel_cube_exact_fit(lamplighter):
    # gamma(2) = 3 indices split exactly into three axes of one step each.
    kcube = build_kernel_cube(lamplighter, 3, 2)
    assert (kcube.cube.n, kcube.cube.k) == (3, 1)


# -- certificates --------------------------------------------------------------------


def test_certificate_line_frozen(lamplighter):
    cert = growth_lower_bound_certificate(lamplighter, 1, 3)
    payload = cert.to_json_dict()
    assert payload["schema"] == "kernel-cube-certificate/1"
    assert payload["n"] == 1
    assert payload["k"] == 5
    assert payload["growth_at_r"] == 5
    assert payload["scale"] == "9"
    assert payload["claim"] == {
        "lebesgue_scale": "9",
        "component_scale": "9",
        "control_lower_bound": 5,
    }
    assert len(payload["pairs"]) == 15
    assert payload["spec"] == lamplighter.spec_string()
    assert payload["spec_hash"] == lamplighter.spec_hash


def test_certificate_refuses_an_oracle_of_another_base(lamplighter):
    # a C3 oracle would certify growth 3 and k 3 where Z gives 5 and 5
    with pytest.raises(StructureError, match="different marked group"):
        growth_lower_bound_certificate(
            lamplighter, 1, 3, base_oracle=LengthOracle(CyclicGroup(3))
        )


def test_certificate_pairs_have_unit_lipschitz_inverse(lamplighter):
    cert = growth_lower_bound_certificate(lamplighter, 1, 2)
    for pair in cert.to_json_dict()["pairs"]:
        assert pair["separation"] >= pair["l1"]


def test_certificate_plane_instance(plane_lamplighter):
    cert = growth_lower_bound_certificate(plane_lamplighter, 2, 2)
    payload = cert.to_json_dict()
    # gamma(2) = 5 on the plane, so k = floor(5/2) = 2.
    assert payload["k"] == 2
    assert payload["claim"]["control_lower_bound"] == 2
    assert len(payload["pairs"]) == 36


def test_certificate_pair_sample_is_seeded(plane_lamplighter):
    # W2 at n = 2, r = 3 has 1,176 vertex pairs, so a seeded sample is checked
    kcube = build_kernel_cube(plane_lamplighter, 2, 3)
    order = {pair: i for i, pair in enumerate(kcube.cube.vertex_pairs())}
    assert len(order) == 1176
    sample = cubes.lipschitz_pairs(kcube, seed=0)
    assert len(sample) == cubes.PAIR_LIMIT == 256
    ranks = [order[a, b] for a, b, _, _ in sample]
    assert ranks == sorted(set(ranks))
    assert cubes.lipschitz_pairs(kcube, seed=0) == sample
    assert cubes.lipschitz_pairs(kcube, seed=1) != sample
    assert all(dist == l1(a, b) == sep for a, b, dist, sep in sample)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n, count", [(2, 1176), (4, 32640)])
def test_pair_sample_picks_what_sampling_the_listed_pairs_picks(plane_lamplighter, n, count, seed):
    # lipschitz_pairs samples pair ranks and never lists the pairs
    kcube = build_kernel_cube(plane_lamplighter, n, 3)
    pairs = list(kcube.cube.vertex_pairs())
    assert len(pairs) == count
    ranks = sorted(random.Random(seed).sample(range(len(pairs)), cubes.PAIR_LIMIT))
    sample = cubes.lipschitz_pairs(kcube, seed=seed)
    assert [(a, b) for a, b, _, _ in sample] == [pairs[i] for i in ranks]


def test_certificate_never_lists_the_vertex_pairs(plane_lamplighter, monkeypatch):
    def listed(self):
        raise AssertionError("the certificate listed every vertex pair")

    monkeypatch.setattr(RCube, "vertex_pairs", listed)
    cert = growth_lower_bound_certificate(plane_lamplighter, 4, 3)
    assert (cert.kcube.cube.k, len(cert.pair_evidence)) == (3, cubes.PAIR_LIMIT)


def test_kernel_cube_is_sized_against_the_budget_before_it_is_built(plane_lamplighter, monkeypatch):
    def built(*args):
        raise AssertionError("a vertex was built")

    monkeypatch.setattr(WreathContext, "_from_lamps", built)
    # k = 45: 46^4 = 4,477,456 vertices fit the default budget, their edges do not
    with pytest.raises(BudgetExceededError, match="17520480 edge bounds"):
        build_kernel_cube(plane_lamplighter, 4, 10)
    # k = 6: 49 vertices and 2 * 6 * 7 = 84 edge bounds
    base = plane_lamplighter.base
    with pytest.raises(BudgetExceededError, match="49 vertices and 84 edge bounds"):
        build_kernel_cube(plane_lamplighter, 2, 3, base_oracle=LengthOracle(base, budget=83))
    monkeypatch.undo()
    kcube = build_kernel_cube(plane_lamplighter, 2, 3, base_oracle=LengthOracle(base, budget=84))
    assert len(kcube.edge_bounds) == 84


@pytest.mark.parametrize("fixture, n, r", [("lamplighter", 1, 3), ("plane_lamplighter", 2, 2)])
def test_certificate_separates_every_vertex_pair_by_l1(request, fixture, n, r):
    cert = growth_lower_bound_certificate(request.getfixturevalue(fixture), n, r)
    vertices = (cert.kcube.cube.k + 1) ** n
    assert len(cert.pair_evidence) == vertices * (vertices - 1) // 2
    assert all(sep == dist for _, _, dist, sep in cert.pair_evidence)
