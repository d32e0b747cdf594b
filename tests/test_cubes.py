"""Lattice witnesses, r-cubes, and kernel cube certificates."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
from fractions import Fraction

import pytest

from wreathdim import (
    ExplicitMetricView,
    GroupWindowView,
    LatticeOutcome,
    LengthOracle,
    ProductGroup,
    RCube,
    build_kernel_cube,
    cover_of,
    cube_obstruction,
    exhaustive_lattice_search,
    growth_lower_bound_certificate,
    kernel_bulbs,
    l1,
    lattice_cover_witness,
    lattice_points,
    r_components,
    sampled_lattice_search,
    verify_cube_edges,
    word_length,
)
from wreathdim.cubes import _pool_size


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


def _reference_outcome(n, k, parts):
    """The lattice lemma's check straight from its definitions, for comparison."""
    points = lattice_points(n, k)
    view = ExplicitMetricView(points, l1)
    part_sets = [set(part) for part in parts]
    for x in points:
        ball = {y for y in points if l1(x, y) <= n}
        if not any(ball <= part for part in part_sets):
            return LatticeOutcome(False, x, None)
    for i, part in enumerate(part_sets, start=1):
        for comp in r_components(view, [x for x in points if x in part], 2):
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


def test_exhaustive_search_tallies_single_cover_outcomes():
    outcomes = [lattice_cover_witness(2, 1, _cover(2, 1, 2, code)) for code in range(81)]
    report = exhaustive_lattice_search(2, 1, 2)
    assert report.hypothesis_count == sum(o.hypothesis_ok for o in outcomes)
    assert report.witness_count == sum(o.witness is not None for o in outcomes)
    assert report.failures == tuple(
        code for code, o in enumerate(outcomes) if o.hypothesis_ok and o.witness is None
    )


def test_exhaustive_search_worker_count_is_immaterial():
    assert exhaustive_lattice_search(2, 1, 2, workers=2) == exhaustive_lattice_search(
        2, 1, 2
    )


def test_exhaustive_search_rejects_excess_parts():
    with pytest.raises(ValueError):
        exhaustive_lattice_search(1, 2, 2)


def test_pool_size_is_bounded_by_cpus_and_chunks():
    assert _pool_size(10**9, 2, 10**12) == 2
    assert _pool_size(10**9, 10**6, 3) == 3
    assert _pool_size(4, 10**6, 10**12) == 4
    assert _pool_size(10**9, 10**6, 0) == 1
    assert _pool_size(0, 8, 8) == 1


def test_huge_worker_count_on_one_cpu_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU sweep must run in this process")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert exhaustive_lattice_search(2, 1, 2, workers=10**9) == exhaustive_lattice_search(
        2, 1, 2
    )


def test_sampled_search_is_seeded():
    a = sampled_lattice_search(2, 2, 2, 50, seed=7)
    b = sampled_lattice_search(2, 2, 2, 50, seed=7)
    assert a == b
    assert a.assignments == 50
    assert a.failures == ()


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


def test_verify_cube_edges_strict_threshold():
    tight = RCube(1, 2, Fraction(2), {(0,): 0, (1,): 1, (2,): 2})
    spread = RCube(1, 2, Fraction(2), {(0,): 0, (1,): 2, (2,): 4})
    dist_lt = lambda a, b, r: abs(a - b) < r
    assert verify_cube_edges(tight, dist_lt) == []
    assert verify_cube_edges(spread, dist_lt) == [((0,), (1,)), ((1,), (2,))]


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
    view_points = list(range(5))
    import wreathdim

    view = wreathdim.ExplicitMetricView(view_points, lambda a, b: abs(a - b))
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
        assert len(kernel_bulbs(ctx, diff).bulbs) == 1


def test_kernel_cube_edges_within_bound(lamplighter):
    ctx = lamplighter
    kcube = build_kernel_cube(ctx, 1, 2)
    for (a, b), bound in kcube.edge_bounds.items():
        ga, gb = kcube.cube.vertices[a], kcube.cube.vertices[b]
        diff = ctx.multiply(ctx.inverse(ga), gb)
        assert word_length(ctx, diff) <= bound
        assert bound < kcube.cube.scale


def test_build_kernel_cube_k_override(lamplighter):
    kcube = build_kernel_cube(lamplighter, 1, 2, k=2)
    assert kcube.cube.k == 2
    assert len(kcube.cube.vertices) == 3


def test_build_kernel_cube_rejects_oversized_k(lamplighter):
    with pytest.raises(ValueError):
        build_kernel_cube(lamplighter, 1, 2, k=5)
    # n = 4 forces the default k to zero: nothing to certify.
    with pytest.raises(ValueError):
        build_kernel_cube(lamplighter, 4, 2)


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


@pytest.mark.parametrize("fixture, n, r", [("lamplighter", 1, 3), ("plane_lamplighter", 2, 2)])
def test_certificate_separates_every_vertex_pair_by_l1(request, fixture, n, r):
    cert = growth_lower_bound_certificate(request.getfixturevalue(fixture), n, r)
    vertices = (cert.kcube.cube.k + 1) ** n
    assert len(cert.pair_evidence) == vertices * (vertices - 1) // 2
    assert all(sep == dist for _, _, dist, sep in cert.pair_evidence)
