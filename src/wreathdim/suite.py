"""The built-in verification suite: ten exact checks on fixed desk-scale instances.

Each check exercises one proved statement end to end on instances small
enough for exhaustive search, comparing constructive bounds against
independent BFS oracles.  All checks are deterministic and exact; a failure
means either a bug or a refutation of the statement on that instance.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable

from .config import ExperimentSetup, default_setup
from .errors import ConfigError
from .covers import (
    GroupWindowView,
    ball_window,
    component_diameters,
    coset_cover,
    cover_of,
    growth_linear_bound,
    kernel_control_bound,
    max_diameter,
    pullback_cover,
    r_components,
    vz_closure_constant,
)
from .cubes import (
    exhaustive_lattice_search,
    growth_lower_bound_certificate,
    verify_cube_edges,
)
from .groups import (
    LengthOracle,
    evaluate_word,
    vz_distortion_constant,
    word_length,
)
from .wreath import (
    WreathElement,
    bulb_decompose,
    bulb_lower_bound,
    bulb_product,
    bulb_word,
    kernel_window,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict[str, Any]
    seconds: float


class _Suite:
    """Shared contexts and oracles for one run of the checks."""

    def __init__(self, setup: ExperimentSetup):
        self.setup = setup
        base = default_setup()
        self.Z = base.groups["Z"]
        self.F2 = base.groups["F2"]
        self.Z2 = base.groups["Z2"]
        self.ZxC2 = base.groups["ZxC2"]
        self.L2 = base.wreaths["L2"]
        self.W2 = base.wreaths["W2"]
        self.z_structure = base.structures["Z"]
        self.zxc2_structure = base.structures["ZxC2"]
        budget = setup.budget
        self.budget = budget
        self.workers = setup.workers
        self.oracle_L2 = LengthOracle(self.L2, budget=budget)
        self.oracle_Z = LengthOracle(self.Z, budget=budget)
        self.oracle_Z2 = LengthOracle(self.Z2, budget=budget)
        self.oracle_F2 = LengthOracle(self.F2, budget=budget)
        self.oracle_W2 = LengthOracle(self.W2, budget=budget)

    # -- check 1 ------------------------------------------------------------

    def check_bulb_length_lower_bound(self) -> tuple[bool, dict]:
        """Every product of n <= 4 bulbs at distinct positions |e| <= 3 has length >= n."""
        ctx = self.L2
        lamp = ctx.fiber.elements()[1]
        checked = 0
        worst_margin = None
        max_len = 0
        for n in range(1, 5):
            for support in itertools.combinations(range(-3, 4), n):
                product = bulb_product(ctx, [(e, lamp) for e in support])
                bound = bulb_lower_bound(product)
                length = self.oracle_L2.length(product)
                checked += 1
                max_len = max(max_len, length)
                margin = length - bound
                if worst_margin is None or margin < worst_margin:
                    worst_margin = margin
                if length < bound:
                    return False, {
                        "products": checked,
                        "violating_support": list(support),
                        "length": length,
                        "bound": bound,
                    }
        return True, {
            "products": checked,
            "max_length": max_len,
            "min_margin": worst_margin,
        }

    # -- check 2 ------------------------------------------------------------

    def check_bulb_word_bound(self) -> tuple[bool, dict]:
        """The explicit word for each of the 127 bulb products evaluates back within bound."""
        ctx = self.L2
        lamp = ctx.fiber.elements()[1]
        checked = 0
        max_letters = 0
        for n in range(1, 8):
            for support in itertools.combinations(range(-3, 4), n):
                product = bulb_product(ctx, [(e, lamp) for e in support])
                word = bulb_word(ctx, self.z_structure, product)
                value = evaluate_word(ctx, word.letters)
                checked += 1
                max_letters = max(max_letters, len(word.letters))
                if value != product:
                    return False, {"support": list(support), "reason": "wrong value"}
                if len(word.letters) > word.bound:
                    return False, {
                        "support": list(support),
                        "letters": len(word.letters),
                        "bound": word.bound,
                    }
        return True, {"products": checked, "max_letters": max_letters}

    # -- check 3 ------------------------------------------------------------

    def check_word_bulb_decomposition(self) -> tuple[bool, dict]:
        """All generator words of length <= 5 decompose into bulbs at short indices."""
        ctx = self.L2
        letters = ctx.symmetric_generators()
        words = 0
        kernel_words = 0
        for length in range(0, 6):
            for word in itertools.product(letters, repeat=length):
                value = evaluate_word(ctx, word)
                product, residual = bulb_decompose(ctx, word)
                words += 1
                if product != WreathElement(value.lamps, ctx.base.identity()):
                    return False, {"reason": "lamps differ", "word_length": length}
                if residual != value.cursor:
                    return False, {"reason": "cursor differs", "word_length": length}
                if value.cursor == ctx.base.identity():
                    kernel_words += 1
                    for index, _ in product.lamps:
                        if abs(index) > 5:
                            return False, {
                                "reason": "index outside the base 5-ball",
                                "index": index,
                            }
        return True, {"words": words, "kernel_words": kernel_words}

    # -- check 4 ------------------------------------------------------------

    def check_kernel_component_control(self) -> tuple[bool, dict]:
        """Kernel window components stay inside the (2r+1)*growth(r) diameter bound."""
        ctx = self.L2
        window = kernel_window(ctx, 10, oracle=self.oracle_L2)
        view = GroupWindowView(ctx, window, self.oracle_L2)
        rows = []
        for r in (1, 2, 3):
            bound = kernel_control_bound(ctx, r, base_oracle=self.oracle_Z)
            comps = r_components(view, None, r)
            worst = max_diameter(view, comps)
            rows.append(
                {
                    "r": r,
                    "components": len(comps),
                    "max_diameter": worst,
                    "bound": str(bound),
                }
            )
            if worst > bound:
                return False, {"window": len(window), "rows": rows}
        return True, {"window": len(window), "rows": rows}

    # -- check 5 ------------------------------------------------------------

    def check_kernel_cube_certificate(self) -> tuple[bool, dict]:
        """The 3x3 kernel cube over the plane: edges < 6 and 1-Lipschitz inverse."""
        ctx = self.W2
        cert = growth_lower_bound_certificate(ctx, 2, 2, base_oracle=self.oracle_Z2)
        cube = cert.kcube.cube
        if (cube.n, cube.k) != (2, 2):
            return False, {"n": cube.n, "k": cube.k, "reason": "unexpected cube shape"}
        bad_edges = verify_cube_edges(
            cube,
            lambda a, b, scale: self.oracle_W2.distance_at_most(
                a, b, int(scale) - 1
            )
            is not None,
        )
        if bad_edges:
            return False, {"bad_edges": [list(map(list, e)) for e in bad_edges]}
        # edge distances are exactly the constructive bounds here
        for (x, y), bound in cert.kcube.edge_bounds.items():
            d = self.oracle_W2.distance(cube.vertices[x], cube.vertices[y])
            if d != bound:
                return False, {"edge": [list(x), list(y)], "distance": d, "bound": bound}
        pairs = cert.pair_evidence
        if len(pairs) != 36:
            return False, {"pairs": len(pairs), "reason": "expected all 36 vertex pairs"}
        for a, b, want, got in pairs:
            if got != want:
                return False, {"pair": [list(a), list(b)], "l1": want, "separation": got}
        return True, {
            "k": cube.k,
            "edges": len(cert.kcube.edge_bounds),
            "pairs": len(pairs),
            "max_edge_bound": max(cert.kcube.edge_bounds.values()),
        }

    # -- check 6 ------------------------------------------------------------

    def check_lattice_witness_exhaustive(self) -> tuple[bool, dict]:
        """All 19683 two-part covers of the 3x3 lattice obey the spread witness claim."""
        report = exhaustive_lattice_search(2, 2, 2, workers=self.workers)
        ok = report.assignments == 19683 and not report.failures
        return ok, {
            "assignments": report.assignments,
            "hypothesis_count": report.hypothesis_count,
            "witness_count": report.witness_count,
            "failures": list(report.failures[:10]),
        }

    # -- check 7 ------------------------------------------------------------

    def check_kernel_closure_cosets(self) -> tuple[bool, dict]:
        """Short-ball closures in the kernel stay below 8r and split components by coset."""
        ctx = self.L2
        window = kernel_window(ctx, 10, oracle=self.oracle_L2)
        view = GroupWindowView(ctx, window, self.oracle_L2)
        scale = vz_closure_constant(self.z_structure)
        if scale != 8:
            return False, {"reason": "closure constant for the line should be 8", "got": str(scale)}
        rows = []
        for r in (2, 3, 4):
            cc = coset_cover(ctx, window, r, oracle=self.oracle_L2, budget=self.budget)
            coset_index = {x: i for i, coset in enumerate(cc.cosets) for x in coset}
            split = all(
                len({coset_index[x] for x in comp}) == 1
                for comp in r_components(view, None, r)
            )
            rows.append(
                {
                    "r": r,
                    "closure_size": len(cc.closure),
                    "max_length": cc.max_length,
                    "scaled_bound": 8 * r,
                    "cosets": len(cc.cosets),
                    "components_split": split,
                }
            )
            if cc.max_length >= 8 * r or not split:
                return False, {"rows": rows}
        return True, {"rows": rows}

    # -- check 8 ------------------------------------------------------------

    def check_pullback_cover_control(self) -> tuple[bool, dict]:
        """An interval cover of the line pulls back to a controlled cover of the ball."""
        r = 2
        view = ball_window(self.oracle_L2, 8)
        sub_points = tuple(range(-20, 21))
        sub_view = GroupWindowView(self.Z, sub_points, self.oracle_Z)
        sub_cover = cover_of({a for a in sub_points if ((a - 8 * j) % 16) <= 11} for j in (0, 1))
        result = pullback_cover(view, sub_view, sub_cover, r)
        if result.base_control != 11:
            return False, {"base_control": str(result.base_control), "expected": 11}
        if result.predicted != 2314:
            return False, {"predicted": str(result.predicted), "expected": 2314}
        measured = component_diameters(view, result.cover, r)
        ok = measured.value <= result.predicted
        return ok, {
            "window": len(view.points),
            "base_control": result.base_control,
            "predicted": str(result.predicted),
            "measured": measured.value,
            "per_part": [str(v) for v in measured.per_part],
        }

    # -- check 9 ------------------------------------------------------------

    def check_growth_linear_bound(self) -> tuple[bool, dict]:
        """Growth of the declared virtually-Z groups stays under n*(3nCr + 1)."""
        cases = [
            ("Z", self.Z, self.z_structure, self.oracle_Z),
            ("ZxC2", self.ZxC2, self.zxc2_structure, LengthOracle(self.ZxC2, budget=self.budget)),
        ]
        rows = []
        for name, group, structure, oracle in cases:
            least = vz_distortion_constant(structure, 6, budget=self.budget)
            if least > structure.distortion:
                return False, {
                    "group": name,
                    "reason": "declared distortion constant is too small",
                    "needed": str(least),
                }
            for r in range(1, 7):
                got = oracle.growth(r)
                bound = growth_linear_bound(structure, r)
                rows.append({"group": name, "r": r, "growth": got, "bound": str(bound)})
                if got > bound:
                    return False, {"rows": rows}
        return True, {"rows": rows}

    # -- check 10 -----------------------------------------------------------

    def check_length_oracle_cross(self) -> tuple[bool, dict]:
        """Bidirectional lengths match ball tables; free-group growth matches word counts."""
        table = self.oracle_L2.ball(8)
        for w in table.elements:
            independent = word_length(self.L2, w, budget=self.budget)
            if independent != table.lengths[w]:
                return False, {
                    "element": self.L2.format_element(w),
                    "ball_length": table.lengths[w],
                    "bidirectional": independent,
                }
        # independent reduced-word enumeration in the free group
        words: set[tuple[int, ...]] = {()}
        frontier: list[tuple[int, ...]] = [()]
        for _ in range(4):
            nxt = []
            for word in frontier:
                for letter in (1, -1, 2, -2):
                    if word and word[-1] == -letter:
                        continue
                    new = word + (letter,)
                    if new not in words:
                        words.add(new)
                        nxt.append(new)
            frontier = nxt
        by_length: dict[int, set] = {}
        for word in words:
            by_length.setdefault(len(word), set()).add(word)
        expected = (1, 5, 17, 53, 161)
        rows = []
        for r in range(1, 6):
            got = self.oracle_F2.growth(r)
            independent_count = sum(len(by_length.get(l, ())) for l in range(r))
            rows.append({"r": r, "growth": got, "independent": independent_count})
            if got != expected[r - 1] or independent_count != expected[r - 1]:
                return False, {"rows": rows, "expected": list(expected)}
        ball5 = set(self.oracle_F2.ball(5).elements)
        if ball5 != set(words):
            return False, {"reason": "free ball and reduced words disagree as sets"}
        return True, {"checked_elements": len(table.elements), "rows": rows}


CHECKS: dict[str, str] = {
    "bulb-length-lower-bound": "check_bulb_length_lower_bound",
    "bulb-word-bound": "check_bulb_word_bound",
    "word-bulb-decomposition": "check_word_bulb_decomposition",
    "kernel-component-control": "check_kernel_component_control",
    "kernel-cube-certificate": "check_kernel_cube_certificate",
    "lattice-witness-exhaustive": "check_lattice_witness_exhaustive",
    "kernel-closure-cosets": "check_kernel_closure_cosets",
    "pullback-cover-control": "check_pullback_cover_control",
    "growth-linear-bound": "check_growth_linear_bound",
    "length-oracle-cross-check": "check_length_oracle_cross",
}


def run_suite(
    setup: ExperimentSetup | None = None,
    *,
    checks: Any = None,
) -> list[CheckResult]:
    """Run the verification checks (all, or the named subset) and report results."""
    setup = setup if setup is not None else default_setup()
    wanted = list(CHECKS) if not checks else list(checks)
    for name in wanted:
        if name not in CHECKS:
            raise ConfigError(
                f"unknown check {name!r}; available: {', '.join(CHECKS)}"
            )
    suite = _Suite(setup)
    results = []
    for name in wanted:
        fn: Callable[[], tuple[bool, dict]] = getattr(suite, CHECKS[name])
        start = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:  # a crashed check is a failed check, with the reason
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append(CheckResult(name, passed, details, time.perf_counter() - start))
    return results
