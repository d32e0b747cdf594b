"""Declarative INI configuration: parsing, defaults, and validation errors."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from wreathdim import ConfigError, LengthOracle, default_setup, load_config, parse_config
from wreathdim.config import MAX_RADII, parse_radii


# -- defaults ---------------------------------------------------------------


def test_default_setup_declares_standard_instances():
    setup = default_setup()
    assert sorted(setup.groups) == ["C2", "C3", "F2", "Z", "Z2", "ZxC2"]
    assert sorted(setup.wreaths) == ["L2", "W2"]
    assert sorted(setup.structures) == ["Z", "ZxC2"]


def test_default_setup_context_lookup():
    setup = default_setup()
    assert setup.context("Z").spec_string() == "integers(gens=1)"
    assert (
        setup.context("L2").spec_string()
        == "wreath(fiber=cyclic(n=2|gens=1)|base=integers(gens=1))"
    )


def test_context_lookup_unknown_name():
    with pytest.raises(ConfigError, match="NOPE"):
        default_setup().context("NOPE")


def test_default_structures_are_usable():
    setup = default_setup()
    st = setup.structures["ZxC2"]
    assert st.t == (1, 0)
    assert st.coset_reps == ((0, 0), (0, 1))
    assert st.distortion == 1


# -- radii ------------------------------------------------------------------


def test_parse_radii_range():
    assert parse_radii("1..4") == tuple(Fraction(r) for r in (1, 2, 3, 4))


def test_parse_radii_list_with_fractions():
    assert parse_radii("1 3/2 2") == (Fraction(1), Fraction(3, 2), Fraction(2))


def test_parse_radii_rejects_empty_range():
    with pytest.raises(ConfigError):
        parse_radii("6..1")


def test_parse_radii_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_radii("zero")


def test_parse_radii_counts_a_range_before_expanding_it():
    # a hundred million radii would take gigabytes; the count alone refuses them
    with pytest.raises(ConfigError, match=r"item '1\.\.100000000' brings the list to 100000000"):
        parse_radii("1..100000000")
    assert len(parse_radii(f"1..{MAX_RADII}")) == MAX_RADII
    with pytest.raises(ConfigError, match=rf"radius item '7/2' .* at most {MAX_RADII}"):
        parse_radii(f"1..{MAX_RADII - 1} 3 7/2")


@pytest.mark.parametrize(
    "text, message",
    [
        ("+1..3", "bad radius range"),
        ("١..٣", "bad radius range"),
        ("1..+3", "bad radius range"),
        ("1/2..3", "bad radius range"),
        ("1_0", "bad radius"),
        ("1e2", "bad radius"),
        ("1.5", "bad radius"),
        ("+4", "bad radius"),
        ("1/0", "bad radius"),
        ("1/-2", "bad radius"),
        ("1/", "bad radius"),
        ("3..1", "empty radius range"),
        ("-2", "radius must be positive"),
        ("0..2", "radius must be positive"),
        ("-3/2", "radius must be positive"),
    ],
)
def test_parse_radii_refuses_what_the_literal_grammar_refuses(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_radii(text)


@pytest.mark.parametrize(
    "text, radii",
    [
        ("4", (4,)),
        ("5/2", (Fraction(5, 2),)),
        ("6/3", (2,)),
        ("007", (7,)),
        ("2..2", (2,)),
        ("1/2, 2..3", (Fraction(1, 2), 2, 3)),
    ],
)
def test_parse_radii_accepts_integers_fractions_and_ranges(text, radii):
    assert parse_radii(text) == tuple(Fraction(r) for r in radii)


# -- parsing -----------------------------------------------------------------


def test_parse_config_forward_references_resolve():
    setup = parse_config(
        """
[group P]
kind = product
left = A
right = A

[group A]
kind = cyclic
modulus = 3
"""
    )
    assert (
        setup.groups["P"].spec_string()
        == "product(left=cyclic(n=3|gens=1)|right=cyclic(n=3|gens=1)|gens=(1|0),(0|1))"
    )


def test_parse_config_full_experiment():
    setup = parse_config(
        """
[group B]
kind = integers
generators = 1
vz_t = 1
vz_reps = 0

[group F]
kind = cyclic
modulus = 4
generators = 1 3

[wreath WL]
fiber = F
base = B
"""
    )
    assert (
        setup.wreaths["WL"].spec_string()
        == "wreath(fiber=cyclic(n=4|gens=1,3)|base=integers(gens=1))"
    )
    assert sorted(setup.structures) == ["B"]


def test_parse_config_structure_from_vz_keys():
    setup = parse_config(
        """
[group G]
kind = product
left = H
right = H
vz_t = (1|0)
vz_reps = (0|0) (0|1)
vz_distortion = 1

[group H]
kind = integers
generators = 1
"""
    )
    st = setup.structures["G"]
    assert st.t == (1, 0)
    assert st.coset_reps == ((0, 0), (0, 1))


def test_parse_config_table_kind():
    setup = parse_config("[group T]\nkind = table\ntable = 0 1;1 0\ngenerators = 1\n")
    assert setup.groups["T"].spec_string() == "table(rows=0.1;1.0|gens=1)"
    assert setup.groups["T"].order() == 2


@pytest.mark.parametrize(
    "text, spec, growth",
    [
        (
            "[group F]\nkind = free\nrank = 2\ngenerators = a ab\n",
            "free(rank=2|gens=a,ab)",
            [1, 5, 17, 53, 161],
        ),
        (
            "[group Z]\nkind = integers\n"
            "[group F]\nkind = product\nleft = Z\nright = Z\ngenerators = (1|0) (0|1) (1|1)\n",
            "product(left=integers(gens=1)|right=integers(gens=1)|gens=(1|0),(0|1),(1|1))",
            [1, 7, 19, 37, 61],
        ),
    ],
)
def test_parse_config_generators_mark_free_and_product_groups(text, spec, growth):
    group = parse_config(text).groups["F"]
    assert group.spec_string() == spec
    oracle = LengthOracle(group)
    assert [oracle.growth(r) for r in range(1, 6)] == growth


def test_parse_config_vz_wrapper_kind():
    setup = parse_config(
        """
[group Z]
kind = integers
generators = 1
vz_t = 1
vz_reps = 0

[group V]
kind = vz
base = Z
"""
    )
    assert setup.groups["V"].spec_string() == "vz(base=integers(gens=1)|t=1|reps=0)"


def test_vz_wrapper_requires_declared_structure():
    with pytest.raises(ConfigError, match="no vz structure"):
        parse_config("[group B]\nkind = integers\n[group V]\nkind = vz\nbase = B\n")


def test_vz_group_can_be_a_product_factor():
    setup = parse_config(
        """
[group P]
kind = product
left = V
right = Z

[group V]
kind = vz
base = Z

[group Z]
kind = integers
vz_t = 1
vz_reps = 0
"""
    )
    assert setup.groups["P"].spec_string() == (
        "product(left=vz(base=integers(gens=1)|t=1|reps=0)|right=integers(gens=1)"
        "|gens=((1|1)|0),((1|0)|1))"
    )


def test_vz_wrapper_of_an_undeclared_group_is_a_reference_error():
    message = r"^\[group V\] base = 'B': \[group B\] is never declared"
    with pytest.raises(ConfigError, match=message):
        parse_config("[group V]\nkind = vz\nbase = B\n")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[group A]\nkind = cyclic\nmodulus = 5\n")
    setup = load_config(path)
    assert setup.groups["A"].order() == 5


# -- validation ---------------------------------------------------------------


def test_rejects_unknown_section():
    with pytest.raises(ConfigError, match=r"\[walrus X\]"):
        parse_config("[walrus X]\nkind = integers\n")


def test_rejects_missing_kind():
    with pytest.raises(ConfigError, match="kind"):
        parse_config("[group A]\nmodulus = 2\n")


def test_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="quantum"):
        parse_config("[group A]\nkind = quantum\n")


def test_rejects_unexpected_key_naming_it():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config("[group A]\nkind = integers\nbogus = 3\n")


def test_rejects_unresolvable_product_reference():
    with pytest.raises(ConfigError, match="never declared"):
        parse_config("[group P]\nkind = product\nleft = X\nright = X\n")


def test_rejects_a_wreath_named_as_a_group():
    message = r"\[wreath M\] base = 'L': \[group L\] is never declared"
    with pytest.raises(ConfigError, match=message):
        parse_config(
            "[group C]\nkind = cyclic\nmodulus = 2\n"
            "[wreath L]\nfiber = C\nbase = C\n[wreath M]\nfiber = C\nbase = L\n"
        )


@pytest.mark.parametrize(
    "text, cycle",
    [
        (
            "[group P]\nkind = product\nleft = Q\nright = Q\n"
            "[group Q]\nkind = product\nleft = P\nright = P\n",
            "[group P] -> [group Q] -> [group P]",
        ),
        ("[group P]\nkind = product\nleft = P\nright = P\n", "[group P] -> [group P]"),
        (
            # the wreath and R wait on the cycle without being in it
            "[wreath W]\nfiber = C\nbase = R\n[group C]\nkind = cyclic\nmodulus = 2\n"
            "[group R]\nkind = product\nleft = Q\nright = C\n"
            "[group Q]\nkind = product\nleft = P\nright = C\n"
            "[group P]\nkind = product\nleft = Q\nright = Q\n",
            "[group Q] -> [group P] -> [group Q]",
        ),
    ],
)
def test_reference_cycle_is_reported_by_its_sections(text, cycle):
    with pytest.raises(ConfigError, match=rf"^reference cycle: {re.escape(cycle)}$"):
        parse_config(text)


@pytest.mark.parametrize(
    "section, key",
    [
        ("[group T]\nkind = table\ntable = 0 1;1 0\n", "generators"),
        ("[group T]\nkind = table\ngenerators = 1\n", "table"),
        ("[group F]\nkind = free\n", "rank"),
        ("[group P]\nkind = product\nleft = T\n", "right"),
        ("[group V]\nkind = vz\n", "base"),
        ("[wreath W]\nfiber = C\n", "base"),
    ],
)
def test_missing_key_is_named(section, key):
    where = section.split("\n", 1)[0]
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)} needs the key '{key}'$"):
        parse_config(section)


@pytest.mark.parametrize(
    "section, key",
    [
        ("[group V]\nkind = vz\nbase = Z\nvz_t = 1\n", "vz_t"),
        ("[wreath W]\nfiber = C\nbase = C\nkind = cyclic\n", "kind"),
        ("[group T]\nkind = table\ntable = 0\ngenerators = 0\nmodulus = 1\n", "modulus"),
    ],
)
def test_unexpected_key_is_named(section, key):
    where = section.split("\n", 1)[0]
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)} has an unexpected key '{key}'"):
        parse_config(section)


def test_rejects_wreath_with_undeclared_base():
    with pytest.raises(ConfigError, match="Qx"):
        parse_config(
            "[wreath L]\nfiber = C2\nbase = Qx\n"
            "[group C2]\nkind = cyclic\nmodulus = 2\n"
        )


@pytest.mark.parametrize("text", ["[experiment]\n", "[experiment]\ncache_dir = x\n"])
def test_experiment_section_is_rejected(text):
    # run settings are command-line flags; the config declares structures only
    with pytest.raises(ConfigError, match=r"section \[experiment\] must be"):
        parse_config(text)


def test_rejects_duplicate_sections():
    with pytest.raises(ConfigError):
        parse_config(
            "[group A]\nkind = cyclic\nmodulus = 2\n"
            "[group A]\nkind = cyclic\nmodulus = 3\n"
        )


def test_group_construction_errors_surface_as_config_errors():
    # A cyclic marking that cannot generate the group is caught at parse time.
    with pytest.raises((ConfigError, ValueError)):
        parse_config("[group A]\nkind = cyclic\nmodulus = 6\ngenerators = 2\n")


@pytest.mark.parametrize(
    "body, key",
    [
        ("kind = integers\ngenerators = +1_0", "generators"),
        ("kind = integers\ngenerators = 1 ١", "generators"),
        ("kind = integers\ngenerators = 1_0", "generators"),
        ("kind = cyclic\nmodulus = +3", "modulus"),
        ("kind = cyclic\nmodulus = ٣", "modulus"),
        ("kind = cyclic\nmodulus = 3\ngenerators = 0x1", "generators"),
        ("kind = free\nrank = 2.0", "rank"),
        ("kind = table\ntable = 0 1;1 +0\ngenerators = 1", "table"),
        ("kind = table\ntable = 0 1;1 0\ngenerators = １", "generators"),
    ],
)
def test_integer_keys_take_only_the_literal_grammar(body, key):
    # integers are -?[0-9]+ here as in element literals: no sign '+', no '_', ASCII digits
    with pytest.raises(ConfigError, match=rf"^\[group G\] {key} .*not an integer"):
        parse_config(f"[group G]\n{body}\n")


def test_negative_integer_keys_read_as_literals():
    setup = parse_config("[group C]\nkind = cyclic\nmodulus = 5\ngenerators = -1 2\n")
    assert setup.groups["C"].spec_string() == "cyclic(n=5|gens=4,2)"
