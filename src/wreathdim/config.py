"""Declarative configuration of marked groups and wreath products.

The format is INI, one ``[group <name>]`` or ``[wreath <name>]`` section per
structure; run settings (radii, budget, format, ...) are command-line flags.
Element literals use each kind's text form: plain integers for the integer,
cyclic, and table kinds; letter words like ``abA`` (capitals are inverses,
``e`` the identity) for free groups; ``(left|right)`` pairs for products;
``(i|e)`` coset index and exponent pairs for vz wrappers; and
``{pos:val,...}|cursor`` for wreath products.  Literals nest and hold no
whitespace; docs/FORMAT.md gives the grammar.  Lists are whitespace-separated.
Radii accept integers, fractions like ``5/2``, and inclusive integer ranges
like ``1..6``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError, EncodingError, StructureError
from .groups import (
    CyclicGroup,
    FreeGroup,
    IntegerGroup,
    MarkedGroup,
    ProductGroup,
    TableGroup,
    VirtuallyZGroup,
    VirtuallyZStructure,
    _INTEGER,
    match_at,
)
from .wreath import WreathContext

#: Configuration equivalent to what `wreathdim verify` uses with no --config.
DEFAULT_CONFIG = """\
# Marked groups and wreath products for the built-in verification suite.
# Element literals: integers for integer/cyclic/table kinds, letter words
# (capitals = inverses) for free groups, (left|right) pairs for products,
# (i|e) pairs for vz wrappers, {pos:val,...}|cursor for wreath products.

[group Z]
kind = integers
generators = 1
# infinite cyclic structure: t = 1, one coset rep, no distortion
vz_t = 1
vz_reps = 0
vz_distortion = 1

[group C2]
kind = cyclic
modulus = 2

[group C3]
kind = cyclic
modulus = 3

[group F2]
kind = free
rank = 2

[group Z2]
kind = product
left = Z
right = Z

[group ZxC2]
kind = product
left = Z
right = C2
vz_t = (1|0)
vz_reps = (0|0) (0|1)
vz_distortion = 1

[wreath L2]
fiber = C2
base = Z

[wreath W2]
fiber = C2
base = Z2
"""


@dataclass
class ExperimentSetup:
    """The declared structures, by name."""

    groups: dict[str, MarkedGroup] = field(default_factory=dict)
    wreaths: dict[str, WreathContext] = field(default_factory=dict)
    structures: dict[str, VirtuallyZStructure] = field(default_factory=dict)

    def context(self, name: str):
        """Look up a group or wreath context by declared name."""
        if name in self.wreaths:
            return self.wreaths[name]
        if name in self.groups:
            return self.groups[name]
        raise ConfigError(f"no group or wreath named {name!r} is declared")


def parse_radii(text: str) -> tuple[Fraction, ...]:
    out: list[Fraction] = []
    for item in text.replace(",", " ").split():
        if ".." in item:
            lo_text, _, hi_text = item.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ConfigError(f"bad radius range {item!r}; expected like 1..6") from None
            if hi < lo:
                raise ConfigError(f"empty radius range {item!r}")
            out.extend(Fraction(v) for v in range(lo, hi + 1))
        else:
            try:
                out.append(Fraction(item))
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad radius {item!r}") from None
    for r in out:
        if r <= 0:
            raise ConfigError(f"radius must be positive, got {r}")
    return tuple(out)


_KIND_KEYS = {
    "integers": {"kind", "generators", "vz_t", "vz_reps", "vz_distortion"},
    "cyclic": {"kind", "modulus", "generators", "vz_t", "vz_reps", "vz_distortion"},
    "free": {"kind", "rank", "generators", "vz_t", "vz_reps", "vz_distortion"},
    "table": {"kind", "table", "generators", "vz_t", "vz_reps", "vz_distortion"},
    "product": {"kind", "left", "right", "generators", "vz_t", "vz_reps", "vz_distortion"},
    "vz": {"kind", "base"},
}


def _read_int(text: str) -> int | None:
    """``text`` as one literal of the integer grammar ``-?[0-9]+``, or None."""
    try:
        digits, end = match_at(_INTEGER, text, 0)
    except EncodingError:
        return None
    return int(digits) if end == len(text) else None


def _section_int(section: configparser.SectionProxy, name: str, key: str) -> int:
    value = _read_int(section[key])
    if value is None:
        raise ConfigError(f"[group {name}] {key} = {section[key]!r} is not an integer")
    return value


def _section_ints(name: str, key: str, text: str) -> tuple[int, ...]:
    """The whitespace-separated integers of ``text``, all or part of the value of ``key``."""
    values = []
    for item in text.split():
        value = _read_int(item)
        if value is None:
            raise ConfigError(f"[group {name}] {key} holds {item!r}, which is not an integer")
        values.append(value)
    return tuple(values)


def _build_group(
    name: str, section: configparser.SectionProxy, groups: dict[str, MarkedGroup]
) -> MarkedGroup | None:
    """Build one group section; None when a product's factors are not ready yet."""
    kind = section.get("kind")
    if kind is None:
        raise ConfigError(f"[group {name}] is missing the key 'kind'")
    allowed = _KIND_KEYS.get(kind)
    if allowed is None:
        raise ConfigError(f"[group {name}] kind = {kind!r} is not a known kind")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"[group {name}] has an unexpected key {key!r} for kind {kind}")
    try:
        if kind == "integers":
            return IntegerGroup(_section_ints(name, "generators", section.get("generators", "1")))
        if kind == "cyclic":
            if "modulus" not in section:
                raise ConfigError(f"[group {name}] cyclic kind needs the key 'modulus'")
            modulus = _section_int(section, name, "modulus")
            gens_text = section.get("generators")
            gens = None if gens_text is None else _section_ints(name, "generators", gens_text)
            return CyclicGroup(modulus, gens)
        if kind == "free":
            if "rank" not in section:
                raise ConfigError(f"[group {name}] free kind needs the key 'rank'")
            rank = _section_int(section, name, "rank")
            proto = FreeGroup(rank)
            gens_text = section.get("generators")
            if gens_text is None:
                return proto
            return FreeGroup(rank, tuple(proto.parse_element(g) for g in gens_text.split()))
        if kind == "table":
            if "table" not in section or "generators" not in section:
                raise ConfigError(f"[group {name}] table kind needs keys 'table' and 'generators'")
            rows = [
                _section_ints(name, "table", row)
                for row in section["table"].split(";")
                if row.strip()
            ]
            gens = _section_ints(name, "generators", section["generators"])
            return TableGroup(rows, gens)
        if kind == "product":
            for key in ("left", "right"):
                if key not in section:
                    raise ConfigError(f"[group {name}] product kind needs the key {key!r}")
            left_name, right_name = section["left"], section["right"]
            if left_name not in groups or right_name not in groups:
                return None  # factor not built yet; retried by the resolution loop
            proto = ProductGroup(groups[left_name], groups[right_name])
            gens_text = section.get("generators")
            if gens_text is None:
                return proto
            return ProductGroup(
                groups[left_name],
                groups[right_name],
                tuple(proto.parse_element(g) for g in gens_text.split()),
            )
        # kind == "vz": wrap an already-declared group through its structure
        if "base" not in section:
            raise ConfigError(f"[group {name}] vz kind needs the key 'base'")
        return None  # resolved in a second pass once structures exist
    except ConfigError:
        raise
    except (ValueError, EncodingError, StructureError) as exc:
        raise ConfigError(f"[group {name}]: {exc}") from exc


def _build_structure(
    name: str, section: configparser.SectionProxy, group: MarkedGroup
) -> VirtuallyZStructure | None:
    if "vz_t" not in section:
        for key in ("vz_reps", "vz_distortion"):
            if key in section:
                raise ConfigError(f"[group {name}] has {key} but no vz_t")
        return None
    if "vz_reps" not in section:
        raise ConfigError(f"[group {name}] has vz_t but no vz_reps")
    try:
        t = group.parse_element(section["vz_t"])
        reps = tuple(group.parse_element(r) for r in section["vz_reps"].split())
        distortion = Fraction(section.get("vz_distortion", "1"))
        return VirtuallyZStructure(group, t, reps, distortion)
    except (ValueError, ZeroDivisionError, EncodingError, StructureError) as exc:
        raise ConfigError(f"[group {name}] vz structure: {exc}") from exc


def parse_config(text: str) -> ExperimentSetup:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not valid INI: {exc}") from exc

    setup = ExperimentSetup()
    group_sections: dict[str, configparser.SectionProxy] = {}
    wreath_sections: dict[str, configparser.SectionProxy] = {}
    for section_name in parser.sections():
        words = section_name.split()
        if len(words) != 2 or words[0] not in ("group", "wreath"):
            raise ConfigError(
                f"section [{section_name}] must be [group <name>] or [wreath <name>]"
            )
        label, name = words
        if name in group_sections or name in wreath_sections:
            raise ConfigError(f"the name {name!r} is declared twice")
        if label == "group":
            group_sections[name] = parser[section_name]
        else:
            wreath_sections[name] = parser[section_name]

    pending = dict(group_sections)
    while pending:
        built = []
        for name, section in pending.items():
            if section.get("kind") == "vz":
                continue
            group = _build_group(name, section, setup.groups)
            if group is not None:
                setup.groups[name] = group
                built.append(name)
        if not built:
            stuck = [n for n, s in pending.items() if s.get("kind") != "vz"]
            if stuck:
                raise ConfigError(
                    f"[group {stuck[0]}] references groups that are never declared"
                )
            break
        for name in built:
            del pending[name]

    for name, section in group_sections.items():
        if section.get("kind") == "vz":
            continue
        structure = _build_structure(name, section, setup.groups[name])
        if structure is not None:
            setup.structures[name] = structure

    for name, section in pending.items():
        # only vz wrappers remain
        for key in section:
            if key not in _KIND_KEYS["vz"]:
                raise ConfigError(f"[group {name}] has an unexpected key {key!r} for kind vz")
        base_name = section["base"]
        structure = setup.structures.get(base_name)
        if structure is None:
            raise ConfigError(
                f"[group {name}] wraps {base_name!r}, which has no vz structure declared"
            )
        try:
            setup.groups[name] = VirtuallyZGroup(structure)
        except (EncodingError, StructureError) as exc:
            raise ConfigError(f"[group {name}]: {exc}") from exc

    for name, section in wreath_sections.items():
        for key in section:
            if key not in ("fiber", "base"):
                raise ConfigError(f"[wreath {name}] has an unexpected key {key!r}")
        for key in ("fiber", "base"):
            if key not in section:
                raise ConfigError(f"[wreath {name}] needs the key {key!r}")
            if section[key] not in setup.groups:
                raise ConfigError(
                    f"[wreath {name}] {key} = {section[key]!r} is not a declared group"
                )
        try:
            setup.wreaths[name] = WreathContext(
                setup.groups[section["fiber"]], setup.groups[section["base"]]
            )
        except StructureError as exc:
            raise ConfigError(f"[wreath {name}]: {exc}") from exc

    return setup


def load_config(path: str) -> ExperimentSetup:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def default_setup() -> ExperimentSetup:
    return parse_config(DEFAULT_CONFIG)
