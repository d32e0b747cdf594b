"""Declarative configuration of marked groups and wreath products.

The format is INI, one ``[group <name>]`` or ``[wreath <name>]`` section per
structure; run settings (radii, budget, format, ...) are command-line flags.
Every section's keys are checked against one table of required and optional
keys by kind.  ``left``, ``right``, ``base`` and ``fiber`` name ``[group]``
sections declared anywhere in the file; a section is built once every group it
names is built, so a reference cycle is an error.  Values are element literals
in each kind's text form (docs/FORMAT.md gives the grammar), or whitespace-
separated lists of them.  Radii accept integers, fractions like ``5/2``, and
inclusive integer ranges like ``1..6``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError, EncodingError
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


#: Most radii one list may name, counted before any range is expanded.
MAX_RADII = 10_000


def parse_radii(text: str) -> tuple[Fraction, ...]:
    """Radii ``N``, ``N/M`` (``M > 0``) and ranges ``N..M``; every number is ``-?[0-9]+``.

    A list of more than ``MAX_RADII`` radii is refused at the item that
    crosses the limit, before that item is expanded.
    """
    out: list[Fraction] = []
    for item in text.replace(",", " ").split():
        if ".." in item:
            lo_text, _, hi_text = item.partition("..")
            lo, hi = _read_int(lo_text), _read_int(hi_text)
            if lo is None or hi is None:
                raise ConfigError(f"bad radius range {item!r}; expected like 1..6")
            if hi < lo:
                raise ConfigError(f"empty radius range {item!r}")
            # a range's length is counted, not taken: len() overflows past sys.maxsize
            count, values = hi - lo + 1, range(lo, hi + 1)
        else:
            num_text, slash, den_text = item.partition("/")
            num, den = _read_int(num_text), _read_int(den_text) if slash else 1
            if num is None or den is None or den < 1:
                raise ConfigError(f"bad radius {item!r}")
            count, values = 1, (Fraction(num, den),)
        if len(out) + count > MAX_RADII:
            raise ConfigError(
                f"radius item {item!r} brings the list to {len(out) + count} radii; "
                f"at most {MAX_RADII} are allowed"
            )
        out.extend(map(Fraction, values))
    for r in out:
        if r <= 0:
            raise ConfigError(f"radius must be positive, got {r}")
    return tuple(out)


_VZ_KEYS = ("vz_t", "vz_reps", "vz_distortion")

#: Keys by kind, as (required, optional).  A ``[group]`` section names its kind
#: with the key ``kind``; a ``[wreath]`` section is of the kind ``wreath``.
_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "integers": ((), ("generators", *_VZ_KEYS)),
    "cyclic": (("modulus",), ("generators", *_VZ_KEYS)),
    "free": (("rank",), ("generators", *_VZ_KEYS)),
    "table": (("table", "generators"), _VZ_KEYS),
    "product": (("left", "right"), ("generators", *_VZ_KEYS)),
    "vz": (("base",), ()),
    "wreath": (("fiber", "base"), ()),
}

#: Keys whose value is the name of a ``[group]`` section.
_REFERENCES = ("left", "right", "base", "fiber")


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


def _checked_kind(label: str, name: str, section: configparser.SectionProxy) -> str:
    """The kind of a section whose keys match ``_KEYS``; a ConfigError naming the key otherwise."""
    kind, keys = "wreath", list(section)
    if label == "group":
        kind = section.get("kind")
        if kind is None:
            raise ConfigError(f"[group {name}] is missing the key 'kind'")
        if kind not in _KEYS or kind == "wreath":
            raise ConfigError(f"[group {name}] kind = {kind!r} is not a known kind")
        keys.remove("kind")
    required, optional = _KEYS[kind]
    for key in keys:
        if key not in required and key not in optional:
            raise ConfigError(f"[{label} {name}] has an unexpected key {key!r} for kind {kind}")
    for key in required:
        if key not in keys:
            raise ConfigError(f"[{label} {name}] needs the key {key!r}")
    return kind


def _build_group(
    name: str, kind: str, section: configparser.SectionProxy, setup: ExperimentSetup
) -> MarkedGroup:
    """Build one section whose referenced groups are all built; a wreath is a group too."""
    if kind == "integers":
        return IntegerGroup(_section_ints(name, "generators", section.get("generators", "1")))
    if kind == "cyclic":
        gens_text = section.get("generators")
        gens = None if gens_text is None else _section_ints(name, "generators", gens_text)
        return CyclicGroup(_section_int(section, name, "modulus"), gens)
    if kind == "free":
        rank = _section_int(section, name, "rank")
        proto = FreeGroup(rank)
        gens_text = section.get("generators")
        if gens_text is None:
            return proto
        return FreeGroup(rank, tuple(proto.parse_element(g) for g in gens_text.split()))
    if kind == "table":
        rows = [_section_ints(name, "table", r) for r in section["table"].split(";") if r.strip()]
        return TableGroup(rows, _section_ints(name, "generators", section["generators"]))
    if kind == "product":
        left, right = setup.groups[section["left"]], setup.groups[section["right"]]
        proto = ProductGroup(left, right)
        gens_text = section.get("generators")
        if gens_text is None:
            return proto
        return ProductGroup(left, right, tuple(proto.parse_element(g) for g in gens_text.split()))
    if kind == "wreath":
        return WreathContext(setup.groups[section["fiber"]], setup.groups[section["base"]])
    # kind == "vz": wrap a declared group through its structure
    structure = setup.structures.get(section["base"])
    if structure is None:
        raise ConfigError(
            f"[group {name}] wraps {section['base']!r}, which has no vz structure declared"
        )
    return VirtuallyZGroup(structure)


def _add_structure(name: str, section: configparser.SectionProxy, setup: ExperimentSetup) -> None:
    """Build the vz structure a group section declares, if any, right after the group."""
    if "vz_t" not in section:
        for key in ("vz_reps", "vz_distortion"):
            if key in section:
                raise ConfigError(f"[group {name}] has {key} but no vz_t")
        return
    if "vz_reps" not in section:
        raise ConfigError(f"[group {name}] has vz_t but no vz_reps")
    group = setup.groups[name]
    try:
        t = group.parse_element(section["vz_t"])
        reps = tuple(group.parse_element(r) for r in section["vz_reps"].split())
        distortion = Fraction(section.get("vz_distortion", "1"))
        setup.structures[name] = VirtuallyZStructure(group, t, reps, distortion)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"[group {name}] vz structure: {exc}") from exc


def parse_config(text: str) -> ExperimentSetup:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not valid INI: {exc}") from exc

    # name -> ("[label name]", kind, section), each section's keys checked against _KEYS
    sections: dict[str, tuple[str, str, configparser.SectionProxy]] = {}
    for section_name in parser.sections():
        words = section_name.split()
        if len(words) != 2 or words[0] not in ("group", "wreath"):
            raise ConfigError(
                f"section [{section_name}] must be [group <name>] or [wreath <name>]"
            )
        label, name = words
        if name in sections:
            raise ConfigError(f"the name {name!r} is declared twice")
        section = parser[section_name]
        sections[name] = (f"[{label} {name}]", _checked_kind(label, name, section), section)

    refs: dict[str, list[str]] = {}  # name -> the [group] sections it references
    for name, (where, _, section) in sections.items():
        refs[name] = [section[key] for key in _REFERENCES if key in section]
        for key in _REFERENCES:
            value = section.get(key)
            if value is not None and (value not in sections or sections[value][1] == "wreath"):
                raise ConfigError(f"{where} {key} = {value!r}: [group {value}] is never declared")

    # build in rounds: each section once every group it references is built
    setup = ExperimentSetup()
    pending = list(sections)
    while pending:
        waiting = []
        for name in pending:
            where, kind, section = sections[name]
            if any(ref not in setup.groups for ref in refs[name]):
                waiting.append(name)
                continue
            try:
                built = _build_group(name, kind, section, setup)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            if kind == "wreath":
                setup.wreaths[name] = built
            else:
                setup.groups[name] = built
                _add_structure(name, section, setup)
        if len(waiting) == len(pending):
            # every waiting section references another one: walk the references to a cycle
            path = [waiting[0]]
            while path.count(path[-1]) < 2:
                path.append(next(ref for ref in refs[path[-1]] if ref in waiting))
            cycle = path[path.index(path[-1]) :]
            raise ConfigError("reference cycle: " + " -> ".join(sections[n][0] for n in cycle))
        pending = waiting
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
