"""Shared fixtures: the small marked groups and wreath products used throughout."""

from __future__ import annotations

import pytest

from wreathdim import groups
from wreathdim import (
    CyclicGroup,
    FreeGroup,
    IntegerGroup,
    LengthOracle,
    ProductGroup,
    VirtuallyZStructure,
    WreathContext,
)


@pytest.fixture(scope="session")
def z():
    return IntegerGroup()


@pytest.fixture(scope="session")
def c2():
    return CyclicGroup(2)


@pytest.fixture(scope="session")
def c3():
    return CyclicGroup(3)


@pytest.fixture(scope="session")
def f2():
    return FreeGroup(2)


@pytest.fixture(scope="session")
def z2(z):
    return ProductGroup(z, z)


@pytest.fixture(scope="session")
def zxc2(z, c2):
    return ProductGroup(z, c2)


@pytest.fixture(scope="session")
def lamplighter(c2, z):
    """The wreath product C2 wr Z with the standard marking."""
    return WreathContext(c2, z)


@pytest.fixture(scope="session")
def plane_lamplighter(c2, z2):
    """The wreath product C2 wr Z^2 with the standard marking."""
    return WreathContext(c2, z2)


@pytest.fixture(scope="session")
def z_structure(z):
    return VirtuallyZStructure(z, 1, (0,))


@pytest.fixture(scope="session")
def zxc2_structure(zxc2):
    return VirtuallyZStructure(zxc2, (1, 0), ((0, 0), (0, 1)))


@pytest.fixture(scope="session")
def oracle_z(z):
    return LengthOracle(z)


@pytest.fixture(scope="session")
def oracle_lamplighter(lamplighter):
    return LengthOracle(lamplighter)


@pytest.fixture
def searched_levels(monkeypatch):
    """The depth of every BFS level a held search expands during the test, in order."""
    levels = []
    extend = groups._BallSearch.extend

    def recording_extend(search, max_len):
        before = len(search.counts)
        try:
            return extend(search, max_len)
        finally:
            levels.extend(range(before, len(search.counts)))

    monkeypatch.setattr(groups._BallSearch, "extend", recording_extend)
    return levels
