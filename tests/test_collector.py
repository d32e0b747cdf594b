"""Ball tables are built with the cyclic garbage collector paused, and only then.

``ball()`` and ``LengthOracle.ball`` switch the collector off while they
build, and must hand back the state they found, whether they return or raise.
The pause is safe because what they build holds no reference cycle.
"""

from __future__ import annotations

import gc

import pytest

from wreathdim import (
    BallStore,
    BudgetExceededError,
    CyclicGroup,
    IntegerGroup,
    IntegrityError,
    LengthOracle,
    WreathContext,
    ball,
)
from wreathdim import groups


@pytest.fixture
def collector():
    """Set the collector's state for the test; restore the state found."""
    was = gc.isenabled()

    def set_state(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield set_state
    (gc.enable if was else gc.disable)()


def _tamper(store_dir):
    path = next(store_dir.glob("*.ball"))
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("enabled", [True, False])
def test_ball_restores_the_collector_state(lamplighter, collector, tmp_path, enabled):
    collector(enabled)
    ball(lamplighter, 5)  # cold
    assert gc.isenabled() is enabled
    store = BallStore(tmp_path)
    ball(lamplighter, 5, store=store)  # cold, then saved
    assert gc.isenabled() is enabled
    ball(lamplighter, 4, store=store)  # loaded
    assert gc.isenabled() is enabled
    with pytest.raises(BudgetExceededError):
        ball(lamplighter, 9, budget=10)
    assert gc.isenabled() is enabled
    _tamper(tmp_path)
    with pytest.raises(IntegrityError):
        ball(lamplighter, 4, store=store)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_oracle_ball_restores_the_collector_state(lamplighter, collector, enabled):
    collector(enabled)
    held = LengthOracle(lamplighter)
    held.growth(6)
    held.ball(5)  # a prefix of the held search
    assert gc.isenabled() is enabled
    LengthOracle(lamplighter).ball(5)  # through ball(), nested in the oracle's pause
    assert gc.isenabled() is enabled
    with pytest.raises(BudgetExceededError):
        LengthOracle(lamplighter, budget=10).ball(9)
    assert gc.isenabled() is enabled


def test_tables_are_built_with_the_collector_off(lamplighter, collector, monkeypatch, tmp_path):
    collector(True)
    seen = []
    build = groups._sorted_table
    decode = lamplighter.decode_many

    def recording_build(*args):
        seen.append(("build", gc.isenabled()))
        return build(*args)

    def recording_decode(encodings):
        seen.append(("decode", gc.isenabled()))
        return decode(encodings)

    monkeypatch.setattr(groups, "_sorted_table", recording_build)
    monkeypatch.setattr(lamplighter, "decode_many", recording_decode)
    store = BallStore(tmp_path)
    ball(lamplighter, 5, store=store)
    ball(lamplighter, 5, store=store)
    oracle = LengthOracle(lamplighter)
    oracle.growth(5)
    oracle.ball(5)
    assert seen == [("build", False), ("decode", False), ("build", False)]
    assert gc.isenabled()


@pytest.mark.parametrize(
    "name, r",
    [("L2", 9), ("C3wrZ", 7), ("W2", 5), ("F2", 6)],
)
def test_built_tables_leave_no_cyclic_garbage(name, r, collector, tmp_path, lamplighter, plane_lamplighter, f2):
    """A pause that loses no memory: building, saving and loading balls leave
    nothing for the collector."""
    ctx = {
        "L2": lamplighter,
        "C3wrZ": WreathContext(CyclicGroup(3), IntegerGroup()),
        "W2": plane_lamplighter,
        "F2": f2,
    }[name]
    collector(False)
    gc.collect()
    store = BallStore(tmp_path)
    ball(ctx, r, store=store)  # cold, then saved: store.save writes the manifest
    ball(ctx, r)
    ball(ctx, r, store=store)
    ball(ctx, r - 2, store=store)
    oracle = LengthOracle(ctx)
    oracle.growth(r)
    oracle.ball(r)
    oracle.ball(r + 1)
    assert gc.collect() == 0
