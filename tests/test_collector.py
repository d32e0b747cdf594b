"""Ball tables are built with the cyclic garbage collector paused, and only then.

``ball()``, ``LengthOracle.ball`` and ``kernel_window`` switch the collector
off while they search, build or load (``_BallSearch.extend``,
``_sorted_table`` and ``ball()``'s store load pause it), and must hand back
the state they found, whether they return or raise.  The pause is safe because what they build holds no
reference cycle.  A build that leaves more young objects than the young
threshold ends by promoting them to the oldest generation, so resuming the
collector starts no young-generation scan of the new table; small builds, a
collector the caller disabled and an interpreter with frozen objects (as
CPython 3.12 starts with) promote nothing.  The young threshold is pinned to
CPython's usual 700 here, as 3.13 raises its default to 2000.
"""

from __future__ import annotations

import gc
import weakref

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
    kernel_window,
)


@pytest.fixture
def collector():
    """Set the collector's state for the test; restore the state and thresholds found."""
    was, thresholds = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(700, 10, 10)

    def set_state(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield set_state
    gc.set_threshold(*thresholds)
    (gc.enable if was else gc.disable)()


def _promoted(elements) -> bool:
    """True if all of ``elements`` are in the oldest generation, False if none is."""
    oldest = {id(x) for x in gc.get_objects(generation=2)}
    flags = {id(x) in oldest for x in elements}
    assert len(flags) == 1, "some of the table was promoted and some not"
    return flags.pop()


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
    """Recorded where the elements are made: ``_sorted_table`` pauses the
    collector itself, so it is entered with the collector on."""
    collector(True)
    seen = []
    space = lamplighter._search_space()
    build = space.encoded_values
    decode = lamplighter.decode_many

    def recording_build(states):
        seen.append(("build", gc.isenabled()))
        return build(states)

    def recording_decode(encodings):
        seen.append(("decode", gc.isenabled()))
        return decode(encodings)

    monkeypatch.setattr(space, "encoded_values", recording_build)
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


def _store_load(ctx, r, store_dir):
    store = BallStore(store_dir)
    ball(ctx, r, store=store)  # cold, then saved
    gc.collect()
    return ball(ctx, r, store=store).elements


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda ctx, tmp: ball(ctx, 13).elements, id="cold-ball"),
        pytest.param(lambda ctx, tmp: _store_load(ctx, 13, tmp), id="store-load"),
        pytest.param(lambda ctx, tmp: LengthOracle(ctx).ball(13).elements, id="oracle-ball"),
        pytest.param(lambda ctx, tmp: kernel_window(ctx, 16), id="kernel-window"),
    ],
)
def test_large_builds_go_to_the_oldest_generation(build, lamplighter, collector, tmp_path):
    collector(True)
    promotes = gc.get_freeze_count() == 0  # nothing promotes past frozen objects
    gc.collect()
    elements = build(lamplighter, tmp_path)
    young = gc.get_count()[0]
    assert len(elements) >= 294
    assert _promoted(elements) is promotes
    if promotes:
        assert young == 0


def test_small_builds_promote_nothing(lamplighter, collector):
    collector(True)
    gc.collect()
    window = kernel_window(lamplighter, 12)
    young = gc.get_count()[0]
    assert len(window) == 76
    assert 0 < young <= gc.get_threshold()[0]
    assert not _promoted(window)


def test_a_callers_frozen_objects_stay_frozen(lamplighter, collector):
    collector(True)
    caller_freezes = gc.get_freeze_count() == 0  # else the interpreter's frozen objects stand in
    gc.collect()
    if caller_freezes:
        gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        elements = ball(lamplighter, 13).elements
        assert gc.get_freeze_count() == frozen > 0
        assert not _promoted(elements)
    finally:
        if caller_freezes:
            gc.unfreeze()


def test_a_disabled_collector_stays_disabled_and_promotes_nothing(lamplighter, collector):
    collector(False)
    gc.collect()
    elements = ball(lamplighter, 13).elements
    assert not gc.isenabled()
    assert gc.get_count()[0] > gc.get_threshold()[0]
    assert not _promoted(elements)


def test_a_dropped_cycle_is_freed_after_a_build(lamplighter, collector):
    class Node:
        pass

    collector(True)
    promotes = gc.get_freeze_count() == 0
    gc.collect()
    node = Node()
    node.self = node
    alive = weakref.ref(node)
    del node
    ball(lamplighter, 13)
    if promotes:
        assert alive() is not None  # promoted with the table, so no young collection freed it
    gc.collect()
    assert alive() is None
