"""A fixed reference loop that measures how fast the host runs Python right now.

On a shared host the speed of one unchanged process drifts by up to about
2x over seconds to minutes, as neighbours load the machine.  The benchmark
times this loop just before and just after each operation and divides the
operation's time by the mean of the two: the quotient, in reference loops,
follows the program and largely cancels the host's drift.  The loop does not
touch ``wreathdim``, so a change to the program moves the quotient in full.

The loop is a breadth-first search of the lamplighter group over a window of
lamps, on states packed into ints, until it has seen ``REFERENCE_STATES``
states: dict and list work like the program's ball searches, with few
garbage-collected objects, so it does not shift the collector's timing.
"""

from __future__ import annotations

import time

REFERENCE_STATES = 40000
_POS_BITS = 6  # the lamplighter's position lives in the low bits, offset to stay positive
_START = 1 << (_POS_BITS - 1)


def reference_seconds() -> float:
    """Run the reference loop once and return its wall time."""
    start = time.perf_counter()
    seen = {_START: 0}
    frontier = [_START]
    depth = 0
    while len(seen) < REFERENCE_STATES:
        depth += 1
        found = []
        for state in frontier:
            toggled = state ^ (1 << (_POS_BITS + (state & ((1 << _POS_BITS) - 1))))
            for nxt in (state + 1, state - 1, toggled):
                if nxt not in seen:
                    seen[nxt] = depth
                    found.append(nxt)
        frontier = found
    return time.perf_counter() - start
