"""A fixed piece of pure-Python work that gauges the host's speed.

It imports nothing from the package under test, so no change there moves
it.  Its shape follows the library's hot loops: least fixpoints of a
set-valued application over a small table, built from tuples, frozensets
and dict lookups.
"""

from __future__ import annotations

from time import perf_counter

UNIVERSE = tuple(range(6))
TABLE = {(a, b): frozenset({(a + b) % 6, (a * b) % 6}) for a in UNIVERSE for b in UNIVERSE}
STARTS = 240


def work() -> int:
    total = 0
    for start in range(STARTS):
        x = frozenset({start % 6, (start // 6) % 6})
        while True:
            y = x.union(*[TABLE[a, b] for a in x for b in x])
            if y == x:
                break
            x = y
        total += len(x)
    return total


def probe() -> float:
    """Seconds one run of `work` takes now."""
    t0 = perf_counter()
    work()
    return perf_counter() - t0
