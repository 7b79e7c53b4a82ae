"""Registry deltas: what a block of code counted, by instrument name.

The components keep no tallies of their own, so a test reads one
event's count as the change of its process-wide registry counter.
"""

from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from repro import obs


@contextmanager
def counted() -> Iterator[Counter]:
    """Yield a :class:`Counter` that holds, once the block exits, each
    registry counter's change over the block (names never hit read 0)."""
    delta: Counter = Counter()
    before = obs.snapshot()["counters"]
    yield delta
    for name, value in obs.snapshot()["counters"].items():
        delta[name] = value - before.get(name, 0)


def counts(delta: Counter, *prefixes: str) -> dict:
    """The counts in ``delta`` under ``prefixes``, less the ``*_ms`` sums:
    a float sum's bits depend on how the work was split into batches."""
    return {
        name: value for name, value in delta.items()
        if name.startswith(prefixes) and not name.endswith("_ms")
    }
