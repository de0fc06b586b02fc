"""The cyclic-collector policy every simulated run executes under.

A simulated run allocates container objects (events, processes with
their generators, flows, span records) by the million, and most of them
live until the run ends. At CPython's default gen-0 threshold of 700
the collector runs hundreds of times per thousand tasks, and each full
collection rescans a heap that grows with the run: at the 10k macro
tier that was 40 % of the wall time, and it caused most of the
1k -> 100k tasks/wall-s fall-off.

:func:`sparse_collection` raises the gen-0 threshold to
:data:`GEN0_THRESHOLD` for the duration of one run and restores the
caller's exact thresholds on exit, also when the run raises. The two
drivers that call ``Environment.run`` (the simulated FRIEDA engine and
the Hadoop-like baseline) enter it, so it covers both kernels.

Collection timing cannot change a result: nothing under ``repro`` uses
weak references, ``__del__`` or finalizers, so when garbage is freed is
invisible to the simulation.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

#: Gen-0 threshold inside a simulated run (CPython's default is 700).
#: Gen-1 and gen-2 keep the caller's values.
GEN0_THRESHOLD = 100_000


@contextmanager
def sparse_collection() -> Iterator[None]:
    """Run the body with gen-0 collections at :data:`GEN0_THRESHOLD`.

    Leaves ``gc.isenabled()`` alone; nests (the inner scope restores
    the outer scope's thresholds).
    """
    saved = gc.get_threshold()
    gc.set_threshold(GEN0_THRESHOLD, *saved[1:])
    try:
        yield
    finally:
        gc.set_threshold(*saved)
