"""Host time in reference units, which cancel the shared host's drift.

On a shared host the same Python code runs up to ~90% slower in phases
that switch within tens of milliseconds and last up to minutes, so the
host seconds of a fixed simulation spread by tens of percent from run
to run.  A :class:`PacedTally` times a fixed unit of reference work
right after each short piece of the program's work and counts the
piece in those units: the piece and the unit run milliseconds apart,
so they see the same phase and the quotient hardly moves.  The
reference loop imports nothing from the program, so a change to the
program cannot change the unit it is measured in.

The unit mixes what the simulator spends its time on: a binary-heap
event queue, generator-based processes resumed from it, small objects
and dict updates over a working set of a few thousand keys.  One unit
takes about 2.5 ms on an idle 2-vCPU Xeon guest (Python 3.11).
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager

_PROCESSES = 200
_STEPS = 12
_KEYS = 4096
# reference_unit()'s checksum; a different one means the loop changed.
_EXPECTED = 562


class _Record:
    __slots__ = ("key", "value", "version")

    def __init__(self, key: int, value: int, version: int) -> None:
        self.key = key
        self.value = value
        self.version = version


def _process(pid: int, table: dict):
    key = pid * 7919
    for step in range(_STEPS):
        key = (key * 1103515245 + 12345) % _KEYS
        record = table.get(key)
        if record is None:
            table[key] = _Record(key, step, 0)
        else:
            record.value += step
            record.version += 1
        yield (key % 13) * 0.5 + 1.0


def reference_unit() -> int:
    """Run one unit of reference work; return a checksum of its result."""
    table: dict = {}
    heap = []
    seq = 0
    for pid in range(_PROCESSES):
        heapq.heappush(heap, (0.0, seq, _process(pid, table)))
        seq += 1
    while heap:
        now, _, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, proc))
    return sum(record.version for record in table.values())


def reference_seconds() -> float:
    """Host seconds one reference unit takes now."""
    start = time.perf_counter()
    checksum = reference_unit()
    elapsed = time.perf_counter() - start
    if checksum != _EXPECTED:
        raise RuntimeError(f"reference loop checksum {checksum}, "
                           f"expected {_EXPECTED}")
    return elapsed


class PacedTally:
    """Host seconds of pieces of work, and the same in reference units.

    :meth:`add` takes a piece's host seconds, times one reference unit
    straight after it and counts the piece in that unit.  ``pacing_s``
    is the host time the reference units took, which the caller leaves
    out of its own timings.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.refs = 0.0
        self.pacing_s = 0.0

    def add(self, seconds: float) -> None:
        start = time.perf_counter()
        unit = reference_seconds()
        self.pacing_s += time.perf_counter() - start
        self.seconds += seconds
        self.refs += seconds / unit


@contextmanager
def sliced(sim, slice_ns: float, tally: PacedTally):
    """Run ``sim.run`` in pieces of ``slice_ns`` simulated ns, each added
    to ``tally``.  ``run(until=a)`` then ``run(until=b)`` processes the
    same events in the same order as ``run(until=b)``, so slicing leaves
    the simulation unchanged (the benchmark's ``sim_digest`` checks it)."""
    plain = sim.run

    def run(until=None):
        while True:
            last = until is None or sim.now + slice_ns >= until
            start = time.perf_counter()
            plain(until=until if last else sim.now + slice_ns)
            tally.add(time.perf_counter() - start)
            if last:
                return

    sim.run = run
    try:
        yield
    finally:
        del sim.run
