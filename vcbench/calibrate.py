"""Host calibration: an interpreter-bound yardstick for host seconds.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent within a minute, so raw host seconds are no yardstick.  A
fixed loop that does the same kind of work as the simulator (integer
arithmetic, dict lookups over a working set of a few MB, attribute reads
and writes on a prebuilt object) runs right before and right after every
timed chunk.  A repetition's host seconds are scaled by how
fast the loop ran over that repetition:

    calibrated_s = host_s * REFERENCE_LOOP_S / mean(loop times of the repetition)

so "one calibrated second" is one second of the reference host, the host
on which the loop takes ``REFERENCE_LOOP_S``.  The mean over all the
brackets of a repetition follows the host's speed over the whole timed
phase, hiccups included, as the simulator feels them.  Scaling each
chunk by its own two brackets was tried first, and on a shared 2-vCPU
host the single brackets were noisier than the simulator itself; the
median of the brackets ignored the slow spells of a noisy host.

The loop runs with the garbage collector paused and allocates no
GC-tracked object, so a program with a bigger heap cannot slow the
yardstick down.  Of the loops tried on a shared 2-vCPU host (a
cache-resident int-dict loop, this 4 MB dict walk, a 16 MB array walk,
and a loop that also formats strings and allocates floats), this one
came closest when the host slowed 2.5x: it slowed 2.7x, where the
allocating loop slowed 3-4x and the cache-resident one missed
slowdowns that the simulator felt.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, List, Optional

#: Seconds one calibration loop takes on the reference host.
REFERENCE_LOOP_S = 0.0015
#: Iterations of one calibration loop.
LOOP_ITERATIONS = 10_000
#: Loops per bracket.
LOOP_REPEATS = 3
#: log2 of the entries in the dict the loop walks (about 4 MB).
CHAIN_BITS = 16


class _Cell:
    """A prebuilt object whose attributes the loop reads and writes."""

    __slots__ = ("acc", "weight")

    def __init__(self) -> None:
        self.acc = 0
        self.weight = 7


def _build_chain(bits: int) -> Dict[int, int]:
    """``key -> next key`` over ``2**bits`` keys, one cycle through all of them.

    The affine step has full period (odd increment, multiplier 1 mod 4), so
    the walk touches the whole dict instead of a cache-resident cycle.  A
    dict holding only ints is not tracked by the garbage collector.
    """
    size = 1 << bits
    return {key: (key * 40505 + 12345) % size for key in range(size)}


def _spin(iterations: int, chain: Dict[int, int], cell: _Cell) -> int:
    key = 0
    acc = 0
    for i in range(iterations):
        key = chain[key]
        acc = (acc + key * cell.weight + i) & 0xFFFF
        cell.acc = acc
    return acc


class Yardstick:
    """Times the calibration loop."""

    def __init__(
        self, iterations: int = LOOP_ITERATIONS, repeats: int = LOOP_REPEATS
    ) -> None:
        self.iterations = iterations
        self.repeats = repeats
        self._chain = _build_chain(CHAIN_BITS)
        self._cell = _Cell()
        #: Every loop time measured, in order.
        self.history: List[float] = []

    def bracket(self) -> None:
        """Run ``repeats`` loops with gc paused and record their times."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.repeats):
                started = time.perf_counter()
                _spin(self.iterations, self._chain, self._cell)
                self.history.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def score(self, since: int = 0) -> float:
        """Host speed relative to the reference host (2.0 = twice as fast),
        from the loops recorded since ``history[since]``."""
        return REFERENCE_LOOP_S / statistics.fmean(self.history[since:])


class ChunkClock:
    """Times the chunks of one repetition, each bracketed by calibration loops.

    Consecutive chunks share a bracket: the loops after one chunk are the
    loops before the next.  A chunk may return the host times of the runs
    it holds (for example one per campaign run).
    """

    def __init__(self, yardstick: Yardstick) -> None:
        self.yardstick = yardstick
        self.hosts: List[float] = []
        self.runs: List[float] = []
        self._first = len(yardstick.history)

    def run(self, step: Callable[[], Optional[List[float]]]) -> None:
        if not self.hosts:
            self.yardstick.bracket()
        started = time.perf_counter()
        samples = step()
        host = time.perf_counter() - started
        self.yardstick.bracket()
        self.hosts.append(host)
        self.runs.extend(samples or [])

    @property
    def score(self) -> float:
        return self.yardstick.score(self._first)

    @property
    def host_s(self) -> float:
        return sum(self.hosts)

    @property
    def calibrated_s(self) -> float:
        return self.host_s * self.score
