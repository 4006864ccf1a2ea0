"""Machine speed, sampled next to the timed work.

On a shared host the same work runs up to twice as slow for seconds at
a time, because other tenants contend for the core and its caches.  A
fixed kernel -- standard library only, no code of the program -- is
timed right next to the work: every ``PERIOD_S`` of wall time inside
a timed block (a ``SIGALRM`` handler runs it between bytecodes) and
once more when the block ends.  Each stretch of work between two
samples is converted to reference seconds with the sample that ends
it, taken as the median of the last three samples so that one
interrupted sample does not count::

    reference seconds = wall seconds * KERNEL_REF_S / kernel seconds

so a reference second is a second of a machine on which the kernel
takes exactly ``KERNEL_REF_S``.  The kernel's own time is left out of
both the wall and the reference seconds.  A change to the program
moves its reference seconds as it moves its wall seconds; a slower
phase of the host moves the kernel too and cancels out.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import signal
import statistics
import time

_clock = time.perf_counter

#: Wall seconds of work between two samples inside one block.
PERIOD_S = 0.1
#: The kernel's time on the reference machine; it fixes the unit only.
KERNEL_REF_S = 0.001


def _document() -> str:
    rng = random.Random(1)
    return json.dumps([
        {
            "name": f"h{rng.randrange(10 ** 6)}.example",
            "size": rng.randrange(1, 1 << 20),
            "times": [round(rng.random() * 100, 3) for _ in range(4)],
            "headers": {f"k{j}": "v" * rng.randrange(1, 24)
                        for j in range(4)},
        }
        for _ in range(200)
    ])


_DOCUMENT = _document()


class _Entry:
    __slots__ = ("name", "size", "headers")

    def __init__(self, name: str, size: int, headers: dict) -> None:
        self.name = name
        self.size = size
        self.headers = headers

    def weight(self) -> int:
        return self.size % 97 + len(self.name) + len(self.headers)


def kernel() -> int:
    """Fixed pure-Python work like the program's: JSON decoding,
    small objects, dicts, method calls and a heap of events."""
    heap = []
    total = 0
    for index, row in enumerate(json.loads(_DOCUMENT)):
        entry = _Entry(row["name"].lower(), row["size"], dict(row["headers"]))
        entry.headers["total"] = sum(sorted(row["times"]))
        heapq.heappush(heap, (entry.size, index, entry))
        total += entry.weight()
    while heap:
        total += heapq.heappop(heap)[2].weight()
    return total


class Speedometer:
    """Times blocks of work in wall and in reference seconds.

    ``enabled=False`` runs no kernel and reports wall seconds as both,
    for the traced run, whose spans must not contain the kernel.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Kernel times of every sample taken, in seconds.
        self.samples: list = []
        self._mark = 0.0
        self._wall = 0.0
        self._reference = 0.0
        if enabled:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> None:
        stretch = _clock() - self._mark
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = _clock()
            kernel()
            self.samples.append(_clock() - began)
        finally:
            if collecting:
                gc.enable()
        self._wall += stretch
        self._reference += (stretch * KERNEL_REF_S
                            / statistics.median(self.samples[-3:]))
        self._mark = _clock()

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self, at: float = None) -> None:
        """Open a block, from ``at`` (a ``perf_counter`` reading) or now."""
        self._wall = self._reference = 0.0
        self._mark = _clock() if at is None else at
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> tuple:
        """Close the block: its ``(wall_s, reference_s)``."""
        if not self.enabled:
            wall = _clock() - self._mark
            return wall, wall
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        return self._wall, self._reference

    def time(self, call, *args):
        """``call(*args)`` in one block: ``(result, wall_s, reference_s)``."""
        self.start()
        try:
            result = call(*args)
        finally:
            wall, reference = self.stop()
        return result, wall, reference
