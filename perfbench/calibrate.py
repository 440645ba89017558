"""Machine-speed reference for the benchmark's host timings.

On a shared VM the host's speed drifts: for seconds to minutes at a
time the same simulation runs up to ~1.8x slower, and a run can fall
entirely inside a slow stretch.  Raw host times then spread ~0.2-0.3
(IQR/median) across runs of one workload, which no statistic over a
single run removes.  So every host time is measured between two runs of
a fixed pure-Python kernel (heap, dict and attribute work, like the
simulator's) and converted to *reference seconds*: the time it would
have taken with the kernel at :data:`REFERENCE_S`.  A faster simulator
lowers reference seconds exactly as it lowers raw seconds; a slower
host does not raise them.  Raw seconds are kept in the results file.

This module imports nothing from the simulator, so ``setup_probe.py``
can calibrate before ``import repro``.
"""

import heapq
import time

#: About the kernel's time on the reference host (2-vCPU Intel Xeon VM
#: at 2.1 GHz, Python 3.11) in its fast mode.  Only a unit: changing it
#: rescales every host-time metric by the same factor.
REFERENCE_S = 0.02

_ROUNDS = 17_000


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _kernel() -> float:
    heap: list[tuple[int, int]] = []
    table: dict[int, _Entry] = {}
    total = 0.0
    for i in range(_ROUNDS):
        entry = _Entry((i * 7919) % 1009, i * 0.5)
        heapq.heappush(heap, (entry.key, i))
        table[entry.key] = entry
        total += table.get((i * 31) % 1009, entry).value
        if len(heap) > 256:
            heapq.heappop(heap)
    return total


def calibration_s() -> float:
    """Host seconds the kernel takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def to_reference(seconds: float, before_s: float, after_s: float) -> float:
    """``seconds`` measured between calibrations ``before_s`` and
    ``after_s``, in reference seconds."""
    return seconds * REFERENCE_S * 2.0 / (before_s + after_s)
