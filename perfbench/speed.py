"""A probe of the machine's current speed, for scaling reported times.

On the 2-core x86 machine the bounds were measured on, the same
pure-Python work runs at speeds up to 2x apart, in spells of seconds to
minutes (other tenants share the cores). Over 15 s windows, about one
timed pass, this kernel's own time spread 0.22 (quartile distance over
median) in three minutes of back-to-back runs. Best-of-k timings do not
help (0.24-0.28), because a slow spell outlasts a pass. The probe is a
fixed pure-Python kernel, independent of the program, with the same
kind of work the program does: object creation, dict updates and a
sort. Timing it next to each job and scaling the job's time by
``REFERENCE_PROBE_S / probe time`` reports the job at a fixed speed.
The set-up time is scaled the same way, by probes at its two ends. Raw
times are printed alongside; ``perfbench/README.md`` records both
spreads.
"""

from __future__ import annotations

import random
import statistics
import time

#: Median seconds of one :func:`_kernel` on the machine the bounds were
#: measured on (2-core x86, Python 3.11). It only fixes the unit: both
#: sides of a comparison scale by it, so it cancels in their ratio.
REFERENCE_PROBE_S = 0.0062


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: float, c: int) -> None:
        self.a, self.b, self.c = a, b, c


def _kernel() -> float:
    t0 = time.perf_counter()
    rng = random.Random(1)
    nodes = [_Node(i, rng.random(), (i * 31) % 97) for i in range(6000)]
    table: dict[tuple[int, int], float] = {}
    for n in nodes:
        key = (n.a % 500, n.c)
        table[key] = table.get(key, 0.0) + n.b
    nodes.sort(key=lambda n: n.b)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the kernel takes now (median of three)."""
    return statistics.median(_kernel() for _ in range(3))


def scale(*probes: float) -> float:
    """Factor taking a time measured between *probes* to the reference
    speed: below 1 when the machine ran slow, above 1 when fast."""
    return REFERENCE_PROBE_S / statistics.fmean(probes)
