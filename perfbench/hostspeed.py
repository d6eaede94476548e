"""Host speed calibration: scale measured times to a fixed reference speed.

On a shared host the speed of one core changes in regimes that last from
seconds to minutes (on a 2-vCPU cloud host, a fixed pure-Python loop took
42 ms for a minute and a half, then 34 ms).  A run of 30 s sits inside one regime,
so taking more passes cannot remove that factor from run-to-run spread.
The benchmark therefore times a fixed pure-Python loop, which shares no
code with chpricing, just before and just after each command, and scales
the command's times by REFERENCE_S / (the loop's median time).  The result
is in seconds at the speed where one loop takes REFERENCE_S.
"""
from __future__ import annotations

import statistics
import time

# the loop's median time on the host where the baseline was recorded
# (2 vCPUs, Python 3.11.7); only ratios of scaled times matter
REFERENCE_S = 0.0024
SAMPLES = 31


def _step(cost: float, width: float) -> float:
    return cost * 0.5 + width


def _loop() -> float:
    """Small-object Python work: build, sort and reduce lists of tuples."""
    total = 0.0
    for _ in range(300):
        blocks = [((j * 7919) % 101 * 0.25, j, float(j)) for j in range(24)]
        blocks.sort()
        total += sum(_step(c, w) for c, _j, w in blocks if c < 20.0)
        total += len(dict(zip("abcdef", blocks)))
    return total


def loop_time() -> float:
    """Median seconds of SAMPLES runs of the loop."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
