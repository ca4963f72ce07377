"""Host speed: a fixed calibration kernel timed next to the tasks.

Whole runs of the same work on a shared host swing by up to 45% with the
load of other tenants (measured on the reference host). Task times are
therefore reported in reference seconds: the raw time times the
workload's CAL_REF_S over the time of a fixed calibration kernel. The
kernel runs after a task once CAL_GAP_S have passed since its last run,
and a task's divisor is the median of the CAL_WINDOW kernel runs on
either side of the first run after it. The kernel runs none of
ccpivot's code, so a change to ccpivot keeps the ratio between versions.
"""

from __future__ import annotations

import statistics
import time

# median kernel time per workload on the reference host
CAL_REF_S = {"solve": 3.4e-3, "sample": 3.0e-3, "certify": 3.5e-3, "exact": 3.4e-3}
CAL_WINDOW = 8
CAL_GAP_S = 0.1


def _loops():
    import numpy as np  # not at import: BLAS threads are set first

    a = np.linspace(0.0, 1.0, 144).reshape(12, 12)
    acc = 0.0
    for i in range(240):
        k = i % 12
        acc += float((a[:, k] - a[k, :]).max())
        for j in range(40):
            acc += (i * j) % 7


def _ints():
    z = acc = 0
    for _ in range(3000):
        z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        acc ^= ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF


def _arrays():
    import numpy as np  # not at import: BLAS threads are set first

    t = np.linspace(0.0, 1.0, 160 * 240).reshape(160, 240)
    for i in range(18):
        t -= np.outer(t[:, i] * 1e-3, t[i])


def _vectors():
    import numpy as np  # not at import: BLAS threads are set first

    x = np.linspace(0.0, 1.0, 15_000)
    y = np.zeros_like(x)
    for i in range(60):
        y = y + (x * (1.0 - x) + 1e-3 * i) * (1.0 - y * 1e-3)


# The kinds of work each workload spends its time on: Python loops over
# small arrays, 64-bit integer mixing (the RNG), updates of a dense
# tableau, and arithmetic on long vectors (the certification grids).
# The kernel parts time the same kinds of work, in none of ccpivot's code.
CAL_PARTS = {
    "solve": (_loops, _arrays),
    "sample": (_loops, _ints),
    "certify": (_vectors,),
    "exact": (_loops, _arrays),
}


def calibrate(workload: str) -> float:
    """Seconds for the workload's fixed calibration kernel."""
    t0 = time.perf_counter()
    for part in CAL_PARTS[workload]:
        part()
    return time.perf_counter() - t0


def host_factors(cals: list[float], ref_s: float) -> list[float]:
    """ref_s over the local median kernel time, per kernel run."""
    return [ref_s / statistics.median(cals[max(0, j - CAL_WINDOW): j + CAL_WINDOW + 1])
            for j in range(len(cals))]
