"""Host-speed probes: a fixed reference computation timed beside the ops.

The benchmark's shared host runs the same CPU work up to 2x slower in spells
that last from seconds to minutes, and its fast state itself drifts between
runs.  A worker therefore times :func:`reference`, a fixed pure-Python
computation, right after set-up and every :data:`PROBE_EVERY_S` seconds
between ops.  A latency is *calibrated* by scaling it with the ratio of
:data:`REFERENCE_NOMINAL_S` to the reference's time measured around it:

    calibrated = measured * REFERENCE_NOMINAL_S / reference time nearby

so it reads as the time the op takes while the reference runs in
``REFERENCE_NOMINAL_S``.  The op's own cost, and any change to it, carries
through unscaled; a slow spell of the host, which slows the reference by the
same factor, cancels.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# the reference's time on the host's fast state (2-vCPU KVM guest, Intel
# Xeon, Python 3.11.7); a fixed constant, so calibrated values of different
# runs and commits compare directly
REFERENCE_NOMINAL_S = 0.0010
PROBE_EVERY_S = 0.02
SETUP_PROBES = 7  # probes right after set-up, which calibrate setup_s
NEAREST = 7  # probes whose median calibrates one op


def reference() -> int:
    """Fixed work of the kinds the library does: small tuples and frozensets,
    dict updates, sorting and integer arithmetic."""
    table: dict = {}
    acc = 0
    for i in range(1000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + len(frozenset(key) | {i % 5})
        acc += sorted(key)[1] * 3 // 2
    return acc + len(table)


def probe(samples: list) -> None:
    """Time one reference run; appends (midpoint, seconds) to ``samples``."""
    t0 = perf_counter()
    reference()
    t1 = perf_counter()
    samples.append(((t0 + t1) / 2, t1 - t0))


def scale(durations: list[float]) -> float:
    """Calibration factor from reference times: nominal ÷ their median."""
    return REFERENCE_NOMINAL_S / statistics.median(durations)


def calibrate(starts: list[float], lat: list[float], samples: list) -> list[float]:
    """Each latency scaled by the median of the :data:`NEAREST` reference
    samples closest in time to the op's midpoint.  ``samples`` is in time
    order."""
    times = [t for t, _ in samples]
    out = []
    for t0, dt in zip(starts, lat):
        mid = t0 + dt / 2
        hi = bisect.bisect_left(times, mid)
        lo = hi
        while hi - lo < min(NEAREST, len(times)):
            if lo > 0 and (hi == len(times) or mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        out.append(dt * scale([s for _, s in samples[lo:hi]]))
    return out
