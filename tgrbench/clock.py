"""Reference-speed seconds: wall time rescaled by the speed of a fixed pure-Python loop.

On a shared 2-core VM the speed of the CPU drifts by up to a quarter
within seconds, because other tenants load the machine; the same op run
twice a minute apart can differ by 15%.  A fixed loop doing the kind of
work tgrkit does (tuple slicing and concatenation, set and dict inserts, a
sort) is timed just before and just after each measured interval, and the
interval is reported as ``wall * NOMINAL_S / loop``, where ``loop`` is the
mean of the two loop timings.  The result reads as seconds on a machine
where the loop takes NOMINAL_S.  The loop is benchmark code, so a change to
tgrkit changes the measured interval and not the scale.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.0014
LOOP_REPS = 5

_WORDS = [tuple("SaAbB"[(i + j) % 5] for j in range(5 + i % 9)) for i in range(60)]


def _loop() -> float:
    start = time.perf_counter()
    seen = set()
    for w in _WORDS:
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                seen.add(w[:i] + w[j:])
    by_len: dict[int, list] = {}
    for w in seen:
        by_len.setdefault(len(w), []).append(w)
    sorted(seen)
    return time.perf_counter() - start


def loop_seconds() -> float:
    """Median of LOOP_REPS timings of the reference loop."""
    return statistics.median(_loop() for _ in range(LOOP_REPS))


def calibrated(fn):
    """Run fn between two loop timings; return (fn's result, scale to reference seconds)."""
    before = loop_seconds()
    result = fn()
    after = loop_seconds()
    return result, NOMINAL_S / ((before + after) / 2)
