"""Timing in reference seconds, steady on a host whose speed drifts.

The reference host (a 2-vCPU VM) changes speed by up to +-40% within a
second, which would swamp any regression bound on raw wall time.  So while
a timed call runs, SIGALRM fires every `SAMPLE_EVERY_S` and the handler
times `calibrate`, a short pure-Python loop.  The call's wall time less
the handler's samples, scaled by `CAL_REF_S` over the mean sample, is the
time the call would take on the reference host at full speed.  A change
to the program moves this figure as it moves wall time; a change of host
speed cancels.  Only the standard library is imported here, so a fresh
interpreter can time an import with it.
"""

import signal
import statistics
from time import perf_counter

SAMPLE_EVERY_S = 0.02
# Wall time of `calibrate` on the reference host when it runs at full
# speed; a reference second is one second of work on that host.
CAL_REF_S = 0.00023


class _Ramp:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi


def _ramp(spec, i):
    if isinstance(spec, _Ramp):
        if i <= spec.lo:
            return 0.0, 1.0
        if i >= spec.hi:
            return 1.0, 0.0
        p = (i - spec.lo) / (spec.hi - spec.lo)
        return p, 1.0 - p
    raise TypeError(spec)


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop, the yardstick for the host's
    current speed.  Half is a float recurrence, half the kind of code the
    engines run (calls, attribute lookups, tuples, branches): host
    contention slows the two differently, and the workloads sit between."""
    t0 = perf_counter()
    acc = 0.0
    for k in range(2000):
        acc += (k % 7) * 0.5 - acc * 1e-6
    spec, s, out = _Ramp(0.2, 0.25), 0.5, []
    for k in range(150):
        i = (k % 50) * 0.01
        p_sp, p_ps = _ramp(spec, i)
        out.append((-s * i - 0.9 * s * p_sp + 0.9 * (1.0 - s - i) * p_ps, p_sp))
    return perf_counter() - t0


def measure(fn, *args, **kwargs) -> tuple:
    """(result, reference seconds, wall seconds) of ``fn(*args, **kwargs)``,
    with the host's speed sampled by `calibrate` while the call runs."""
    samples = []
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(calibrate()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    own = wall - sum(samples)
    speed = statistics.mean(samples) if samples else calibrate()
    return result, own * CAL_REF_S / speed, wall
