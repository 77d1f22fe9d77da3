"""Times rescaled to a reference host speed.

The benchmark runs on a few cores of a shared host. How fast those cores
run drifts by 20% to 40% over tens of seconds, as other tenants come and
go, and the drift shows in process CPU time as much as in wall time: it
is the host, not the scheduler. A 30-second run that happens to fall in
a slow stretch reads 30% slower, whatever the medians inside it say.

So the host's speed is sampled with a probe, a fixed piece of
interpreter and BLAS work that uses no relsha code: three times between two
timed calls, and every ``PROBE_EVERY_S`` inside a call, from a timer
signal. A call's rescaled time is its wall time, less the probes inside
it, times ``REFERENCE_PROBE_S`` over the median probe time around and
inside it: the seconds it would have taken on a host that runs the
probe in ``REFERENCE_PROBE_S``. A change to relsha moves the call and
not the probe, so the rescaled time moves with it; a change in host
speed moves both, and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the probe's median time on the host the baseline in README.md
# was measured on (2 vCPUs of a shared Intel Xeon VM). Only the
# ratio between two rescaled times means anything; this constant keeps
# their magnitude close to wall seconds.
REFERENCE_PROBE_S = 0.008
# Probes between two calls, and the time between probes inside a call:
# about 4% of a long call's time goes to probes.
MIN_PROBES = 3
PROBE_EVERY_S = 0.2


# A design-matrix-shaped operand, 20 000 x 74 doubles: like the designs
# of the dense records, it does not fit in L2.
_MATRIX = np.random.default_rng(0).standard_normal((20_000, 74))


def probe() -> float:
    """Seconds for a fixed piece of interpreter work and of BLAS work.

    The interpreter part alone tracked the BLAS-bound fits of
    ``fit_files`` poorly.
    """
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    v = np.ones(_MATRIX.shape[1])
    for _ in range(4):
        v = _MATRIX.T @ (_MATRIX @ v)
        v /= np.abs(v).max()
    return time.perf_counter() - start


class HostClock:
    """Times calls and rescales each to the reference host speed.

    While a call runs, a timer signal runs the probe every
    ``PROBE_EVERY_S`` in the main thread, between two bytecodes of the
    call, so the probes sample the host's speed through the call and not
    only around it. The probes' time is taken out of the call's time.
    """

    def __init__(self) -> None:
        self._after = [probe() for _ in range(MIN_PROBES)]
        self._samples: list[float] = []

    def _on_timer(self, signum, frame) -> None:
        self._samples.append(probe())

    def time(self, fn, *args, probe_inside: bool = True):
        """Call ``fn(*args)``; return its result, wall seconds and rescaled seconds.

        Pass ``probe_inside=False`` for a call that runs Python worker
        threads: a probe inside it would contend with them for the GIL
        and time that, not the host. Such a call is rescaled by the
        probes around it only.
        """
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        if probe_inside:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start - sum(self._samples)
        before, self._after = self._after, [probe() for _ in range(MIN_PROBES)]
        speed = statistics.median(before + self._samples + self._after)
        return result, seconds, seconds * REFERENCE_PROBE_S / speed
