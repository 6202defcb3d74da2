"""Host speed sampling, so that measured throughput does not move with a shared host.

On a shared VM the speed of a core changes by up to a factor of two within
seconds, with the load of other tenants, and a slow phase can last minutes;
the median, or even the fastest, wall time of a command over a 30 s run then
moves with the host by 12 to 35% (quartile distance over median) between
runs. While a timed loop runs, ``HostClock`` times a fixed piece of work
owned by the benchmark every ``INTERVAL_S`` seconds, from a SIGALRM handler
in the main thread. A
command's wall time, less the sampling done inside it, is then scaled by
``REFERENCE_SAMPLE_S`` over the mean sample time around the command: it
becomes the time the command would take on a host that runs the sample in
``REFERENCE_SAMPLE_S``.

The sample mixes interpreted Python with small numpy calls, as the program
does, and calls none of the program's code, so a faster program does not
make the sample faster, and every saving shows in full. The mean, not the
median, of the samples is used because a command's wall time is the sum of
its work over time, so it follows the mean slowdown of the host.
"""

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# the samples starting within this many seconds of a command's start or end
# count as around it, so a short command still has a dozen of them
WINDOW_S = 0.25
# mean sample time on the 2-core x86-64 VM the benchmark was tuned on; it
# sets only the scale of scaled times, not their spread
REFERENCE_SAMPLE_S = 7.0e-4

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((7, 7)) + 7.0 * np.eye(7)
_VECTOR = _RNG.random(7)


def sample() -> float:
    """Wall time of the fixed work, about 0.7 ms on the reference VM."""
    start = time.perf_counter()
    counts = {}
    for i in range(1600):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3 // 7
    for _ in range(20):
        x = np.linalg.solve(_MATRIX, _VECTOR)
        float((_MATRIX @ x).max())
    return time.perf_counter() - start


class HostClock:
    """Samples the host's speed every INTERVAL_S while the context is active."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.busy = 0.0  # seconds spent sampling, to take out of the timed commands

    def _tick(self, signum, frame):
        start = time.perf_counter()
        duration = sample()
        self.starts.append(start)
        self.durations.append(duration)
        self.busy += time.perf_counter() - start

    def __enter__(self):
        sample()  # keep first-call costs out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float | None = None, end: float | None = None) -> float:
        """REFERENCE_SAMPLE_S over the mean sample time around [start, end], or over the whole run."""
        around = self.durations
        if start is not None:
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, end + WINDOW_S)
            around = self.durations[lo:hi] or self.durations
        return REFERENCE_SAMPLE_S / statistics.fmean(around)
