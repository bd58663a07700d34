"""Machine speed, sampled while a stage runs, to take host drift out of timings.

The benchmark's host is shared: a fixed probe runs up to 1.5 times slower for
tens of seconds at a time, on both vCPUs at once, so a stage timed in such a
spell reads slow however often it is repeated. `Meter.time` runs a stage and,
every INTERVAL seconds from a SIGALRM handler in the same process, times a
small fixed reference computation (`reference`: interpreter arithmetic and
one LAPACK QR, the program's own mix). It also takes EDGE samples just before
and after the stage. If the program runs at a speed proportional to the
machine's, the work done in the time since the previous sample is that time
times REFERENCE_S / sample, in seconds of a machine on which the reference
takes REFERENCE_S. So the stage's time is scaled by the time-weighted mean of
that ratio:

    raw      = elapsed - time spent sampling
    adjusted = raw * sum(w_i * REFERENCE_S / s_i) / sum(w_i)

where s_i is a sample (after a running median of five, which smooths out a
single sample that was preempted) and w_i the time since the sample before.

Each sample runs the reference twice and times the second run, so the
program's own use of the caches barely touches it. `adjusted` is what the
end-to-end metrics report; `raw` (elapsed minus sampling) is kept beside it.
A caller that only waits (for a child process) may be sampled the same way:
the samples then run on the other vCPU, at the same moments.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05
EDGE = 5
# median reference time on an idle moment of the reference machine (README)
REFERENCE_S = 3.5e-4

_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def reference() -> None:
    total = 0
    for i in range(2500):
        total += i * i
    np.linalg.qr(_MATRIX)


class Meter:
    def __init__(self):
        self.samples: list[float] = []
        self.ends: list[float] = []  # when each sample ended
        self.cost = 0.0
        self.stages: list[float] = []  # time-weighted sample of each stage

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        reference()
        mid = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append(end - mid)
        self.ends.append(end)
        self.cost += end - start

    def _factor(self, first: int) -> float:
        """Time-weighted mean of REFERENCE_S / sample over the samples from
        `first` on."""
        samples, ends = self.samples[first:], self.ends[first:]
        smooth = [statistics.median(samples[max(0, i - 2):i + 3]) for i in range(len(samples))]
        weights = [b - a for a, b in zip(ends, ends[1:])]
        return sum(w * REFERENCE_S / s for w, s in zip(weights, smooth[1:])) / sum(weights)

    def time(self, call, inline: bool = True):
        """Run call(); returns (its result, raw seconds, adjusted seconds).

        With inline=False the stage runs elsewhere (a child process), so the
        sampling does not delay it and is not subtracted."""
        first = len(self.samples)
        for _ in range(EDGE):
            self._sample()
        cost = self.cost
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - (self.cost - cost if inline else 0.0)
        for _ in range(EDGE):
            self._sample()
        factor = self._factor(first)
        self.stages.append(REFERENCE_S / factor)
        return result, raw, raw * factor
