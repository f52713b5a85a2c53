"""Timing that discounts the load other tenants put on a shared CPU.

On a shared machine the speed of one core swings by up to 2x within seconds,
mostly because another tenant's work runs on its hyperthread sibling, and
drifts by up to 1.5x over minutes. Raw seconds then measure the neighbours
as much as countcsp. So alongside every timed call this clock runs a fixed
pure-Python calibration loop: once before the call, once after it, and every
SAMPLE_PERIOD_S during it (from a SIGALRM handler, whose own time is taken
out of the call's time). A calibration run that takes c seconds, against
REFERENCE_S on an idle core, says the core ran at REFERENCE_S / c of full
speed. The call's time is scaled by the mean of that ratio over the call's
samples.

The result is *reference seconds*: the time the call would take at the
speed the calibration loop sees on an idle core of the reference machine (a
2-core x86-64 cloud VM, CPython 3.11). On an idle core of that machine they
equal wall-clock seconds. Raw seconds are kept too, for the human-readable
lines.
"""

from __future__ import annotations

import signal
import time

# Calibration loop time on an idle core of the reference machine.
REFERENCE_S = 0.00045
SAMPLE_PERIOD_S = 0.02


def _calibration_loop() -> int:
    # dict, tuple and integer work, like the interpreter loops it stands for
    d: dict = {}
    s = 0
    for i in range(2000):
        t = (i & 7, i & 15, i % 3)
        d[t] = d.get(t, 0) + 1
        s += len(t)
    return s


class LoadClock:
    """Context manager; inside it, `timed(fn)` runs fn and returns (result,
    exception, reference seconds, raw seconds)."""

    def __init__(self):
        self._samples: list = []   # calibration seconds, in time order
        self._stolen = 0.0         # seconds spent in the sampler
        self._previous = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        _calibration_loop()
        c = time.perf_counter() - t0
        self._stolen += c
        return c

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(self._sample())

    def _sample_between_calls(self) -> float:
        # an alarm inside this sample would inflate it; it is delivered after
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._previous = self._sample_between_calls()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def timed(self, fn):
        first = len(self._samples)
        stolen = self._stolen
        result = error = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # the caller decides what a failure means
            error = e
        raw = time.perf_counter() - t0 - (self._stolen - stolen)
        after = self._sample_between_calls()
        cs = [self._previous, *self._samples[first:], after]
        self._previous = after
        speed = sum(REFERENCE_S / c for c in cs) / len(cs)
        return result, error, raw * speed, raw
