"""Host-speed sampling: a fixed reference loop timed at intervals during a run.

The benchmark's host is shared and its speed drifts: the same pure-Python
loop runs up to about 1.8x slower at some moments than at others, in phases
from under a second to many minutes.  Process CPU time drifts with it (the
processor itself runs slower), so it cannot stand in for wall time.

While a run measures, an interval timer interrupts it every ``PERIOD_S``
and times ``reference()``, a loop that uses no proxtrace code and allocates
no object the garbage collector tracks (a collection inside it would charge
the workload's garbage to the host).  The mean reference time over a
section of the run says how fast the host ran during that section.  A time
measured in the section, multiplied by ``scale()``, is the time it would
have taken at the host speed where ``reference()`` takes ``REFERENCE_S``;
within one run, this cut the pass-to-pass spread of the same work from
0.14-0.15 to 0.035-0.053 (coefficient of variation).

``clock()`` leaves out the time spent in the sampler, so every time read
through it excludes the interruptions.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02

# reference() on the 2-core KVM guest the baseline was measured on, in its
# fast phase; only a scale, so that scaled times read as seconds.
REFERENCE_S = 0.0005


def reference() -> int:
    acc = 0
    for i in range(2500):
        acc = (acc * 31 + len(str(i))) & 0xFFFFF
    return acc


class HostSpeed:
    """Samples the host's speed while entered; `clock()` excludes the sampling."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0
        self._sampling = False
        self._previous_handler = None

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def _sample(self, *_signal) -> None:
        if self._sampling:  # a timer tick inside mark()'s own sample
            return
        self._sampling = True
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)
        self._spent += time.perf_counter() - start
        self._sampling = False

    def mark(self) -> int:
        """Take one sample now, to open or close a section; returns its index."""
        self._sample()
        return len(self.samples) - 1

    def scale(self, first: int, last: int) -> float:
        """REFERENCE_S over the mean of the samples from mark `first` to mark `last`."""
        return REFERENCE_S / statistics.fmean(self.samples[first:last + 1])

    def __enter__(self) -> "HostSpeed":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
