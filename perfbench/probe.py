"""A fixed reference task that measures the machine's current speed.

On a shared host the speed of one core drifts by tens of percent, for
seconds to minutes at a time, as other tenants get busy; CPU time drifts
with wall time, so it is no way out. The benchmark therefore expresses
times at a fixed nominal speed: it times this probe around and during every
operation and divides the operation's wall time by the probe's slowness
over that span, which cancels the drift the two share. The probe is a
plain interpreted loop, like the call-bound loops that carry most of
attnsim's time. It touches nothing of attnsim, so a change to the program
cannot change it; changing the probe or NOMINAL_S rescales every
normalised time, so neither may change between two measurements that are
compared.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

LOOP = 6_000
# Time of one probe, in seconds, on an idle core of the 2-core VM the
# benchmark was built on (Xeon, KVM). Normalised times read as seconds on
# a core of that speed.
NOMINAL_S = 0.00032
REPEATS = 5  # probes per measurement between operations
TICK_S = 0.05  # interval between probes while an operation runs


def _work() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i
    return total


def _slowness() -> float:
    start = perf_counter()
    _work()
    return (perf_counter() - start) / NOMINAL_S


def slowness() -> float:
    """The machine's slowness now, relative to nominal: the median of
    REPEATS probes, with the odd interrupt filtered out."""
    return statistics.median(_slowness() for _ in range(REPEATS))


class Sampler:
    """Probes the machine every TICK_S seconds while an operation runs.

    The probe runs in a SIGALRM handler, so in the main thread between two
    bytecodes; a long call into C delays it until the call returns. The time
    the probes take is kept in ``spent`` for the caller to subtract."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(_slowness())
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        # stop the timer before the handler goes, so no tick finds it gone
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
