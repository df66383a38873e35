"""Host-speed probe for the measured passes.

On a shared host the same pass can take 1.7x longer in one minute than in
the next, while steal time stays near zero.  The probe measures that: every
``INTERVAL_S`` a SIGALRM handler runs a fixed pure-Python kernel (no
degenkit code) and records how long it took.  Dividing an op's time by the
probe time around it gives the op's cost in probe units, which moves
with degenkit's own speed but far less with the host's.  The handler's own
time is excluded from the ops' wall and CPU times by ``OpClock``.  The
kernel runs with the garbage collector off, so that no collection of the
engine's heap lands in a probe reading; collections stay in the ops' time.

Set-up time is scaled the same way, by a reading taken right after set-up
in the same process, and expressed in seconds on a reference host.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
WINDOW_S = 0.2  # probe samples this close to an op count toward its speed
TRIM = 0.2  # share of the readings dropped at each end before averaging
# ``reading()`` on a 2-core Xeon VM in a fast period: set-up times are
# scaled to a host on which it reads this (``scale_setup``).
REFERENCE_S = 0.0004
READING_RUNS = 50


def kernel():
    """Tuple keys in a dict, Fractions, sorting and json.dumps: the mix the
    engine's walks spend their time on, about 0.6 ms on a 2-core Xeon VM."""
    acc, table = Fraction(0), {}
    for i in range(300):
        key = (i % 37, (i * 7) % 13, "v%d" % (i % 11))
        table[key] = table.get(key, ()) + (i,)
        if i % 6 == 0:
            acc += Fraction(i % 9 + 1, i % 5 + 2)
    json.dumps(sorted(table.items())[:50], separators=(",", ":"))


def timed_kernel():
    """Seconds one kernel run takes, with the garbage collector off so that
    no collection of the engine's heap lands in the reading."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def reading():
    """Trimmed mean of ``READING_RUNS`` kernel runs: the host's speed now."""
    return trimmed_mean([timed_kernel() for _ in range(READING_RUNS)])


def scale_setup(setup_s, probe_s):
    """Set-up seconds on a host on which ``reading()`` gives ``REFERENCE_S``."""
    return setup_s * REFERENCE_S / probe_s


class HostProbe:
    def __init__(self):
        self.samples = []  # (perf_counter at start, seconds taken)
        self.spent = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        dt = timed_kernel()
        self.samples.append((t0, dt))
        self.spent += dt

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def around(self, start, end):
        """Probe time around [start, end]: the trimmed mean of the samples
        within WINDOW_S of it."""
        near = [] if start is None else [
            dt for t, dt in self.samples if start - WINDOW_S <= t <= end + WINDOW_S
        ]
        return trimmed_mean(near or [dt for _, dt in self.samples])


def trimmed_mean(values):
    """Mean without the highest and lowest ``TRIM`` of the values.  One
    reading taken while the process was preempted does not move it, and,
    unlike the median, it moves smoothly when the readings mix the host's
    fast and slow periods, which are about 1.7x apart."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.mean(values[cut:len(values) - cut])
