"""How fast the machine runs, sampled all through a run.

On a shared host the same operation takes up to 1.6 times as long in one
minute as in the next, with the process's CPU time following its wall time:
other tenants slow the CPU itself, and the process cannot see them. The
SpeedProbe times a fixed reference computation, which depends on nothing in
packdiag, every PERIOD seconds from a timer signal, between the running
operation's own bytecodes. An operation's time divided by the mean sample
time over the same stretch is its cost in reference units: a slow spell
stretches both, so the ratio keeps only what the program does. Times are
reported in that cost times REF_S, seconds at the reference's quiet-spell
speed, so they read close to wall seconds on a quiet machine.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.1  # seconds between samples
# the mean sample time in quiet spells of a 2-vCPU shared Linux VM (Intel
# Xeon, 2.0 GHz), where the README's figures were measured; a unit
# conversion only, so a different machine reads in its own quiet seconds
# scaled by how fast it runs the reference
REF_S = 1.7e-3

_A = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_BIG = np.linspace(0.0, 1.0, 1 << 18)  # 2 MiB, past the per-core caches
_OUT = np.empty_like(_BIG)


def reference() -> None:
    """A fixed mix, about 1.3 ms: interpreted Python, small numpy calls and
    passes over a 2 MiB array.

    The mix follows what slows in a slow spell. Over 25 s windows of each
    workload, a memory-streaming sample alone steadied `detect` and `suite`
    best but not `tune`; the mix of the three kept all three within 0.04
    of IQR/median, against 0.06-0.18 for raw times.
    """
    acc = 0
    for i in range(1000):
        acc += (i * i) % 7
    x = _A
    for _ in range(100):
        x = np.tanh(x @ _A * 0.1) + _A.sum(axis=0)
    np.multiply(_BIG, 1.0001, out=_OUT)
    np.exp(_OUT, out=_OUT)
    np.abs(_OUT, out=_OUT)


class SpeedProbe:
    """Samples `reference` on SIGALRM while running; not re-entrant."""

    def __init__(self):
        self.sample_s = 0.0  # total time spent sampling
        self.samples = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.sample_s += time.perf_counter() - t0
        self.samples += 1

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # a run shorter than PERIOD
            self._tick(None, None)

    def unit_s(self) -> float:
        """Mean time of one sample: the run's reference unit."""
        return self.sample_s / self.samples

    def corrected(self, seconds: float) -> float:
        """`seconds` measured while sampling, at the reference's speed."""
        return seconds * REF_S / self.unit_s()


def busy_unit_s(seconds: float) -> float:
    """The mean sample time while interpreted Python runs for `seconds`.

    For a process whose own work is over, such as an interpreter that has
    just timed its imports.
    """
    probe = SpeedProbe()
    probe.start()
    end = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < end:
        for i in range(1000):
            acc += (i * i) % 7
    probe.stop()
    return probe.unit_s()
