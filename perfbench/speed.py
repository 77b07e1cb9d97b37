"""Machine-speed probe used to scale the benchmark's timings.

On a shared host the CPU speed one process gets can change by tens of
percent within seconds.  A fixed reference kernel of small numpy operations
(the same kind of work the package does per row) is timed before and after
every measured operation, and every ``PROBE_PERIOD_S`` during it.  The
operation's time is scaled by ``REFERENCE_S`` over the mean kernel time: the
time the operation would take where the kernel takes ``REFERENCE_S``.

The garbage collector is off while the kernel runs, and between operations
the program's garbage is collected first, so collections do not land in a
kernel time.  The kernel's 3-element arrays never reach BLAS, so BLAS worker
threads do not run it.  Whether the program's state still slows the kernel
shows in ``leak``: per CPU, the median kernel time inside operations over
the median between them, which stays near 1 when it does not.  It is taken
per CPU because the process moves between CPUs that can differ in speed by
half (on a 2-core VM, 2.8 ms on one and 4.3 ms on the other, measured by
pinning the kernel to each in turn).
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 2.5e-3
PROBE_PERIOD_S = 0.25


def kernel():
    """Wall time of one pass of the reference kernel, with the garbage
    collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        b = np.array([0.1, -0.2, 0.3])
        acc = np.zeros((3, 3))
        t0 = perf_counter()
        for v in np.linspace(0.0, 1.0, 400):
            z = np.array([1.0, v, v * v])
            mu = 1.0 / (1.0 + np.exp(-float(z @ b)))
            acc += mu * np.outer(z, z)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def cpu():
    """The CPU this process last ran on (Linux), or -1 where unknown."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return -1


def calibrate(log=None):
    """Current reference-kernel time between operations (median of three
    passes, after a full collection); appends ``(cpu, time)`` to ``log``."""
    gc.collect()
    t = statistics.median(kernel() for _ in range(3))
    if log is not None:
        log.append((cpu(), t))
    return t


def scale(kernel_times):
    return REFERENCE_S / statistics.mean(kernel_times)


class Probe:
    """Kernel timings taken every ``PROBE_PERIOD_S`` while a long operation
    runs, from a SIGALRM handler (which runs between bytecodes of the main
    thread).  ``spent`` is the probe's own time, to be taken out of the
    operation's wall time; ``cpus`` the CPU of each sample."""

    def __init__(self):
        self.samples = []
        self.cpus = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(kernel())
        self.cpus.append(cpu())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def leak(between, inside):
    """Per CPU with at least five samples of each kind, the median kernel
    time inside operations over the median between them; ``between`` and
    ``inside`` hold ``(cpu, time)`` pairs."""
    out = {}
    for c in sorted({c for c, _ in inside}):
        ins = [t for k, t in inside if k == c]
        bet = [t for k, t in between if k == c]
        if len(ins) >= 5 and len(bet) >= 5:
            out[c] = statistics.median(ins) / statistics.median(bet)
    return out
