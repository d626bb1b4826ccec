"""Machine-speed probe: a fixed kernel sampled while operations run.

On a shared machine the same operation can take up to twice as long from one
minute to the next (measured: a fixed interpreted loop alternates between
two speeds about 1.5x apart, in phases of under a second to tens of seconds,
independently on each CPU). Medians within a run cannot remove phases that
outlast the run, so the benchmark also measures how fast the machine is
while each operation runs: a SIGALRM timer runs a small fixed kernel at a
fixed interval, in the benchmark's own process, between the library's
bytecodes. Timed spans are reported with the probe's time subtracted and
scaled by the kernel's reference time over its mean time during the span,
that is, in seconds of a machine on which the kernel takes its reference
time. The host slows interpreted code more than whole-array numpy passes,
so each workload samples the kernel closest to its own code.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_SMALL = np.random.default_rng(0).integers(0, 3600, size=240)
_LARGE = np.random.default_rng(1).integers(0, 1 << 20, size=1 << 15)


def interpreter_kernel() -> None:
    """Interpreted integer arithmetic, big-integer bit operations, small
    numpy calls and short-lived Python objects."""
    s = 0
    for i in range(400):
        s += i * i % 7
    x = (1 << 31) - 1
    for i in range(200):
        s |= (x >> (i % 31)) & (i * 2654435761)
        s ^= s.bit_count()
    for _ in range(2):
        u = np.unique(_SMALL)
        np.isin(_SMALL, u[:10])
        np.union1d(u[:50], _SMALL[:50])
        np.argsort(_SMALL, kind="stable")
        np.bincount(_SMALL)
    text = " ".join(str(v) for v in _SMALL[:120].tolist())
    pairs = {(int(a), int(b)) for a, b in zip(text.split()[::2], text.split()[1::2])}
    len(pairs)


def array_kernel() -> None:
    """Whole-array numpy passes over a quarter megabyte: a stable argsort, a
    gather, a bincount and a cumulative sum."""
    order = np.argsort(_LARGE, kind="stable")
    np.cumsum(np.bincount(_LARGE[order] & 0xFFFF, minlength=1 << 16))


@dataclass(frozen=True)
class Kernel:
    """A probe kernel, how often it runs, and its reference time: roughly
    its time on the 2-CPU VM the benchmark was written on (Python 3.11,
    numpy 2.4). Only ratios between runs matter; the reference time just
    keeps figures close to wall seconds."""

    fn: Callable[[], None]
    interval_s: float
    reference_s: float


INTERPRETER = Kernel(interpreter_kernel, 0.04, 0.0005)
ARRAYS = Kernel(array_kernel, 0.2, 0.004)

# The handler may interrupt the library anywhere, even inside a lazy import
# that a kernel's numpy calls would trigger (numpy.ma); running each kernel
# once here leaves it nothing to initialise later.
interpreter_kernel()
array_kernel()


class SpeedProbe:
    """Samples the kernel on a timer while entered; usable repeatedly."""

    def __init__(self, kernel: Kernel = INTERPRETER):
        self.kernel = kernel
        self.samples: list[float] = []
        self.spent = 0.0  # wall time taken by the probe itself
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel.fn()  # untimed: brings the kernel back into the caches
        t1 = time.perf_counter()
        self.kernel.fn()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.kernel.interval_s, self.kernel.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """(fn(*args), its wall time without the probe's own) with sampling on."""
        spent = self.spent
        t = time.perf_counter()
        with self:
            result = fn(*args)
        return result, time.perf_counter() - t - (self.spent - spent)

    def scale(self) -> float:
        """Factor that converts wall seconds under this probe to reference
        seconds (one extra sample if a span was too short to get any)."""
        if not self.samples:
            self.sample()
        return self.kernel.reference_s / statistics.mean(self.samples)
