"""A clock that runs at a fixed reference speed of the host.

On a shared VM the same code can run up to twice as slowly for seconds at
a time. The slowdown also shows in CPU time, so it cannot be subtracted.
A median of raw times over a 20-second run moves by 20–30% from one run to
the next, depending on how much of the run the host was slow.

``ScaledClock`` times a fixed reference kernel every ``INTERVAL_S`` seconds,
from a SIGALRM handler. That way the kernel is also sampled during long
calls. The kernel uses numpy, scipy and plain Python and never calls
rydgate, so a change to the package cannot change it. Between two kernel
timings ``k0`` and ``k1`` the clock advances by the elapsed wall time times
``REFERENCE_S / mean(k0, k1)``. The kernel's own time is left out. A scaled
time is therefore a call's cost at the host speed at which the kernel takes
``REFERENCE_S``. A change that makes the package slower or faster moves the
scaled times as much as the raw ones. Host slowdowns shared by the call and
the kernel cancel out.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.linalg import expm

# The kernel's fastest time on an uncontended 2.1 GHz Intel Xeon vCPU,
# with one BLAS thread. It sets the scale of the scaled times, nothing else.
REFERENCE_S = 4.2e-4
# How often the kernel is timed; each timing costs about 1 ms.
INTERVAL_S = 0.05


class ScaledClock:
    """Use as a context manager; ``now()`` reads scaled seconds."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.matrix = 0.3j * np.random.default_rng(0).standard_normal((9, 9))
        self.kernel_s: list[float] = []
        self.state = (0.0, time.perf_counter(), REFERENCE_S)  # scaled, wall mark, last kernel time
        self.previous = None

    def kernel(self) -> float:
        """Small matrix exponentials and products plus interpreter work, as in a gate call."""
        start = time.perf_counter()
        for _ in range(10):
            unitary = expm(self.matrix)
            np.abs(unitary @ unitary.conj().T).sum()
            sum(i * i for i in range(300))
            {i: str(i) for i in range(50)}
        return time.perf_counter() - start

    def sample(self) -> float:
        """One timing of the kernel, after an untimed run that warms the caches."""
        self.kernel()
        value = self.kernel()
        self.kernel_s.append(value)
        return value

    def tick(self, signum=None, frame=None) -> None:
        reached = time.perf_counter()
        scaled, mark, last = self.state
        current = self.sample()
        scaled += (reached - mark) * REFERENCE_S / (0.5 * (last + current))
        self.state = (scaled, time.perf_counter(), current)

    def now(self) -> float:
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            scaled, mark, last = self.state
            return scaled + (time.perf_counter() - mark) * REFERENCE_S / last
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    def __enter__(self) -> "ScaledClock":
        current = self.sample()
        self.state = (0.0, time.perf_counter(), current)
        self.previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
