"""Time in units of the machine's current speed.

The benchmark shares a small virtual machine with other tenants.  Its
speed drifts by up to 2.5x over minutes (in one stretch, 1000 chain samples
took 30 ms; in another, 78 ms), and CPU time drifts with wall time, so the
process is not descheduled but runs slower.  Wall times from runs a few
minutes apart therefore differ by more than any bound that could catch a
regression.

So the end-to-end times are *reference seconds*: a call's wall time
divided by the wall time of a fixed reference computation, sampled
between operations around the call, times REFERENCE_S.  The reference
is the benchmark's own code and never calls the program, so a change to the
program moves reference seconds as it moves wall time, while a change in
machine speed moves both the call and the reference.  The reference is
a loop of interpreted Python with small numpy calls, as in the sampling
loop on small models, and one dense (1024, 1024) einsum product, as in
exact-backend messages.  Over a three-minute stretch in which the machine
sped up and slowed down by a factor of 1.6, the program's exact `pmpm
infer` on a 32x32 phantom and its sampling of a 12-voxel chain, each
divided by these two parts, stayed within 15% (the Python part) and 9%
(the einsum part) of their medians over 15-second windows, against 32%
undivided; passes over large arrays tracked neither.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# About the reference computation's median wall time on a 2-core Xeon VM
# with single-threaded BLAS, so that reference seconds there read close to
# wall seconds.
REFERENCE_S = 0.025

_STATE = np.linspace(0.1, 1.0, 24).reshape(12, 2)
_COUPLING = np.eye(12) * 0.5 + 0.01
_KERNEL = np.exp(-np.linspace(0.0, 3.0, 1 << 20)).reshape(1024, 1024)
_FIELD = np.full((2, 1024, 3), 1.0 / 3.0)


def reference_work() -> None:
    """The fixed reference computation."""
    acc = 0
    for i in range(15000):
        acc = (acc * 31 + i) % 1000003
    a = _STATE
    for _ in range(500):
        a = np.exp(-(_COUPLING @ a))
        a /= a.sum(axis=1, keepdims=True)
    np.einsum("ij,...jl->...il", _KERNEL, _FIELD)


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Clock:
    """Samples the reference computation between a run's operations, at
    most once per INTERVAL_S, and converts wall intervals to reference
    seconds by the samples taken within WINDOW_S of them.

    The machine's speed flickers within milliseconds (the Python part
    alone reads 3.4 ms or 5.5 ms from one call to the next), so one
    sample next to a call says little; it also drifts over seconds, so a
    mean over the whole run misses drifts within it.  The median of the
    few samples around a call sits between the two.
    """

    INTERVAL_S = 0.25
    WINDOW_S = 3.0

    def __init__(self):
        self.samples = []  # (perf_counter time, reference wall seconds)
        self.last = -math.inf

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.last >= self.INTERVAL_S:
            t = time.perf_counter()
            self.samples.append((t, reference_seconds()))
            self.last = time.perf_counter()

    def seconds(self, interval) -> float:
        """Reference seconds of a wall interval (t0, t1).  Every operation
        starts within INTERVAL_S of a sample, so `near` is never empty."""
        t0, t1 = interval
        near = [r for t, r in self.samples
                if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        return (t1 - t0) * REFERENCE_S / statistics.median(near)

    def scale(self) -> float:
        """Reference seconds per wall second, over the whole run."""
        return REFERENCE_S / statistics.median(r for _, r in self.samples)
