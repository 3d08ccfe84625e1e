"""Timing at a reference machine speed.

On a virtual machine whose physical cores carry other work, the speed
swings by up to 2x within seconds. ``timed`` samples the machine's speed while
an interval runs: it runs a fixed kernel that shares no code with momentflow
before and after the interval and, from a SIGALRM handler, every
SAMPLE_PERIOD_S inside it. The interval minus the handler's own time, scaled
by REFERENCE_S over the kernel's mean duration, reads as seconds on the
machine running at its reference speed.
"""

import signal
import statistics
import time

import numpy as np

# Duration of ``reference()`` on the machine the bounds were set on, in its
# slow regime (2 vCPUs; the kernel took 8.7 ms there, 4.9 ms in the fast one).
REFERENCE_S = 0.0087
# Speed samples inside an interval: the handler costs about 8% of the wall
# time, which ``timed`` subtracts.
SAMPLE_PERIOD_S = 0.1

_M = np.exp(1j * np.arange(16.0)).reshape(4, 4) / 4.0
_B = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4)


def reference():
    """Seconds taken by a fixed piece of interpreter and small-matrix numpy
    work, the kind of work momentflow's kernels do."""
    start = time.perf_counter()
    v = np.ones(4, dtype=complex)
    acc = 0.0
    for _ in range(300):
        v = _M @ v + 0.5 * v
        acc += float(np.linalg.norm(v))
        x = np.linalg.solve(_B, v.real)
        acc += float(x @ x)
        v = v / np.linalg.norm(v)
    return time.perf_counter() - start


def reference_median(reps=3):
    return statistics.median(reference() for _ in range(reps))


def timed(fn):
    """(wall seconds, seconds at reference speed) of one call of ``fn``; the
    wall time excludes the speed samples taken inside the interval."""
    inside = []    # (start, duration) of each sample the handler took

    def sample(signum, frame):
        inside.append((time.perf_counter(), reference()))

    outside = [reference()]
    previous = signal.signal(signal.SIGALRM, sample)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    durations = [d for t, d in inside if t < end]
    outside.append(reference())
    work = end - start - sum(durations)
    return work, work * REFERENCE_S / statistics.mean(outside + durations)


def wall(fn):
    """(wall seconds, wall seconds) of one call of ``fn``, with no samples."""
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return elapsed, elapsed
