"""Speed probe: samples how fast this CPU is while a session runs.

On a shared 2-vCPU Intel Xeon (2.0 GHz) virtual machine, CPU throughput
switches between states about 40% apart for seconds to minutes at a time, so
wall times of one workload spread by 10-35% across runs.  A SIGALRM handler
times a fixed reference computation every ``PROBE_INTERVAL_S`` seconds of
wall time; the mean sample while a command runs
measures the machine's speed during exactly that command, and dividing the
command's time by it removes most of the spread.  The reference computation
uses no reeb_atlas code, so a change to the program cannot move it.
"""

import signal
import time

import numpy as np

_EXPS = np.array([[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 4, 0], [3, 0, 1, 0]])
_U = np.full(4, 0.5)
_M = np.arange(16.0).reshape(4, 4) / 32.0


def reference_work():
    """About 0.3 ms of the work the workloads are made of: interpreter loops,
    and numpy calls on arrays of a few elements."""
    s = 0
    for i in range(2000):
        s += i * i
    for _ in range(10):
        np.prod(_U[None, :] ** _EXPS, axis=1)
    a = _M
    for _ in range(20):
        a = a @ _M + _M
    return s, a


# mean reference_work() sample on that 2-vCPU Xeon machine
REF_SAMPLE_S = 3.0e-4
PROBE_INTERVAL_S = 0.05


def at_reference_speed(seconds, sample):
    """Rescale a time measured while probe samples took ``sample`` seconds."""
    return seconds * REF_SAMPLE_S / sample


class SpeedProbe:
    """Context manager sampling ``reference_work`` every ``PROBE_INTERVAL_S``.

    ``spent`` is the total time spent in samples, so callers can subtract it
    from the wall time of the work they measure.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
