"""Host-drift probe and host-normalized timing.

The benchmark host is shared: the speed of the same code drifts by tens of
percent over seconds, with CPU time tracking wall time, so the drift is not
scheduling.  A fixed calibration kernel (numpy gather-multiply-reduceat plus a
pure-Python loop, writing only into preallocated buffers so that the
workload's heap cannot change its time) is timed every ``SAMPLE_EVERY_S``
seconds while a pass runs, from a timer signal.  The pass time is then
rescaled to the reference host speed, the one at which the kernel takes
``REFERENCE_CALIB_S``:

    normalized = measured * mean(REFERENCE_CALIB_S / kernel_time)

Uniform sampling in time makes the mean a time average of the host speed.
Kernel time is excluded from the measured pass time.
"""
import signal
import statistics
import time

import numpy as np

# kernel time on a quiet 2-core x86-64 host (numpy 2.4, Python 3.11)
REFERENCE_CALIB_S = 0.005
SAMPLE_EVERY_S = 0.25


def calibration_kernel():
    """The fixed reference kernel, about 5 ms on a quiet host."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 400, 126))
    ia, ib = rng.integers(0, 126, (2, 1500))
    seg = np.concatenate(([0], np.sort(rng.choice(np.arange(1, 1500), 125,
                                                  replace=False))))
    ga, gb = np.empty((2, 400, 1500))
    out = np.empty((400, 126))

    def run():
        np.take(a, ia, axis=1, out=ga)
        np.take(b, ib, axis=1, out=gb)
        np.multiply(ga, gb, out=ga)
        np.add.reduceat(ga, seg, axis=-1, out=out)
        acc = 0
        for i in range(5000):
            acc += i * i
        return acc
    run()  # the first call pays the page faults of the buffers
    return run


class HostTimed:
    """Times the body of a ``with`` block in wall and CPU seconds, raw
    (``wall``, ``cpu``) and host-normalized (``wall_ref``, ``cpu_ref``).

    ``kernel`` is timed before and after the body and every
    ``SAMPLE_EVERY_S`` seconds inside it; ``calib`` is the median kernel time
    seen.
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self.samples = []
        self._paused_wall = self._paused_cpu = 0.0

    def _sample(self, *_signal_args):
        wall, cpu = time.perf_counter(), time.process_time()
        self._kernel()
        took = time.perf_counter() - wall
        self.samples.append(took)
        self._paused_wall += took
        self._paused_cpu += time.process_time() - cpu

    def __enter__(self):
        self._sample()
        self._paused_wall = self._paused_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        self.wall = wall - self._paused_wall
        self.cpu = cpu - self._paused_cpu
        self._sample()
        speed = speed_factor(self.samples)
        self.wall_ref, self.cpu_ref = self.wall * speed, self.cpu * speed
        self.calib = statistics.median(self.samples)
        return False


def speed_factor(samples):
    """Mean host speed over kernel timings, relative to the reference."""
    return statistics.fmean(REFERENCE_CALIB_S / s for s in samples)
