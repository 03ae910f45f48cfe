"""Speed probe: scales CPU times to a reference machine speed.

On a shared machine the same pure-Python work can take 20-40% more CPU time
from one minute to the next, and a process can run 10-20% slower than the one
before it for the whole of its life. The benchmark therefore runs a fixed
probe many times alongside the work it measures and reports CPU times
multiplied by KERNEL_REF_S / (the probe's mean CPU time, the slowest and
fastest tenth left out): times at the reference speed. The mean, not the
median: the speed drifts while an op runs, and the op's CPU time follows the
mean speed over its run.

CPU times are read from the thread clock: the measured processes are
single-threaded, and while a process CPU timer is armed (see Sampler) Linux
updates the process clock only once per tick.
"""

import signal
import statistics
import time

# The probe's CPU time at the reference speed: about its mean on the machine the
# benchmark was defined on (a 2-vCPU Intel Xeon VM at 2.0 GHz, CPython 3.11).
KERNEL_REF_S = 0.0013


def kernel_time():
    """CPU time of one probe: fixed pure-Python integer row elimination, like SNF."""
    start = time.thread_time()
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(40)] for i in range(40)]
    for k in range(10):
        pivot = rows[k]
        for i in range(k + 1, 40):
            row = rows[i]
            q = row[k] // (pivot[k] or 1)
            for j in range(40):
                row[j] -= q * pivot[j]
    return time.thread_time() - start


def scale(kernel_times):
    """Factor that turns CPU seconds measured alongside these probes into reference seconds."""
    times = sorted(kernel_times)
    cut = len(times) // 10
    return KERNEL_REF_S / statistics.mean(times[cut:len(times) - cut])


class Sampler:
    """Runs a probe every `every` CPU seconds while entered, by SIGPROF.

    For work too long for probes before and after it to describe the CPU
    speed it ran at. `clock()` leaves the probes' own time out.
    """

    def __init__(self, every=0.1):
        self.every = every
        self.times = []
        self.spent = 0.0

    def _on_timer(self, signum, frame):
        start = time.thread_time()
        self.times.append(kernel_time())
        self.spent += time.thread_time() - start

    def clock(self):
        """CPU seconds of this thread, less the time spent probing."""
        return time.thread_time() - self.spent

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
