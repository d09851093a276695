"""CPU time rescaled to a reference CPU speed.

On a shared machine the speed of one CPU drifts: the same operation has run
up to 2x slower for tens of seconds at a time, in CPU time as much as in
wall time, so medians over a run cannot average it out.  The machine also
takes the CPU away now and then (steal time), which lengthens wall time but
not the process's CPU time.  A `RefClock` samples the current speed every
INTERVAL_S seconds by timing a fixed pure-Python kernel in CPU time, from a
SIGALRM handler (and whenever it is read), and integrates the process's CPU
time divided by the kernel's mean time at the two ends of each interval.
The result is in reference seconds: CPU seconds on a CPU that runs the
kernel in REF_KERNEL_S.  Work that gets slower on every CPU, such as a
slower program, reads slower; a CPU that runs everything slower does not.
The kernels' own time is left out of the total; they add 1-3% to the time
of the work they sample.

SIGALRM handlers run in the main thread between bytecodes, so a sample
waits for a long native call (a numpy product) to return; that call's time
is then rescaled by the speed on either side of it.

Work bound by memory bandwidth rather than by the interpreter, such as the
int64 structure-tensor products of `StructureAlgebra.mul`, drifts less than
interpreted code.  A clock built with `tensor=True` also samples a second
kernel, one such product, and rescales the time between `switch(TENSOR)`
and `switch(INTERP)` by that kernel's speed instead.
"""

from __future__ import annotations

import gc
import signal
import time

KERNEL_ROUNDS = 1500
TENSOR_DIM = 96
# About the kernels' times on an idle core of a 2 GHz Xeon VM, so that
# reference seconds there read as CPU seconds.
REF_KERNEL_S = 0.75e-3
REF_TENSOR_S = 3.0e-3
INTERVAL_S = 0.1
INTERP, TENSOR = 0, 1


class _Word:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail

    def key(self):
        return (self.head, self.tail)


def kernel_seconds() -> float:
    """CPU time of one run of the calibration kernel: object creation, method
    calls, tuples and dict updates, the operations the program's interpreted
    code is made of.  Of the kernels tried, its time tracked the drift of the
    program's own operations most closely (B(1,4) builds and the B(3,3)
    completion in fresh processes).  The collector is off while it runs, so
    that a collection of the program's heap is not timed as CPU speed."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        counts = {}
        t0 = time.thread_time()
        for i in range(KERNEL_ROUNDS):
            key = _Word(i & 63, i % 7).key()
            counts[key] = counts.get(key, 0) + 1
        return time.thread_time() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


class TensorKernel:
    """CPU time of one product of a vector with a (d, d*d) int64 tensor mod
    101, the fast path of `StructureAlgebra.mul` at d = TENSOR_DIM (a 7 MB
    tensor)."""

    def __init__(self):
        import numpy as np
        d = TENSOR_DIM
        self._tensor = (np.arange(d ** 3, dtype=np.int64) % 101).reshape(d, d * d)
        self._vec = np.arange(d, dtype=np.int64) % 101

    def __call__(self) -> float:
        t0 = time.thread_time()
        (self._vec @ self._tensor) % 101
        return time.thread_time() - t0


class RefClock:
    """Reference seconds of the process's CPU time since construction;
    `start` turns on the sampler.

    Each kind of work (INTERP, TENSOR) is rescaled by the speed of its own
    kernel: the mean of its last two samples."""

    def __init__(self, tensor: bool = False):
        self.ref_s = 0.0
        # (kernel, its reference time), indexed by kind of work
        self._kernels = [(kernel_seconds, REF_KERNEL_S)]
        if tensor:
            self._kernels.append((TensorKernel(), REF_TENSOR_S))
        self._sample_kernels()      # the first run of a fresh process is slow
        self._times = self._sample_kernels()
        self._speeds = [ref_s / t for (_, ref_s), t in zip(self._kernels, self._times)]
        self._mode = INTERP
        self._last = time.process_time()
        self._busy = False

    def _sample_kernels(self) -> list:
        return [kernel() for kernel, _ in self._kernels]

    def _advance(self, now: float) -> None:
        self.ref_s += (now - self._last) * self._speeds[self._mode]
        self._last = now

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    # `_busy` keeps an alarm that lands inside `sample` or `switch` from
    # updating the totals halfway through; that sample is skipped.

    def switch(self, mode: int) -> None:
        """Rescale the time from now on as work of kind `mode`."""
        if self._busy:
            return
        self._busy = True
        try:
            self._advance(time.process_time())
            self._mode = mode
        finally:
            self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            now = time.process_time()
            times = self._sample_kernels()
            self._speeds = [2 * ref_s / (old + new)
                            for (_, ref_s), old, new in zip(self._kernels, self._times, times)]
            self._advance(now)
            self._times = times
            self._last = time.process_time()
        finally:
            self._busy = False

    def read(self) -> float:
        """Reference seconds up to now."""
        self.sample()
        return self.ref_s
