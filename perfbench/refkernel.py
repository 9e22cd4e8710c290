"""Host-speed reference kernel and the speed-corrected clock built on it.

The machine this benchmark runs on is shared: identical runs of the
program vary by up to a fifth in raw wall-clock time, because the host
gives the process more or less CPU from one second to the next.  To
report numbers that repeat, a fixed piece of reference work is run
interleaved with the workload, at fine grain, and every host-time metric
is scaled to a pinned nominal host speed::

    corrected = raw * (NOMINAL_KERNEL_S / kernel_time_during_the_window) ** ELASTICITY

The kernel imports nothing from the program under test, so no change to
the program can change it.  Its mix -- interpreter-bound loops over
dicts and lists, small numpy operations on (64, 16) arrays, and a JSON
round trip -- mirrors what the program's hot paths spend their time on;
a pure-Python kernel alone tracked only some workloads.

The kernel pauses the garbage collector while it runs and keeps nothing
it allocates, so the size of the program's heap does not change the
kernel's speed (``selftest.py`` checks this).
"""

from __future__ import annotations

import contextlib
import gc
import json
import signal
from time import perf_counter

import numpy as np

#: The kernel's typical time inside a workload on the reference host
#: (2 vCPU KVM guest, Python 3.11, numpy 1.x).  Only the ratio to it
#: matters: a corrected metric reads as if the whole run had this speed.
NOMINAL_KERNEL_S = 0.002

#: How strongly workload time follows kernel time.  Interleaving the
#: kernel with short jobs of each workload on the reference host for
#: minutes, log(job time) moved 0.75-0.81 times as far as log(kernel
#: time) (regression slope and ratio of standard deviations); when the
#: host sped up 1.6x for the kernel, the jobs sped up 1.45x.  The
#: correction is therefore raised to this power.
ELASTICITY = 0.8

#: Interval of the timer that interrupts the workload to run the kernel.
#: A sample runs the work twice (about 4 ms), so the kernel costs ~4 %
#: of a window; that time is subtracted from the window.
SAMPLE_EVERY_S = 0.1

_ROWS, _COLS = 64, 16


def _python_part(n: int) -> float:
    table: dict[int, float] = {}
    items: list[tuple[int, float]] = []
    acc = 0.0
    for i in range(n):
        key = (i * 7919) % 257
        value = table.get(key, 1.0) * 0.999 + i * 1e-3
        table[key] = value
        if i % 3 == 0:
            items.append((key, value))
        acc += value if value < 50.0 else -value
    items.sort()
    return acc + len(items) + sum(v for _k, v in items[:32])


def _numpy_part(reps: int) -> float:
    base = np.arange(_ROWS * _COLS, dtype=float).reshape(_ROWS, _COLS)
    other = np.linspace(0.5, 1.5, _ROWS * _COLS).reshape(_ROWS, _COLS)
    mask = (base % 3.0) == 0.0
    acc = 0.0
    for _ in range(reps):
        x = base * 1.0001 + other
        y = np.where(mask, x, other * 0.5)
        z = np.maximum(x - y, 0.0)
        rows = z.sum(axis=1)
        acc += float(rows.max()) + float(np.dot(rows, rows[::-1]))
        base = x * 0.5
    return acc


def _json_part(reps: int) -> int:
    doc = {
        f"metric_{i}": {"mean": i * 0.5, "std": i * 0.25, "n": i,
                        "tags": ["a", "b", str(i)]}
        for i in range(24)
    }
    size = 0
    for _ in range(reps):
        text = json.dumps(doc, sort_keys=True)
        doc = json.loads(text)
        size += len(text)
    return size


def _work() -> float:
    return _python_part(1500) + _numpy_part(24) + _json_part(6)


def kernel_once() -> float:
    """Run the reference work; return the host seconds it took.

    The first pass only loads the kernel's code and data into the
    caches, which whatever ran before it left in any state; the second
    pass is timed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedClock:
    """Times windows of workload work and corrects them for host speed.

    While started, an interval timer interrupts the workload every
    :data:`SAMPLE_EVERY_S` and runs the kernel in the signal handler, so
    samples are spread evenly in time whatever the workload is doing.
    :meth:`open` and :meth:`close` bracket a timed window and take a
    sample each, so a short window still has samples of its own.  Kernel
    time, and time spent under :meth:`paused`, is subtracted from a
    window's raw time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._excluded_s = 0.0
        self._busy = False
        self._window: tuple[float, float, int] | None = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = perf_counter()
            self.samples.append(kernel_once())
            self._excluded_s += perf_counter() - start
        finally:
            self._busy = False

    @contextlib.contextmanager
    def paused(self):
        """Work that is not the workload's, such as checking its output."""
        self._busy = True
        start = perf_counter()
        try:
            yield
        finally:
            self._excluded_s += perf_counter() - start
            self._busy = False

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def open(self) -> None:
        self.sample()
        self._window = (perf_counter(), self._excluded_s, len(self.samples) - 1)

    def close(self) -> "Timing":
        if self._window is None:
            raise RuntimeError("close() without open()")
        end = perf_counter()
        start, spent_before, first = self._window
        self._window = None
        raw = (end - start) - (self._excluded_s - spent_before)
        self.sample()
        return Timing(raw_s=raw, kernel=self.samples[first:])


def typical(samples: list[float]) -> float:
    """Mean of the kernel samples without the top and bottom tenth: a
    sample the host interrupted outright says little about its speed."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def speed_factor(samples: list[float]) -> float:
    """Multiplier from raw to nominal-speed time; below 1 on a slow host."""
    return (NOMINAL_KERNEL_S / typical(samples)) ** ELASTICITY


class Timing:
    """One timed window: raw host seconds and the kernel samples in it."""

    __slots__ = ("raw_s", "kernel")

    def __init__(self, raw_s: float, kernel: list[float]) -> None:
        self.raw_s = raw_s
        self.kernel = kernel

    @property
    def speed_factor(self) -> float:
        return speed_factor(self.kernel)

    @property
    def corrected_s(self) -> float:
        return self.raw_s * self.speed_factor
