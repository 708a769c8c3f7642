"""Machine-speed probe: a fixed reference computation run on a timer while a workload is measured.

On a shared host the CPU speed a process gets drifts by up to a fifth over a
few seconds: on the 2-vCPU VM the benchmark was written on, a fixed
NumPy/Python loop timed over 20-second windows spread by 22% of its median
(quartile distance), so two runs of the same code can differ by more than a
regression worth catching.  While a probe is running, a SIGALRM timer
interrupts the workload every ``PERIOD_S`` and runs ``reference_unit`` (about
a millisecond of Python, small matrix products, tiny NumPy calls and a pass
over 2 MiB),
recording when each probe ran and how long it took.

An interval measured between two ``clock()`` readings then gives two times:

- ``seconds``: its wall time minus the probes that ran inside it, so the
  probe's own cost is never charged to the workload;
- ``ref_seconds``: ``seconds`` scaled by ``NOMINAL_S`` over the mean duration
  of the probes that ran during the interval (at least ``MIN_PROBES``, the
  nearest ones when the interval is short).  This is the time the interval
  would take on a machine where the probe takes ``NOMINAL_S``, about its
  median inside a workload on that VM.  The workload and the probe slow down
  together, so the ratio cancels most of the host's drift; it cancels less
  where the workload's mix of work differs from the probe's.

The bounded end-to-end timings are ``ref_seconds``; ``seconds`` is printed
beside them in the run record.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

clock = time.perf_counter

PERIOD_S = 0.05
NOMINAL_S = 1.2e-3
MIN_PROBES = 4

_PY_LOOP = 4000
_MAT = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 8.0
_VEC = np.linspace(0.0, 1.0, 256)
_STREAM = np.linspace(0.0, 1.0, 1 << 18)  # 2 MiB of float64


def reference_unit() -> float:
    """A fixed mix of the kinds of work the workloads do, in roughly equal parts of time.

    Interpreter work, small BLAS calls, many tiny NumPy calls (where call
    overhead dominates, as in autodiff and the token-by-token loops) and a
    short memory-bound pass.  Host contention slows each kind by a different
    share, so the mix tracks the workloads better than any one of them.  The
    memory pass is kept to about a sixth of the time: at a third (4 MiB) the
    verify pass, which is interpreter-bound, spread by 12% over ten seeds;
    without it the long-context request, which copies the cache, spread by 9%.
    """
    acc = 0
    for i in range(_PY_LOOP):
        acc += i & 7
    m = _MAT
    for _ in range(12):
        m = np.tanh(_MAT @ m)
    v = _VEC
    for _ in range(60):
        v = np.maximum(v * 0.5 + _VEC, 0.0).reshape(16, 16).T.reshape(-1)
    return acc + float(m[0, 0]) + float(v[0]) + float(_STREAM.sum())


class SpeedProbe:
    """Runs ``reference_unit`` on a timer between ``start()`` and ``stop()``.

    An inactive probe never starts its timer, so ``seconds`` is plain wall time.
    """

    def __init__(self, active: bool = True, period: float = PERIOD_S):
        self.active = active
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._spent = [0.0]  # running sum of probe durations, one entry ahead of starts
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = clock()
        reference_unit()
        self.record(start, clock() - start)

    def record(self, start: float, duration: float) -> None:
        self.starts.append(start)
        self.durations.append(duration)
        self._spent.append(self._spent[-1] + duration)

    def start(self) -> None:
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def seconds(self, interval: tuple[float, float]) -> float:
        """Wall time of ``interval`` minus the probes that ran inside it.

        A probe runs in the main thread, between two of the workload's
        bytecodes, so it lies wholly inside or wholly outside any interval
        whose ends were read with ``clock()``.
        """
        start, end = interval
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        return end - start - (self._spent[last] - self._spent[first])

    def speed(self, interval: tuple[float, float]) -> float:
        """Mean probe duration during ``interval``, widened to the nearest MIN_PROBES."""
        if len(self.durations) < MIN_PROBES:
            raise RuntimeError(f"only {len(self.durations)} probes ran; the run was too short")
        start, end = interval
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        while last - first < MIN_PROBES:
            mid = 0.5 * (start + end)
            if first > 0 and (last == len(self.starts) or mid - self.starts[first - 1] < self.starts[last] - mid):
                first -= 1
            else:
                last += 1
        return (self._spent[last] - self._spent[first]) / (last - first)

    def ref_seconds(self, interval: tuple[float, float]) -> float:
        return self.seconds(interval) * NOMINAL_S / self.speed(interval)

    def median_duration(self) -> float:
        return float(np.median(self.durations)) if self.durations else float("nan")
