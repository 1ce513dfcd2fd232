"""Host-speed sampling, to scale op times to a fixed reference speed.

On a shared host the speed of identical work drifts by tens of percent within
seconds.  While a worker runs ops, a timer signal runs a short fixed
computation (the quantum) every INTERVAL_S of host time, and once more just
before each op.  An op's time, less the time spent in quanta, is scaled by
NOMINAL_S over the mean quantum time from the op's start to its end.

The quantum resembles the package's own work: small numpy calls, a 3x3
solve, interpreter-level arithmetic and object creation, and float
formatting.  It is part of the benchmark's definition and must not change.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.05
NOMINAL_S = 0.001  # scaled times read as host times where a quantum takes 1 ms
_ROUNDS = 40


def quantum_seconds() -> float:
    """Host seconds taken by one run of the quantum.  The cyclic garbage
    collector is off while it runs, so the heap an op leaves behind does not
    change its cost."""
    import numpy as np  # here, so run.py can read NOMINAL_S without numpy

    grid = np.arange(2000.0)
    v = np.linspace(0.1, 1.0, 8)
    mat = np.array([[1.0, 1.0, 1.0], [0.5, 2.0, 3.0], [1.5, 0.25, 2.0]])
    acc = 0.0
    rows = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(_ROUNDS):
            u = np.sort(v)[::-1]
            excess = np.cumsum(u) - 1.0
            j = int(np.searchsorted(grid, (i * 0.37) % 1999.0, side="right"))
            w = np.maximum(v - excess[j % 8] / 8.0, 0.0)
            sol = np.linalg.solve(mat, np.array([1.0, w[0], w[1]]))
            acc += float(w @ v) + float(sol[0]) + j * 1e-6
            rows.append((i, acc, ",".join(repr(float(x)) for x in w[:3])))
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if len(rows) != _ROUNDS or not np.isfinite(acc):
        raise RuntimeError("reference quantum went wrong")
    return elapsed


class Sampler:
    """Runs the quantum from a SIGALRM timer while active (a context manager)
    and on demand; keeps a (start, quantum seconds, handler seconds) mark for
    every run."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float]] = []
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        q = quantum_seconds()
        self.marks.append((t0, q, time.perf_counter() - t0))

    def sample(self) -> float:
        """Run one quantum now; returns the time it started."""
        self._tick()
        return self.marks[-1][0]

    def op_time(self, before: float, t0: float, t1: float) -> tuple[float, float]:
        """For an op timed from ``t0`` to ``t1`` after a quantum started at
        ``before``: its host seconds less the quanta run inside it, and the
        mean quantum time from ``before`` to ``t1``."""
        inside = [m for m in self.marks if before <= m[0] <= t1]
        quanta = sum(m[2] for m in inside if m[0] >= t0)
        return t1 - t0 - quanta, sum(m[1] for m in inside) / len(inside)


def scaled(op_s: list[float], quantum_s: list[float]) -> list[float]:
    """Op times at the reference speed: each scaled by NOMINAL_S over the mean
    quantum time measured during it."""
    return [o * NOMINAL_S / q for o, q in zip(op_s, quantum_s)]
