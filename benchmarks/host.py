"""Host speed, sampled during each run.

On a small shared host the speed of one core moves by tens of percent from
one second to the next. A fixed piece of work (the probe) runs before and
after each run, and every PERIOD_S seconds during it from a SIGALRM timer,
in the same thread as the run, so it sees the speed the run saw. A stretch of the run is reported at the nominal speed: its time
less the probes' own time, scaled by NOMINAL_S / (mean time of the probes
taken inside it, or of all the run's probes when it holds fewer than
MIN_LOCAL). A change to greedyopt does not move the probe; a slow phase of
the host does.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
NOMINAL_S = 0.0015  # probe time at the nominal host speed
EDGE_PROBES = 5  # probes before and after each run
MIN_LOCAL = 5


class SpeedProbe:
    """Context manager that samples host speed around and during a run.

    on_sample(start, end) is called for each probe taken during the run,
    so a tracer can account for its time."""

    def __init__(self):
        self.matrix = np.arange(10_000, dtype=float).reshape(100, 100) / 1e4
        self.vector = np.linspace(-1.0, 1.0, 64)
        # Scattered reads from a table of ~10 MB of Python floats: the share
        # of the probe that slows, as the workloads do, when neighbours contend
        # for the cache. Its size was chosen so that across host phases the
        # workloads' times move in proportion to the probe's.
        self.table = [float(i) for i in range(300_000)]
        self.order = np.random.default_rng(0).integers(0, 300_000, 600).tolist()
        self.times: list = []
        self.busy: list = []  # (start, end, probe time) of probes during the run
        self.on_sample = None
        self._previous = None

    def probe(self) -> float:
        """Seconds for fixed work in the mix the workloads do: interpreter
        arithmetic, scattered reads, many small numpy calls and one dense
        product."""
        t0 = perf_counter()
        acc = 0
        for i in range(8_000):
            acc += i * i
        table = self.table
        for i in self.order:
            acc += table[i]
        for _ in range(80):
            a = np.abs(self.vector)
            float(np.sum((a / a.max()) ** 3.0))
        self.matrix @ self.matrix
        return perf_counter() - t0

    def _handler(self, signum, frame):
        start = perf_counter()
        took = self.probe()
        end = perf_counter()
        self.times.append(took)
        self.busy.append((start, end, took))
        if self.on_sample is not None:
            self.on_sample(start, end)

    def __enter__(self):
        self.times = [self.probe() for _ in range(EDGE_PROBES)]
        self.busy = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.times += [self.probe() for _ in range(EDGE_PROBES)]
        return False

    def nominal(self, start: float, end: float) -> float:
        """Seconds the stretch [start, end] of the run took at nominal speed."""
        busy = sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in self.busy)
        inside = [took for s, e, took in self.busy if start <= s and e <= end]
        ref = statistics.mean(inside if len(inside) >= MIN_LOCAL else self.times)
        return (end - start - busy) * NOMINAL_S / ref

    @property
    def ref_s(self) -> float:
        return statistics.mean(self.times)
