"""Speed probe: the machine's momentary speed, sampled while a job runs.

The VM's speed drifts with the load on its host. A fixed loop runs up to
60 % slower for tens of seconds at a time, and every layer of the program
slows with it, CPU time as much as wall time. Raw wall times then spread
more between runs than any useful bound allows.

The probe is a fixed kernel of pure-Python and small-numpy work that never
calls landauzb. While a job runs, a SIGALRM handler runs it every
``INTERVAL_S``; ``BRACKET`` more probes run right before and right after the
job. A job's scaled time is its wall time, less the probes' own time, times
``PROBE_REF_S`` / (mean probe time around and during the job): the time the
job would have taken on a machine where one probe takes ``PROBE_REF_S``.
A change to the program changes the job's work but not the probe's, so the
scaled time moves with the program and not with the host.

    clock = SpeedProbe()
    with clock.sampling():
        token = clock.start()
        run_job()
        seconds = clock.stop(token)
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.03      # probe period while a job runs
BRACKET = 10           # probes right before and right after each timed job
# One probe's time on the 2-vCPU VM the seed baseline was measured on, in
# its fast state; it only sets the scale of the scaled times.
PROBE_REF_S = 0.65e-3

_MATRIX = np.random.default_rng(0).standard_normal((48, 48))
_MATRIX = _MATRIX + _MATRIX.T


def kernel() -> None:
    """The fixed work whose time is the probe: a dict/float loop and a small eigh."""
    acc, table = 0.0, {}
    for i in range(4000):
        acc += i * 0.5
        table[i & 255] = acc
    np.linalg.eigh(_MATRIX)


class WallClock:
    """Plain wall time, with the interface of SpeedProbe."""

    def start(self) -> float:
        return time.perf_counter()

    def stop(self, start: float) -> float:
        return time.perf_counter() - start


class SpeedProbe:
    """Times units of work in seconds scaled to the probe's reference speed."""

    def __init__(self, bracket: int = BRACKET):
        self.bracket = bracket
        self.samples: list[float] = []
        self.wall: list[float] = []       # raw wall time of each timed unit
        self.speed: list[float] = []      # PROBE_REF_S / mean probe time, per unit
        for _ in range(bracket):          # first calls pay for lazy set-up
            kernel()

    def _probe(self, *_) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        """Probe every INTERVAL_S from a SIGALRM handler inside the block."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def start(self) -> tuple[int, float]:
        for _ in range(self.bracket):
            self._probe()
        return len(self.samples), time.perf_counter()

    def stop(self, token: tuple[int, float]) -> float:
        first, start = token
        wall = time.perf_counter() - start
        inside = sum(self.samples[first:])
        for _ in range(self.bracket):
            self._probe()
        speed = PROBE_REF_S / statistics.fmean(self.samples[first - self.bracket:])
        self.wall.append(wall)
        self.speed.append(speed)
        return (wall - inside) * speed
