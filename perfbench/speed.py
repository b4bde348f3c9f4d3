"""Machine-speed probe and the normalized clock the benchmark reports.

On a shared machine the speed of one vCPU drifts by up to 2x within seconds
(measured on a shared 2-vCPU Intel Xeon VM: one pure-Python loop took 14-28 ms, in
phases lasting 3-30 s), and CPU time drifts with it, so medians over a
run do not average it out.  The Clock therefore times a fixed pure-Python
probe loop every PROBE_EVERY_S of the timed phase, from a SIGALRM handler
when the probe falls inside an operation, and scales each stretch of
operation time between two probes by their mean: normalized seconds are
seconds at the speed where the probe takes PROBE_REF_S.  Probe time is never
part of an operation's time, and the plain time is kept beside the
normalized one.

A traced pass passes interrupt=False: it then probes only between
operations, so that no probe lands inside a span.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

PROBE_ROUNDS = 2000
PROBE_REF_S = 0.008
PROBE_EVERY_S = 0.2
_PROBE_Q = 7919
_PROBE_RESIDUES = (7918, 1, 2, 3, 5, 7, 11, 13)


def probe() -> float:
    """Seconds a fixed loop of small list comprehensions of multiply-mod
    steps takes right now.  Of the loops tried, this one tracked the speed of
    the three workloads best.  The loop runs as two halves and the faster
    half counts, so that one preemption does not skew the probe."""
    halves = []
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0
        for _ in range(PROBE_ROUNDS // 2):
            powers = _PROBE_RESIDUES
            for _ in range(3):
                powers = [p * r % _PROBE_Q for p, r in zip(powers, _PROBE_RESIDUES)]
                s += sum(powers) % _PROBE_Q
        halves.append(time.perf_counter() - t0)
    return 2 * min(halves)


class Clock:
    """Operation times of one pass, plain and speed-normalized.

    segments holds (seconds, index of the probe before them); an operation
    that a probe interrupts is split into two segments.
    """

    def __init__(self, interrupt: bool = True):
        self.interrupt = interrupt
        self.probes = [probe()]
        self.segments: list[tuple[float, int]] = []
        self.last_s = 0.0
        self._since_probe = 0.0
        self._op_start: float | None = None
        if interrupt:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _tick(self, _signum=None, _frame=None) -> None:
        if self._op_start is not None:
            self.last_s += self._segment(time.perf_counter() - self._op_start)
        self.probes.append(probe())
        if self._op_start is not None:
            self._op_start = time.perf_counter()

    def _segment(self, seconds: float) -> float:
        self.segments.append((seconds, len(self.probes) - 1))
        return seconds

    @contextmanager
    def timed(self):
        """Time the block as one operation; its plain time is left in last_s."""
        self.last_s = 0.0
        self._op_start = time.perf_counter()
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            self.last_s += self._segment(time.perf_counter() - self._op_start)
            self._op_start = None
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
            if not self.interrupt:
                self._since_probe += self.last_s
                if self._since_probe >= PROBE_EVERY_S:
                    self._since_probe = 0.0
                    self.probes.append(probe())

    def finish(self) -> tuple[float, float]:
        """Stop probing; return (plain seconds, normalized seconds)."""
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.probes.append(probe())
        plain = sum(s for s, _ in self.segments)
        norm = sum(s * PROBE_REF_S * 2 / (self.probes[i] + self.probes[i + 1]) for s, i in self.segments)
        return plain, norm
