"""Host-speed calibration: a fixed burst of work timed all through a run.

On a shared host the same op can run up to 1.5x slower for minutes at a time,
because neighbours take the core's caches and memory bandwidth (no steal time
shows, so CPU time drifts with wall time). ``Sampler`` times this burst every
``EVERY_S`` seconds of the run, in the middle of an op too, and the worker
takes the bursts out of the op's wall time. ``run.py`` divides each op's time
by the mean of the bursts timed during and around it and scales by
``NOMINAL_S``, which gives the op's time at the host speed at which one burst
takes ``NOMINAL_S`` seconds.

The burst mixes the work the ops spend their time in: Hermitian
eigendecompositions of 49- and 289-dim matrices, complex matrix-vector
products and elementwise phases on 169-dim vectors, interpreted Python, and
400-dim complex matrix products like those that build the operators of a
two-mode spec.
It is fixed benchmark code, so a change to ``src/`` never moves it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# About the burst time, in seconds, on a quiet 2-vCPU host; it only sets the scale.
NOMINAL_S = 0.25
# Seconds of wall time from one burst to the next.
EVERY_S = 2.0
# Repetitions of the mixed step in one burst.
STEPS = 300


def _inputs():
    rng = np.random.default_rng(0)
    small = rng.standard_normal((49, 49))
    large = rng.standard_normal((289, 289))
    joint = rng.standard_normal((169, 169)) + 1j * rng.standard_normal((169, 169))
    vec = rng.standard_normal(169) + 1j * rng.standard_normal(169)
    dense = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
    return small + small.T, large + large.T, joint, vec, dense / 20.0


_SMALL, _LARGE, _JOINT, _VEC, _DENSE = _inputs()


def burst() -> float:
    """Wall seconds of one fixed burst of work."""
    t0 = time.perf_counter()
    acc = 0.0
    for step in range(STEPS):
        np.linalg.eigh(_SMALL)
        amp = _JOINT @ _VEC
        acc += float(np.abs(np.exp(1j * amp.real) @ _VEC))
        terms = {}
        for k in range(40):
            terms[(k, step % 7)] = k * 0.5 + acc * 1e-9
        acc += sum(terms.values()) * 1e-9
        if step % 40 == 0:
            np.linalg.eigh(_LARGE)
            _DENSE @ _DENSE
    return time.perf_counter() - t0


class Sampler:
    """Times a burst every ``EVERY_S`` seconds, also in the middle of an op.

    A SIGALRM interval timer runs ``take`` between two bytecodes of the main
    thread, so a burst never splits a numpy call, and the worker subtracts the
    bursts that ended inside an op from that op's wall time. While ``paused``
    is set, as for a traced op whose spans must hold no burst, ticks are
    skipped.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self.paused = False
        self._busy = False
        self._previous = None

    def take(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.seconds.append(burst())
            self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self.paused:
            self.take()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def around(self, t0: float, t1: float) -> tuple[float, float]:
        """Burst seconds that ended inside (t0, t1], and the mean burst there.

        The mean takes in the last burst before t0 and the first after t1.
        """
        inside = [k for k, end in enumerate(self.ends) if t0 < end <= t1]
        before = [k for k, end in enumerate(self.ends) if end <= t0][-1:]
        after = [k for k, end in enumerate(self.ends) if end > t1][:1]
        near = [self.seconds[k] for k in before + inside + after]
        return sum(self.seconds[k] for k in inside), sum(near) / len(near)
