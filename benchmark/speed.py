"""The host's speed during a pass, sampled from inside the pass.

The CPUs of the reference VM switch between a fast and a slow state (a
pure-Python loop runs up to 1.8 times slower in the slow one) every few
seconds, independently of each other.  A probe timed before or after a pass
cannot tell how much of the pass ran slow, so the sampler times a small
fixed probe every ``PERIOD_S`` seconds of the pass itself, on ``SIGALRM``.
The mean probe time over a phase of the pass is proportional to how slow the
host was in that phase.

The probe evaluates a five-node expression tree written here: it runs no
surfcalc code, so a change to surfcalc leaves it as it is.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
PROBE_EVALS = 100
WARMUP_PROBES = 20
# A sample over OUTLIER times the phase's median was interrupted (a page
# fault, the process being descheduled), not slowed by the CPU's state, which
# moves a sample by less than a factor of two.
OUTLIER = 3.0


class _Node:
    def __init__(self, op, a=None, b=None, value=0.0):
        self.op, self.a, self.b, self.value = op, a, b, value

    def evaluate(self, env):
        if self.op == "num":
            return self.value
        if self.op == "var":
            return env["x"]
        a, b = self.a.evaluate(env), self.b.evaluate(env)
        return a + b if self.op == "+" else a * b


# 2 x + (x + 1) x
_TREE = _Node("+", _Node("*", _Node("var"), _Node("num", value=2.0)),
              _Node("*", _Node("+", _Node("var"), _Node("num", value=1.0)),
                    _Node("var")))
# made once: the probe allocates no container, so it never starts a garbage
# collection
_ENV = {"x": 1.5}


class SpeedSampler:
    """Probe timings ``(monotonic time taken, seconds)`` in ``samples``."""

    def __init__(self):
        self.samples = []

    @staticmethod
    def _probe():
        start = time.perf_counter()
        for _ in range(PROBE_EVALS):
            _TREE.evaluate(_ENV)
        return time.perf_counter() - start

    def _sample(self, signum, frame):
        self.samples.append((time.monotonic(), self._probe()))

    def start(self):
        # the interpreter specializes the probe's code over its first runs
        for _ in range(WARMUP_PROBES):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def phase(self, start, end):
        """(mean probe time without outliers, total probe time) of the
        samples taken in ``[start, end)``."""
        times = [s for t, s in self.samples if start <= t < end]
        if not times:
            raise RuntimeError("no speed sample in a phase of the pass")
        cut = OUTLIER * statistics.median(times)
        kept = [s for s in times if s <= cut]
        return sum(kept) / len(kept), sum(times)
