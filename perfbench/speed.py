"""Machine-speed probe: times on a shared, noisy host, expressed at one reference speed.

On a small shared machine the same code runs up to 1.7 times slower for
seconds at a time, as other tenants load the host.  While the benchmark
runs, :class:`SpeedProbe` interrupts it every ``INTERVAL`` seconds (SIGALRM,
so the probe runs in the measured thread, on the same CPU, in the same
state) and times one fixed reference computation.
:meth:`SpeedProbe.reference_seconds` then rescales a measured interval: each
stretch between two probes counts ``reference_s / d`` seconds per second,
where ``d`` is the median duration of the probes around it, and the probes'
own time counts for nothing.  A reference second is the time in which the
probe runs ``1 / reference_s`` times back to back.
"""

from __future__ import annotations

import signal
import time
from functools import partial

INTERVAL = 0.02        # seconds between probes
WINDOW = 1             # probes each side in the rolling median of probe durations
# Nominal probe durations: about the fastest this 2-core box runs each probe
# inside the signal handler, so that a reference second is close to a second
# of the box at its best.
NUMPY_REFERENCE_S = 1.5e-4
PYTHON_REFERENCE_S = 0.9e-4


def _python_work():
    """Closures, tuples, lists and dicts only: usable before numpy is imported."""
    tape = []
    total = 0.0
    for i in range(120):
        node = (i, float(i) * 0.5, [i, i + 1])
        tape.append(lambda g, n=node: g * n[1] * 1e-3 + n[2][0])
    for fn in reversed(tape):
        total = fn(total) * 1e-3
    counts = {}
    for i in range(200):
        counts[i & 15] = counts.get(i & 15, 0.0) + i * 0.25
    return total + sum(counts.values())


def _numpy_work(np, matrix):
    """A fixed mix of small numpy calls and interpreted Python, like the program's."""
    x = matrix
    for _ in range(40):
        x = np.tanh(x @ matrix)
    total = 0
    for i in range(800):
        total += i
    return total


class SpeedProbe:
    """``numpy=False`` probes with pure Python, for the set-up before numpy loads."""

    def __init__(self, numpy: bool = True):
        if numpy:
            import numpy as np

            matrix = np.random.default_rng(0).standard_normal((16, 16)) * 0.1
            self._work, self.reference_s = partial(_numpy_work, np, matrix), NUMPY_REFERENCE_S
        else:
            self._work, self.reference_s = _python_work, PYTHON_REFERENCE_S
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._table = None

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self._work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        """Stop probing; safe to call more than once."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self._table = None

    def _cumulative(self):
        """Breakpoints and reference seconds elapsed at each, piecewise linear between."""
        if self._table is None:
            import numpy as np

            starts = np.asarray(self.starts)
            durations = np.asarray(self.durations)
            n = len(durations)
            smooth = np.array([np.median(durations[max(0, k - WINDOW):k + WINDOW + 1]) for k in range(n)])
            rate = self.reference_s / smooth
            ends = starts + durations
            # no reference time passes inside a probe; rate[k] from the end of probe k to the next start
            points = np.empty(2 * n)
            points[0::2], points[1::2] = starts, ends
            gained = np.zeros(2 * n)
            gained[2::2] = (starts[1:] - ends[:-1]) * rate[:-1]
            self._table = (points, np.cumsum(gained), rate[0], rate[-1])
        return self._table

    def reference_seconds(self, start: float, end: float) -> float:
        """``end - start`` (perf_counter times) at the reference speed."""
        if len(self.durations) < 2:
            raise RuntimeError("too few speed probes: the measured span is shorter than two intervals")
        import numpy as np

        points, cum, first_rate, last_rate = self._cumulative()

        def at(t):
            if t <= points[0]:
                return cum[0] - (points[0] - t) * first_rate
            if t >= points[-1]:
                return cum[-1] + (t - points[-1]) * last_rate
            return float(np.interp(t, points, cum))

        return at(end) - at(start)
