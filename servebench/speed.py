"""Speed probe: how fast this machine runs right now.

On a host shared with other tenants the processor's delivered speed
moves by tens of percent, over fractions of a second and over minutes:
a fixed piece of work timed every 0.3 s for a minute took 19 to 44 ms
(quartiles 22 and 29 ms), and its CPU time moved with its wall time,
so while the process runs, the drift is contention for the core and its
caches, not time spent descheduled.  Every timing of the program carries
that drift.

:class:`SpeedProbe` times one fixed piece of work made of the same kinds
of operations the serving path spends its time in (numpy calls on arrays
of a few hundred rows, many numpy calls on tiny vectors as in topic
fold-in, a random gather over a large array, and dict work in the
interpreter), many times through a run, interleaved with the program's
own work.  Timed in alternation with a fixed slice of serving work (two
fold-ins and one query's scoring) for two and a half minutes, the
probe's median over 40-iteration windows tracked the serving work's
with correlation 0.98 and log-log slope 1.05.

The median probe time divided by :data:`REFERENCE_S` is a run's
slowdown factor; the benchmark divides each time it reports by that
factor, so its figures read as seconds at the reference speed.  The
probe runs no code of the program, so a change to the program moves
the figures and leaves the factor alone.  The correction is partial:
across ten runs of one workload the factor ranged from 1.28 to 1.86
while the program's own times moved by less, so the scaled figures
still spread by up to a sixth of their median.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.special import digamma

# The reference speed: about the probe's median time on the reference
# machine at its quietest.  It sets the scale of the figures, not their
# spread.
REFERENCE_S = 0.0017


class SpeedProbe:
    """Times a fixed piece of work; keeps every timing."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((512, 32))
        self._w = rng.random((32, 16))
        self._v = rng.random(20)
        self._m = rng.random((20, 50))
        # 8 MB gathered at random: the part that feels contention for the
        # shared cache and memory, as the program's larger arrays do.
        self._big = rng.random(1 << 20)
        self._idx = rng.integers(0, self._big.size, 30_000)
        self._keys = [f"u{i}" for i in range(1000)]
        self.times: list[float] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._running = False

    def _work(self) -> float:
        # Mid-sized array arithmetic, as in featurization and scoring.
        total = 0.0
        for _ in range(6):
            z = np.exp(-self._x) @ self._w
            s = z.sum(axis=1)
            total += float(s[np.argsort(s)[-10:]].sum())
        # Many calls on tiny vectors, as in topic fold-in.
        g = self._v
        for _ in range(150):
            g = np.exp(digamma(g + 1.0))
            g = g / g.sum()
            total += float((g @ self._m)[0])
        # A random gather over a large array.
        total += float(self._big[self._idx].sum())
        # Dict and list work in the interpreter.
        counts: dict[str, int] = {}
        for i, key in enumerate(self._keys):
            counts[key] = counts.get(key, 0) + i % 7
        total += sum(sorted(counts.values(), reverse=True)[:10])
        return total

    def run(self, n: int = 1) -> None:
        """Time the work ``n`` times."""
        self._running = True
        try:
            for _ in range(n):
                cpu = time.process_time()
                start = time.perf_counter()
                self._work()
                end = time.perf_counter()
                self.cpu_s += time.process_time() - cpu
                self.wall_s += end - start
                self.times.append(end - start)
        finally:
            self._running = False

    @contextlib.contextmanager
    def sampling(self, every_s: float):
        """Run the probe every ``every_s`` of wall time inside the block.

        For synchronous work with no loop to run the probe in (the
        set-up): a timer signal runs it between two bytecodes of whatever
        is running.  The block's time then includes the probe's, which
        :attr:`wall_s` lets the caller take out again.
        """

        def on_timer(signum, frame):
            if not self._running:
                self.run()

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, since: int = 0) -> float:
        """Median probe time from timing ``since`` on, over the reference."""
        return statistics.median(self.times[since:]) / REFERENCE_S
