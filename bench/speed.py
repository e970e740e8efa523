"""The machine's speed, sampled while an untraced run measures.

The 2-vCPU machine the benchmark was built on runs the same
pure-Python work up to 2.4 times slower in some phases than in others, in phases lasting from seconds to
minutes.  A run therefore samples the speed of a fixed piece of
reference work all through its timed parts: a ``SIGALRM`` interval
timer interrupts the program every ``PERIOD`` seconds and times one
pass of ``reference_work``, which never touches ``opmc``.  Every
interval the benchmark times is reported twice: as wall time less the
time the samples took inside it, and scaled to the reference speed, the
speed at which one pass takes ``REFERENCE_S``.  The end-to-end metrics
are the scaled times, so a phase of the machine moves them little, while
a change of the program moves them as it moves the wall time.
"""

import gc
import signal
from statistics import fmean
from time import perf_counter

PERIOD = 0.025
# one pass of reference_work on this box in its fast phase
REFERENCE_S = 0.0004
# an interval holding fewer samples than this is scaled by the latest ones
MIN_SAMPLES = 8


class _Ring:
    """Coefficient arithmetic through method calls, as in ``opmc.rings``."""

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0


_RING = _Ring()


def reference_work():
    """Fixed sparse-algebra work: small dicts keyed by tuples, ring calls.

    Of the probes tried, this one's time followed the program's best
    through the box's phases: over runs of repeated identical twist
    round trips and CLI sessions, it left the least spread in the scaled
    times of each operation.
    """
    ring = _RING
    acc = {}
    for r in range(120):
        term = {(r % 5, i): i + 1 for i in range(4)}
        for (a, b), c in term.items():
            key = (a, b % 3, r % 2)
            v = ring.add(acc.get(key, 0), ring.mul(c, r + 1))
            if ring.is_zero(v):
                acc.pop(key, None)
            else:
                acc[key] = v % 1009
    return len(acc)


class Sampler:
    """Collects ``(start, seconds)`` of one reference pass per tick."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.running = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.running = False

    def _tick(self, signum, frame):
        # no collection inside a sample: the program's garbage is its own cost
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        if was_enabled:
            gc.enable()
        self.samples.append((t0, t1 - t0))
        self.spent += t1 - t0

    def factor(self, t0, t1):
        """Reference speed over the speed seen in [t0, t1]."""
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            before = [s for t, s in self.samples if t <= t1]
            inside = before[-MIN_SAMPLES:]
        if not inside:
            return 1.0
        return REFERENCE_S / fmean(inside)


SAMPLER = Sampler()


class Stopwatch:
    """Times one interval; ``stop`` returns (scaled, wall) seconds.

    Wall seconds leave out the samples taken inside the interval.  With
    the sampler off both numbers are the plain wall time.
    """

    def __init__(self):
        self.spent0 = SAMPLER.spent
        self.t0 = perf_counter()

    def stop(self):
        t1 = perf_counter()
        wall = t1 - self.t0 - (SAMPLER.spent - self.spent0)
        if not SAMPLER.running:
            return wall, wall
        return wall * SAMPLER.factor(self.t0, t1), wall
