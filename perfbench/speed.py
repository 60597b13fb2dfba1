"""Host-speed probe, so that timings taken at different host speeds compare.

The benchmark runs on a few cores of a shared host.  Other tenants slow
the same Python code by up to 1.6x, for stretches of seconds to
minutes, on every core at once.  Every timing the benchmark reports is
therefore given at a fixed reference speed: the measured time, times
NOMINAL_NS, over the mean time of a small fixed probe taken during the
same interval.  The mean, not the median, because the work is slowed by
the average speed over its interval; each probe is capped at CAP times
the median, so that a probe whose process was descheduled does not
count for a slowdown of its whole tick.  The probe is benchmark code and never calls the
program, so a change to the program cannot move it.

Inside a worker, a Sampler runs the probe from a SIGALRM timer every
PERIOD_S while the work runs, so the probe sees the same core at the same
moment; `clock()` leaves the probes' own time out of what they
interrupted.  In run.py, `bracket` takes probes just before and just
after a timed subprocess.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter_ns

# probe time at the reference speed: about the fastest this host runs it
NOMINAL_NS = 35_000
PERIOD_S = 0.01
CAP = 3
# a short call takes its scale from this many probes on either side
NEAR = 10
BRACKET_PROBES = 15
_TABLE = {i: i for i in range(64)}


def probe_ns() -> int:
    """Time a fixed interpreter loop that allocates no container objects,
    so it never triggers the garbage collector."""
    start = perf_counter_ns()
    s = 0
    for i in range(400):
        s += _TABLE[i & 63] * 3 % 7
    return perf_counter_ns() - start


def level(samples) -> float:
    """Mean probe time, each probe capped at CAP times the median."""
    if not samples:
        raise ValueError("no speed probes in the interval")
    cap = CAP * statistics.median(samples)
    return statistics.fmean(min(x, cap) for x in samples)


def factor(samples) -> float:
    """Scale from measured time to time at the reference speed."""
    return NOMINAL_NS / level(samples)


class Sampler:
    """Probes taken from a timer while work runs in this thread."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.stolen_ns = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter_ns()
        self.samples.append(probe_ns())
        self.stolen_ns += perf_counter_ns() - start

    def clock(self) -> int:
        """Nanoseconds, less the time spent in probes."""
        return perf_counter_ns() - self.stolen_ns

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0, until: int | None = None) -> float:
        """Scale for the work done between two marks; an interval too
        short to hold a probe takes the scale of the whole run."""
        window = self.samples[since:until]
        return factor(window if window else self.samples)

    def near(self, since: int, until: int) -> float:
        """Scale for a short call between two marks, from the probes
        around it: the host's speed changes within a second."""
        return factor(self.samples[max(0, since - NEAR):until + NEAR] or self.samples)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Unsampled:
    """Stands in for a Sampler where probes would distort the figures
    (traced runs): a plain clock and a scale of 1."""

    samples: list[int] = []

    @staticmethod
    def clock() -> int:
        return perf_counter_ns()

    @staticmethod
    def mark() -> int:
        return 0

    @staticmethod
    def factor(since: int = 0, until: int | None = None) -> float:
        return 1.0

    near = factor

    def __enter__(self) -> "Unsampled":
        return self

    def __exit__(self, *exc) -> None:
        pass


def bracket(run):
    """Call `run()`; return its result and the scale from probes taken
    just before and just after it."""
    before = [probe_ns() for _ in range(BRACKET_PROBES)]
    result = run()
    after = [probe_ns() for _ in range(BRACKET_PROBES)]
    return result, factor(before + after)
