"""Host-speed calibration: a fixed pure-Python kernel timed all through a run.

The measuring VM shares its cores with other tenants, and its speed drifts
by a quarter or more over seconds to minutes, in phases that outlast a run.
A time measured in one run therefore says as much about the neighbours as
about the program.  While an untraced pass runs, an interval timer runs
:func:`kernel` every ``PERIOD`` seconds of wall time, inside or between
operations, and records how long it took.  The harness takes the kernel's
time out of every timing it encloses and scales each end-to-end timing to a
reference host: the time measured, times ``REFERENCE_SECONDS`` over the
kernel's median time during the interval and around it.  The kernel does
the kind of work the CQMS does (string building, dict inserts and lookups,
sorting, set building, joins and splits), so it slows down with the program
when the host does.

The program never calls the kernel, and no change to the program changes
the kernel's time: a faster program reads faster after scaling too.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

#: The kernel's time on the reference host; scaled timings read as if the
#: kernel had taken this long around them.
REFERENCE_SECONDS = 0.003
#: Seconds of wall time between kernel runs.
PERIOD = 0.1
#: Samples on each side of a timed interval that its scale also uses.
NEIGHBOURS = 5


def kernel() -> int:
    """A few milliseconds of dict, string and sort work; always the same."""
    table = {}
    for index in range(2500):
        key = f"k{index % 997}_{index}"
        table[key] = (index, key.upper())
    items = sorted(table.items(), key=lambda item: item[1][1])
    prefixes = {key[:4] for key, _ in items}
    return len(" ".join(key for key, _ in items[:500]).split()) + len(prefixes)


class HostMeter:
    """Kernel timings along one process's timeline."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        #: Wall time spent in the kernel, to take out of enclosing timings.
        self.spent = 0.0
        self._previous = None

    def start(self) -> None:
        """Run the kernel every PERIOD seconds until :meth:`stop`."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        # With the collector off, the kernel's objects, all freed when it
        # returns, neither trigger a collection of the program's objects
        # nor leave the program's collections any sooner.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(elapsed)
        self.spent += elapsed

    def scale(self, start: float, end: float) -> float:
        """The factor that scales a time measured over ``[start, end]`` to
        the reference host: from the samples taken inside the interval and
        ``NEIGHBOURS`` on each side of it."""
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_right(self.starts, end)
        window = self.seconds[max(0, low - NEIGHBOURS) : high + NEIGHBOURS]
        return REFERENCE_SECONDS / statistics.median(window)

    def median_ms(self) -> float:
        return statistics.median(self.seconds) * 1e3
