"""The host-speed reference: a fixed pure-Python loop that shares no code with galstrat.

The shared host this benchmark runs on changes speed by tens of percent over
seconds to minutes, and a run of 30 s cannot outlast such a phase.  So the
benchmark times this loop between consecutive ops and reports every op at a
fixed host speed: its measured time times NOMINAL_S over the loop's time
around it.  The loop only calls a method, indexes a list and does integer
arithmetic, as galstrat's inner loops do.  It allocates no container, so no
garbage collection left over from an op can run inside it, and nothing galstrat
does changes its work.
"""

import statistics
import time

# The loop's time on the 2-vCPU development host in a calm period: the host
# speed that every scaled figure refers to.  Fixed, so that figures compare
# across runs and commits.
NOMINAL_S = 2.5e-3


class _CurveCount:
    def __init__(self, p):
        self.p = p
        self.squares = [x * x % p for x in range(p)]

    def on_curve(self, x, y):
        return (self.squares[y] - x * self.squares[x] - 3 * x - 7) % self.p == 0


_FIELDS = [_CurveCount(p) for p in (101, 103, 107)]
# Points of y^2 = x^3 + 3x + 7 with even y over the three fields.
_EXPECTED = 145


def run():
    """One pass of the loop; raises if it miscounts."""
    count = 0
    for field in _FIELDS:
        for x in range(field.p):
            for y in range(0, field.p, 2):
                if field.on_curve(x, y):
                    count += 1
    if count != _EXPECTED:
        raise RuntimeError(f"reference loop counted {count}, not {_EXPECTED}")


def timed():
    """Seconds that one pass of the loop takes now."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def speed_now():
    """Median loop time over five passes, for figures that are not taken between ops."""
    return statistics.median(timed() for _ in range(5))
