"""The calibration loop, and the cold start that is timed against it.

On a shared VM the same code runs at 1x to 1.8x its best time, switching
every few seconds (other tenants on the same cores). ``calibration()``,
timed right before and right after a piece of work, gives the machine's
speed at that moment, and the work's time divided by it is a steady
measure of the work. The loop is the benchmark's own code, so no change to
degmatch moves it.

    python3 bench/calib.py <src-dir>

runs one cold start: in this fresh interpreter, it times ``import degmatch``
and ``degmatch.cli.build_parser()`` with the calibration loop before and
after, and prints the calibrated time. This module imports nothing beyond
``gc``, ``sys`` and ``time``, so degmatch's imports are all paid inside
the timed part.
"""

import gc
import sys
from time import perf_counter

# Timed metrics are reported as if calibration() took exactly this long;
# it takes 0.8-1.8 ms on the machine described in bench/README.md.
NOMINAL_CAL_S = 0.001


def calibration() -> float:
    """Seconds a fixed loop of dict and frozenset work takes, about 1 ms.

    The garbage collector is off inside the loop: its allocations would
    otherwise set off a collection over whatever the work before it left
    alive, and the loop would time that work instead of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        for i in range(3000):
            table[i & 255] = frozenset((i, i + 1))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work on a machine where calibration() takes exactly
    NOMINAL_CAL_S, from the calibrations taken right before and after it."""
    return seconds / ((before + after) / 2) * NOMINAL_CAL_S


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    before = calibration()
    t0 = perf_counter()
    import degmatch.cli

    degmatch.cli.build_parser()
    seconds = perf_counter() - t0
    print(calibrated(seconds, before, calibration()))
