"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host, neighbours slow the CPU in bursts and in phases lasting
minutes, by 30% and more; every timing of a run moves with them. The
benchmark runs this probe next to each window of work it times (in the
same process, while the program under test waits) and scales the window's
time by ``REFERENCE_S / probe()``: the time the window would have taken at
the speed where the probe takes ``REFERENCE_S``. The probe is the
benchmark's own code, so no change to the program can move it; a program
that gets slower still reads slower by the same share.

The work is a mix like the program's own: small dicts built in the
interpreter and round-tripped through ``json``. On the host it was tuned on,
it tracked the speed of the governor's stream, the simulation and the
trial analysis better than a pure arithmetic loop did (the median of 30 s
of scaled windows varied by 1% to 4% where the loop left 7% to 10%).
"""

import json
import statistics
import time

#: seconds ``probe()`` takes on a quiet 2-core Xeon (the host the benchmark
#: was written on); it only sets the scale of the reported times
REFERENCE_S = 0.0055
_MESSAGES = 1000
_REPEATS = 3


def probe() -> float:
    """Seconds the fixed work takes now (median of three)."""
    times = []
    for _ in range(_REPEATS):
        t = time.perf_counter()
        msgs = [{"type": "odom", "vx": i * 0.5, "vy": -i * 0.25, "t_s": i * 0.01}
                for i in range(_MESSAGES)]
        for msg in msgs:
            json.loads(json.dumps(msg))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def scale(probe_s: float) -> float:
    """Factor that turns a time measured next to ``probe_s`` into reference time."""
    return REFERENCE_S / probe_s
