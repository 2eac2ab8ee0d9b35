"""A fixed loop that measures how fast the machine runs Python right now.

The benchmark runs on shared machines whose speed follows other tenants'
load: the same operation can take twice as long a minute later.  Timing
this loop next to every operation, and dividing the operation's time by
the loop's, cancels most of that drift; see bench/README.md for how much.
The loop does the program's kind of work (sparse products of dicts keyed
by tuples, with integer coefficients) and does not import ``wwords``, so a
change to the package cannot change it.
"""

from __future__ import annotations

import time

#: wall time of one loop on the 2-vCPU machine the benchmark was tuned on,
#: at its usual speed; times scaled by it read as seconds on that machine
REFERENCE_S = 0.0095


def _loop() -> int:
    a = {(i, j): i * 7 + j + 1 for i in range(40) for j in range(6)}
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in a.items():
        for (k, l), d in a.items():
            if i + k < 40:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
    return len(out)


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the loop."""
    w0, c0 = time.perf_counter(), time.process_time()
    _loop()
    c1, w1 = time.process_time(), time.perf_counter()
    return w1 - w0, c1 - c0
