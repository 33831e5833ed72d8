"""The benchmark's yardstick: a fixed pure-Python kernel timed beside every measurement.

The host this benchmark was written on flips in speed between states up
to ~1.8x apart every few seconds, and the share of slow time drifts
over minutes, so a whole run can read fast or slow.  `run.py` times
bursts of this kernel in a child between invocations, and one
repetition right after each set-up probe, and scales the pass times by
the bursts around them and each set-up time by its own repetition, to
nominal seconds; that cancels the drift the kernel and the CLI share.
The kernel mixes the loops that dominate char2paley, on working sets of the
same size (log/antilog table lookups as in the Kloosterman sums,
AND-and-popcount of big-int rows as in the codegree spectrum, bit sets
in a bytearray as in the graph build), and imports nothing from the
package, so no change to the package's code moves it.

Do not edit it: every time the benchmark reports is scaled by its time,
so a change to it makes results before and after incomparable.
"""

from __future__ import annotations

import random
import time


def kernel(tables, rows, buf) -> int:
    log, exp2, tr = tables
    q = len(log)
    s = 0
    for b in range(1, 9):
        lb = log[b] + q - 1
        for z in range(1, q):
            s += tr[z ^ exp2[lb - log[z]] % q]
    for i in range(0, len(rows), 64):
        ri = rows[i]
        for j in range(i + 1, len(rows), 2):
            s += (ri & rows[j]).bit_count()
    mask = len(buf) - 1
    for x in range(150_000):
        buf[(x * 40503) & mask] |= 1 << (x & 7)
    return s


def inputs():
    """The kernel's working set: that of `analyze --k 12`, 4097 rows of
    4097 bits (2 MiB), and log/antilog tables of 2^14 entries as at k = 14."""
    rng = random.Random(1)
    q = 1 << 14
    log = list(range(q))
    rng.shuffle(log)
    tables = (log, log + log, [rng.getrandbits(1) for _ in range(q)])
    rows = [rng.getrandbits(4097) for _ in range(4097)]
    return tables, rows, bytearray(1 << 16)


def timed(work) -> tuple[float, float]:
    """(wall s, CPU s) of one kernel repetition on `work` from inputs()."""
    wall, cpu = time.perf_counter(), time.process_time()
    kernel(*work)
    return time.perf_counter() - wall, time.process_time() - cpu
