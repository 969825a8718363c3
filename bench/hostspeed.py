"""Host speed references: fixed work timed next to the benchmark's own.

The shared hosts this benchmark runs on change speed by up to 2x in phases
lasting from under a second to minutes.  A phase slows fixed work of the
same kind as the measured work alike: over four minutes on a 2-vCPU host,
the median time of `tau` on a 1000-point chain moved between 82 and 150 ms
per 10-s window, while its ratio to the in-process loop below stayed
between 2.4 and 2.8.  So every time the benchmark gates on is reported at a
nominal host speed: the measured time times the reference's nominal time
over the reference's median time sampled around it.  Two references:

  loop   a pure-Python loop in the measuring process, for work done inside
         it (the ring, homotopy and divisor queries);
  start  a bare interpreter start (`python -I -S -c pass`), for work that
         starts processes (set-up, and the cli queries).

On a 2-vCPU host, scaling by the loop cut the spread of `ring` pass times
from 0.22 to 0.06 (quartile distance over median), and scaling by `start`
cut that of `cli` passes from 0.08-0.15 to 0.03 and that of set-up times
from 0.19 to 0.04; scaling process starts by the loop helped no more than
not scaling them.  The references live here, not in the library, so a
change to the library moves the work and never the reference.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

LOOP_N = 20_000
# Nominal times, about the references' medians on a 2.0 GHz Xeon vCPU.
NOMINAL_MS = {"loop": 5.0, "start": 15.0}


def loop_ms() -> float:
    """One timed pass of the reference loop: integer arithmetic and dict updates."""
    start = time.perf_counter()
    acc = 0
    counts: dict[int, int] = {}
    for i in range(LOOP_N):
        k = i * i % 1021
        counts[k] = counts.get(k, 0) + 1
        acc += k
    return (time.perf_counter() - start) * 1000.0


def start_ms() -> float:
    """One timed start of a bare interpreter: no site, no user environment."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True, env={"PATH": os.defpath})
    return (time.perf_counter() - start) * 1000.0


PROBES = {"loop": loop_ms, "start": start_ms}


def median_ms(kind: str, reps: int) -> float:
    return statistics.median(PROBES[kind]() for _ in range(reps))


def scale(kind: str, samples: list[float]) -> float:
    """Factor that brings times measured next to these reference samples to
    the nominal host speed."""
    return NOMINAL_MS[kind] / statistics.median(samples)
