"""Interpreter-speed calibration: a fixed pure-Python loop timed before each command.

The benchmark host is a share of a machine whose speed for interpreter-bound
code swings by up to 1.6x, over seconds and over tens of minutes, with no
steal time visible in the guest.  The loop below does a fixed amount of
interpreter work (float arithmetic, dict stores) and touches no su11otto
code, so its time follows that speed and nothing else.  A workload marked
`host_scaled` (bench/workloads.py) times one loop right before each command
invocation and scales the command's time by REFERENCE_LOOP_S / loop time;
each set-up probe (import plus config load, interpreter-bound on every
workload) is scaled by the mean of a loop right before and one right after
it.  The scaled times read as seconds on a host where one loop takes
REFERENCE_LOOP_S.  A change to the program moves them as it moves the raw
times; the raw samples stay in the report line.
"""

from __future__ import annotations

import time

LOOP_ITERATIONS = 30_000
# median of 10,600 loop times over 25 minutes on the reference host (2 vCPUs,
# Xeon, Firecracker VM, Python 3.11.7); fixed so that scaled times from any run compare
REFERENCE_LOOP_S = 0.0052


def loop_s() -> float:
    """Seconds one calibration loop takes right now."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(LOOP_ITERATIONS):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    return time.perf_counter() - start
