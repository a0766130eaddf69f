"""How the benchmark times a step on a shared virtual machine.

A step's cost is the CPU time of every process doing its work: this
process, its reaped children (CLI runs) and live helpers such as the
learner server. The host of a small VM steals the virtual CPU for long
stretches, which wall time counts and CPU time does not.

The host also changes how fast the CPU runs, between a fast and a slow
state (about 2x apart) that switch within a second or two. So a run times a
fixed calibration kernel after every step and between the cases of an
operation, and reports each case's CPU time at reference speed: multiplied
by ``CALIBRATION_MS`` over the mean of the kernel times just before and just
after it. Scaling each case by the kernels next to it follows the state it
ran in; scaling a whole run by its median kernel does not. Over six
30-second runs of ``offline_large`` the quartile spread of the median
operation was 3.7 % of its median scaled per case, 17 % scaled by the run
median, 26 % unscaled. A change to the program leaves the kernel alone, so
it shows in full.

A fresh ``cpslearn`` process spends much of its time starting the
interpreter and importing, which the in-process kernel tracks poorly. A CLI
step is scaled instead by a cold kernel run right after it: a fresh
interpreter that imports numpy and runs the same kernel, with reference time
``COLD_CALIBRATION_MS``. Over six runs of ``watertank_paper`` the spread of
the median CLI step was 4.3 % scaled this way, 12 % scaled by the run median
of the in-process kernel.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

TICK_NS = 1e9 / os.sysconf("SC_CLK_TCK")
# The kernel's CPU time on the reference core, which fixes the scale: about
# its median on 2 vCPUs of an Intel Xeon at 2.0 GHz with Python 3.11.7.
CALIBRATION_MS = 25.0
# The cold kernel's CPU time at the same reference speed, with one BLAS
# thread (numpy 2.4.6).
COLD_CALIBRATION_MS = 200.0
COLD_KERNEL = [sys.executable, "-c",
               f"import sys, numpy; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
               "import clock; clock.calibrate_ms()"]


def cpu_ns(pids=()) -> int:
    """CPU time used so far by this process, its reaped children and the live ``pids``."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue  # the process is gone; the step that needed it fails on its own
        total += round((int(fields[11]) + int(fields[12])) * TICK_NS)  # utime + stime
    return total


class Stopwatch:
    """Wall and CPU time of a step, CPU counted over this process, children and ``pids``."""

    def __init__(self, pids=()):
        self.pids = tuple(pids)
        self.wall, self.cpu = time.perf_counter_ns(), cpu_ns(self.pids)

    def stop(self) -> tuple[int, int]:
        return time.perf_counter_ns() - self.wall, cpu_ns(self.pids) - self.cpu


def calibrate_ms() -> float:
    """CPU time of the fixed kernel: scalar float arithmetic and JSON of
    floats, the two kinds of work that dominate the workloads."""
    start = time.process_time_ns()
    x = 0.0
    for i in range(40_000):
        x = x + math.sqrt(i * 0.5) / (1.0 + x * 1e-9)
    json.loads(json.dumps([i * 0.1 for i in range(20_000)]))
    return (time.process_time_ns() - start) / 1e6


def calibrate_cold_ms() -> float:
    """CPU time of the cold kernel: a fresh interpreter that imports numpy
    and runs ``calibrate_ms``, the kind of work a fresh CLI process does."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(COLD_KERNEL, capture_output=True, timeout=60, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ((after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)) * 1e3
