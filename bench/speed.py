"""Machine-speed calibration.

The host this benchmark was built on changes speed by up to 50% over tens
of seconds (a fixed loop took 26-40 ms in 5 s bins over 90 s), which is
wider than any useful regression bound. So every timed region is bracketed
by calibrations, and the benchmark reports its times scaled by
`factor(before, after, reference)`: seconds at the speed the machine had
when the reference was measured. A change to the program does not change
the calibrations, so scaled times of two commits compare more closely than
raw ones. The scaling is coarse: from round to round the loop swings more
than the workloads do (see "Machine speed" in README.md).

Two calibrations, each matched to the work it scales:

- `calibrate()` times a pure-Python loop of big-int bit operations, the
  solvers' staple, in wall time and in process CPU time. Rounds' wall
  times are scaled by its wall time, and their CPU times by its CPU time:
  a vCPU that is descheduled (steal) slows the wall clock but not the CPU
  clock, while a slower core slows both.
- `calibrate_start()` times starting an interpreter that imports numpy,
  the package's one dependency and the floor of every matchlab process.
  It scales set-up, which is mostly process start and module loading.
  Over 48 set-up probes, set-up time correlated 0.70 with it, 0.35 with
  an interpreter that imports only stdlib modules, and the medians of
  groups of 6 probes spread by 4%, against 10% unscaled.

The loop runs on one thread, so it cannot tell whether a second vCPU is
free for a 2-worker workload.
"""

import statistics
import subprocess
import sys
import time

# Measured on a 2-vCPU Xeon at 2.1 GHz with Python 3.11, with the
# machine in its fast state, where the loop's CPU time equals its wall time.
LOOP_REFERENCE_S = 0.0150
START_REFERENCE_S = 0.150


def _loop():
    acc = 0
    masks = [(i * 2654435761) & 0xFFFFFFFFFFFF for i in range(256)]
    for i in range(200):
        for m in masks:
            acc ^= (m >> (i & 15)) & ~acc
            acc = (acc + (m & -m).bit_length()) & 0xFFFFFFFFFFFF
    return acc


def calibrate(reps=3):
    """[wall, CPU]: median seconds of `_loop()` over `reps` runs."""
    wall, cpu = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        c0 = time.process_time()
        _loop()
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - t0)
    return [statistics.median(wall), statistics.median(cpu)]


def calibrate_start():
    """Seconds to start an interpreter that imports numpy, and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def factor(before, after, reference=LOOP_REFERENCE_S):
    """Scale for a region bracketed by calibrations `before` and `after`."""
    return 2.0 * reference / (before + after)
