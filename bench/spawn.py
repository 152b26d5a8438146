"""Run one command on the metronome's CPU and report what it cost.

    python3 -I -S spawn.py REPORT STATE CPU ARGV...

run.py starts every op through this script instead of forking it itself.
On Linux a process's ru_maxrss starts from the RSS its parent had when it
forked, so an op forked straight from the driver could never read below the
driver's own RSS.  This parent stays small.  It pins itself, and so the
command, to CPU, where metronome.py runs, and reads the metronome's STATE
just before the command starts and just after it ends.  The command
inherits this process's stdout, stderr, working directory and environment.
REPORT gets one JSON object: {"wall_s", "cpu_s", "units", "units_cpu_s",
"maxrss_kb", "exit_code"}, where cpu_s is the command's user plus system
time and units and units_cpu_s are the metronome's progress meanwhile.
"""

import json
import mmap
import os
import struct
import sys
import time


def read_state(shared):
    """(units done, metronome CPU seconds), read twice to skip a torn write."""
    while True:
        first = struct.unpack_from("dd", shared)
        if struct.unpack_from("dd", shared) == first:
            return first


def main():
    report, state, cpu, argv = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
    os.sched_setaffinity(0, {cpu})
    with open(state, "rb") as fh:
        shared = mmap.mmap(fh.fileno(), 16, access=mmap.ACCESS_READ)
    units0, units_cpu0 = read_state(shared)
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    units1, units_cpu1 = read_state(shared)
    with open(report, "w") as fh:
        json.dump({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "units": units1 - units0,
            "units_cpu_s": units_cpu1 - units_cpu0,
            "maxrss_kb": usage.ru_maxrss,
            "exit_code": os.waitstatus_to_exitcode(status),
        }, fh)


if __name__ == "__main__":
    main()
