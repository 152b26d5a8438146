"""A fixed unit of pure-Python work, repeated until killed, to gauge CPU speed.

    python3 -I -S metronome.py STATE CPU NICE

The benchmark's host is a shared VM whose CPU speed drifts by tens of
percent from one second to the next.  This process runs pinned to CPU at
niceness NICE, on the same CPU as the op being measured, so the scheduler
interleaves the two finely and both see the same speed.  After each unit
it writes two doubles into the 16-byte file STATE through a shared map:
the number of units done so far and its own CPU time.  Units per CPU
second over an op's lifetime is the speed the op ran at.
"""

import mmap
import os
import struct
import sys
import time


def unit():
    """About 0.1 ms of the interpreter work catalanlab does: small tuples,
    dict lookups and stores, integer arithmetic."""
    table = {}
    acc = 0
    for i in range(400):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    return acc + len(table)


def main():
    state, cpu, nice = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    os.sched_setaffinity(0, {cpu})
    os.nice(nice)
    with open(state, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), 16)
    pack, cpu_time = struct.pack_into, time.thread_time
    done = 0
    while True:
        unit()
        done += 1
        pack("dd", shared, 0, done, cpu_time())


if __name__ == "__main__":
    main()
