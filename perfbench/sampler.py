"""Sample the box's speed while a service phase runs.

    python3 perfbench/sampler.py OUT_FILE

Every ``PERIOD_S`` it runs ``common.calibrate()`` and appends
``<perf_counter> <cpu seconds> <wall seconds>`` to OUT_FILE, until it is
terminated.  The CPU seconds are the speed sample; wall over CPU seconds
shows how long the sampler waited for a core.  Each sample runs on the
next CPU in turn: the reference box's two vCPUs drift apart in speed
(14 ms against 27 ms for the same job, uncorrelated over time), and the
program under load runs on both.  It runs no program code and keeps
about a tenth of one core busy.
"""

from __future__ import annotations

import itertools
import os
import signal
import sys
import time

import common

PERIOD_S = 0.25


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    cpus = sorted(os.sched_getaffinity(0))
    with open(argv[0], "a", encoding="utf-8", buffering=1) as out:
        for turn in itertools.count():
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            start = time.perf_counter()
            seconds = common.calibrate()
            wall = time.perf_counter() - start
            out.write(f"{start + wall / 2!r} {seconds!r} {wall!r}\n")
            time.sleep(max(0.0, PERIOD_S - (time.perf_counter() - start)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
