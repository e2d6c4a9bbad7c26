"""Start ``repro serve`` for the benchmark, optionally with layer spans.

    python3 perfbench/boot.py [--spans FILE] -- serve --store S --port-file P

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  With
``--spans`` the layer seams are wrapped before the daemon starts, a
probe task on the daemon's event loop records how late a 10 ms sleep
wakes up (loop lag), and every span and lag sample is written to FILE as
JSON when the daemon exits.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

import common

#: the loop-lag probe's sleep
LAG_PERIOD_S = 0.01


def _install_lag_probe(samples: list) -> None:
    from repro.service.daemon import TuningDaemon

    original = TuningDaemon.start

    async def probe() -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(LAG_PERIOD_S)
            lag = loop.time() - before - LAG_PERIOD_S
            samples.append((time.perf_counter(), max(0.0, lag)))

    async def start(self) -> None:
        await original(self)
        # asyncio.run cancels this task when the daemon's loop ends.
        self._bench_lag_probe = asyncio.get_running_loop().create_task(probe())

    TuningDaemon.start = start


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: boot.py [--spans FILE] -- <repro args>", file=sys.stderr)
        return 2
    split = argv.index("--")
    own, program_args = argv[:split], argv[split + 1:]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    common.require_program()
    tracer = None
    lag: list = []
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        _install_lag_probe(lag)

    from repro.cli import main as repro_main

    code = repro_main(program_args)
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans(), "loop_lag": lag}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
