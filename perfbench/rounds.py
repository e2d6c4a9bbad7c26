"""One cold round of the offline Orion path, in a fresh interpreter.

A round builds the suite's ORAS modules, Orion-compiles each one for
every requested GPU (timing each ``compile_binary`` call), then tunes
every (GPU, kernel) session to convergence on a cold measurement cache
(timing each ``ExecutionEngine.run`` call).  Compile and engine jobs are
pinned to 1 by the caller's environment.  With ``--warm-passes N`` the
round then repeats every request N times with the caches warm: a
compile-cache hit plus a session whose every measurement is a cache hit.

The seed fixes the order of the (GPU, kernel) requests.  After every
timed call the round samples the box's speed (``common.SpeedClock``) and
scales the call's time to reference-box seconds; the raw sums are kept
beside.  The last line of standard output is one JSON object with the
round's timings, kernel rows and version-hash digests (and, with
``--trace``, its spans summed per seam).

    python3 perfbench/rounds.py --archs gtx680,c2075 --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import common

#: warm requests timed between two speed samples (each is ~10-50 ms)
WARM_CHUNK = 7


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--archs", default="gtx680,c2075")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--warm-passes", type=int, default=0)
    parser.add_argument("--emit", metavar="DIR",
                        help="write the GTX680 fat binaries here")
    parser.add_argument("--trace", action="store_true",
                        help="record spans around every layer seam")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and stop")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="perf_counter value taken before this "
                             "process was spawned (default: now)")
    args = parser.parse_args(argv)
    spawned_at = started if args.spawned_at is None else args.spawned_at

    common.require_program()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    from repro.bench.kernels import BENCHMARKS
    from repro.cli import ARCHS
    from repro.compiler.multiversion import version_content_hash
    from repro.compiler.pipeline import compile_binary
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.session import TuningSession

    archs = [ARCHS[name] for name in args.archs.split(",")]
    modules = {name: spec.build() for name, spec in BENCHMARKS.items()}
    setup_s = time.perf_counter() - spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    clock = common.SpeedClock()

    requests = [(arch, name) for arch in archs for name in BENCHMARKS]
    random.Random(args.seed).shuffle(requests)

    def compile_one(arch, name):
        module = modules[name]
        return compile_binary(
            module,
            module.kernel().name,
            common.compile_options(BENCHMARKS[name], arch),
            jobs=1,
        )

    binaries = {}
    compile_s = compile_raw = 0.0
    for arch, name in requests:
        t0 = time.perf_counter()
        binaries[arch.name, name] = compile_one(arch, name)
        elapsed = time.perf_counter() - t0
        compile_raw += elapsed
        compile_s += elapsed * clock.sample()

    engines = {arch.name: ExecutionEngine(arch, jobs=1) for arch in archs}
    cold_ms = []
    rows: dict[str, dict] = {arch.name: {} for arch in archs}
    tune_s = tune_raw = 0.0
    for arch, name in requests:
        session = TuningSession(
            binaries[arch.name, name],
            common.bench_workload(BENCHMARKS[name]),
            name=name,
        )
        t0 = time.perf_counter()
        report = engines[arch.name].run(session)
        elapsed = time.perf_counter() - t0
        tune_raw += elapsed
        elapsed *= clock.sample()
        tune_s += elapsed
        cold_ms.append(elapsed * 1000.0)
        rows[arch.name][name] = common.kernel_row(report)

    measured = {arch: len(engine.cache) for arch, engine in engines.items()}
    warm_ms = []
    chunk_ms = []
    warm_mismatch = []
    for _ in range(args.warm_passes):
        for index, (arch, name) in enumerate(requests):
            t0 = time.perf_counter()
            binary = compile_one(arch, name)
            report = engines[arch.name].run(
                TuningSession(
                    binary,
                    common.bench_workload(BENCHMARKS[name]),
                    name=name,
                )
            )
            chunk_ms.append((time.perf_counter() - t0) * 1000.0)
            if common.kernel_row(report) != rows[arch.name][name]:
                warm_mismatch.append(f"{arch.name}/{name}")
            if len(chunk_ms) == WARM_CHUNK or index == len(requests) - 1:
                scale = clock.sample()
                warm_ms.extend(ms * scale for ms in chunk_ms)
                chunk_ms = []
    warm_new = sum(
        len(engine.cache) - measured[arch] for arch, engine in engines.items()
    )

    digests = {}
    for arch in archs:
        hashes = {
            name: [
                version_content_hash(v)
                for v in (*binary.versions, *binary.failsafe)
            ]
            for (arch_name, name), binary in binaries.items()
            if arch_name == arch.name
        }
        digests[arch.name] = common.versions_digest(hashes)

    if args.emit:
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        for (arch_name, name), binary in binaries.items():
            if arch_name == "GTX680":
                (out / f"{name}.ormv").write_bytes(binary.to_bytes())

    result = {
        "setup_s": setup_s,
        "compile_s": compile_s,
        "tune_s": tune_s,
        "raw": {"compile_s": compile_raw, "tune_s": tune_raw},
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "warm_mismatch": warm_mismatch,
        "warm_new_measurements": warm_new,
        "rows": rows,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "environment": common.environment_record(),
    }
    if tracer is not None:
        from tracer import summarize

        result["layers"] = summarize(tracer.spans())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
