"""Committed SM-timing goldens: the corpus, the recorder, the loaders.

Two golden files pin what the SM timing loop computes:

* ``goldens/sm_corpus.json`` — seeded synthetic warp traces (built by
  :func:`corpus_cases`) with their full :class:`~repro.sim.sm.SMResult`:
  cycles, instructions, every ``MemoryStats`` field, issue stalls and
  barriers, across all four architectures × both cache configs.  The
  corpus is shaped to reach every branch of the loop: barrier release
  (including a truncated warp releasing its block), all four memory
  spaces, MSHR stalls and the 4× in-flight cap, DRAM queueing, the
  Fermi/Kepler L1 policy, the soft-limit swap surcharge and cache tags
  of 2**31 and beyond.  One extra case is the srad wave the core
  microbenchmark times.
* ``goldens/suite_measurements.json`` — every measurement the GTX680
  and Tesla C2075 local-spill bench suites make, keyed by benchmark
  name plus version content hash, with the request that produced it.

The committed files were recorded by the pure-Python reference event
loop (and its ``MemorySubsystem``) that preceded the flat loop, under
``ORION_ACCEL=off``.  Regenerate them only for a deliberate model
change, and say so where the change is recorded::

    PYTHONPATH=src python -m tests.sim.goldens
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.arch.specs import CacheConfig, GpuArchitecture, all_architectures
from repro.isa.instructions import FuncUnit, MemSpace
from repro.sim.sm import SMResult, SMSimulator
from repro.sim.trace import MemoryTraits, TraceEvent, WarpTrace

GOLDEN_DIR = Path(__file__).parent / "goldens"
CORPUS_FILE = GOLDEN_DIR / "sm_corpus.json"
SUITE_FILE = GOLDEN_DIR / "suite_measurements.json"

#: scenario name -> (warps, events per warp, warps per block)
SCENARIOS = {
    "mixed": (12, 60, 4),
    "barriers": (10, 40, 4),
    "mshr": (6, 30, 3),
    "swap": (8, 50, 8),
    "tags": (6, 40, 2),
    "reuse": (8, 80, 0),
}


@dataclass
class CorpusCase:
    name: str
    arch: GpuArchitecture
    cache_config: CacheConfig
    traces: list[WarpTrace]
    warps_per_block: int
    traits: MemoryTraits = MemoryTraits()
    ilp: float = 1.0
    swap_interval: int = 0
    swap_latency: int = 0

    def run(self) -> SMResult:
        sim = SMSimulator(
            self.arch,
            self.cache_config,
            traits=self.traits,
            ilp=self.ilp,
            swap_interval=self.swap_interval,
            swap_latency=self.swap_latency,
        )
        return sim.run(self.traces, self.warps_per_block)


# ----------------------------------------------------------------------
# Synthetic traces
# ----------------------------------------------------------------------
def _line_pool(rng: random.Random, scenario: str, line_bytes: int) -> list[int]:
    """Cache-line addresses a scenario draws its accesses from."""
    if scenario == "tags":
        # Tags at and past 2**31 and 2**63, negative addresses, and a few
        # ordinary lines, so large and small tags share the caches.
        return (
            [(1 << 31) * line_bytes + i * line_bytes for i in range(6)]
            + [(1 << 63) + i * 4096 for i in range(4)]
            + [-(i + 1) * line_bytes for i in range(4)]
            + [i * line_bytes for i in range(6)]
        )
    if scenario == "reuse":
        # A small working set with power-of-two strides: L1/L2 hits and
        # LRU eviction rather than a stream of cold misses.
        return [i * 4096 for i in range(24)]
    if scenario == "mshr":
        return [(i + 1) << 20 for i in range(400)]
    size = rng.choice((64, 256, 2048))
    stride = rng.choice((line_bytes, 4096, 3 * line_bytes))
    return [i * stride for i in range(size)]


def _mem_event(rng: random.Random, scenario: str, pool: list[int],
               warp: int, line_bytes: int) -> TraceEvent:
    roll = rng.random()
    if scenario == "mshr":
        # Fully diverged accesses: one line per lane, many in flight.
        count = rng.choice((16, 24, 32))
        return TraceEvent(
            unit=FuncUnit.MEM,
            space=MemSpace.GLOBAL,
            lines=tuple(rng.sample(pool, count)),
        )
    if roll < 0.30:
        space = MemSpace.GLOBAL
    elif roll < 0.55:
        space = MemSpace.LOCAL
    elif roll < 0.65:
        space = MemSpace.PARAM
    elif roll < 0.80:
        space = MemSpace.SHARED
    elif roll < 0.90:
        space = None  # a memory-unit event with no address space
    else:
        space = MemSpace.GLOBAL
    if space is MemSpace.LOCAL:
        line = rng.randrange(8) * 8192 + warp * line_bytes
        return TraceEvent(unit=FuncUnit.MEM, space=space, lines=(line,))
    count = rng.choice((0, 1, 1, 1, 2, 4, 8))
    lines = tuple(rng.choice(pool) for _ in range(count))
    return TraceEvent(unit=FuncUnit.MEM, space=space, lines=lines)


def _segment(rng: random.Random, scenario: str, length: int, pool: list[int],
             warp: int, line_bytes: int) -> list[TraceEvent]:
    events = []
    mem_share = 0.6 if scenario in ("mshr", "reuse", "tags") else 0.35
    for _ in range(length):
        roll = rng.random()
        if roll < mem_share:
            events.append(_mem_event(rng, scenario, pool, warp, line_bytes))
            continue
        roll = rng.random()
        if roll < 0.45:
            unit = FuncUnit.ALU
        elif roll < 0.60:
            unit = FuncUnit.SFU
        elif roll < 0.75:
            unit = FuncUnit.SMEM
        elif roll < 0.90:
            unit = FuncUnit.CTRL
        else:
            unit = FuncUnit.SYNC  # a non-barrier sync issues like ALU
        space = MemSpace.SHARED if unit is FuncUnit.SMEM else None
        events.append(TraceEvent(unit=unit, space=space))
    return events


def synthetic_traces(
    seed: int, scenario: str, line_bytes: int
) -> tuple[list[WarpTrace], int]:
    """Seeded warp traces for ``scenario``; returns (traces, warps/block)."""
    rng = random.Random(seed)
    nwarps, length, wpb = SCENARIOS[scenario]
    pool = _line_pool(rng, scenario, line_bytes)
    barriers = 0 if scenario == "reuse" else rng.choice((1, 2, 3))
    traces = []
    for w in range(nwarps):
        events: list[TraceEvent] = []
        for _ in range(barriers):
            events += _segment(
                rng, scenario, rng.randrange(1, length // 2), pool, w,
                line_bytes,
            )
            events.append(TraceEvent(unit=FuncUnit.SYNC, barrier=True))
        events += _segment(
            rng, scenario, rng.randrange(0, length), pool, w, line_bytes
        )
        traces.append(WarpTrace(events=events))
    if scenario == "barriers":
        # Truncations inside blocks: one warp stops just past its first
        # barrier (its last event is the barrier); one never reaches a
        # barrier but outlives its block-mates' arrival, so its finish
        # releases the block; one is empty.
        first_bar = next(
            i for i, e in enumerate(traces[1].events) if e.barrier
        )
        traces[1].events = traces[1].events[: first_bar + 1]
        traces[1].truncated = True
        traces[5].events = [e for e in traces[5].events if not e.barrier]
        traces[5].truncated = True
        traces[9].events = []
        traces[9].truncated = True
    return traces, wpb


def _arch_for(scenario: str, arch: GpuArchitecture) -> GpuArchitecture:
    if scenario == "mshr":
        # A small MSHR window so the stall and the 4x in-flight cap
        # truncation both trigger.
        return arch.with_overrides(max_outstanding_memory=4)
    return arch


def corpus_cases() -> list[CorpusCase]:
    """Every synthetic case, in a fixed order."""
    cases = []
    seed = 0
    for arch in all_architectures():
        for config in (CacheConfig.SMALL_CACHE, CacheConfig.LARGE_CACHE):
            for scenario in SCENARIOS:
                seed += 1
                traces, wpb = synthetic_traces(
                    seed, scenario, arch.cache_line_bytes
                )
                case = CorpusCase(
                    name=f"{arch.name}/{config.value}/{scenario}",
                    arch=_arch_for(scenario, arch),
                    cache_config=config,
                    traces=traces,
                    warps_per_block=wpb,
                )
                if scenario == "swap":
                    case.swap_interval = 3
                    case.swap_latency = 40
                    case.ilp = 2.0
                    case.traits = MemoryTraits(divergence=1.5)
                cases.append(case)
    arch = all_architectures()[0]
    cases.append(
        CorpusCase(f"{arch.name}/empty", arch, CacheConfig.SMALL_CACHE, [], 1)
    )
    cases.append(srad_wave_case())
    return cases


def srad_wave_case() -> CorpusCase:
    """The srad wave ``benchmarks/test_core_microbench.py`` times."""
    from repro.arch.specs import GTX680
    from repro.bench.kernels import BENCHMARKS
    from repro.sim.interp import LaunchConfig
    from repro.sim.trace import generate_warp_traces

    traces = generate_warp_traces(
        BENCHMARKS["srad"].build(),
        "kernel",
        LaunchConfig(grid_blocks=8, block_size=256),
        16,
        max_events_per_warp=800,
    )
    return CorpusCase(
        "GTX680/srad-wave", GTX680, CacheConfig.SMALL_CACHE, traces, 8
    )


def trace_digest(traces: list[WarpTrace]) -> str:
    """Content hash of a trace list (pins the corpus generator itself)."""
    canon = [
        [
            trace.truncated,
            [
                [
                    e.unit.value,
                    e.space.value if e.space is not None else None,
                    list(e.lines),
                    e.barrier,
                ]
                for e in trace.events
            ],
        ]
        for trace in traces
    ]
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def result_record(result: SMResult) -> dict:
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "memory": dataclasses.asdict(result.memory),
        "issue_stall_cycles": result.issue_stall_cycles,
        "barrier_count": result.barrier_count,
    }


def record_corpus() -> dict:
    return {
        case.name: {
            "trace_digest": trace_digest(case.traces),
            "result": result_record(case.run()),
        }
        for case in corpus_cases()
    }


# ----------------------------------------------------------------------
# Bench-suite measurements
# ----------------------------------------------------------------------
def request_record(request) -> dict:
    """The launch half of a measurement request, JSON-safe."""
    return {
        "grid_blocks": request.launch.grid_blocks,
        "block_size": request.launch.block_size,
        "params": sorted(request.launch.params.items()),
        "cache_config": request.cache_config.value,
        "traits": dataclasses.asdict(request.traits),
        "ilp": request.ilp,
        "max_events_per_warp": request.max_events_per_warp,
        "forced_warps": request.forced_warps,
    }


def suite_versions(arch: GpuArchitecture) -> dict[str, tuple[str, object]]:
    """Version content hash -> (benchmark name, version) for the
    arch's local-spill suite binaries."""
    from repro.bench.kernels import BENCHMARKS
    from repro.compiler.multiversion import version_content_hash
    from repro.harness.experiments import compiled

    index = {}
    for name, spec in BENCHMARKS.items():
        binary = compiled(spec, arch, strategy="local-spill")
        for version in (*binary.versions, *binary.failsafe):
            index[version_content_hash(version)] = (name, version)
    return index


def record_suite() -> dict:
    """Every measurement both local-spill bench suites make."""
    from repro.arch.specs import GTX680, TESLA_C2075
    from repro.compiler.multiversion import version_content_hash
    from repro.harness.experiments import bench_suite
    from repro.runtime.engine import ExecutionEngine

    out = {}
    for arch in (GTX680, TESLA_C2075):
        index = suite_versions(arch)
        recorded: dict[str, list[dict]] = {}

        class Recorder:
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name

            def measure(self, request):
                result = self.inner.measure(request)
                name, _ = index[version_content_hash(request.version)]
                key = f"{name}|{version_content_hash(request.version)}"
                entry = request_record(request)
                entry["payload"] = result.to_payload()
                recorded.setdefault(key, []).append(entry)
                return result

        engine = ExecutionEngine(arch)
        recorder = Recorder(engine.backend)
        engine.backend = recorder
        engine.pool.backend = recorder
        bench_suite(arch, suite_engine=engine, jobs=1, strategy="local-spill")
        for entries in recorded.values():
            entries.sort(key=lambda e: json.dumps(e, sort_keys=True))
        out[arch.name] = dict(sorted(recorded.items()))
    return out


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for path, payload in (
        (CORPUS_FILE, record_corpus()),
        (SUITE_FILE, record_suite()),
    ):
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
