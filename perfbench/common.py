"""Helpers shared by the benchmark entry point, round worker and daemon boot."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"

#: ``ORION_*`` settings every process of a run gets.  All other
#: ``ORION_*`` variables (cache and store directories, trace and log
#: files, ...) are removed, so nothing outside the checkout can warm a
#: cold round or add work to a run.
PINNED_ENV = {
    "ORION_ACCEL": "auto",
    "ORION_COMPILE_JOBS": "1",
    "ORION_ENGINE_JOBS": "1",
    "ORION_ENGINE_BATCH": "8",
    "ORION_STRATEGY": "local-spill",
}

#: what ``calibrate()`` takes on the reference box; reported times are
#: scaled to a machine on which it takes exactly this long
CALIBRATION_REF_S = 0.025
#: what ``calibrate_launch()`` takes on the reference box;
#: set-up times are scaled by it
LAUNCH_REF_S = 0.30

#: the calibration launch: compile a generated Python source, as a
#: program's start-up compiles its modules (no bytecode cache is written)
_LAUNCH_JOB = """
import random
rng = random.Random(0)
lines = []
for i in range(400):
    lines += [
        f"def f{i}(a, b={i}):",
        f"    x = {{'k{i}': [a + b * {rng.randrange(99)}, (a, b)], 'n': {i}}}",
        f"    for j in range({rng.randrange(9)}):",
        f"        if j % 3 == {i % 3}: x['n'] += j * a - b",
        "    return [v for v in x.values() if v]",
    ]
source = "\\n".join(lines)
for _ in range(6):
    compile(source, "calibration", "exec")
"""


def require_program() -> None:
    """Exit non-zero (printing no result) when the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def hermetic_env() -> dict[str, str]:
    """This process's environment with every ``ORION_*`` pinned or cleared."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ORION_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def apply_hermetic_env() -> None:
    os.environ.clear()
    os.environ.update(hermetic_env())


def environment_record() -> dict:
    """What a run's numbers depend on besides the code."""
    from repro import accel

    return {
        "accel": accel.accel_info(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _calibration_job(seed: int) -> int:
    """Greedy colouring of a seeded random graph: dict, set and small-
    object work like the compiler's, independent of the program."""
    rng = random.Random(seed)
    n = 2500
    adj = {i: set() for i in range(n)}
    for _ in range(10000):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    colour = {}
    for v in sorted(adj, key=lambda v: (-len(adj[v]), v)):
        used = {colour[u] for u in adj[v] if u in colour}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    return max(colour.values())


def calibrate() -> float:
    """CPU seconds one fixed pure-Python job takes, garbage collector off.

    The box's speed drifts by tens of percent within a minute; a run
    divides its times by samples of this taken right beside the timed
    work (``SpeedClock``, ``sampler.py``) to report them in
    reference-box seconds.  It runs no program code, and it counts the
    calling thread's CPU time, not wall time, so time spent waiting for
    a core the program keeps busy does not enter it: no program change
    can move it through the load it puts on the box.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _calibration_job(0)
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def calibrate_launch() -> float:
    """Wall seconds of one calibration launch.

    Set-up time is mostly a fresh interpreter compiling the program's
    modules, and it drifts with the box by more than ``calibrate()``
    tracks.  A launch of a fresh interpreter that compiles a fixed,
    generated source (no program code) tracks it: over four bursts of
    daemon launches a minute apart the raw medians moved 0.34-0.46 s,
    their ratio to the calibration launches beside them 1.16-1.23.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _LAUNCH_JOB], cwd=ROOT, env=hermetic_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
        timeout=60,
    )
    return time.perf_counter() - start


class SpeedClock:
    """Samples the box's speed between timed calls.

    ``sample()`` takes a short calibration and returns the factor that
    turns seconds spent since the previous sample into reference-box
    seconds: ``CALIBRATION_REF_S`` over the mean of the two samples.
    """

    def __init__(self) -> None:
        self.last = calibrate()

    def sample(self) -> float:
        now = calibrate()
        scale = CALIBRATION_REF_S / ((self.last + now) / 2)
        self.last = now
        return scale


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed requests enter as ``inf``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def bench_workload(spec):
    """The tuning workload ``repro bench`` runs for one suite kernel."""
    from repro.runtime.session import Workload

    wl = spec.workload
    return Workload(
        launch=wl.launch(),
        iterations=wl.iterations,
        traits=wl.traits,
        ilp=wl.ilp,
        max_events_per_warp=wl.max_events_per_warp,
    )


def compile_options(spec, arch):
    from repro.compiler.pipeline import CompileOptions

    return CompileOptions(
        arch=arch,
        block_size=spec.workload.block_size,
        can_tune=spec.workload.can_tune,
        strategy="local-spill",
    )


def kernel_row(report) -> dict:
    return {
        "final_version": report.final_version.label,
        "total_cycles": report.total_cycles,
        "strategy": report.final_version.strategy,
    }


def versions_digest(hashes: dict[str, list[str]]) -> str:
    """One SHA-256 over every kernel's version content hashes."""
    digest = hashlib.sha256()
    for name in sorted(hashes):
        digest.update(f"{name}:{','.join(hashes[name])}\n".encode())
    return digest.hexdigest()
