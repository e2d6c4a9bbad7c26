"""Check that the traced run's work counts repeat exactly.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [workload ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and
compares every ``.calls`` metric (plus the other counts).  On
service-mixed the warm client sends hits until the cold sequence is
done, so how many it sends depends on timing: there the seams a warm hit
calls (``run.SERVES["service-warm"]``) and the ISA bytes they decode are
left out, and every other count must repeat.  Each traced run already
fails unless every seam serves its workload and idle layers stay at zero
calls (``run.check_coverage``), and a suite-cold traced run fails unless
its rounds made identical calls.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import common
from run import SERVES, WORKLOADS

COUNT_UNITS = ("count", "bytes", "ratio")
#: counts that follow the number of warm hits
WARM_COUNTS = (
    *(f"{seam}.calls" for seam in SERVES["service-warm"]),
    "isa.decode_module.bytes",
)


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in COUNT_UNITS
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    bad = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        if workload == "service-mixed":
            first = {k: v for k, v in first.items() if k not in WARM_COUNTS}
        differ = sorted(k for k in first if first[k] != second.get(k))
        busy = sum(1 for k, v in first.items() if k.endswith(".calls") and v)
        verdict = "identical" if not differ else "DIFFER: " + ", ".join(differ)
        print(f"{workload}: {len(first)} counts compared, "
              f"{busy} seams called, {verdict}")
        bad += bool(differ)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
