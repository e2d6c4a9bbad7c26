"""Orion end-to-end benchmark: offline compile+tune and the tuning service.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 10 --trace 0

Workloads (see METRICS.md for every metric's definition):

* ``suite-cold``   — cold rounds of the paper's offline path, each in a
  fresh interpreter: compile the 14 suite kernels for GTX680 and C2075,
  tune all 28 sessions, then repeat every request with warm caches;
* ``service-warm`` — a ``repro serve`` daemon primed with the 14 GTX680
  binaries answers a closed loop of warm tune requests from 2 clients;
* ``service-mixed`` — the same daemon: one client sends cold tunes under
  unseen launch grids while the other keeps sending warm hits.  It is
  not in BENCHMARK.json: its warm latencies are too unsteady to gate.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer seam (``tracer.py``) and prints the per-layer metrics instead.
The last line of standard output is one JSON object.  A wrong output
fails the run: it prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import common

WORKLOADS = ("suite-cold", "service-warm", "service-mixed")

#: round processes run side by side (the reference box has 2 cores)
ROUND_WAVE = 2
#: suite-cold: cold rounds per run
SUITE_ROUNDS = 4
#: suite-cold: warm repeats of every request per round
SUITE_WARM_PASSES = 3
#: set-up time is the median over this many set-ups (fresh round
#: processes or daemon launches), made apart from the measured work
SETUP_PROBES = 5
#: nominal rates (reference box) that turn --seconds into fixed counts:
#: service-warm sends --seconds x WARM_HITS_PER_S warm hits; service-mixed
#: sends one pass of cold tunes over the suite per COLD_PASS_S seconds
WARM_HITS_PER_S = 50.0
COLD_PASS_S = 3.0
#: a round process must finish within this
ROUND_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "compile_s": "s",
    "tune_s": "s",
    "peak_rss_mb": "MB",
    "warm_p50_ms": "ms",
    "warm_p99_ms": "ms",
    "warm_p90_ms": "ms",
    "warm_rps": "requests/s",
    "cold_p50_ms": "ms",
}


class CheckFailed(Exception):
    """An output of the program differs from what it must be."""


# ----------------------------------------------------------------------
# Cold rounds (suite-cold, and the build phase of the service workloads)
# ----------------------------------------------------------------------
def run_rounds(count, archs, seed, warm_passes=0, traced=(), emit=None):
    """Run ``count`` round processes, ``ROUND_WAVE`` at a time.
    ``traced`` holds the indices of rounds that record spans; ``emit``
    is where round 0 writes binaries."""
    results = []
    index = 0
    while index < count:
        wave = []
        for _ in range(ROUND_WAVE):
            cmd = [
                sys.executable, str(common.BENCH_DIR / "rounds.py"),
                "--archs", archs, "--seed", str(seed),
                "--warm-passes", str(warm_passes),
                "--spawned-at", repr(time.perf_counter()),
            ]
            if index in traced:
                cmd.append("--trace")
            if index == 0 and emit is not None:
                cmd += ["--emit", str(emit)]
            wave.append((index, subprocess.Popen(
                cmd, cwd=common.ROOT, env=common.hermetic_env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )))
            index += 1
        try:
            for i, proc in wave:
                try:
                    out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    raise RuntimeError(f"round {i} timed out") from None
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"round {i} failed:\n{err.decode(errors='replace')}"
                    )
                result = json.loads(out.decode().splitlines()[-1])
                result["traced"] = i in traced
                results.append(result)
        finally:
            for _, proc in wave:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
    return results


def probe_setups(launch) -> tuple[list[float], list[float]]:
    """``SETUP_PROBES`` set-up times, each scaled to reference-box
    seconds by the two calibration launches made right before and after
    it.  ``launch()`` makes one set-up and returns its raw seconds.
    Returns the scaled and the raw times."""
    raw, calibration = [], [common.calibrate_launch()]
    for _ in range(SETUP_PROBES):
        raw.append(launch())
        calibration.append(common.calibrate_launch())
    scaled = [
        seconds * common.LAUNCH_REF_S / ((before + after) / 2)
        for seconds, before, after in zip(raw, calibration, calibration[1:])
    ]
    return scaled, raw


def round_setup() -> float:
    """Interpreter start until the suite modules are built, in a fresh
    round process that stops there."""
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "rounds.py"), "--setup-only",
         "--spawned-at", repr(time.perf_counter())],
        cwd=common.ROOT, env=common.hermetic_env(), stdin=subprocess.DEVNULL,
        capture_output=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe failed:\n{proc.stderr.decode(errors='replace')}"
        )
    return json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]


def check_round(result, goldens) -> None:
    for arch, digest in result["digests"].items():
        golden = goldens[arch]
        if digest != golden["versions_digest"]:
            raise CheckFailed(f"{arch} version content hashes differ")
        rows = result["rows"][arch]
        if rows != golden["kernels"]:
            wrong = sorted(n for n in rows if rows[n] != golden["kernels"][n])
            raise CheckFailed(f"{arch} kernel rows differ: {', '.join(wrong)}")
    if result["warm_mismatch"]:
        raise CheckFailed(
            f"warm re-tunes differ: {', '.join(result['warm_mismatch'])}"
        )
    if result["warm_new_measurements"]:
        raise CheckFailed("warm re-tunes measured something anew")


def round_wall(rounds) -> float:
    return common.median([r["compile_s"] + r["tune_s"] for r in rounds])


def suite_cold(args, goldens, workdir):
    if args.trace:
        # Two waves, each one untraced and one traced round side by
        # side: the pairs share the machine's state, so their ratio is
        # the tracing overhead.
        rounds = run_rounds(4, "gtx680,c2075", args.seed,
                            SUITE_WARM_PASSES, traced=(1, 3))
    else:
        rounds = run_rounds(SUITE_ROUNDS, "gtx680,c2075", args.seed,
                            SUITE_WARM_PASSES)
    for result in rounds:
        check_round(result, goldens)
    setups, setups_raw = probe_setups(round_setup)
    plain = [r for r in rounds if not r["traced"]]
    cold = [ms for r in plain for ms in r["cold_ms"]]
    warm = [ms for r in plain for ms in r["warm_ms"]]
    metrics = {
        "setup_s": common.median(setups),
        "wall_s": round_wall(plain),
        "compile_s": common.median([r["compile_s"] for r in plain]),
        "tune_s": common.median([r["tune_s"] for r in plain]),
        "peak_rss_mb": common.median([r["peak_rss_mb"] for r in plain]),
        "cold_p50_ms": common.percentile(cold, 50),
        "warm_p50_ms": common.percentile(warm, 50),
        "warm_p90_ms": common.percentile(warm, 90),
        "warm_p99_ms": common.percentile(warm, 99),
        "warm_rps": common.median(
            [len(r["warm_ms"]) / (sum(r["warm_ms"]) / 1000.0) for r in plain]
        ),
    }
    info = {"rounds": len(plain), "cold_samples": len(cold),
            "setups_s": setups, "setups_raw_s": setups_raw,
            "warm_samples": len(warm),
            "round_compile_s": [r["compile_s"] for r in plain],
            "round_tune_s": [r["tune_s"] for r in plain],
            "round_setup_raw_s": [r["setup_s"] for r in plain],
            "raw_rounds": [r["raw"] for r in plain],
            "environment": rounds[0]["environment"]}
    attempted = sum(len(r["cold_ms"]) + len(r["warm_ms"]) for r in rounds)
    layers = None
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        layers = round_layers(traced)
        layers["trace.overhead_pct"] = 100.0 * (
            round_wall(traced) / round_wall(plain) - 1
        )
        check_coverage("suite-cold", layers, rounds[0]["environment"])
    return metrics, layers, attempted, 0, info


def round_layers(traced) -> dict:
    """Per-layer numbers of traced rounds; every round must do the same
    work, call for call, or it was not cold."""
    counts = [
        {seam: entry["calls"] for seam, entry in r["layers"].items()}
        for r in traced
    ]
    if any(c != counts[0] for c in counts[1:]):
        raise CheckFailed("traced rounds made different numbers of calls")
    summary = {}
    for seam, entry in traced[0]["layers"].items():
        summary[seam] = {
            "calls": entry["calls"],
            "self_s": common.median([r["layers"][seam]["self_s"]
                                     for r in traced]),
            "extra": entry.get("extra"),
        }
    return layer_metrics(summary, loop_lag=[])


# ----------------------------------------------------------------------
# Per-layer metrics and the seam-coverage check
# ----------------------------------------------------------------------
def layer_metrics(summary, loop_lag) -> dict:
    from tracer import UNTIMED

    out = {}
    for seam, entry in summary.items():
        if seam in UNTIMED:
            continue
        out[f"{seam}.calls"] = entry["calls"]
        out[f"{seam}.self_s"] = entry["self_s"]
    out["isa.decode_module.bytes"] = summary["isa.decode_module"]["extra"]
    out["compiler.versions_emitted"] = summary["compiler.compile_binary"][
        "extra"]
    lookups = summary["perf.MeasurementCache.get"]["calls"]
    hits = summary["perf.MeasurementCache.get"]["extra"]
    out["perf.measure_cache.lookups"] = lookups
    out["perf.measure_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["service.requests_failed"] = summary["service.TuningDaemon._count"][
        "extra"]
    out["service.loop_lag_p99_ms"] = (
        common.percentile(loop_lag, 99) * 1000.0 if loop_lag else 0.0
    )
    return out


#: seams each workload must call at least once (the layer it serves)
SERVES = {
    "suite-cold": (
        "isa.encode_module", "ir.construct_ssa", "ir.analyze_liveness",
        "ir.analyze_liveness_masks", "ir.build_interference",
        "ir.verify_module", "regalloc.minimal_budget",
        "regalloc.allocate_module", "regalloc.color_graph",
        "regalloc.insert_spill_code", "regalloc.plan_interprocedural",
        "regalloc.min_cost_assignment", "compiler.compile_binary",
        "compiler.realize_occupancy", "compiler.from_bytes",
        "sim.SMSimulator.run", "sim.simulate_kernel", "sim.backend_measure",
        "runtime.ExecutionEngine.run", "runtime.ExecutionEngine.measure",
        "perf.MeasurementCache.get", "isa.decode_module",
    ),
    "service-warm": (
        "isa.decode_module", "compiler.from_bytes",
        "service.protocol.decode_body", "service.protocol.encode_frame",
        "service.daemon.decode_binary", "service.fingerprint.tuning_key",
        "service.TuningStore.get",
    ),
    "service-mixed": (
        "isa.decode_module", "compiler.from_bytes",
        "service.protocol.decode_body", "service.protocol.encode_frame",
        "service.daemon.decode_binary", "service.fingerprint.tuning_key",
        "service.TuningStore.get", "service.TuningStore.put",
        "service.TuningDaemon._tune_sync", "sim.SMSimulator.run",
        "sim.simulate_kernel", "sim.backend_measure",
        "runtime.ExecutionEngine.run", "runtime.ExecutionEngine.measure",
        "perf.MeasurementCache.get",
    ),
}
#: layer prefixes each workload must not call at all
IDLE = {
    "suite-cold": ("service.",),
    "service-warm": ("ir.", "regalloc.", "compiler.compile_binary",
                     "compiler.realize_occupancy", "sim.", "runtime.",
                     "perf."),
    "service-mixed": ("ir.", "regalloc.", "compiler.compile_binary",
                      "compiler.realize_occupancy"),
}


def check_coverage(workload, layers, environment) -> None:
    """Each seam serves its workload; idle layers stay at zero calls."""
    serves = list(SERVES[workload])
    if any(s.startswith("sim.") for s in serves):
        # The trace generator behind simulate_kernel follows ORION_ACCEL.
        accelerated = environment["accel"]["mode"] != "off"
        serves.append(
            "sim.cached_traces" if accelerated else "sim.generate_warp_traces"
        )
    missing = [s for s in serves if not layers[f"{s}.calls"]]
    busy = [
        key[: -len(".calls")]
        for key, value in layers.items()
        if key.endswith(".calls") and value
        and key.startswith(IDLE[workload])
    ]
    if missing or busy:
        raise CheckFailed(
            f"seam coverage on {workload}: never called "
            f"{missing or 'none'}; called but should be idle {busy or 'none'}"
        )


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------
def service_run(args, goldens, workdir):
    import service

    # The build: two cold GTX680 rounds make the served binaries;
    # compile_s (and service-warm's cold_p50_ms) come from them.
    binary_dir = workdir / "binaries"
    build = run_rounds(2, "gtx680", args.seed, emit=binary_dir)
    for result in build:
        check_round(result, goldens)
    served = service.load_served(binary_dir)
    golden_rows = goldens["GTX680"]["kernels"]

    probes = iter(range(SETUP_PROBES))

    def daemon_setup() -> float:
        daemon = service.Daemon(workdir, f"probe{next(probes)}")
        try:
            started, ready = daemon.launch()
        finally:
            daemon.stop()
        return ready - started

    setups, setups_raw = probe_setups(daemon_setup)

    results = {}
    for traced in ([False, True] if args.trace else [False]):
        daemon = service.Daemon(workdir, "traced" if traced else "main",
                                spans=traced)
        try:
            daemon.launch()
            problems = service.prime(daemon, served, golden_rows, args.seed)
            if problems:
                raise CheckFailed("; ".join(problems))
            daemon.reset_peak_rss()
            results[traced] = measure_service(args, daemon, served, workdir)
            results[traced]["peak_rss_mb"] = daemon.peak_rss_mb()
        finally:
            results.setdefault(traced, {})["dump"] = daemon.stop()

    plain = results[False]
    metrics = dict(plain["metrics"])
    metrics["setup_s"] = common.median(setups)
    metrics["peak_rss_mb"] = plain["peak_rss_mb"]
    metrics["compile_s"] = common.median([r["compile_s"] for r in build])
    metrics.setdefault("cold_p50_ms", common.percentile(
        [ms for r in build for ms in r["cold_ms"]], 50))
    info = {"environment": build[0]["environment"],
            "build_compile_s": [r["compile_s"] for r in build],
            "build_compile_raw_s": [r["raw"]["compile_s"] for r in build],
            "setups_s": setups, "setups_raw_s": setups_raw,
            **plain["info"]}
    layers = None
    if args.trace:
        traced = results[True]
        if traced["dump"] is None:
            raise RuntimeError("the traced daemon wrote no spans")
        from tracer import summarize

        window = traced["window"]
        summary = summarize(traced["dump"]["spans"], window)
        lag = [lag for t, lag in traced["dump"]["loop_lag"]
               if window[0] <= t < window[1]]
        layers = layer_metrics(summary, lag)
        layers["trace.overhead_pct"] = 100.0 * (
            traced["elapsed"] / plain["elapsed"] - 1
        )
        check_coverage(args.workload, layers, info["environment"])
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return metrics, layers, attempted, failed, info


def pass_seconds(outcomes, size) -> list[float]:
    """Summed latency of each whole pass of ``size`` requests, in seconds."""
    return [
        sum(o.ms for o in outcomes[i:i + size]) / 1000.0
        for i in range(0, len(outcomes) - size + 1, size)
    ]


def measure_service(args, daemon, served, workdir) -> dict:
    """The measured phase on a primed daemon: fixed, seeded requests.

    ``wall_s`` is the time the phase's fixed work took and ``tune_s``
    the median time one client spent tuning a whole pass over the suite
    (warm hits on service-warm, cold tunes on service-mixed)."""
    import service

    suite = len(served.binaries)
    if args.workload == "service-warm":
        total = max(2, round(args.seconds * WARM_HITS_PER_S))
        per_client = max(1, round(total / (2 * suite)))
        with service.SpeedSamples(workdir, daemon.tag) as speed:
            start = time.perf_counter()
            clients = service.warm_phase(daemon, served, args.seed,
                                         per_client)
            end = time.perf_counter()
        warm_all = [o for part in clients for o in part]
        cold = []
        stop = end
    else:
        cold_passes = max(1, round(args.seconds / COLD_PASS_S))
        cold_requests = service.cold_sequence(served, args.seed, cold_passes)
        with service.SpeedSamples(workdir, daemon.tag) as speed:
            start = time.perf_counter()
            cold, warm_all = service.mixed_phase(
                daemon, served, args.seed, cold_requests)
            end = time.perf_counter()
        stop = max(o.end for o in cold)
    for outcome in cold + warm_all:
        outcome.scale = speed.scale(outcome.start, outcome.end)
    phase_scale = speed.scale(start, stop)
    elapsed = (stop - start) * phase_scale
    # On service-mixed only warm hits completed while cold tunes ran.
    warm = [o for o in warm_all if o.end <= stop]
    if args.workload == "service-warm":
        passes = [t for part in clients for t in pass_seconds(part, suite)]
    else:
        passes = pass_seconds(cold, suite)
    sent = cold + warm_all
    wrong = sorted({o.error for o in sent if o.wrong})
    if wrong:
        raise CheckFailed("; ".join(wrong[:5]))
    warm_ms = [o.ms for o in warm]
    result = {
        "attempted": len(sent),
        "failed": sum(1 for o in sent if not o.ok),
        "elapsed": elapsed,
        "window": (start, end),
        "metrics": {
            "wall_s": elapsed,
            "tune_s": common.median(passes),
            "warm_p50_ms": common.percentile(warm_ms, 50),
            "warm_p90_ms": common.percentile(warm_ms, 90),
            "warm_p99_ms": common.percentile(warm_ms, 99),
            "warm_rps": sum(1 for o in warm if o.ok) / elapsed,
        },
        "info": {"warm_samples": len(warm_ms), "warm_sent": len(warm_all),
                 "passes": len(passes),
                 "sampler_wait_ratio": speed.wait_ratio(start, stop),
                 "raw": {
                     "wall_s": stop - start,
                     "warm_p50_ms": common.percentile(
                         [(o.end - o.start) * 1000 for o in warm], 50),
                     "warm_p90_ms": common.percentile(
                         [(o.end - o.start) * 1000 for o in warm], 90),
                     "cold_p50_ms": common.percentile(
                         [(o.end - o.start) * 1000 for o in cold], 50)
                     if cold else None}},
    }
    if cold:
        result["metrics"]["cold_p50_ms"] = common.percentile(
            [o.ms for o in cold], 50)
        result["info"]["cold_samples"] = len(cold)
    return result


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_program()
    common.apply_hermetic_env()
    # A terminated run still stops its round processes and daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    goldens = json.loads(common.GOLDENS.read_text(encoding="utf-8"))
    workdir = common.ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = suite_cold if args.workload == "suite-cold" else service_run
    try:
        metrics, layers, attempted, failed, info = runner(
            args, goldens, workdir)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **info}), file=sys.stderr)
    if args.trace:
        out = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in layers.items()}
    else:
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    unmeasured = [n for n, m in out.items() if not math.isfinite(m["value"])]
    if unmeasured:
        # Failed requests rank as infinitely slow; a percentile that
        # lands on one has no value to report.
        print(f"{failed} request(s) failed; no value for "
              f"{', '.join(unmeasured)}", file=sys.stderr)
        out = {}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 1 if unmeasured else 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
