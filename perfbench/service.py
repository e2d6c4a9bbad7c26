"""The tuning daemon under load: launch, priming and the two traffic mixes.

The daemon is a separate process started through ``boot.py`` with its
default ``repro serve`` configuration and an empty store.  Load comes
from this process: at most two client threads, each a closed loop of
``TuningClient.tune`` calls (the next request goes out when the previous
answer is back).  Every request is timed as the client sees it and every
answer is checked; a request that raises counts as failed and enters the
latency percentiles as infinitely slow.  Latencies are scaled to
reference-box time by the speed samples ``sampler.py`` takes beside the
phase (see METRICS.md, *Noise*).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import common

#: daemon launch → first successful ping must happen within this
LAUNCH_TIMEOUT_S = 60.0
#: a cold tune takes well under a second; anything near this is a hang
REQUEST_TIMEOUT_S = 60.0
#: speed samples this close to a request's interval count for it
SPEED_WINDOW_S = 1.0
#: grid sizes a cold tune draws from: all above the suite's 96 blocks,
#: where resident warps (and so simulation work) no longer grow with it
COLD_GRIDS = (97, 256)
#: service-mixed: seeded warm permutations, repeated as long as needed
MIXED_WARM_PASSES = 4


@dataclass
class Outcome:
    """One request as the client saw it."""

    name: str
    start: float
    end: float
    ok: bool
    error: str | None = None
    #: the daemon answered, but not what it must answer
    wrong: bool = False
    #: reference-box seconds per second while it ran
    scale: float = 1.0

    @property
    def ms(self) -> float:
        if not self.ok:
            return float("inf")
        return (self.end - self.start) * 1000.0 * self.scale


class SpeedSamples:
    """``sampler.py`` running beside a phase, in its own process.

    The daemon's speed drifts with the box's; a request's latency is
    scaled to reference-box time by the samples taken while it ran.
    """

    def __init__(self, workdir: Path, tag: str) -> None:
        self.path = workdir / f"speed-{tag}.txt"
        self.proc: subprocess.Popen | None = None
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.walls: list[float] = []

    def __enter__(self) -> "SpeedSamples":
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "sampler.py"),
             str(self.path)],
            cwd=common.ROOT, env=common.hermetic_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        deadline = time.perf_counter() + LAUNCH_TIMEOUT_S
        while not self._read() and time.perf_counter() < deadline:
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._read()

    def _read(self) -> bool:
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return False
        rows = [line.split() for line in lines]
        rows = [r for r in rows if len(r) == 3]
        self.times = [float(t) for t, _, _ in rows]
        self.seconds = [float(s) for _, s, _ in rows]
        self.walls = [float(w) for _, _, w in rows]
        return bool(rows)

    def scale(self, start: float, end: float) -> float:
        """Reference-box seconds per second over ``[start, end]``, from
        the samples within ``SPEED_WINDOW_S`` of it (a single sample
        flickers between the box's fast and slow states)."""
        lo, hi = start - SPEED_WINDOW_S, end + SPEED_WINDOW_S
        near = [s for t, s in zip(self.times, self.seconds) if lo <= t <= hi]
        if not near:
            raise RuntimeError("no speed sample near a timed request")
        return common.CALIBRATION_REF_S / (sum(near) / len(near))

    def wait_ratio(self, start: float, end: float) -> float:
        """Median wall over CPU seconds of the samples in ``[start, end]``:
        1.0 on an idle box, about 2 when both cores are busy."""
        return common.median([
            w / s for t, s, w in zip(self.times, self.seconds, self.walls)
            if start <= t <= end
        ])


@dataclass
class Served:
    """What the suite's fat binaries and their primed records look like."""

    binaries: dict
    workloads: dict
    keys: dict
    records: dict = field(default_factory=dict)


class Daemon:
    """One ``repro serve`` process with its own empty store."""

    def __init__(self, workdir: Path, tag: str, spans: bool = False) -> None:
        self.workdir = workdir
        self.tag = tag
        self.spans_path = workdir / f"spans-{tag}.json" if spans else None
        self.port_file = workdir / f"port-{tag}"
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._stderr = None

    def launch(self) -> tuple[float, float]:
        """Start the daemon; return when it started and when it first
        answered a ping (``perf_counter`` times)."""
        from repro.service.client import TuningClient

        cmd = [sys.executable, str(common.BENCH_DIR / "boot.py")]
        if self.spans_path is not None:
            cmd += ["--spans", str(self.spans_path)]
        cmd += [
            "--", "serve",
            "--store", str(self.workdir / f"store-{self.tag}.jsonl"),
            "--port-file", str(self.port_file),
            "--arch", "gtx680",
        ]
        self._stderr = open(self.workdir / f"daemon-{self.tag}.err", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=common.ROOT,
            env=common.hermetic_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )
        deadline = started + LAUNCH_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} at start"
                )
            if self.port is None:
                try:
                    text = self.port_file.read_text(encoding="utf-8")
                except FileNotFoundError:
                    text = ""
                if text.endswith("\n"):
                    self.port = int(text)
            if self.port is not None:
                try:
                    TuningClient(port=self.port, retries=0, timeout=2.0,
                                 trace=False).ping()
                    return started, time.perf_counter()
                except OSError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("daemon did not answer a ping in time")

    def client(self):
        from repro.service.client import TuningClient

        return TuningClient(
            port=self.port, retries=0, timeout=REQUEST_TIMEOUT_S, trace=False
        )

    def reset_peak_rss(self) -> None:
        """Restart the daemon's ``VmHWM`` from its current resident set,
        so that priming does not count towards the measured phase's peak."""
        Path(f"/proc/{self.proc.pid}/clear_refs").write_text("5")

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's status")

    def stop(self) -> dict | None:
        """Shut the daemon down; return its span dump when it made one."""
        if self.proc is None:
            return None
        try:
            if self.proc.poll() is None and self.port is not None:
                try:
                    self.client().shutdown()
                except OSError:
                    pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        finally:
            if self._stderr is not None:
                self._stderr.close()
        if self.spans_path is not None and self.spans_path.exists():
            return json.loads(self.spans_path.read_text(encoding="utf-8"))
        return None


def load_served(binary_dir: Path) -> Served:
    """The fat binaries a build round wrote, with their workloads and keys."""
    from repro.bench.kernels import BENCHMARKS
    from repro.compiler.multiversion import MultiVersionBinary

    binaries, workloads, keys = {}, {}, {}
    for name, spec in BENCHMARKS.items():
        binaries[name] = MultiVersionBinary.from_bytes(
            (binary_dir / f"{name}.ormv").read_bytes()
        )
        workloads[name] = common.bench_workload(spec)
        keys[name] = daemon_key(binaries[name], workloads[name])
    return Served(binaries, workloads, keys)


def daemon_key(binary, workload) -> str:
    """The store key a default GTX680 daemon files this request under."""
    from repro.arch.specs import GTX680, CacheConfig
    from repro.service.fingerprint import tuning_key

    return tuning_key(
        binary, workload, GTX680.name, "timing", CacheConfig.SMALL_CACHE.value,
        arch_fingerprint=GTX680.fingerprint(),
    )


def _closed_loop(client, requests, check, stop_when=None) -> list[Outcome]:
    """Send ``requests`` one at a time; ``check(request, response)`` says
    whether an answer is right.  Without ``stop_when`` the sequence is
    sent once.  With it the sequence repeats, and the loop ends before
    the first request it sends after ``stop_when()`` returned True."""
    outcomes = []
    index = 0
    while True:
        if stop_when is not None:
            if stop_when():
                return outcomes
            index %= len(requests)
        elif index >= len(requests):
            return outcomes
        request = requests[index]
        index += 1
        start = time.perf_counter()
        try:
            response = client.tune(request.binary, request.workload)
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            outcomes.append(Outcome(request.name, start, time.perf_counter(),
                                    False, f"{type(exc).__name__}: {exc}"))
            continue
        end = time.perf_counter()
        error = check(request, response)
        outcomes.append(Outcome(request.name, start, end, error is None, error,
                                wrong=error is not None))


@dataclass
class Request:
    name: str
    binary: object
    workload: object
    key: str


def _run_threads(targets) -> list:
    results = [None] * len(targets)
    errors = []

    def body(i, fn):
        try:
            results[i] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(i, fn), daemon=True)
        for i, fn in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * 10)
        if thread.is_alive():
            raise RuntimeError("a load thread did not finish")
    if errors:
        raise errors[0]
    return results


def passes(names, count: int, rng: random.Random) -> list[str]:
    """``count`` seeded permutations of ``names``, concatenated."""
    out = []
    for _ in range(count):
        order = list(names)
        rng.shuffle(order)
        out.extend(order)
    return out


def prime(daemon: Daemon, served: Served, goldens: dict, seed: int) -> list[str]:
    """Cold-tune every suite kernel once; check and keep the records."""
    problems = []
    names = passes(sorted(served.binaries), 1, random.Random(seed))
    halves = [names[0::2], names[1::2]]

    def check(request, response):
        golden = goldens[request.name]
        record = response.get("record") or {}
        if response.get("source") != "tuned":
            return f"priming {request.name}: source {response.get('source')}"
        if response.get("key") != request.key:
            return f"priming {request.name}: unexpected key"
        if (record.get("winner_label"), record.get("total_cycles")) != (
            golden["final_version"], golden["total_cycles"]
        ):
            return f"priming {request.name}: record {record} != golden"
        served.records[request.name] = record
        return None

    outcomes = _run_threads([
        (lambda part=part: _closed_loop(
            daemon.client(), [_request(served, n) for n in part], check))
        for part in halves
    ])
    for outcome in (o for part in outcomes for o in part):
        if not outcome.ok:
            problems.append(outcome.error)
    return problems


def _request(served: Served, name: str) -> Request:
    return Request(name, served.binaries[name], served.workloads[name],
                   served.keys[name])


def _warm_check(served: Served):
    def check(request, response):
        if response.get("source") != "store":
            return f"warm {request.name}: source {response.get('source')}"
        if response.get("record") != served.records[request.name]:
            return f"warm {request.name}: record differs from the primed one"
        return None

    return check


def warm_phase(daemon: Daemon, served: Served, seed: int,
               passes_per_client: int) -> list[list[Outcome]]:
    """Two clients, each a fixed seeded sequence of warm hits; returns
    each client's outcomes in the order sent."""
    names = sorted(served.binaries)
    sequences = [
        [_request(served, n)
         for n in passes(names, passes_per_client, random.Random(seed * 7 + c))]
        for c in range(2)
    ]
    check = _warm_check(served)
    return _run_threads([
        (lambda seq=seq: _closed_loop(daemon.client(), seq, check))
        for seq in sequences
    ])


def cold_sequence(served: Served, seed: int, cold_passes: int) -> list[Request]:
    """Seeded cold tunes: suite binaries under launch grids never seen.

    Every key is checked distinct from every other key of the run
    (primed ones included); a repeated draw is redrawn.
    """
    rng = random.Random(seed * 7 + 5)
    seen = set(served.keys.values())
    out = []
    for name in passes(sorted(served.binaries), cold_passes, rng):
        base = served.workloads[name]
        while True:
            grid = rng.randint(*COLD_GRIDS)
            workload = _with_grid(base, grid)
            key = daemon_key(served.binaries[name], workload)
            if key not in seen:
                break
        seen.add(key)
        out.append(Request(name, served.binaries[name], workload, key))
    return out


def _with_grid(workload, grid: int):
    from dataclasses import replace

    return replace(workload, launch=replace(workload.launch, grid_blocks=grid))


def _cold_check(request, response):
    if response.get("source") != "tuned":
        return f"cold {request.name}: source {response.get('source')}"
    if response.get("key") != request.key:
        return f"cold {request.name}: unexpected key"
    record = response.get("record") or {}
    if record.get("kernel_name") != request.binary.kernel_name:
        return f"cold {request.name}: record for another kernel"
    return None


def mixed_phase(daemon: Daemon, served: Served, seed: int,
                cold: list[Request]):
    """One client sends the ``cold`` sequence; the other sends warm hits,
    seeded permutations of the suite, until the cold sequence is done.
    How many warm hits go out depends on how fast both paths are."""
    names = sorted(served.binaries)
    warm = [_request(served, n)
            for n in passes(names, MIXED_WARM_PASSES,
                            random.Random(seed * 7 + 1))]
    done = threading.Event()

    def cold_client():
        try:
            return _closed_loop(daemon.client(), cold, _cold_check)
        finally:
            done.set()

    cold_out, warm_out = _run_threads([
        cold_client,
        lambda: _closed_loop(daemon.client(), warm, _warm_check(served),
                             stop_when=done.is_set),
    ])
    return cold_out, warm_out
