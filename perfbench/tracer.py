"""Span recording around the public functions of each layer.

The wrappers live here, in the benchmark, not in the program: each seam
below is replaced, in every module namespace (or class) that binds it,
by a wrapper that times the call on a per-thread parent stack.  Self
time is the span minus the spans of wrapped calls made inside it.  Spans
are held in memory (two doubles each: start time and self time) and
summarised or written out when the run ends.

Start times come from ``time.perf_counter``, which is the system-wide
monotonic clock on Linux, so a load process can cut a daemon's spans
into phases with timestamps it took itself.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from array import array

#: (metric prefix, defining module, attribute path, layer extra).  The
#: extra names a per-call quantity recorded beside the span:
#: ``bytes`` (length of the first argument), ``versions`` (versions in
#: the returned binary), ``hit`` (1 when a cache lookup returned data)
#: and ``failed`` (1 when the daemon charged a failure outcome).
SEAMS = (
    ("isa.decode_module", "repro.isa.encoding", "decode_module", "bytes"),
    ("isa.encode_module", "repro.isa.encoding", "encode_module", None),
    ("ir.construct_ssa", "repro.ir.ssa", "construct_ssa", None),
    ("ir.analyze_liveness", "repro.ir.liveness", "analyze_liveness", None),
    ("ir.analyze_liveness_masks", "repro.ir.liveness",
     "analyze_liveness_masks", None),
    ("ir.build_interference", "repro.ir.interference",
     "build_interference", None),
    ("ir.verify_module", "repro.ir.verify", "verify_module", None),
    ("regalloc.minimal_budget", "repro.regalloc.allocator",
     "minimal_budget", None),
    ("regalloc.allocate_module", "repro.regalloc.allocator",
     "allocate_module", None),
    ("regalloc.color_graph", "repro.regalloc.chaitin", "color_graph", None),
    ("regalloc.insert_spill_code", "repro.regalloc.spill",
     "insert_spill_code", None),
    ("regalloc.plan_interprocedural", "repro.regalloc.stack",
     "plan_interprocedural", None),
    ("regalloc.min_cost_assignment", "repro.regalloc.matching",
     "min_cost_assignment", None),
    ("compiler.compile_binary", "repro.compiler.pipeline",
     "compile_binary", "versions"),
    ("compiler.realize_occupancy", "repro.compiler.realize",
     "realize_occupancy", None),
    ("compiler.from_bytes", "repro.compiler.multiversion",
     "MultiVersionBinary.from_bytes", None),
    ("sim.generate_warp_traces", "repro.sim.trace",
     "generate_warp_traces", None),
    ("sim.cached_traces", "repro.sim.gpu", "_cached_traces", None),
    ("sim.SMSimulator.run", "repro.sim.sm", "SMSimulator.run", None),
    ("sim.simulate_kernel", "repro.sim.gpu", "simulate_kernel", None),
    ("sim.backend_measure", "repro.sim.backend", "TimingBackend.measure",
     None),
    ("runtime.ExecutionEngine.run", "repro.runtime.engine",
     "ExecutionEngine.run", None),
    ("runtime.ExecutionEngine.measure", "repro.runtime.engine",
     "ExecutionEngine.measure", None),
    ("perf.MeasurementCache.get", "repro.perf.measure_cache",
     "MeasurementCache.get", "hit"),
    ("service.protocol.decode_body", "repro.service.protocol",
     "decode_body", None),
    ("service.protocol.encode_frame", "repro.service.protocol",
     "encode_frame", None),
    ("service.daemon.decode_binary", "repro.service.daemon",
     "decode_binary", None),
    ("service.fingerprint.tuning_key", "repro.service.fingerprint",
     "tuning_key", None),
    ("service.TuningStore.get", "repro.service.store", "TuningStore.get",
     None),
    ("service.TuningStore.put", "repro.service.store", "TuningStore.put",
     None),
    ("service.TuningDaemon._tune_sync", "repro.service.daemon",
     "TuningDaemon._tune_sync", None),
    ("service.TuningDaemon._count", "repro.service.daemon",
     "TuningDaemon._count", "failed"),
)
SEAM_NAMES = tuple(seam[0] for seam in SEAMS)

#: seams whose span time is not reported (pure counting hooks)
UNTIMED = frozenset(("service.TuningDaemon._count",))

#: daemon outcomes that are not a served request
_FAILED_OUTCOMES = frozenset((
    "bad-request", "bad-frame", "internal-error", "tune-failed", "timeout",
    "queue-full", "shutting-down", "forward-loop",
))

#: modules imported before patching, so every ``from x import f`` that
#: binds a seam already exists when the namespaces are scanned
_PRELOAD = (
    "repro.cli", "repro.harness.experiments", "repro.service.daemon",
    "repro.service.client", "repro.service.cluster", "repro.fuzz.oracle",
    "repro.regalloc", "repro.compiler", "repro.sim", "repro.ir",
)


def _extra_value(kind, args, result):
    if kind == "bytes":
        return float(len(args[0]))
    if kind == "versions":
        return 0.0 if result is None else float(len(result.versions))
    if kind == "hit":
        return 0.0 if result is None else 1.0
    if kind == "failed":
        return 1.0 if args[2] in _FAILED_OUTCOMES else 0.0
    return 0.0


class Tracer:
    """Wraps every seam and keeps its spans in per-thread buffers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: every thread's buffers: list of per-seam (starts, selfs, extras)
        self._buffers: list[list[tuple[array, array, array]]] = []

    def _thread_buffers(self):
        local = self._local
        buffers = getattr(local, "buffers", None)
        if buffers is None:
            buffers = [
                (array("d"), array("d"), array("d")) for _ in SEAMS
            ]
            local.buffers = buffers
            local.stack = []
            with self._lock:
                self._buffers.append(buffers)
        return buffers

    def _wrap(self, index: int, fn, extra):
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            buffers = self._thread_buffers()
            stack = local.stack
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                starts, selfs, extras = buffers[index]
                starts.append(start)
                selfs.append(duration - children)
                if extra is not None:
                    extras.append(_extra_value(extra, args, result))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "seam")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Import the program's modules and patch every seam binding."""
        for name in _PRELOAD:
            importlib.import_module(name)
        for index, (metric, module_name, path, extra) in enumerate(SEAMS):
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = self._wrap(index, raw.__func__, extra)
                    setattr(owner, attr, classmethod(wrapped))
                else:
                    setattr(owner, attr, self._wrap(index, raw, extra))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, original, extra)
            bound = 0
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if not namespace or not getattr(mod, "__name__", "").startswith(
                    "repro"
                ):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        bound += 1
            if not bound:  # pragma: no cover - the seam table is stale
                raise RuntimeError(f"seam {metric} is bound nowhere")

    def spans(self) -> dict[str, tuple[list, list, list]]:
        """Every span recorded so far, merged over threads, by seam."""
        with self._lock:
            buffers = list(self._buffers)
        merged = {}
        for index, name in enumerate(SEAM_NAMES):
            starts, selfs, extras = [], [], []
            for thread in buffers:
                s, f, e = thread[index]
                starts.extend(s)
                selfs.extend(f)
                extras.extend(e)
            merged[name] = (starts, selfs, extras)
        return merged


def summarize(spans: dict, window: tuple[float, float] | None = None) -> dict:
    """Per-seam ``calls``, ``self_s`` and extra sums inside ``window``.

    A span belongs to the window its start time falls in.  The extra
    sum is kept under the seam's own name with an ``extra`` key.
    """
    out = {}
    extras_by_seam = {seam[0]: seam[3] for seam in SEAMS}
    for name, (starts, selfs, extras) in spans.items():
        if window is None:
            picked = range(len(starts))
        else:
            lo, hi = window
            picked = [i for i, t in enumerate(starts) if lo <= t < hi]
        calls = len(picked)
        self_s = sum(selfs[i] for i in picked)
        entry = {"calls": calls, "self_s": self_s}
        if extras_by_seam[name] is not None:
            entry["extra"] = sum(extras[i] for i in picked) if extras else 0.0
        out[name] = entry
    return out
