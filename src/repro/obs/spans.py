"""Hierarchical spans: one timing API across compiler, runtime, harness.

``with span("allocate", kernel=...)`` is the one timing API, with
three properties:

* **trace events** — when a :class:`~repro.runtime.telemetry.TelemetryHub`
  is installed (:func:`use_hub`), every span emits paired
  ``SPAN_START``/``SPAN_END`` events, so JSONL traces interleave timing
  structure with the engine's existing event stream.  Span ids are
  allocated *per session scope* by the hub, which keeps a session's
  event subsequence deterministic under any scheduler interleaving;
  wall-clock durations ride in the event's separate optional ``wall``
  field so traces stay diffable (and byte-identical when the hub
  suppresses durations).
* **re-entrancy safety** — a span nested inside a same-named span
  charges nothing extra: only the outermost occurrence per thread
  charges the span metrics, so recursive or re-entered phases never
  double-count.
* **metrics** — outermost spans charge ``orion_spans_total`` and
  ``orion_span_seconds_total`` in the process-wide metrics registry.
  Those two counters are the only phase-timing store:
  :func:`span_timings` reads them back for the bench report's
  ``timings`` and ``repro compile --timings``.

The hub installation is process-global (not thread-local) on purpose:
the execution engine installs its hub once and spans opened by its
scheduler's *worker threads* still find it.  Span nesting state is
thread-local, so parent/child links never cross threads.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.metrics import get_registry

_hubs: list = []
_hubs_lock = threading.Lock()
_local = threading.local()

_SPAN_KINDS = None  # resolved lazily to avoid an import cycle


def _span_kinds():
    global _SPAN_KINDS
    if _SPAN_KINDS is None:
        from repro.runtime.telemetry import EventKind

        _SPAN_KINDS = (EventKind.SPAN_START, EventKind.SPAN_END)
    return _SPAN_KINDS


def current_hub():
    """The innermost installed hub, or ``None`` outside any trace."""
    with _hubs_lock:
        return _hubs[-1] if _hubs else None


@contextmanager
def use_hub(hub) -> Iterator[object]:
    """Install ``hub`` as the ambient span destination.

    Nestable and re-entrant: installing the same hub twice (the engine
    does, ``run_many`` → ``run`` → ``measure``) is harmless, and
    uninstalling removes one occurrence of exactly that hub, so
    concurrent installs from scheduler threads never pop a stranger.
    """
    with _hubs_lock:
        _hubs.append(hub)
    try:
        yield hub
    finally:
        with _hubs_lock:
            for i in range(len(_hubs) - 1, -1, -1):
                if _hubs[i] is hub:
                    del _hubs[i]
                    break


@dataclass
class _ActiveSpan:
    name: str
    session: str | None
    span_id: int | None


def _stack() -> list[_ActiveSpan]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_span() -> _ActiveSpan | None:
    """The innermost span open on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def span(
    name: str, session: str | None = None, timer: bool = True, **labels
) -> Iterator[None]:
    """Open one hierarchical span.

    ``session`` labels the emitted events (and scopes the span id);
    ``labels`` ride in both the start and end events' data.  ``timer``
    controls whether the span charges the span metrics (outermost
    same-named occurrence only).
    """
    hub = current_hub()
    stack = _stack()
    span_id = parent = None
    if hub is not None:
        start_kind, end_kind = _span_kinds()
        span_id = hub.next_span_id(session)
        for active in reversed(stack):
            if active.session == session and active.span_id is not None:
                parent = active.span_id
                break
        hub.emit(
            start_kind, session, name=name, span=span_id, parent=parent,
            **labels,
        )
    reentrant = any(active.name == name for active in stack)
    stack.append(_ActiveSpan(name, session, span_id))
    start = time.perf_counter()
    status = "ok"
    try:
        yield
    except BaseException:
        status = "error"
        raise
    finally:
        elapsed = time.perf_counter() - start
        stack.pop()
        if timer and not reentrant:
            registry = get_registry()
            registry.counter(
                "orion_spans_total", "Completed spans per span name."
            ).inc(name=name)
            registry.counter(
                "orion_span_seconds_total",
                "Wall-clock seconds spent inside spans, outermost "
                "occurrence per name only.",
            ).inc(elapsed, name=name)
        if hub is not None:
            hub.emit(
                end_kind,
                session,
                wall=elapsed,
                name=name,
                span=span_id,
                parent=parent,
                status=status,
                **labels,
            )


def span_timings() -> dict[str, dict]:
    """``{name: {"calls", "seconds"}}`` per span name, sorted by name.

    Read from ``orion_spans_total`` / ``orion_span_seconds_total`` in
    the process-wide registry; a point-in-time copy.
    """
    registry = get_registry()
    timings: dict[str, dict] = {}
    calls = registry.get("orion_spans_total")
    seconds = registry.get("orion_span_seconds_total")
    for metric, field in ((calls, "calls"), (seconds, "seconds")):
        if metric is None:
            continue
        for sample in metric.snapshot_samples():
            stats = timings.setdefault(
                sample["labels"]["name"], {"calls": 0, "seconds": 0.0}
            )
            stats[field] = sample["value"]
    return dict(sorted(timings.items()))
