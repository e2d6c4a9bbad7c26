"""Optional-accelerator gate: the ``ORION_ACCEL`` switch.

The runtime keeps ``dependencies = []``: scipy is an *optional*
accelerator (the ``accel`` extra), never a requirement.  The one seam
it serves is the slot-layout matcher (:mod:`repro.regalloc.matching`):
LAPJV via ``scipy.optimize.linear_sum_assignment`` in place of the
pure-Python Kuhn–Munkres solver, which stays the reference and the
fallback.  Both produce byte-identical compiled versions.

``ORION_ACCEL`` selects the matcher:

* ``auto`` (default) — LAPJV when scipy imports, Kuhn–Munkres otherwise;
* ``off`` — Kuhn–Munkres always.

Unknown values mean ``auto``.  An import failure is recorded once per
process in the ``orion_accel_fallback_total`` counter so a fleet
operator can see that a node is running without its accelerator;
matcher choices are charged to ``orion_accel_selected_total`` by the
call site.
"""

from __future__ import annotations

import os
import threading

MODES = ("auto", "off")

_lock = threading.Lock()
#: library name -> imported module or None (import failed); missing key
#: means the import has not been attempted yet
_imports: dict[str, object | None] = {}


def accel_mode() -> str:
    """The resolved ``ORION_ACCEL`` mode (unknown values mean ``auto``)."""
    raw = os.environ.get("ORION_ACCEL", "auto").strip().lower()
    return raw if raw in MODES else "auto"


def _import(library: str):
    """Import ``library`` once; on failure remember None and charge the
    one-time ``orion_accel_fallback_total`` fallback metric."""
    with _lock:
        if library in _imports:
            return _imports[library]
    try:
        if library == "scipy.optimize":
            import scipy.optimize as module
        else:  # pragma: no cover - no other accelerators registered
            raise ImportError(library)
    except Exception:
        module = None
    with _lock:
        if library not in _imports:
            _imports[library] = module
            if module is None:
                _count_fallback(library)
        return _imports[library]


def _count_fallback(library: str) -> None:
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_accel_fallback_total",
        "Accelerator libraries that failed to import (pure path used).",
    ).inc(library=library)


def scipy_optimize_or_none():
    """``scipy.optimize`` when accel is on and scipy imports, else None."""
    if accel_mode() == "off":
        return None
    return _import("scipy.optimize")


def count_selected(seam: str, impl: str) -> None:
    """Charge one accelerated-or-pure decision at ``seam`` to metrics."""
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_accel_selected_total",
        "Fast-path/pure-path decisions per accelerated seam.",
    ).inc(seam=seam, impl=impl)


def accel_info() -> dict:
    """Snapshot for bench reports: mode plus accelerator availability."""
    return {
        "mode": accel_mode(),
        "scipy": _import("scipy.optimize") is not None
        if accel_mode() != "off"
        else None,
    }
