"""Matcher identity across ``ORION_ACCEL`` modes: ``off`` vs ``auto``.

``ORION_ACCEL`` selects the slot-layout matcher inside register
allocation: the pure Kuhn–Munkres solver (``off``) or LAPJV via scipy
(``auto``, when scipy imports).  The bar is byte identity of what the
compiler emits.  This module compiles the whole 14-kernel benchmark
suite under both modes, each with a fresh compile cache so neither mode
reuses the other's binaries, and compares every version's encoded bytes
per (kernel, version label).  Nothing is simulated: the simulator has
no accelerator seam (its timing is pinned by ``tests/sim/goldens``).
"""

from __future__ import annotations

from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.obs.metrics import get_registry
from repro.perf.cache import CompileCache


def _matcher_calls(impl: str) -> float:
    counter = get_registry().get("orion_accel_selected_total")
    return counter.value(seam="matcher", impl=impl) if counter else 0


def _compile_suite(mode: str, monkeypatch) -> dict[tuple[str, str], bytes]:
    """Every version of every suite kernel, compiled under ``mode``."""
    monkeypatch.setenv("ORION_ACCEL", mode)
    cache = CompileCache()
    out = {}
    for name, spec in BENCHMARKS.items():
        module = spec.build()
        binary = compile_binary(
            module,
            module.kernel().name,
            CompileOptions(
                arch=GTX680,
                block_size=spec.workload.block_size,
                can_tune=spec.workload.can_tune,
                strategy="local-spill",
            ),
            cache=cache,
        )
        for version in (*binary.versions, *binary.failsafe):
            out[(name, version.label)] = version.binary
        out[(name, "<fat binary>")] = binary.to_bytes()
    return out


def test_full_suite_byte_identical_across_accel_modes(monkeypatch):
    pure_before = _matcher_calls("pure")
    off = _compile_suite("off", monkeypatch)
    assert _matcher_calls("pure") > pure_before  # Kuhn–Munkres really ran
    auto = _compile_suite("auto", monkeypatch)
    assert off  # the suite really compiled something
    assert sorted(off) == sorted(auto)
    for key, encoded in off.items():
        assert auto[key] == encoded, f"diverged on {key}"
