"""The SM timing loop against its committed goldens.

See :mod:`tests.sim.goldens` for what the golden files hold and how
they were recorded.  A failure here means simulated timing changed: if
the change is deliberate, regenerate the goldens and say why.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.arch.specs import CacheConfig, GTX680, TESLA_C2075
from repro.sim.backend import MeasurementRequest, TimingBackend
from repro.sim.interp import LaunchConfig
from repro.sim.trace import MemoryTraits
from tests.sim.goldens import (
    CORPUS_FILE,
    SUITE_FILE,
    corpus_cases,
    load,
    result_record,
    suite_versions,
    trace_digest,
)

CORPUS = load(CORPUS_FILE)
SUITE = load(SUITE_FILE)


@functools.lru_cache(maxsize=1)
def _cases():
    return {case.name: case for case in corpus_cases()}


def test_corpus_covers_every_golden_case():
    assert sorted(_cases()) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_sm_corpus_matches_golden(name):
    case = _cases()[name]
    golden = CORPUS[name]
    # The generator itself must not have drifted, or the comparison
    # below would pin nothing.
    assert trace_digest(case.traces) == golden["trace_digest"]
    assert result_record(case.run()) == golden["result"]


def test_corpus_reaches_the_loop_branches():
    """The recorded results show the corpus exercises what it claims."""
    results = [golden["result"] for golden in CORPUS.values()]
    memory = [r["memory"] for r in results]
    assert any(r["barrier_count"] for r in results)
    assert any(m["stalled_requests"] for m in memory)
    assert any(m["shared_accesses"] for m in memory)
    assert any(m["l1_hits"] for m in memory)
    assert any(m["l2_hits"] for m in memory)
    assert any(m["dram_transactions"] for m in memory)
    assert CORPUS["GTX680/empty"]["result"]["cycles"] == 0


@pytest.mark.parametrize("arch", [GTX680, TESLA_C2075], ids=lambda a: a.name)
def test_suite_measurements_match_golden(arch):
    golden = SUITE[arch.name]
    versions = suite_versions(arch)
    backend = TimingBackend()
    measured = 0
    for key, entries in golden.items():
        name, content_hash = key.split("|")
        owner, version = versions[content_hash]
        assert owner == name
        for entry in entries:
            request = MeasurementRequest(
                arch=arch,
                version=version,
                launch=LaunchConfig(
                    grid_blocks=entry["grid_blocks"],
                    block_size=entry["block_size"],
                    params=dict(entry["params"]),
                ),
                cache_config=CacheConfig(entry["cache_config"]),
                traits=MemoryTraits(**entry["traits"]),
                ilp=entry["ilp"],
                max_events_per_warp=entry["max_events_per_warp"],
                forced_warps=entry["forced_warps"],
            )
            payload = backend.measure(request).to_payload()
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                entry["payload"], sort_keys=True
            ), f"{arch.name} {key} diverged"
            measured += 1
    # The suites measure 42 (GTX680) and 40 (C2075) distinct requests.
    assert measured == {"GTX680": 42, "Tesla C2075": 40}[arch.name]
