"""Cache and memory-hierarchy model tests, through the SM timing loop.

Each test runs :meth:`SMSimulator.run` on a hand-built trace and reads
the resulting :class:`MemoryStats` and cycle count.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GTX680, TESLA_C2075, CacheConfig
from repro.isa.instructions import FuncUnit, MemSpace
from repro.sim.memory import SetAssociativeCache
from repro.sim.sm import SMSimulator
from repro.sim.trace import TraceEvent, WarpTrace


def access(space, *lines):
    """One warp-level memory instruction touching ``lines``."""
    return TraceEvent(unit=FuncUnit.MEM, space=space, lines=tuple(lines))


def run(arch, events, cache_config=CacheConfig.SMALL_CACHE):
    """Simulate one warp issuing ``events`` back to back."""
    sim = SMSimulator(arch, cache_config)
    return sim.run([WarpTrace(events=list(events))], warps_per_block=1)


def local_stream(addresses):
    return [access(MemSpace.LOCAL, a) for a in addresses]


def tiny_l1(size_bytes, associativity):
    """GTX680 (L1 caches local traffic) with an L1 of the given shape."""
    return GTX680.with_overrides(
        dedicated_l1_bytes=size_bytes, l1_associativity=associativity
    )


class TestCacheBasics:
    def test_first_access_misses_second_hits(self):
        stats = run(GTX680, local_stream([0, 0, 64])).memory  # 64: same line
        assert stats.l1_misses == 1
        assert stats.l1_hits == 2

    def test_different_lines_are_distinct(self):
        stats = run(GTX680, local_stream([0, 128])).memory
        assert stats.l1_misses == 2
        assert stats.l1_hits == 0

    def test_accounting_conserves_accesses(self):
        arch = tiny_l1(2048, 4)
        stats = run(arch, local_stream(range(0, 131072, 128))).memory
        assert stats.l1_hits + stats.l1_misses == 1024
        # Every L1 miss goes on to the L2.
        assert stats.l2_hits + stats.l2_misses == stats.l1_misses

    def test_lru_eviction(self):
        # Two lines, two ways: a single set, so the hash plays no part.
        arch = tiny_l1(256, 2)
        stats = run(arch, local_stream([0, 128, 0, 256, 0, 128])).memory
        # 0 miss, 128 miss, 0 hit (refresh), 256 miss evicts LRU = 128,
        # 0 hit, 128 miss.
        assert stats.l1_hits == 2
        assert stats.l1_misses == 4

    def test_capacity_thrash(self):
        arch = tiny_l1(1024, 8)  # 8 lines, one set
        addresses = [i * 128 for i in range(16)] * 3
        stats = run(arch, local_stream(addresses)).memory
        # Cyclic over 2x capacity with LRU: essentially all misses.
        assert stats.l1_hits == 0

    def test_working_set_that_fits_hits(self):
        arch = tiny_l1(2048, 16)  # 16 lines, one set
        addresses = [i * 128 for i in range(8)] * 4
        stats = run(arch, local_stream(addresses)).memory
        assert stats.l1_hits == 3 * 8

    def test_hashing_spreads_power_of_two_strides(self):
        """Strided GPU addresses must not collapse onto one set."""
        arch = tiny_l1(16 * 1024, 4)  # 128 lines in 32 sets of 4
        # A 4096-byte stride is 32 lines: a plain ``line % 32`` index
        # would put all 24 lines in one 4-way set and never hit.
        addresses = [w * 4096 for w in range(24)] * 3
        stats = run(arch, local_stream(addresses)).memory
        # 24 lines fit a 128-line cache once the set index is hashed.
        assert stats.l1_hits == 2 * 24

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 128, 4)
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 128, 0)
        with pytest.raises(ValueError):
            run(tiny_l1(0, 4), local_stream([0]))

    @given(
        seed=st.integers(min_value=0, max_value=9999),
        size=st.sampled_from([1024, 4096, 16384]),
    )
    @settings(max_examples=20, deadline=None)
    def test_hits_plus_misses_invariant(self, seed, size):
        rng = random.Random(seed)
        n = 500
        addresses = [rng.randrange(0, 1 << 20) for _ in range(n)]
        stats = run(tiny_l1(size, 4), local_stream(addresses)).memory
        assert stats.l1_hits + stats.l1_misses == n


class TestMemorySubsystem:
    def test_shared_is_fixed_latency(self):
        result = run(TESLA_C2075, [access(MemSpace.SHARED, 0)])
        assert result.cycles == TESLA_C2075.shared_latency + 1
        assert result.memory.shared_accesses == 1
        assert result.memory.l1_hits + result.memory.l1_misses == 0

    def test_cold_global_goes_to_dram(self):
        result = run(GTX680, [access(MemSpace.GLOBAL, 1 << 20)])
        assert result.cycles >= GTX680.dram_latency
        assert result.memory.dram_transactions == 1

    def test_l2_hit_is_cheaper_than_dram(self):
        cold = run(GTX680, [access(MemSpace.GLOBAL, 0)])
        again = run(GTX680, [access(MemSpace.GLOBAL, 0)] * 2)
        assert again.memory.l2_hits == 1
        assert again.cycles - cold.cycles == GTX680.l2_latency

    def test_fermi_l1_caches_global(self):
        stats = run(TESLA_C2075, [access(MemSpace.GLOBAL, 0)] * 2).memory
        assert stats.l1_hits == 1

    def test_kepler_l1_skips_global_but_caches_local(self):
        stats = run(GTX680, [access(MemSpace.GLOBAL, 0)] * 2).memory
        assert stats.l1_hits == stats.l1_misses == 0
        stats = run(GTX680, [access(MemSpace.LOCAL, 4096)] * 2).memory
        assert stats.l1_hits == 1

    def test_dram_bandwidth_serialises(self):
        """Back-to-back misses space out by the service interval."""
        one = run(GTX680, [access(MemSpace.GLOBAL, 0)])
        two = run(GTX680, [access(MemSpace.GLOBAL, 0, 1 << 20)])
        assert two.memory.dram_transactions == 2
        assert two.cycles - one.cycles == GTX680.dram_service_interval

    def test_mshr_limit_backpressures(self):
        arch = GTX680.with_overrides(max_outstanding_memory=4)
        lines = [(i + 1) << 20 for i in range(8)]
        stats = run(arch, [access(MemSpace.GLOBAL, *lines)]).memory
        assert stats.stalled_requests > 0
        wide = run(GTX680, [access(MemSpace.GLOBAL, *lines)]).memory
        assert wide.stalled_requests == 0

    def test_cache_config_changes_l1_size(self):
        # 200 lines (25 KB) of local traffic, twice: fits the 48 KB L1,
        # thrashes the 16 KB one.
        events = local_stream([i * 128 for i in range(200)] * 2)
        small = run(TESLA_C2075, events, CacheConfig.SMALL_CACHE).memory
        large = run(TESLA_C2075, events, CacheConfig.LARGE_CACHE).memory
        assert large.l1_hits > small.l1_hits
