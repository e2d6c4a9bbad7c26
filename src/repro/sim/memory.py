"""Memory-hierarchy geometry and counters for the SM timing model.

The L1/L2/DRAM timing model itself is inlined in the SM loop
(:mod:`repro.sim.flat`, where its description lives); this module keeps
the two pieces it shares with callers: the cache geometry an
architecture and cache configuration imply, and the per-simulation
counters reported in :class:`~repro.sim.sm.SMResult`.
"""

from __future__ import annotations

from dataclasses import dataclass


class SetAssociativeCache:
    """Geometry of a set-associative LRU cache (sets × ways of lines)."""

    def __init__(
        self, size_bytes: int, line_bytes: int, associativity: int
    ) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("cache geometry must be positive")
        num_lines = max(1, size_bytes // line_bytes)
        self.associativity = min(associativity, num_lines)
        self.num_sets = max(1, num_lines // self.associativity)
        self.line_bytes = line_bytes


@dataclass
class MemoryStats:
    """Aggregate counters for one simulation."""

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_transactions: int = 0
    shared_accesses: int = 0
    stalled_requests: int = 0

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0
