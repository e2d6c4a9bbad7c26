"""The SM timing loop and the memory-hierarchy model it inlines.

:meth:`repro.sim.sm.SMSimulator.run` runs :func:`run_flat`.  Each warp's
event stream is flattened once into parallel arrays (unit codes, issue
costs, line counts, address-space codes) and every line's cache tag and
L1/L2 set index is hashed once; all of it is memoized on the trace
object, because the gpu-level trace cache hands the same traces to many
simulations.  The hot loop is then list indexing plus heap scheduling.

The occupancy↔performance trade-off the paper tunes comes from three
mechanisms, all modelled here:

* **latency**: an L1 hit costs tens of cycles, DRAM hundreds — few
  resident warps cannot hide the difference;
* **cache contention**: the L1 is shared by every resident warp, so
  raising occupancy shrinks each warp's effective cache slice (real
  set-associative LRU arrays with a hashed set index, not a probability
  knob; :class:`~repro.sim.memory.SetAssociativeCache` gives their
  geometry);
* **bandwidth**: DRAM serves at most one transaction per
  ``dram_service_interval`` cycles per SM, so many memory-hungry warps
  saturate and queue; at most ``max_outstanding_memory`` requests are
  in flight (the MSHR window), and a request arriving at a full window
  waits for the earliest outstanding one.

Per paper Section 4.1, the L1/shared split is configurable (Table 3's
small-cache = 16KB L1 vs large-cache = 48KB L1), and per Section 4.2 the
Fermi L1 caches global *and* local traffic while Kepler's caches local
(spill) traffic only — which is why downward tuning pays off more on the
C2075.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from heapq import heapify, heappop, heappush

from repro.isa.instructions import FuncUnit, MemSpace
from repro.sim.memory import MemoryStats, SetAssociativeCache
from repro.sim.trace import (
    FLAT_ALU as _ALU,
    FLAT_BARRIER as _BARRIER,
    FLAT_CTRL as _CTRL,
    FLAT_MEM as _MEM,
    FLAT_SFU as _SFU,
    FLAT_SMEM as _SMEM,
    FLAT_SP_GLOBAL as _SP_GLOBAL,
    FLAT_SP_LOCAL as _SP_LOCAL,
    FLAT_SP_OTHER as _SP_OTHER,
    FLAT_SP_SHARED as _SP_SHARED,
    WarpTrace,
)

# Unit codes (flat-array encoding of the FuncUnit ladder) and space
# codes (what decides L1 participation) are shared with trace.py, whose
# cached tracing path emits the same arrays directly:
#   _ALU/_MEM/_SMEM/_SFU/_CTRL/_BARRIER;
#   _SP_GLOBAL (L1 only when arch.l1_caches_global), _SP_LOCAL (spill
#   traffic: always L1), _SP_OTHER (straight to L2), _SP_SHARED (shared
#   space routed through a MEM event: fixed latency).


def _flatten_trace(trace: WarpTrace):
    """(codes, counts, spaces, lines) arrays for one warp trace.

    Memoized on the trace object: the gpu-level trace cache hands the
    same ``WarpTrace`` instances to many simulations.
    """
    cached = getattr(trace, "_flat", None)
    if cached is not None:
        return cached
    codes: list[int] = []
    counts: list[int] = []
    spaces: list[int] = []
    lines: list[int] = []
    for event in trace.events:
        if event.barrier:
            codes.append(_BARRIER)
            counts.append(0)
            spaces.append(_SP_OTHER)
            continue
        unit = event.unit
        if unit is FuncUnit.MEM:
            codes.append(_MEM)
            counts.append(len(event.lines))
            lines.extend(event.lines)
            space = event.space
            if space is MemSpace.LOCAL:
                spaces.append(_SP_LOCAL)
            elif space in (MemSpace.GLOBAL, MemSpace.PARAM):
                spaces.append(_SP_GLOBAL)
            elif space is MemSpace.SHARED:
                spaces.append(_SP_SHARED)
            else:
                spaces.append(_SP_OTHER)
        else:
            if unit is FuncUnit.SMEM:
                codes.append(_SMEM)
            elif unit is FuncUnit.SFU:
                codes.append(_SFU)
            elif unit is FuncUnit.CTRL:
                codes.append(_CTRL)
            else:  # ALU and everything else (a non-barrier SYNC too)
                codes.append(_ALU)
            counts.append(0)
            spaces.append(_SP_OTHER)
    flat = (codes, counts, spaces, lines)
    trace._flat = flat
    return flat


def _line_tables(trace: WarpTrace, lines: list[int], line_bytes: int,
                 l1_sets: int, l2_sets: int):
    """Per-occurrence (tags, l1 indices, l2 indices) for a warp's lines.

    GPU caches hash the set index so power-of-two strides (the norm in
    GPU address arithmetic) do not collapse onto one set.  Memoized per
    cache geometry on the trace object.
    """
    key = (line_bytes, l1_sets, l2_sets)
    memo = getattr(trace, "_flat_lines", None)
    if memo is None:
        memo = {}
        trace._flat_lines = memo
    tables = memo.get(key)
    if tables is not None:
        return tables
    tags = [line // line_bytes for line in lines]
    hashed = [
        (t ^ (t >> 7) ^ (t >> 13) ^ (t >> 19)) * 2654435761 >> 8 for t in tags
    ]
    tables = (
        tags,
        [h % l1_sets for h in hashed],
        [h % l2_sets for h in hashed],
    )
    memo[key] = tables
    return tables


def run_flat(sim, traces: list[WarpTrace], warps_per_block: int):
    """Simulate ``sim``'s SM over non-empty ``traces``.

    Returns ``(cycles, instructions, MemoryStats, issue_stalls,
    barriers)`` — the caller wraps it in ``SMResult``.
    """
    arch = sim.arch
    l1 = SetAssociativeCache(
        arch.l1_cache_bytes(sim.cache_config),
        arch.cache_line_bytes,
        arch.l1_associativity,
    )
    l2 = SetAssociativeCache(
        arch.l2_bytes_per_sm,
        arch.cache_line_bytes,
        arch.l2_associativity,
    )
    line_bytes = arch.cache_line_bytes
    # Each set: a list of tags, most recently used last.
    l1_ways = [[] for _ in range(l1.num_sets)]
    l2_ways = [[] for _ in range(l2.num_sets)]
    l1_assoc, l2_assoc = l1.associativity, l2.associativity
    l1_latency, l2_latency = arch.l1_latency, arch.l2_latency
    dram_latency = arch.dram_latency
    dram_interval = arch.dram_service_interval
    shared_latency = arch.shared_latency
    l1_global = arch.l1_caches_global
    mshr_limit = arch.max_outstanding_memory
    mshr_cap = 4 * mshr_limit

    issue_interval = 1.0 / arch.issue_width
    alu_latency = max(1.0, arch.alu_latency / sim.ilp)
    sfu_latency = max(1.0, arch.sfu_latency / sim.ilp)
    sfu_cost = issue_interval * 4
    alu_cost = issue_interval * sim.traits.divergence
    swap_interval = sim.swap_interval
    swap_latency = sim.swap_latency

    nwarps = len(traces)
    wpb = max(1, warps_per_block)
    block_of = [i // wpb for i in range(nwarps)]
    blocks: dict[int, list[int]] = {}
    for i in range(nwarps):
        blocks.setdefault(block_of[i], []).append(i)

    # Per-warp flattened event streams and precomputed line tables.
    w_codes: list[list[int]] = []
    w_counts: list[list[int]] = []
    w_spaces: list[list[int]] = []
    w_costs: list[list[float]] = []
    w_tags: list = []
    w_l1i: list = []
    w_l2i: list = []
    nev: list[int] = []
    cost_key = (issue_interval, sfu_cost, alu_cost)
    for trace in traces:
        codes, counts, spaces, lines = _flatten_trace(trace)
        tags, l1i, l2i = _line_tables(
            trace, lines, line_bytes, l1.num_sets, l2.num_sets
        )
        # Issue costs depend only on the event stream and three floats,
        # so they are memoized per trace like the line tables (sweeps
        # re-simulate the same traces many times).
        cost_memo = getattr(trace, "_flat_costs", None)
        if cost_memo is None:
            cost_memo = {}
            trace._flat_costs = cost_memo
        costs = cost_memo.get(cost_key)
        if costs is None:
            costs = [
                issue_interval * max(1, counts[e])
                if codes[e] == _MEM
                else (sfu_cost if codes[e] == _SFU else alu_cost)
                for e in range(len(codes))
            ]
            cost_memo[cost_key] = costs
        w_codes.append(codes)
        w_counts.append(counts)
        w_spaces.append(spaces)
        w_costs.append(costs)
        w_tags.append(tags)
        w_l1i.append(l1i)
        w_l2i.append(l2i)
        nev.append(len(codes))

    # Mutable per-warp state, as parallel arrays.
    pc = [0] * nwarps
    readys = [0.0] * nwarps
    at_bar = [False] * nwarps
    bar_arrival = [0.0] * nwarps
    cursor = [0] * nwarps  # next line-occurrence index per warp

    # Memory-subsystem state.  The MSHR list holds completion times of
    # requests in flight, kept sorted: the admit decision, the earliest
    # completion and the size cap (past 4x the window, keep only the
    # latest ``mshr_limit``) depend only on the multiset of times.
    in_flight: list[int] = []
    dram_free = 0
    l1_hits = l1_misses = l2_hits = l2_misses = 0
    dram_tx = stalled = shared_accesses = 0

    issue_clock = 0.0
    instructions = 0
    issue_stalls = 0.0
    barriers = 0
    finish = 0.0

    heap: list[tuple[float, int]] = [(0.0, i) for i in range(nwarps)]
    heapify(heap)

    while heap:
        ready, index = heappop(heap)
        p = pc[index]
        if p >= nev[index] or at_bar[index] or readys[index] != ready:
            continue  # stale heap entry

        # Inner loop: keep issuing for this warp while it stays the
        # lexicographic minimum of the ready heap — the entry we would
        # push would pop right back, so skipping the round-trip issues
        # the exact same event sequence.
        while True:
            start = issue_clock if issue_clock >= ready else ready
            if start > issue_clock:
                issue_stalls += start - issue_clock

            codes = w_codes[index]
            code = codes[p]

            if code == _BARRIER:
                barriers += 1
                pc[index] = p + 1
                at_bar[index] = True
                bar_arrival[index] = start
                issue_clock = start + issue_interval
                instructions += 1
                group = blocks[block_of[index]]
                if all(at_bar[j] or pc[j] >= nev[j] for j in group):
                    release = max(
                        bar_arrival[j] for j in group if at_bar[j]
                    )
                    ready_after = release + 1
                    for j in group:
                        if at_bar[j]:
                            at_bar[j] = False
                            readys[j] = ready_after
                            if pc[j] < nev[j]:
                                heappush(heap, (ready_after, j))
                            elif ready_after > finish:
                                finish = ready_after
                break

            if code == _MEM:
                cost = w_costs[index][p]
                count = w_counts[index][p]
                completion = start
                if count:
                    now = int(start)
                    space = w_spaces[index][p]
                    cur = cursor[index]
                    cursor[index] = cur + count
                    if space == _SP_SHARED:
                        shared_accesses += count
                        done = float(now + shared_latency)
                        if done > completion:
                            completion = done
                    else:
                        use_l1 = space == _SP_LOCAL or (
                            space == _SP_GLOBAL and l1_global
                        )
                        tags = w_tags[index]
                        l1i = w_l1i[index]
                        l2i = w_l2i[index]
                        for k in range(cur, cur + count):
                            tag = tags[k]
                            # MSHR admit: drop retired entries, stall
                            # when the outstanding window is full.
                            drop = bisect_right(in_flight, now)
                            if drop:
                                del in_flight[:drop]
                            if len(in_flight) < mshr_limit:
                                admitted = now
                            else:
                                stalled += 1
                                admitted = in_flight[0]
                            if use_l1:
                                ways = l1_ways[l1i[k]]
                                if tag in ways:
                                    ways.remove(tag)
                                    ways.append(tag)
                                    l1_hits += 1
                                    done = float(admitted + l1_latency)
                                    if done > completion:
                                        completion = done
                                    continue
                                ways.append(tag)
                                if len(ways) > l1_assoc:
                                    del ways[0]
                                l1_misses += 1
                            ways = l2_ways[l2i[k]]
                            if tag in ways:
                                ways.remove(tag)
                                ways.append(tag)
                                l2_hits += 1
                                done = admitted + l2_latency
                            else:
                                ways.append(tag)
                                if len(ways) > l2_assoc:
                                    del ways[0]
                                l2_misses += 1
                                dram_tx += 1
                                issue = (
                                    admitted
                                    if admitted >= dram_free
                                    else dram_free
                                )
                                dram_free = issue + dram_interval
                                done = issue + dram_latency
                            insort(in_flight, done)
                            if len(in_flight) > mshr_cap:
                                del in_flight[:-mshr_limit]
                            done_f = float(done)
                            if done_f > completion:
                                completion = done_f
                readys[index] = completion
            elif code == _SMEM:
                readys[index] = start + shared_latency
                cost = issue_interval
            elif code == _SFU:
                readys[index] = start + sfu_latency
                cost = w_costs[index][p]
            elif code == _CTRL:
                readys[index] = start + 1
                cost = issue_interval
            else:  # _ALU
                readys[index] = start + alu_latency
                cost = w_costs[index][p]

            # Oversubscription swap cost (soft-limit strategies): a
            # deterministic per-warp surcharge on every interval-th
            # instruction, modelling a register group swapped back in.
            if swap_interval and (p + 1) % swap_interval == 0:
                readys[index] += swap_latency

            issue_clock = start + cost
            instructions += 1
            pc[index] = p + 1
            if p + 1 >= nev[index]:
                warp_ready = readys[index]
                if warp_ready > finish:
                    finish = warp_ready
                # A warp finishing (e.g. a truncated trace) may be the
                # last thing its block's barrier was waiting on.
                group = blocks[block_of[index]]
                waiting = [j for j in group if at_bar[j]]
                if waiting and all(
                    at_bar[j] or pc[j] >= nev[j] for j in group
                ):
                    release = max(bar_arrival[j] for j in waiting)
                    ready_after = (
                        release if release >= warp_ready else warp_ready
                    ) + 1
                    for j in waiting:
                        at_bar[j] = False
                        readys[j] = ready_after
                        heappush(heap, (ready_after, j))
                break
            ready = readys[index]
            if heap:
                head = heap[0]
                if ready > head[0] or (
                    ready == head[0] and index > head[1]
                ):
                    # Another warp would issue first: take the usual
                    # heap round-trip.
                    heappush(heap, (ready, index))
                    break
            p += 1

    cycles = int(finish if finish >= issue_clock else issue_clock) + 1
    stats = MemoryStats(
        l1_hits=l1_hits,
        l1_misses=l1_misses,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
        dram_transactions=dram_tx,
        shared_accesses=shared_accesses,
        stalled_requests=stalled,
    )
    return cycles, instructions, stats, int(issue_stalls), barriers
