"""Single-procedure multi-class graph-coloring allocation (paper Fig. 4).

A variant of the Chaitin–Briggs allocator extended for *wide* variables
(64/96/128-bit values needing consecutive, aligned 32-bit slots):

* stack ordering (Fig. 4b): repeatedly pick a trivially-colourable
  variable — ``v.width + blocked(v) <= C`` — preferring the narrowest;
  when none exists, pick the narrowest (then least-connected) variable
  as an optimistic spill candidate;
* colouring (Fig. 4c): pop variables off the stack, give each the lowest
  free aligned slot range; a variable that cannot be coloured is moved
  to the spill list and colouring restarts without it.

``blocked(v)`` counts neighbours in slot units (a 64-bit neighbour can
exclude two slots), which preserves the classic "degree < k implies
colourable" guarantee in the presence of wide variables.

Pre-coloured nodes (the calling convention pins device-function
arguments to slots ``0..n-1``) keep their colours, participate as
blockers, and are never spilled.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.ir.interference import InterferenceGraph
from repro.isa.registers import (
    Reg,
    is_aligned,
    reg_sort_key,
    required_alignment,
)


@dataclass
class ColoringResult:
    """Outcome of one colouring attempt."""

    coloring: dict[Reg, int]  # variable -> base slot
    spilled: list[Reg] = field(default_factory=list)

    @property
    def slots_used(self) -> int:
        """One past the highest slot any coloured variable occupies."""
        return max(
            (base + var.width for var, base in self.coloring.items()),
            default=0,
        )

    def occupied_slots(self, var: Reg) -> range:
        base = self.coloring[var]
        return range(base, base + var.width)


def _sort_key(var: Reg) -> tuple[int, int, int]:
    return reg_sort_key(var)


def color_graph(
    graph: InterferenceGraph,
    num_colors: int,
    precolored: dict[Reg, int] | None = None,
    align_wide: bool = True,
) -> ColoringResult:
    """Colour ``graph`` with ``num_colors`` slots, spilling as needed."""
    if num_colors <= 0:
        raise ValueError("num_colors must be positive")
    precolored = dict(precolored or {})
    for var, base in precolored.items():
        if base + var.width > num_colors:
            raise ValueError(f"precoloured {var} at {base} exceeds budget")
        if align_wide and not is_aligned(base, var.width):
            raise ValueError(f"precoloured {var} at {base} is misaligned")

    # Dense-index domain: graph nodes are numbered once and the
    # colouring lives in a flat array, so the hot probe loop walks
    # ``list[int]`` neighbour ids instead of hashing Reg objects into a
    # dict per lookup.  Same slots assigned as the Reg-keyed original.
    dense = graph.dense()
    nodes, _, nbr_ids, node_widths = dense
    # The ordering setup (sorted candidates, initial blocked/edge counts,
    # candidate-to-candidate neighbour lists) does not depend on the slot
    # budget, so it is shared across the budget binary search in
    # ``minimum_registers`` — only the budget-dependent selection reruns.
    memo = getattr(graph, "_stack_memo", None)
    if memo is None or memo[0] is not dense:
        memo = (dense, {})
        graph._stack_memo = memo
    setup_key = frozenset(precolored)
    setup = memo[1].get(setup_key)
    if setup is None:
        candidate_ids = [
            i for i, v in enumerate(nodes) if v not in precolored
        ]
        setup = _stack_setup(nodes, nbr_ids, node_widths, candidate_ids)
        memo[1][setup_key] = setup
    stack_ids = _stack_order(setup, num_colors)
    spilled: list[Reg] = []
    pre_slots = [
        (i, precolored[v])
        for i, v in enumerate(nodes)
        if v in precolored
    ]
    steps = [
        required_alignment(w) if align_wide else 1 for w in node_widths
    ]
    masks = [(1 << w) - 1 for w in node_widths]

    slot_of = [-1] * len(nodes)
    while True:
        for i in range(len(slot_of)):
            slot_of[i] = -1
        for i, base in pre_slots:
            slot_of[i] = base
        failed_pos = -1
        for pos in range(len(stack_ids) - 1, -1, -1):
            i = stack_ids[pos]
            used = 0
            for j in nbr_ids[i]:
                base = slot_of[j]
                if base < 0:
                    continue
                width = node_widths[j]
                if base + width > num_colors:
                    width = num_colors - base
                    if width <= 0:
                        continue
                used |= ((1 << width) - 1) << base
            mask = masks[i]
            slot = -1
            for base in range(0, num_colors - node_widths[i] + 1, steps[i]):
                if not (used >> base) & mask:
                    slot = base
                    break
            if slot < 0:
                failed_pos = pos
                break
            slot_of[i] = slot
        if failed_pos < 0:
            coloring = dict(precolored)
            for pos in range(len(stack_ids) - 1, -1, -1):
                i = stack_ids[pos]
                coloring[nodes[i]] = slot_of[i]
            return ColoringResult(coloring=coloring, spilled=spilled)
        # Fig. 4c: drop the uncolourable variable and restart colouring.
        spilled.append(nodes[stack_ids[failed_pos]])
        del stack_ids[failed_pos]


def _stack_setup(
    nodes: list[Reg],
    nbr_ids: list[list[int]],
    node_widths: list[int],
    candidate_ids: list[int],
) -> tuple[list[int], list[int], list[int], list[int], list[list[int]]]:
    """Budget-independent half of :func:`_stack_order`.

    ``(order, widths, blocked, edges, neighbor_pos)`` — candidate ids in
    tie-break order, their widths, initial blocked-width and edge counts
    against the full graph (candidates plus the always-blocking
    precoloured nodes), and candidate-to-candidate neighbour positions.
    Cached per (graph, precoloured set) so a budget binary search pays
    the O(E) setup once.
    """
    order = sorted(candidate_ids, key=lambda i: _sort_key(nodes[i]))
    pos_of = [-1] * len(nodes)  # graph id -> candidate position
    for p, gid in enumerate(order):
        pos_of[gid] = p
    widths = [node_widths[g] for g in order]
    blocked = [0] * len(order)
    edges = [0] * len(order)
    neighbor_pos: list[list[int]] = []
    for p, g in enumerate(order):
        nbrs: list[int] = []
        b = 0
        e = 0
        for j in nbr_ids[g]:
            b += node_widths[j]
            e += 1
            q = pos_of[j]
            if q >= 0:
                nbrs.append(q)
        blocked[p] = b
        edges[p] = e
        neighbor_pos.append(nbrs)
    return (order, widths, blocked, edges, neighbor_pos)


def _stack_order(setup, num_colors: int) -> list[int]:
    """Fig. 4b ordering: trivial picks first, else optimistic candidates.

    Runs entirely over dense node ids (see ``InterferenceGraph.dense``).
    Degrees are maintained incrementally — removing a node decrements
    its neighbours' blocked-width and edge counts — instead of
    rescanning every neighbour set per pick, which keeps the ordering
    O(n² + E) while selecting the exact same stack as the original
    Reg-domain scan.  Returns the stack as dense node ids.
    """
    order, widths, blocked0, edges0, neighbor_pos = setup
    blocked = list(blocked0)
    edges = list(edges0)

    # ``blocked`` only ever decreases, so "trivially colourable" is
    # monotone: once a node qualifies it stays qualified until removed.
    # A lazy min-heap keyed (width, position) therefore yields exactly
    # the node the original linear scan picked — the first node of
    # strictly-minimal width among the trivially-colourable ones.
    n = len(order)
    alive = [True] * n
    pushed = [False] * n
    trivial: list[tuple[int, int]] = []
    for i in range(n):
        if widths[i] + blocked[i] <= num_colors:
            trivial.append((widths[i], i))
            pushed[i] = True
    heapq.heapify(trivial)
    stack: list[int] = []
    left = n
    while left:
        pick = -1
        while trivial:
            _, i = trivial[0]
            if alive[i]:
                pick = i
                heapq.heappop(trivial)
                break
            heapq.heappop(trivial)
        if pick < 0:
            # No trivially colourable node: optimistic spill candidate
            # with minimal width, then minimal edge count (Fig. 4b).
            for i in range(n):
                if alive[i] and (
                    pick < 0
                    or widths[pick] > widths[i]
                    or (
                        widths[pick] == widths[i]
                        and edges[pick] > edges[i]
                    )
                ):
                    pick = i
        stack.append(order[pick])
        alive[pick] = False
        left -= 1
        for j in neighbor_pos[pick]:
            if alive[j]:
                blocked[j] -= widths[pick]
                edges[j] -= 1
                if not pushed[j] and widths[j] + blocked[j] <= num_colors:
                    heapq.heappush(trivial, (widths[j], j))
                    pushed[j] = True
    return stack


def minimum_registers(
    graph: InterferenceGraph,
    precolored: dict[Reg, int] | None = None,
    upper_bound: int = 256,
) -> int:
    """Smallest slot budget that colours the graph without spilling.

    This defines the paper's *original* occupancy level: "all live
    values fit into the minimal number of registers".  Binary search
    over the budget; each probe is one full colouring.
    """
    if not graph.nodes:
        return 0
    lo = max(v.width for v in graph.nodes)
    if precolored:
        lo = max(lo, max(b + v.width for v, b in precolored.items()))
    hi = max(lo, upper_bound)
    if color_graph(graph, hi, precolored).spilled:
        raise ValueError(f"graph does not colour even with {hi} slots")
    while lo < hi:
        mid = (lo + hi) // 2
        if color_graph(graph, mid, precolored).spilled:
            lo = mid + 1
        else:
            hi = mid
    return lo
