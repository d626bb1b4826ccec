"""Exact maximum gamma-balanced independent sets on small instances.

The search space collapses from 4^n to 2^n by observing that once the L-side
trace of an independent set is fixed, the best R-side is forced: take as many
unblocked R-vertices as balance allows. Branch-and-bound explores L-traces
with an optimistic balanced-total bound; a plain ascending-mask enumeration
over the same traces serves as the in-library oracle.

Witnesses are tie-broken so every caller sees one deterministic answer: the
L-side is the smallest optimal L-mask (vertex i is bit i, masks compared as
integers) and the R-side takes the lowest-index unblocked R-vertices. One
depth-first search finds the optimum and this witness together. It replaces
its incumbent on a larger total, or on an equal total with a smaller mask,
and prunes a node whose bound is below the incumbent's total, or equal to it
while the node's mask is not below the incumbent's: every trace under a node
only adds bits to the node's mask.
"""

from __future__ import annotations

from dataclasses import dataclass

from .balance import (VertexSubset, best_b_for_a, check_gamma, check_subset_range,
                      lowest_bits, max_balanced_total)
from .errors import CapacityError
from .graph import BipartiteGraph

DEFAULT_ENUMERATION_LIMIT = 16
DEFAULT_BB_LIMIT = 32
_ENUMERATION_HARD_CAP = 20  # 2^n blocked-mask table


def _check_capacity(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapacityError(
            f"{what} supports n <= {limit} per side, got n = {n}; "
            f"raise the limit explicitly if you accept the cost")


def _bitset_rows(graph: BipartiteGraph) -> list[int]:
    """R-neighborhood of each L vertex as an integer bitmask."""
    rows = [0] * graph.n
    for l, r in zip(graph.el.tolist(), graph.er.tolist()):
        rows[l] |= 1 << r
    return rows


def _blocked_table(rows: list[int], n: int) -> list[int]:
    """blocked[mask] = union of R-neighborhoods over the L vertices in mask."""
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        lsb = mask & -mask
        table[mask] = table[mask ^ lsb] | rows[lsb.bit_length() - 1]
    return table


def _witness_from_trace(l_mask: int, blocked: int, b: int, n: int) -> VertexSubset:
    return VertexSubset(l_mask, lowest_bits(~blocked & ((1 << n) - 1), b))


def enumerate_max_gamma_balanced(
    graph: BipartiteGraph, gamma: float, limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> tuple[int, VertexSubset]:
    """Ascending scan over all 2^n L-traces; the forced-R completion makes
    this equivalent to enumerating every subset of the 2n vertices."""
    check_gamma(gamma)
    n = graph.n
    _check_capacity(n, min(limit, _ENUMERATION_HARD_CAP), "enumeration")
    rows = _bitset_rows(graph)
    blocked = _blocked_table(rows, n)
    best = -1
    best_trace = (0, 0, 0)  # (l_mask, blocked, b)
    for mask in range(1 << n):
        a = mask.bit_count()
        u = n - blocked[mask].bit_count()
        b = best_b_for_a(a, u, gamma)
        if b is None:
            continue
        if a + b > best:
            best = a + b
            best_trace = (mask, blocked[mask], b)
    return best, _witness_from_trace(*best_trace, n)


def max_gamma_balanced_is(
    graph: BipartiteGraph, gamma: float, limit: int = DEFAULT_BB_LIMIT,
) -> tuple[int, VertexSubset]:
    """Branch-and-bound over L-traces; agrees with full enumeration wherever
    both run, including the lexicographic witness."""
    check_gamma(gamma)
    n = graph.n
    _check_capacity(n, limit, "branch-and-bound")
    rows = _bitset_rows(graph)
    # total[a][u]: best balanced total of a trace with a L-vertices and u free
    # R-vertices (-1 if none); bound[a][u]: best total inside [0, a] x [0, u]
    total = [[-1 if b is None else a + b
              for b in (best_b_for_a(a, u, gamma) for u in range(n + 1))]
             for a in range(n + 1)]
    bound = [[max_balanced_total(a, u, gamma) for u in range(n + 1)] for a in range(n + 1)]

    # high-degree vertices first: including them blocks the most, so both
    # branches diverge quickly and the bound bites early
    order = sorted(range(n), key=lambda i: (-rows[i].bit_count(), i))
    best_total, best_mask, best_blocked = -1, 0, 0

    def search(i: int, a: int, mask: int, blocked: int) -> None:
        nonlocal best_total, best_mask, best_blocked
        u = n - blocked.bit_count()
        t = total[a][u]  # this node's own trace: every remaining vertex out
        if t > best_total or (t == best_total and mask < best_mask):
            best_total, best_mask, best_blocked = t, mask, blocked
        if i == n:
            return
        cap = bound[a + n - i][u]
        # every trace below extends mask, so none is smaller than mask itself
        if cap < best_total or (cap == best_total and mask >= best_mask):
            return
        v = order[i]
        search(i + 1, a + 1, mask | 1 << v, blocked | rows[v])
        search(i + 1, a, mask, blocked)

    search(0, 0, 0, 0)
    b = best_total - best_mask.bit_count()
    return best_total, _witness_from_trace(best_mask, best_blocked, b, n)


@dataclass(frozen=True)
class ParetoProfile:
    """For every L-side size a, the maximum R-side size b over independent
    sets, each entry witnessed."""

    entries: tuple[tuple[int, int], ...]
    witnesses: tuple[VertexSubset, ...]

    def max_b(self, a: int) -> int:
        return self.entries[a][1]


def pareto_profile(graph: BipartiteGraph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> ParetoProfile:
    n = graph.n
    _check_capacity(n, min(limit, _ENUMERATION_HARD_CAP), "pareto profile")
    rows = _bitset_rows(graph)
    blocked = _blocked_table(rows, n)
    best_b = [-1] * (n + 1)
    best_mask = [0] * (n + 1)
    for mask in range(1 << n):
        a = mask.bit_count()
        u = n - blocked[mask].bit_count()
        if u > best_b[a]:
            best_b[a] = u
            best_mask[a] = mask
    entries = []
    witnesses = []
    for a in range(n + 1):
        mask = best_mask[a]
        b = best_b[a]
        entries.append((a, b))
        witnesses.append(_witness_from_trace(mask, blocked[mask], b, n))
    for a in range(1, n + 1):  # sanity: dominance forces a monotone profile
        assert entries[a][1] <= entries[a - 1][1]
    return ParetoProfile(tuple(entries), tuple(witnesses))


def max_joint_intersection(
    graph: BipartiteGraph, s: VertexSubset, limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> int:
    """Max over independent sets I of min(|I & s & L|, |I & s & R|).

    Vertices outside s neither help nor hurt, so the search restricts to the
    induced subgraph on s.
    """
    n = graph.n
    _check_capacity(n, min(limit, _ENUMERATION_HARD_CAP), "joint intersection")
    check_subset_range(s, n)
    # rows keep their global R bits: only the count blocked inside s matters
    rows = [row & s.mask_r for l, row in enumerate(_bitset_rows(graph)) if s.mask_l >> l & 1]
    nl, nr = len(rows), s.count_r
    best = 0
    blocked = _blocked_table(rows, nl)
    for mask in range(1 << nl):
        a = mask.bit_count()
        u = nr - blocked[mask].bit_count()
        v = min(a, u)
        if v > best:
            best = v
    return best
