"""Exact maximum gamma-balanced independent sets on small instances.

The search space collapses from 4^n to 2^n by observing that once the L-side
trace of an independent set is fixed, the best R-side is forced: take as many
unblocked R-vertices as balance allows. Branch-and-bound explores L-traces
with an optimistic balanced-total bound.

A node has a decided L-vertices, k - a undecided ones and u free R-vertices,
and takes the smaller of two bounds. The rectangle bound is the best balanced
total inside [0, k] x [0, u]. The matching bound comes from the bipartite
graph H between the undecided L-vertices and the free R-vertices. A trace
below the node takes some undecided L-vertices; they and the R-vertices they
leave free form an independent set of H. By König alpha(H) = |V(H)| - nu(H),
and nu(H) >= |M| for any matching M of H, so every total below is at most
a + alpha(H) <= k + u - |M|. Since any matching gives a valid bound, the
search keeps one M and repairs it on each branch rather than matching afresh
at each node. The root takes one maximum (Kuhn) matching. Taking v drops the
edges of v and of the R-vertices it newly blocks; each orphaned L-vertex
rematches to its lowest free unmatched R neighbour. Leaving v out drops v's
edge; its R partner rematches to the lowest later unmatched L neighbour.
Backtracking undoes both: the take branch restores its orphans' match_l
entries, and the leave branch restores match_r[r] = v on return whether r
was rematched or left unmatched, as the subtree may overwrite the entry of
an unmatched r.

Witnesses are tie-broken so every caller sees one deterministic answer: the
L-side is the smallest optimal L-mask (vertex i is bit i, masks compared as
integers) and the R-side takes the lowest-index unblocked R-vertices. One
depth-first search finds the optimum and this witness together. It replaces
its incumbent on a larger total, or on an equal total with a smaller mask,
and enters a node only when its bound can beat the incumbent: when the bound
is above the incumbent's total, or equal to it with the node's mask below
the incumbent's, as every trace under a node only adds bits to the node's
mask. A node checks each child before entering it, the rectangle bound
first, as it is one table lookup, and the matching bound only if that
passes, so a child the rectangle bound refuses costs no matching repair; the
root is checked once before the search starts. Skipping a child cannot
change the witness. Its own trace's total is at most its bound, and on a
tie its mask is no smaller than the incumbent's, so it would not have
replaced the incumbent; and both bounds only fall down the tree, so nothing
below it could either. Any valid upper bound keeps this rule exact: a
skipped subtree holds no larger total, and an equal total there comes with
a mask no smaller than the incumbent's, so the witness is the same whichever
bound refused it.

The first incumbent is the best prefix of n greedy L-traces, not the empty
trace. Trace j first takes L vertex j, then repeatedly the L vertex that
blocks the fewest new R vertices; the best prefix over all n traces, by
larger total and then smaller mask, starts the search. The traces run
together as the rows of numpy arrays, one matrix product per step, and stop
once no later prefix can beat the best one: a later prefix of a trace has
more L vertices and no more free R vertices, so its total is at most the
best total at a larger L count within the trace's current free R count.
The single greedy trace from the empty set is the trace started from the
lowest-index vertex of least degree, so this start is never the weaker one.
A strong start lets the bound prune from the root on. Any valid trace is a
safe start by the same argument: the incumbent only ever holds a real
trace, so the search still ends on the largest total with the smallest
mask, and an optimal greedy trace with a larger mask gives way to the
witness when the search reaches it.
"""

from __future__ import annotations

import sys

import numpy as np

from .balance import VertexSubset, check_gamma, lowest_bits, pack_bits
from .errors import CapacityError
from .graph import BipartiteGraph

DEFAULT_BB_LIMIT = 32


def _check_capacity(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapacityError(
            f"{what} supports n <= {limit} per side, got n = {n}; "
            f"raise the limit explicitly if you accept the cost")


def _check_depth(n: int) -> None:
    """Refuse an n whose search could pass Python's recursion limit. The
    search recurses once per L vertex, and the root matching's augmenting
    paths at most once per L vertex, from the caller's frame: n + 1 frames
    below it, plus one for a builtin called at the deepest. So n may grow to
    the recursion limit less the frames already on the stack, less two,
    which is exactly the largest n the deepest graphs reach from a script's
    top level. A C call on the stack holds a level that no frame shows
    (runpy's exec under ``python -m``, a test runner's hooks), so there the
    deepest graphs can still run out within a few n of the cap; the solver
    then raises CapacityError too, after the work."""
    depth, frame = 0, sys._getframe(1)  # the caller's frame and all below it
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    cap = limit - depth - 2
    if n > cap:
        raise CapacityError(
            f"branch-and-bound supports n <= {cap} per side for any limit (it recurses once "
            f"per L vertex, under Python's recursion limit of {limit}), got n = {n}")


def _bitsets(matrix: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an integer bitmask, column j as bit j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _witness_from_trace(l_mask: int, blocked: int, b: int, n: int) -> VertexSubset:
    return VertexSubset(l_mask, lowest_bits(~blocked & ((1 << n) - 1), b))


def _total_table(n: int, gamma: float) -> np.ndarray:
    """total[a, u]: best balanced total of a trace with a L-vertices and u free
    R-vertices (-1 if none), as an (n+1) x (n+1) array. The balance predicate
    |a - gamma*(a+b)| < 1 is evaluated in the same float arithmetic as
    is_balanced_counts over the whole grid; a running max over b then gives
    the largest balanced b <= u."""
    a = np.arange(n + 1)[:, None]
    b = np.arange(n + 1)[None, :]
    balanced = np.abs(a - gamma * (a + b)) < 1.0
    best_b = np.maximum.accumulate(np.where(balanced, b, -1), axis=1)
    return np.where(best_b < 0, -1, a + best_b)


def _balanced_tables(total: np.ndarray) -> tuple[list[list[int]], list[list[int]]]:
    """The search's lookup tables as lists: total, and bound[a][u], the best
    total inside [0, a] x [0, u], which is sum(max_balanced_pair(a, u, gamma));
    total only grows with u, so bound is the running max of total over a."""
    return total.tolist(), np.maximum.accumulate(total, axis=0).tolist()


def _max_matching(rows: list[int], order: list[int]) -> list[int]:
    """match_r[r]: the L partner of R vertex r in one maximum matching of the
    graph, or -1 (Kuhn's augmenting paths from the L vertices in order, over
    the bitmask rows)."""
    match_r = [-1] * len(order)
    seen = 0

    def augment(v: int) -> bool:
        nonlocal seen
        while candidates := rows[v] & ~seen:
            low = candidates & -candidates
            seen |= low
            r = low.bit_length() - 1
            if match_r[r] < 0 or augment(match_r[r]):
                match_r[r] = v
                return True
        return False

    for v in order:
        seen = 0
        augment(v)
    return match_r


def _greedy_incumbent(adjacency: np.ndarray, total: np.ndarray) -> tuple[int, int, int]:
    """(total, mask, blocked) of the best prefix of n greedy L-traces, by
    larger total and then smaller mask; the empty trace is a prefix too.
    Trace j first takes L vertex j, then repeatedly the L vertex that blocks
    the fewest new R vertices (lowest index on ties). The traces run together
    as rows: one product of the free-R rows with the biadjacency counts every
    vertex's new blocks in every trace. ``adjacency`` is the n x n boolean
    biadjacency, L vertices as rows."""
    n = len(adjacency)
    # later[a, u]: the best total at a' >= a within u free R vertices, which
    # bounds every later prefix of a trace, as total only grows with u
    later = np.maximum.accumulate(total[::-1], axis=0)[::-1]
    counts_by = adjacency.T.astype(np.float64)
    leaves_free = 1.0 - adjacency  # row v: 1.0 on the R vertices v does not block
    traces = np.arange(n)
    free = leaves_free.copy()
    taken = np.where(np.eye(n, dtype=bool), np.inf, 0.0)  # inf: argmin never retakes
    u = n - np.count_nonzero(adjacency, axis=1)
    masks = [1 << j for j in range(n)]
    best_total, best_mask, best_blocked = int(total[0, n]), 0, 0
    for a in range(1, n + 1):
        totals = total[a, u]
        top = int(totals.max())
        if top >= best_total:
            j = min(np.flatnonzero(totals == top).tolist(), key=masks.__getitem__)
            if top > best_total or masks[j] < best_mask:
                best_total, best_mask, best_blocked = top, masks[j], pack_bits(free[j] == 0)
        if a == n or (later[a + 1, u] < best_total).all():
            break
        new = free @ counts_by
        new += taken
        picks = new.argmin(axis=1)
        u = u - new[traces, picks].astype(np.int64)
        taken[traces, picks] = np.inf
        free *= leaves_free[picks]
        masks = [m | 1 << v for m, v in zip(masks, picks.tolist())]
    return best_total, best_mask, best_blocked


def max_gamma_balanced_is(
    graph: BipartiteGraph, gamma: float, limit: int = DEFAULT_BB_LIMIT,
) -> tuple[int, VertexSubset]:
    """Branch-and-bound over L-traces; agrees with full enumeration wherever
    both run, including the lexicographic witness."""
    check_gamma(gamma)
    n = graph.n
    _check_depth(n)
    _check_capacity(n, limit, "branch-and-bound")
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[graph.el, graph.er] = True
    rows = _bitsets(adjacency)  # the R neighbours of each L vertex
    table = _total_table(n, gamma)
    total, bound = _balanced_tables(table)

    # high-degree vertices first: including them blocks the most, so both
    # branches diverge quickly and the bound bites early
    order = sorted(range(n), key=lambda i: (-rows[i].bit_count(), i))
    position = sorted(range(n), key=order.__getitem__)  # position[order[j]] == j
    # the matching M behind the matching bound: match_l and match_r hold the
    # partners of matched vertices, and the search passes which ones are
    # matched as two bitmasks, of matched R vertices and of unmatched L
    # positions in order. Entries of unmatched vertices are stale and the
    # subtree may overwrite them, so each branch restores on backtrack the
    # partners its node still reads. cols[r]: the positions of r's L neighbours
    cols = _bitsets(adjacency[order].T)
    match_l = [-1] * n
    # a valid trace is a safe first incumbent (see the module docstring)
    best_total, best_mask, best_blocked = _greedy_incumbent(adjacency, table)

    def search(i: int, a: int, mask: int, blocked: int, u: int,
               matched_r: int, unmatched: int, size: int) -> None:
        # entered only when its bound can beat the incumbent: the caller checks
        # it, testing the cheap rectangle bound before it repairs the matching
        nonlocal best_total, best_mask, best_blocked
        t = total[a][u]  # this node's own trace: every remaining vertex out
        if t > best_total or (t == best_total and mask < best_mask):
            best_total, best_mask, best_blocked = t, mask, blocked
        if i == n:
            return
        k = a + n - i  # both children have at most k L vertices below them
        v = order[i]

        # take v: v and the R vertices it newly blocks leave H with their
        # edges in M; each orphaned L vertex takes its lowest free unmatched
        # R neighbour, if any
        newly = rows[v] & ~blocked
        taken_u = u - newly.bit_count()
        taken_mask = mask | 1 << v
        cap = bound[k][taken_u]
        if cap > best_total or (cap == best_total and taken_mask < best_mask):
            dropped = matched_r & newly
            taken_blocked = blocked | newly
            taken_matched = matched_r ^ dropped
            taken_unmatched = unmatched
            taken_size = size - dropped.bit_count()
            orphans = []
            while dropped:
                low = dropped & -dropped
                dropped ^= low
                r = low.bit_length() - 1
                w = match_r[r]
                if w == v:
                    continue
                orphans.append((w, r))
                candidates = rows[w] & ~(taken_blocked | taken_matched)
                if candidates:
                    low = candidates & -candidates
                    taken_matched |= low
                    taken_size += 1
                    r2 = low.bit_length() - 1
                    match_l[w] = r2
                    match_r[r2] = w
                else:
                    taken_unmatched |= 1 << position[w]
            cap = k + taken_u - taken_size
            if cap > best_total or (cap == best_total and taken_mask < best_mask):
                search(i + 1, a + 1, taken_mask, taken_blocked, taken_u,
                       taken_matched, taken_unmatched, taken_size)
            for w, r in orphans:
                match_l[w] = r

        # leave v out: v leaves H; its R partner takes the lowest later
        # unmatched L neighbour, if any, and is left unmatched otherwise
        cap = bound[k - 1][u]
        if cap < best_total or (cap == best_total and mask >= best_mask):
            return
        if unmatched >> i & 1:
            cap = k - 1 + u - size
            if cap > best_total or (cap == best_total and mask < best_mask):
                search(i + 1, a, mask, blocked, u, matched_r, unmatched, size)
            return
        r = match_l[v]
        candidates = cols[r] & unmatched >> i + 1 << i + 1  # positions after i
        cap = k - 1 + u - size if candidates else k + u - size
        if cap < best_total or (cap == best_total and mask >= best_mask):
            return
        if candidates:
            low = candidates & -candidates
            w = order[low.bit_length() - 1]
            match_l[w] = r
            match_r[r] = w
            search(i + 1, a, mask, blocked, u, matched_r, unmatched ^ low, size)
        else:
            search(i + 1, a, mask, blocked, u, matched_r ^ 1 << r, unmatched, size - 1)
        match_r[r] = v  # in both cases: the subtree may overwrite r's stale entry

    try:  # the augmenting paths and the search both recurse up to n + 1 deep
        match_r = _max_matching(rows, order)
        for r, v in enumerate(match_r):
            if v >= 0:
                match_l[v] = r
        matched_r = sum(1 << r for r in range(n) if match_r[r] >= 0)
        unmatched = sum(1 << j for j, v in enumerate(order) if match_l[v] < 0)
        size = matched_r.bit_count()
        cap = min(bound[n][n], 2 * n - size)
        if cap > best_total or (cap == best_total and 0 < best_mask):
            search(0, 0, 0, 0, n, matched_r, unmatched, size)
    except RecursionError:  # within a few n of _check_depth's cap (see there)
        raise CapacityError(
            f"branch-and-bound ran past Python's recursion limit of "
            f"{sys.getrecursionlimit()} at n = {n}: calls on the stack hold more "
            f"levels than its frames show") from None
    b = best_total - best_mask.bit_count()
    return best_total, _witness_from_trace(best_mask, best_blocked, b, n)
