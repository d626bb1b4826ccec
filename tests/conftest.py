"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's solver internals: they
enumerate subsets literally and re-check definitions from scratch, so they can
arbitrate when the optimized paths are wrong.
"""

from __future__ import annotations

import enum
import io
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from bipbis import (BipartiteGraph, CapacityError, ParameterError, RandomSeed, VertexSubset,
                    max_balanced_pair, sample_bipartite_graph)
from bipbis.balance import check_gamma
from bipbis.exact import (_balanced_tables, _bitsets, _check_capacity, _greedy_incumbent,
                          _max_matching, _total_table, _witness_from_trace)
from bipbis.graph import _INT64_MAX, _MAX_DIGITS, _bad_line, _check_vertex_count
from bipbis.lowdeg import check_polynomial_output
from bipbis.rng import RESAMPLE_DRAW

DEFAULT_ENUMERATION_LIMIT = 16
_ENUMERATION_HARD_CAP = 20  # 2^n trace table


class Side(enum.Enum):
    """The side of a vertex in the ball oracle's (side, index) keys."""

    L = "L"
    R = "R"


def graph_from_edges(n, edges):
    """The graph with the edges (l, r), given in any order; repeats are dropped."""
    coords = []
    for l, r in edges:
        if not (0 <= l < n and 0 <= r < n):
            raise ParameterError(f"vertex pair ({l}, {r}) out of range for n={n}")
        coords.append(l * n + r)
    return BipartiteGraph.from_coordinates(n, np.array(coords, dtype=np.int64))


def bitset_rows(graph: BipartiteGraph) -> list[int]:
    """The R-neighbourhood of each L vertex as an integer bitmask, built one
    edge at a time."""
    rows = [0] * graph.n
    for l, r in zip(graph.el.tolist(), graph.er.tolist()):
        rows[l] |= 1 << r
    return rows


def biadjacency(graph: BipartiteGraph) -> np.ndarray:
    """The n x n boolean biadjacency, L vertices as rows, from bitset_rows."""
    n = graph.n
    return np.array([[row >> r & 1 for r in range(n)] for row in bitset_rows(graph)],
                    dtype=bool).reshape(n, n)


def brute_balanced(a: int, b: int, gamma: float) -> bool:
    return abs(a - gamma * (a + b)) < 1.0


def brute_max_balanced(graph: BipartiteGraph, gamma: float) -> int:
    """Literal scan over all 2^(2n) subsets (l_mask x r_mask)."""
    n = graph.n
    assert n <= 8, "oracle is exponential; keep n small"
    rows = bitset_rows(graph)
    best = -1
    for l_mask in range(1 << n):
        blocked = 0
        m = l_mask
        while m:
            lsb = m & -m
            blocked |= rows[lsb.bit_length() - 1]
            m ^= lsb
        a = l_mask.bit_count()
        for r_mask in range(1 << n):
            if r_mask & blocked:
                continue
            b = r_mask.bit_count()
            if brute_balanced(a, b, gamma) and a + b > best:
                best = a + b
    return best


def _check_enumeration_capacity(n: int, limit: int, what: str) -> None:
    """The 2^n trace table caps n at _ENUMERATION_HARD_CAP whatever the limit."""
    if n > _ENUMERATION_HARD_CAP:
        raise CapacityError(
            f"{what} supports n <= {_ENUMERATION_HARD_CAP} per side for any limit "
            f"(it builds a 2^n trace table), got n = {n}")
    _check_capacity(n, limit, what)


# popcount of every byte; numpy 1.24 has no np.bitwise_count
_BYTE_POPCOUNT = np.array([i.bit_count() for i in range(256)], dtype=np.int8)


def _trace_table(rows: list[int], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(blocked, a, u) over every L-trace, indexed by its L-mask: the union of
    its R-neighborhoods (uint32, so n <= 32), its L count and n minus the
    popcount of blocked. Each L vertex doubles the table: the upper half adds
    vertex i to every trace of the lower half."""
    size = 1 << len(rows)
    blocked = np.zeros(size, dtype=np.uint32)
    a = np.zeros(size, dtype=np.int8)
    for i, row in enumerate(rows):
        half = 1 << i
        np.bitwise_or(blocked[:half], np.uint32(row), out=blocked[half:2 * half])
        np.add(a[:half], 1, out=a[half:2 * half])
    u = n - _BYTE_POPCOUNT[blocked.view(np.uint8)].reshape(size, 4).sum(axis=1, dtype=np.int8)
    return blocked, a, u


def enumerate_max_gamma_balanced(
    graph: BipartiteGraph, gamma: float, limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> tuple[int, VertexSubset]:
    """Full scan over all 2^n L-traces; the forced-R completion makes this
    equivalent to enumerating every subset of the 2n vertices. The first
    argmax is the smallest optimal L-mask, the branch-and-bound's witness."""
    check_gamma(gamma)
    n = graph.n
    _check_enumeration_capacity(n, limit, "enumeration")
    blocked, a, u = _trace_table(bitset_rows(graph), n)
    totals = _total_table(n, gamma).astype(np.int8)[a, u]
    mask = int(np.argmax(totals))
    best = int(totals[mask])
    return best, _witness_from_trace(mask, int(blocked[mask]), best - int(a[mask]), n)


def greedy_incumbent_loop(rows: list[int], total: list[list[int]]) -> tuple[int, int, int]:
    """(total, mask, blocked) of the best prefix of the n greedy L-traces, one
    start at a time over the integer bitmask rows: trace j takes L vertex j,
    then repeatedly the remaining L vertex that blocks the fewest new R
    vertices (lowest index on ties). Best by larger total, then smaller mask;
    the empty trace counts."""
    n = len(rows)
    best = (total[0][n], 0, 0)
    for start in range(n):
        mask, blocked = 1 << start, rows[start]
        left = [w for w in range(n) if w != start]
        for a in range(1, n + 1):
            t = total[a][n - blocked.bit_count()]
            if t > best[0] or (t == best[0] and mask < best[1]):
                best = (t, mask, blocked)
            if not left:
                break
            v = min(left, key=lambda w: (rows[w] & ~blocked).bit_count())
            left.remove(v)
            mask |= 1 << v
            blocked |= rows[v]
    return best


def enter_then_prune_search(
    graph: BipartiteGraph, gamma: float, limit: int = 64,
) -> tuple[int, VertexSubset]:
    """The branch-and-bound as it was before a node checked its children's
    bounds: every child is entered and checks its own bound, after its parent
    has repaired the matching for it. It takes the solver's tables, search
    order, root matching and greedy start, so any difference in (size,
    witness) is a difference of the search itself."""
    check_gamma(gamma)
    n = graph.n
    _check_capacity(n, limit, "branch-and-bound")
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[graph.el, graph.er] = True
    rows = _bitsets(adjacency)
    table = _total_table(n, gamma)
    total, bound = _balanced_tables(table)
    order = sorted(range(n), key=lambda i: (-rows[i].bit_count(), i))
    position = sorted(range(n), key=order.__getitem__)
    cols = _bitsets(adjacency[order].T)
    match_r = _max_matching(rows, order)
    match_l = [-1] * n
    for r, v in enumerate(match_r):
        if v >= 0:
            match_l[v] = r
    best_total, best_mask, best_blocked = _greedy_incumbent(adjacency, table)

    def search(i, a, mask, blocked, matched_r, unmatched, size):
        nonlocal best_total, best_mask, best_blocked
        u = n - blocked.bit_count()
        t = total[a][u]
        if t > best_total or (t == best_total and mask < best_mask):
            best_total, best_mask, best_blocked = t, mask, blocked
        if i == n:
            return
        k = a + n - i
        cap = min(bound[k][u], k + u - size)
        if cap < best_total or (cap == best_total and mask >= best_mask):
            return
        v = order[i]
        # take v, repairing the matching for the orphans of the R vertices it blocks
        dropped = matched_r & rows[v] & ~blocked
        taken_blocked = blocked | rows[v]
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
        search(i + 1, a + 1, mask | 1 << v, taken_blocked,
               taken_matched, taken_unmatched, taken_size)
        for w, r in orphans:
            match_l[w] = r
        # leave v out: its R partner rematches to the lowest later unmatched L neighbour
        if unmatched >> i & 1:
            search(i + 1, a, mask, blocked, matched_r, unmatched, size)
            return
        r = match_l[v]
        candidates = cols[r] & unmatched >> i + 1 << i + 1
        if candidates:
            low = candidates & -candidates
            w = order[low.bit_length() - 1]
            match_l[w] = r
            match_r[r] = w
            search(i + 1, a, mask, blocked, matched_r, unmatched ^ low, size)
        else:
            search(i + 1, a, mask, blocked, matched_r ^ 1 << r, unmatched, size - 1)
        match_r[r] = v

    matched_r = sum(1 << r for r in range(n) if match_r[r] >= 0)
    unmatched = sum(1 << j for j, v in enumerate(order) if match_l[v] < 0)
    search(0, 0, 0, 0, matched_r, unmatched, matched_r.bit_count())
    b = best_total - best_mask.bit_count()
    return best_total, _witness_from_trace(best_mask, best_blocked, b, n)


def milp_optimum(graph: BipartiteGraph, gamma: float) -> int:
    """Maximum gamma-balanced independent set size by scipy's MILP (HiGHS).

    Variables x (L) and y (R) in {0, 1}; x_l + y_r <= 1 on every edge; with
    gamma = p/q, a = sum x and b = sum y, balance is |(q-p) a - p b| <= q - 1.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    g = Fraction(gamma).limit_denominator(64)
    p, q = g.numerator, g.denominator
    n, m = graph.n, graph.edge_count
    A = np.zeros((m + 1, 2 * n))
    A[np.arange(m), graph.el] = 1
    A[np.arange(m), n + graph.er] = 1
    A[m, :n] = q - p
    A[m, n:] = -p
    lo = np.r_[np.full(m, -np.inf), -(q - 1)]
    hi = np.r_[np.ones(m), q - 1]
    res = milp(-np.ones(2 * n), constraints=LinearConstraint(A, lo, hi),
               integrality=np.ones(2 * n), bounds=Bounds(0, 1))
    assert res.status == 0, f"MILP did not solve: {res.message}"
    return int(round(-res.fun))


def brute_trim_best(a: int, b: int, gamma: float) -> int:
    """Max total over all sub-pairs (a', b') <= (a, b) passing balance."""
    best = 0
    for a2 in range(a + 1):
        for b2 in range(b + 1):
            if brute_balanced(a2, b2, gamma) and a2 + b2 > best:
                best = a2 + b2
    return best


def bfs_ball(n: int, edges: list[tuple[int, int]], side: str, idx: int, radius: int) -> set:
    """Independent BFS over an explicit edge list; vertices as (side, index)."""
    adj: dict[tuple[str, int], set] = {}
    for l, r in edges:
        adj.setdefault(("L", l), set()).add(("R", r))
        adj.setdefault(("R", r), set()).add(("L", l))
    seen = {(side, idx)}
    frontier = [(side, idx)]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for u in adj.get(v, ()):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def neighbor_lists(graph: BipartiteGraph) -> dict[Side, list[list[int]]]:
    """Each vertex's neighbours by side, read off the edge list; row-major
    order leaves every list sorted."""
    nbrs = {Side.L: [[] for _ in range(graph.n)], Side.R: [[] for _ in range(graph.n)]}
    for l, r in zip(graph.el.tolist(), graph.er.tolist()):
        nbrs[Side.L][l].append(r)
        nbrs[Side.R][r].append(l)
    return nbrs


class Ball(NamedTuple):
    """A rooted ball: its vertices as (side, index) keys, root first, their
    depths, and the adjacency a ball decider reads, over local numbers."""

    keys: tuple[tuple[Side, int], ...]
    depths: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]


def _other(side: Side) -> Side:
    return Side.R if side is Side.L else Side.L


def neighborhood(graph: BipartiteGraph, root: tuple[Side, int], radius: int) -> Ball:
    """BFS ball of graph-distance <= radius around the root, with induced
    edges, over the graph's neighbour lists."""
    nbrs = neighbor_lists(graph)
    local = {root: 0}
    order = [root]
    depths = [0]
    frontier = list(order)
    for depth in range(1, radius + 1):
        nxt = []
        for side, idx in frontier:
            for u in nbrs[side][idx]:
                key = (_other(side), u)
                if key not in local:
                    local[key] = len(order)
                    order.append(key)
                    depths.append(depth)
                    nxt.append(key)
        frontier = nxt
    adj = tuple(tuple(sorted(local[(_other(side), u)] for u in nbrs[side][idx]
                             if (_other(side), u) in local))
                for side, idx in order)
    return Ball(tuple(order), tuple(depths), adj)


def graph_to_text_loop(graph: BipartiteGraph) -> str:
    """The text format written one edge line at a time."""
    buf = io.StringIO()
    buf.write(f"{graph.n} {graph.edge_count}\n")
    for l, r in zip(graph.el, graph.er):
        buf.write(f"{l} {r}\n")
    return buf.getvalue()


def graph_from_text_loop(text: str) -> BipartiteGraph:
    """The text format parsed line by line with str methods."""
    if not text.isascii():
        raise ParameterError("non-ASCII text")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("empty graph file")
    rows = [ln.split() for ln in lines]
    for row in rows:
        if len(row) != 2:
            raise ParameterError(f"malformed line: {row}")
        for token in row:
            if not token.isdigit():
                raise ParameterError(f"not an unsigned decimal integer: {token!r}")
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != m:
        raise ParameterError(f"header promises {m} edges, file has {len(rows) - 1}")
    if n * n >= 2**63:
        raise ParameterError("n^2 edge coordinates do not fit in int64")
    pairs = [(int(l), int(r)) for l, r in rows[1:]]
    if len(set(pairs)) != len(pairs):
        raise ParameterError("duplicate edge")
    return graph_from_edges(n, pairs)


def graph_from_text_whole(text: str | bytes) -> BipartiteGraph:
    """The vectorised reader run over the whole file at once, with an int64
    array per token: the same graph or the same error as graph_from_text."""
    raw = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    data = np.frombuffer(raw, dtype=np.uint8)
    # uint8 differences wrap around, so each "x - a < k" tests a <= x < a + k
    digit = data - ord("0") < 10
    brk = (data - ord("\n") < 4) | (data - ord("\x1c") < 3)  # \n \v \f \r, \x1c-\x1e
    blank = (data == ord("\t")) | (data - ord("\x1f") < 2)    # \t, \x1f and space
    valid = digit | brk | blank
    if not valid.all():
        raise _bad_line(raw, int(valid.argmin()), "not an unsigned decimal integer")
    # tokens are the maximal runs of digits, raw[starts[k]:ends[k]]
    flips = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = flips[0::2], flips[1::2]
    if starts.size == 0:
        raise ParameterError("empty graph file")
    # opens[k]: token k is the first on its line. Tokens 2j and 2j+1 must share
    # a line of their own; the sentinel makes an odd last token open a pair.
    opens = np.ones(starts.size + 1, dtype=bool)
    opens[1:-1] = np.logical_or.reduceat(brk, flips[:-1])[1::2]
    bad = np.flatnonzero(~opens[0:-1:2] | opens[1::2])
    if bad.size:
        at = int(starts[2 * bad[0]])
        what = "edge" if brk[starts[0]:at].any() else "header"
        raise _bad_line(raw, at, f"malformed {what} line")
    n, m = int(raw[starts[0]:ends[0]]), int(raw[starts[1]:ends[1]])
    if starts.size // 2 - 1 != m:
        raise ParameterError(f"header promises {m} edges, file has {starts.size // 2 - 1}")
    _check_vertex_count(n)

    starts, ends = starts[2:], ends[2:]
    widths = ends - starts
    values = np.zeros(starts.size, dtype=np.int64)
    width = min(int(widths.max(initial=0)), _MAX_DIGITS)
    at = ends - width  # a negative index wraps inside data; such digits are masked
    for back in range(width, 0, -1):
        digits = data[at] - ord("0")
        digits[widths < back] = 0
        values *= 10
        values += digits
        at += 1
    long = np.flatnonzero(widths > _MAX_DIGITS)
    if long.size:
        heads = np.stack([starts[long], ends[long] - _MAX_DIGITS], axis=1).ravel()
        values[long[np.logical_or.reduceat(data != ord("0"), heads)[0::2]]] = _INT64_MAX

    el, er = values[0::2], values[1::2]
    bad = np.flatnonzero((el >= n) | (er >= n))
    if bad.size:
        raise _bad_line(raw, int(starts[2 * bad[0]]), f"vertex pair out of range for n={n}")
    unsorted = el * n + er
    coords = np.sort(unsorted)
    dup = np.flatnonzero(coords[1:] == coords[:-1])
    if dup.size:
        again = np.flatnonzero(unsorted == coords[dup[0]])[1]
        raise _bad_line(raw, int(starts[2 * again]), "duplicate edge")
    return BipartiteGraph(n, coords)


def validate_graph_loop(graph: BipartiteGraph) -> None:
    """validate_graph's checks, in its order and with its messages, on
    Python ints one edge at a time."""
    n = graph.n
    coords, el, er = graph.coords.tolist(), graph.el.tolist(), graph.er.tolist()
    if any(b <= a for a, b in zip(coords, coords[1:])):
        raise ParameterError("edge coordinates must be strictly increasing")
    if any(not 0 <= c < n * n for c in coords):
        raise ParameterError("edge coordinate out of range")
    if graph.edge_count != len(coords):
        raise ParameterError(f"edge_count {graph.edge_count} disagrees with {len(coords)} coordinates")
    if el != [c // n for c in coords]:
        raise ParameterError("L endpoints disagree with the edge coordinates")
    if er != [c % n for c in coords]:
        raise ParameterError("R endpoints disagree with the edge coordinates")


def csr_r_argsort(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, flat L-neighbour indices) over R vertices, the neighbours
    set in (r, l) order by a stable argsort of the R endpoints."""
    order = np.argsort(graph.er, kind="stable")
    return (np.concatenate(([0], np.cumsum(np.bincount(graph.er, minlength=graph.n)))),
            graph.el[order])


def segment_min_exceeds(flat_values: np.ndarray, indptr: np.ndarray, threshold: float) -> np.ndarray:
    """Per CSR segment: does every value exceed the threshold? Empty segments
    count as True (an empty minimum blocks nothing)."""
    n = indptr.size - 1
    out = np.ones(n, dtype=bool)
    degs = np.diff(indptr)
    nonempty = np.flatnonzero(degs > 0)
    if nonempty.size:
        # consecutive non-empty segments are contiguous in the flat array,
        # so reduceat over their start offsets reduces exactly each segment
        mins = np.minimum.reduceat(flat_values, indptr[nonempty])
        out[nonempty] = mins > threshold
    return out


def chosen_neighbor_counts(graph: BipartiteGraph, chosen_l) -> np.ndarray:
    """For each R vertex, its number of L neighbours in chosen_l, one vertex
    at a time over its neighbour list."""
    chosen = set(np.asarray(chosen_l).tolist())
    return np.array([sum(l in chosen for l in nbrs) for nbrs in neighbor_lists(graph)[Side.R]],
                    dtype=np.int64)


@st.composite
def edge_list_graphs(draw, max_n: int = 3000):
    """Graphs for the edge-list kernels: n small or in the thousands, from
    edgeless to average degree 12, so isolated R vertices are common at the
    low end; below n = 300 some draws add an R vertex that sees all of L."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=20),
                       st.integers(min_value=max_n // 3, max_value=max_n)))
    d = draw(st.sampled_from([0.0, 0.05, 0.5, 2.0, 12.0]))
    if d <= 0.0 or d >= n:
        graph = BipartiteGraph(n, np.empty(0, dtype=np.int64))
    else:
        seed = RandomSeed(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        graph = sample_bipartite_graph(n, d, seed)
    if n <= 300 and draw(st.booleans()):
        full = draw(st.integers(min_value=0, max_value=n - 1))
        graph = BipartiteGraph.from_coordinates(
            n, np.concatenate((graph.coords, np.arange(n) * n + full)))
    return graph


def resample_draws(path, d: float, seed: RandomSeed) -> tuple[np.ndarray, np.ndarray]:
    """The per-step draws of a path built with ``d`` and ``seed``, drawn
    again: the 1-based coordinate each step resamples, on the cyclic
    schedule, and the bit it draws from Ber(d/n)."""
    T, m = path.length, path.n * path.n
    sigmas = np.arange(T, dtype=np.int64) % m + 1
    bits = (seed.generator(RESAMPLE_DRAW).random(T) < d / path.n).astype(np.uint8)
    return sigmas, bits


def flips_argsort(path, d: float,
                  seed: RandomSeed) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """InterpolationPath.flips for any coordinate order: a stable argsort
    groups each coordinate's visits in step order, and each visit's old bit
    is the visit before it, or the base bit on the first."""
    sigmas, bits = resample_draws(path, d, seed)
    order = np.argsort(sigmas, kind="stable")
    coords = sigmas[order] - 1
    old = np.empty(path.length, dtype=np.uint8)
    old[1:] = bits[order][:-1]
    first = np.ones(path.length, dtype=bool)
    first[1:] = coords[1:] != coords[:-1]
    old[first] = np.isin(coords[first], path.base.coords)
    changed = np.zeros(path.length, dtype=bool)
    changed[order] = old != bits[order]
    steps = np.flatnonzero(changed)
    l, r = np.divmod(sigmas[steps] - 1, path.n)
    return steps + 1, l, r, bits[steps] == 1


def ball_decisions(graph: BipartiteGraph, pair, labels) -> tuple[np.ndarray, np.ndarray]:
    """pair_decisions computed ball at a time: each vertex's ball decider sees
    only its radius-s neighborhood and the labels restricted to it."""
    n = graph.n
    sel_l = np.zeros(n, dtype=bool)
    sel_r = np.zeros(n, dtype=bool)
    for side, sel, decide in ((Side.L, sel_l, pair.decide_l), (Side.R, sel_r, pair.decide_r)):
        for i in range(n):
            ball = neighborhood(graph, (side, i), pair.radius)
            # L labels come first in labels.values, then R
            where = [idx + (n if s is Side.R else 0) for s, idx in ball.keys]
            sel[i] = bool(decide(ball.adj, labels.values[where]))
    return sel_l, sel_r


def bad_steps_materialized(f, path, config) -> list[int]:
    """detect_bad_steps with f evaluated on the materialized graph of every
    path step."""
    threshold = config.badness_threshold
    n = path.n
    bad: list[int] = []
    prev = check_polynomial_output(f.evaluate(path.base), n)
    for t in range(1, path.length + 1):
        cur = check_polynomial_output(f.evaluate(path.materialize(t)), n)
        diff = cur - prev
        if float(diff @ diff) >= threshold:
            bad.append(t)
        prev = cur
    return bad


def per_step(segments) -> list:
    """The walk's segments (start, stop, subset) expanded to one set per step."""
    return [v for start, stop, v in segments for _ in range(start, stop)]


def bernoulli_coordinates_unclipped(m: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The geometric-gap sampler summing the raw gaps, which wraps int64 (and
    never ends) once p is small enough for gaps near the int64 maximum."""
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    expected = m * p
    batch = max(int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16, 16)
    pos = -1
    chunks = []
    while pos < m:
        steps = np.cumsum(rng.geometric(p, size=batch)) + pos
        chunks.append(steps)
        pos = int(steps[-1])
    coords = np.concatenate(chunks)
    return coords[coords < m]


def bernoulli_coordinates_exact(m: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The geometric-gap sampler walking the raw gaps one by one in Python
    ints, which cannot wrap, up to the first position at or past m."""
    expected = m * p
    batch = max(int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16, 16)
    pos, coords = -1, []
    while True:
        for gap in rng.geometric(p, size=batch).tolist():
            pos += gap
            if pos >= m:
                return np.array(coords, dtype=np.int64)
            coords.append(pos)


def subset_of(in_l=(), in_r=()):
    return VertexSubset.of(in_l, in_r)


def gamma_trim_sorted(in_l, in_r, gamma: float) -> tuple[frozenset, frozenset]:
    """gamma_trim on index sets: sort each side and keep the lowest indices
    the maximum balanced pair allows."""
    a2, b2 = max_balanced_pair(len(in_l), len(in_r), gamma)
    return frozenset(sorted(in_l)[:a2]), frozenset(sorted(in_r)[:b2])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# The acceptance tests append one line per criterion here; echoing them in the
# terminal summary keeps them visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
