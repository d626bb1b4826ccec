"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's solver internals: they
enumerate subsets literally and re-check definitions from scratch, so they can
arbitrate when the optimized paths are wrong.
"""

from __future__ import annotations

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from bipbis import (BipartiteGraph, ParameterError, RandomSeed, Side, VertexId, VertexSubset,
                    max_balanced_pair, neighborhood, sample_bipartite_graph)
from bipbis.lowdeg import check_polynomial_output
from bipbis.rng import RESAMPLE_DRAW


def graph_from_edges(n, edges):
    return BipartiteGraph.from_edges(n, edges)


def brute_balanced(a: int, b: int, gamma: float) -> bool:
    return abs(a - gamma * (a + b)) < 1.0


def brute_max_balanced(graph: BipartiteGraph, gamma: float) -> int:
    """Literal scan over all 2^(2n) subsets (l_mask x r_mask)."""
    n = graph.n
    assert n <= 8, "oracle is exponential; keep n small"
    rows = [0] * n
    for l, r in zip(graph.el.tolist(), graph.er.tolist()):
        rows[l] |= 1 << r
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


def brute_profile(graph: BipartiteGraph) -> dict[int, int]:
    """For each a, the max b over independent sets, by literal enumeration."""
    n = graph.n
    assert n <= 8
    rows = [0] * n
    for l, r in zip(graph.el.tolist(), graph.er.tolist()):
        rows[l] |= 1 << r
    best: dict[int, int] = {a: -1 for a in range(n + 1)}
    for l_mask in range(1 << n):
        blocked = 0
        m = l_mask
        while m:
            lsb = m & -m
            blocked |= rows[lsb.bit_length() - 1]
            m ^= lsb
        a = l_mask.bit_count()
        u = n - blocked.bit_count()
        if u > best[a]:
            best[a] = u
    return best


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
    return BipartiteGraph.from_edges(n, pairs)


def validate_graph_sets(graph: BipartiteGraph) -> None:
    """Structural check with the symmetry test done on Python sets of pairs."""
    n = graph.n
    if graph.el.size and (graph.el.min() < 0 or graph.el.max() >= n):
        raise ParameterError("L endpoint out of range")
    if graph.er.size and (graph.er.min() < 0 or graph.er.max() >= n):
        raise ParameterError("R endpoint out of range")
    if np.unique(graph.coords).size != graph.edge_count:
        raise ParameterError("duplicate edges present")
    if int(graph.degrees_l().sum()) != graph.edge_count:
        raise ParameterError("L-degree sum disagrees with edge_count")
    if int(graph.degrees_r().sum()) != graph.edge_count:
        raise ParameterError("R-degree sum disagrees with edge_count")
    from_l = {(l, r) for l in range(n) for r in graph.neighbors_l(l)}
    from_r = {(l, r) for r in range(n) for l in graph.neighbors_r(r)}
    if from_l != from_r:
        raise ParameterError("adjacency is not symmetric across sides")


def graph_arrays(graph: BipartiteGraph) -> dict[str, np.ndarray]:
    """Every array of a graph by name, the CSRs read through csr_l and csr_r."""
    (indptr_l, flat_l_to_r), (indptr_r, flat_r_to_l) = graph.csr_l(), graph.csr_r()
    return {"coords": graph.coords, "el": graph.el, "er": graph.er,
            "indptr_l": indptr_l, "flat_l_to_r": flat_l_to_r,
            "indptr_r": indptr_r, "flat_r_to_l": flat_r_to_l}


def csr_argsort(n: int, coords: np.ndarray) -> dict[str, np.ndarray]:
    """Every array of BipartiteGraph(n, coords), named as in graph_arrays,
    the R side built by a stable argsort of the R endpoints."""
    coords = np.asarray(coords, dtype=np.int64)
    el, er = coords // n, coords % n
    order = np.argsort(er, kind="stable")
    return {
        "coords": coords,
        "el": el,
        "er": er,
        "indptr_l": np.concatenate(([0], np.cumsum(np.bincount(el, minlength=n)))),
        "flat_l_to_r": er,
        "indptr_r": np.concatenate(([0], np.cumsum(np.bincount(er, minlength=n)))),
        "flat_r_to_l": el[order],
    }


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
    at a time over neighbors_r."""
    chosen = set(np.asarray(chosen_l).tolist())
    return np.array([sum(int(l) in chosen for l in graph.neighbors_r(j))
                     for j in range(graph.n)], dtype=np.int64)


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


def resample_draws(path, seed: RandomSeed) -> tuple[np.ndarray, np.ndarray]:
    """The per-step draws of a path built with ``seed``, drawn again: the
    1-based coordinate each step resamples, on the cyclic schedule, and the
    bit it draws from Ber(d/n)."""
    T, m = path.length, path.n * path.n
    sigmas = np.arange(T, dtype=np.int64) % m + 1
    bits = (seed.generator(RESAMPLE_DRAW).random(T) < path.d / path.n).astype(np.uint8)
    return sigmas, bits


def flips_argsort(path, seed: RandomSeed) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """InterpolationPath.flips for any coordinate order: a stable argsort
    groups each coordinate's visits in step order, and each visit's old bit
    is the visit before it, or the base bit on the first."""
    sigmas, bits = resample_draws(path, seed)
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
            ball = neighborhood(graph, VertexId(side, i), pair.radius)
            sel[i] = bool(decide(ball, labels.restrict(ball)))
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


def random_small_graph(rng: np.random.Generator, max_n: int = 8) -> BipartiteGraph:
    n = int(rng.integers(1, max_n + 1))
    d = float(rng.uniform(0.2, min(n - 0.01, 4.0))) if n > 1 else 0.5
    return sample_bipartite_graph(n, d, RandomSeed(int(rng.integers(0, 2**32))))


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
