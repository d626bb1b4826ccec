"""The s-local algorithm engine: iid labels, per-side decision functions,
gamma-balanced trimming, and offspring-tree expectation estimates.

A pair of local functions carries two deciders per side: one that sees only
the radius-s ball around its vertex (structure plus the labels restricted to
it), which is what locality and the offspring-tree estimates are defined by,
and a vectorised one over the whole graph, which the engine runs. Tests pin
the vectorised deciders to the ball-at-a-time semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .balance import (VertexSubset, check_gamma, independence_violation, lowest_bits,
                      max_balanced_pair, pack_bits)
from .errors import CapacityError, CompatibilityViolation, ParameterError
from .graph import BipartiteGraph, Neighborhood, Side, VertexId
from .rng import LABEL_DRAW, TREE_DRAW, RandomSeed

DecideFn = Callable[[Neighborhood, np.ndarray], int]
BulkDecideFn = Callable[[BipartiteGraph, "VertexLabels"], np.ndarray]


@dataclass(frozen=True, eq=False)
class VertexLabels:
    """One Uniform[0,1] label per vertex, L block first then R block."""

    n: int
    values: np.ndarray  # shape (2n,)

    def __post_init__(self):
        if self.values.shape != (2 * self.n,):
            raise ParameterError("labels must have length 2n")

    @property
    def l(self) -> np.ndarray:
        return self.values[: self.n]

    @property
    def r(self) -> np.ndarray:
        return self.values[self.n:]

    def restrict(self, ball: Neighborhood) -> np.ndarray:
        return self.values[ball.global_indices]


def draw_labels(n: int, seed: RandomSeed) -> VertexLabels:
    """iid Uniform[0,1] labels, deterministic given the seed; the same seed
    yields the same labels for any algorithm run on the same graph."""
    values = seed.generator(LABEL_DRAW).random(2 * n)
    values.setflags(write=False)
    return VertexLabels(n, values)


@dataclass(frozen=True)
class LocalFunctionPair:
    """Radius plus, per side, a ball decider and the vectorised decider that
    computes it for every vertex at once.

    Compatibility (the outputs always form an independent set) is a semantic
    property; ``apply_local_pair`` re-verifies it on every application.
    """

    radius: int
    decide_l: DecideFn
    decide_r: DecideFn
    bulk_decide_l: BulkDecideFn
    bulk_decide_r: BulkDecideFn

    def __post_init__(self):
        if self.radius < 0:
            raise ParameterError("radius must be non-negative")


def pair_decisions(
    graph: BipartiteGraph,
    pair: LocalFunctionPair,
    labels: VertexLabels,
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean decision vectors (L side, R side), without verification."""
    sel_l = np.asarray(pair.bulk_decide_l(graph, labels), dtype=bool)
    sel_r = np.asarray(pair.bulk_decide_r(graph, labels), dtype=bool)
    return sel_l, sel_r


def apply_local_pair(
    graph: BipartiteGraph,
    pair: LocalFunctionPair,
    seed: RandomSeed,
    labels: VertexLabels | None = None,
) -> VertexSubset:
    """Draw labels, decide every vertex, verify independence."""
    if labels is None:
        labels = draw_labels(graph.n, seed)
    sel_l, sel_r = pair_decisions(graph, pair, labels)
    subset = VertexSubset(pack_bits(sel_l), pack_bits(sel_r))
    edge = independence_violation(graph, subset)
    if edge is not None:
        raise CompatibilityViolation(
            f"pair selected both endpoints of edge (l={edge[0]}, r={edge[1]})", edge=edge)
    return subset


# ---------------------------------------------------------------------------
# The 1-local pair: L joins below a label threshold, R joins when no
# neighbor did.
# ---------------------------------------------------------------------------


def random_threshold_pair(p: float) -> LocalFunctionPair:
    """The 1-local pair with parameter p: an L vertex joins iff its own label
    is at most p; an R vertex joins iff every neighbor's label exceeds p.
    Compatible by construction."""
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"p must lie in [0, 1], got {p}")

    def decide_l(ball: Neighborhood, labels: np.ndarray) -> int:
        return int(labels[0] <= p)

    def decide_r(ball: Neighborhood, labels: np.ndarray) -> int:
        nbrs = list(ball.root_neighbors())
        return int(all(labels[u] > p for u in nbrs))

    def bulk_l(graph: BipartiteGraph, labels: VertexLabels) -> np.ndarray:
        return labels.l <= p

    def bulk_r(graph: BipartiteGraph, labels: VertexLabels) -> np.ndarray:
        blocked = np.zeros(graph.n, dtype=bool)
        blocked[graph.er[labels.l[graph.el] <= p]] = True
        return ~blocked

    return LocalFunctionPair(1, decide_l, decide_r, bulk_l, bulk_r)


def constant_pair(value_l: int, value_r: int) -> LocalFunctionPair:
    """0-local pair with fixed per-side decisions (e.g. (0, 1) selects all of R).

    (1, 1) is constructible but incompatible on any graph with an edge;
    applying it trips the independence verification.
    """

    def mk(v):
        return lambda ball, labels: v

    def mk_bulk(v):
        return lambda graph, labels: np.full(graph.n, bool(v))

    return LocalFunctionPair(0, mk(value_l), mk(value_r), mk_bulk(value_l), mk_bulk(value_r))


# ---------------------------------------------------------------------------
# Trimming and the balanced value
# ---------------------------------------------------------------------------


def gamma_trim(subset: VertexSubset, gamma: float) -> VertexSubset:
    """Maximum-cardinality gamma-balanced subset of the input, removing
    vertices from the surplus side only (lowest indices kept)."""
    check_gamma(gamma)
    a2, b2 = max_balanced_pair(subset.count_l, subset.count_r, gamma)
    return VertexSubset(lowest_bits(subset.mask_l, a2), lowest_bits(subset.mask_r, b2))


def gamma_balanced_value(e_l: float, e_r: float, gamma: float) -> float:
    """First-order trimmed density delivered by a compatible pair with the
    given per-side offspring-tree expectations: (1/2) min(e_l/g, e_r/(1-g))."""
    check_gamma(gamma)
    if not (0.0 <= e_l <= 1.0 and 0.0 <= e_r <= 1.0):
        raise ParameterError(f"expectations must lie in [0, 1], got ({e_l}, {e_r})")
    return 0.5 * min(e_l / gamma, e_r / (1.0 - gamma))


# ---------------------------------------------------------------------------
# Offspring-tree expectations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaltonWatsonTree:
    """Rooted tree with Poisson(d) offspring per node, truncated at ``depth``."""

    offspring_mean: float
    depth: int
    adj: tuple[tuple[int, ...], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.adj)

    @staticmethod
    def sample(d: float, depth: int, rng: np.random.Generator,
               max_vertices: int = 200_000) -> "GaltonWatsonTree":
        if d < 0:
            raise ParameterError("offspring mean must be non-negative")
        if depth < 0:
            raise ParameterError("depth must be non-negative")
        children: list[list[int]] = [[]]
        frontier = [0]
        for _ in range(depth):
            nxt = []
            for node in frontier:
                k = int(rng.poisson(d))
                for _ in range(k):
                    child = len(children)
                    children.append([])
                    children[node].append(child)
                    nxt.append(child)
                if len(children) > max_vertices:
                    raise CapacityError(
                        f"offspring tree exceeded {max_vertices} vertices at d={d}, depth={depth}")
            frontier = nxt
        adj: list[list[int]] = [[] for _ in children]
        for parent, kids in enumerate(children):
            for c in kids:
                adj[parent].append(c)
                adj[c].append(parent)
        return GaltonWatsonTree(d, depth, tuple(tuple(a) for a in adj))

    def to_neighborhood(self, root_side: Side) -> Neighborhood:
        depths = [0] * self.n_vertices
        order = [0]
        seen = {0}
        for v in order:
            for u in self.adj[v]:
                if u not in seen:
                    seen.add(u)
                    depths[u] = depths[v] + 1
                    order.append(u)
        sides = [root_side if depths[v] % 2 == 0 else root_side.other()
                 for v in range(self.n_vertices)]
        vertex_ids = tuple(VertexId(sides[v], v) for v in range(self.n_vertices))
        return Neighborhood(
            root_side=root_side,
            vertex_ids=vertex_ids,
            adj=self.adj,
            depths=tuple(depths),
            global_indices=None,
        )


def estimate_gw_expectation(
    pair: LocalFunctionPair,
    side: Side,
    d: float,
    trials: int,
    seed: RandomSeed,
) -> tuple[float, float]:
    """Monte Carlo estimate of the decision expectation at the root of a
    Poisson(d) offspring tree with iid labels; returns (mean, stderr)."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    decide = pair.decide_l if side is Side.L else pair.decide_r
    rng = seed.generator(TREE_DRAW)
    hits = np.empty(trials)
    for i in range(trials):
        tree = GaltonWatsonTree.sample(d, pair.radius, rng)
        ball = tree.to_neighborhood(side)
        labels = rng.random(tree.n_vertices)
        hits[i] = float(decide(ball, labels))
    mean = float(hits.mean())
    stderr = 0.0 if trials == 1 else float(hits.std(ddof=1) / math.sqrt(trials))
    return mean, stderr


# ---------------------------------------------------------------------------
# Concentration probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationRow:
    n: int
    var_l_over_n: float
    var_r_over_n: float
    mean_l: float
    mean_r: float


def concentration_probe(
    pair: LocalFunctionPair,
    n_values: Sequence[int],
    d: float,
    trials_per_n: int,
    seed: RandomSeed,
) -> list[ConcentrationRow]:
    """Sample variances of the per-side selection counts, normalized by n."""
    if trials_per_n < 30:
        raise ParameterError("trials_per_n must be >= 30 for a usable variance estimate")
    from .graph import sample_bipartite_graph  # local import avoids a cycle at module load

    rows = []
    for ni, n in enumerate(n_values):
        counts_l = np.empty(trials_per_n)
        counts_r = np.empty(trials_per_n)
        for t in range(trials_per_n):
            trial_seed = seed.shifted(ni * trials_per_n + t)
            graph = sample_bipartite_graph(n, d, trial_seed)
            labels = draw_labels(n, trial_seed)
            sel_l, sel_r = pair_decisions(graph, pair, labels)
            counts_l[t] = sel_l.sum()
            counts_r[t] = sel_r.sum()
        rows.append(ConcentrationRow(
            n=n,
            var_l_over_n=float(counts_l.var(ddof=1) / n),
            var_r_over_n=float(counts_r.var(ddof=1) / n),
            mean_l=float(counts_l.mean()),
            mean_r=float(counts_r.mean()),
        ))
    return rows
