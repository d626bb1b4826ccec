"""The s-local algorithm engine: iid labels, per-side decision functions
and gamma-balanced trimming.

A pair of local functions carries two deciders per side: a ball decider
``decide(adj, labels)``, which reads the radius-s ball's adjacency lists (root
as vertex 0) and its vertices' labels and defines locality, and a vectorised
one over the whole graph, which the engine runs. Tests pin the vectorised
deciders to the ball-at-a-time semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .balance import (VertexSubset, check_gamma, independence_violation, lowest_bits,
                      max_balanced_pair, pack_bits)
from .errors import CompatibilityViolation, ParameterError
from .graph import BipartiteGraph
from .lowdeg import FlipTracker
from .rng import LABEL_DRAW, RandomSeed

DecideFn = Callable[[Sequence[Sequence[int]], np.ndarray], int]
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


def draw_labels(n: int, seed: RandomSeed) -> VertexLabels:
    """iid Uniform[0,1] labels, deterministic given the seed; the same seed
    yields the same labels for any algorithm run on the same graph."""
    values = seed.generator(LABEL_DRAW).random(2 * n)
    values.setflags(write=False)
    return VertexLabels(n, values)


@dataclass(frozen=True)
class LocalFunctionPair:
    """Radius plus, per side, a ball decider ``decide(adj, labels)`` (the
    rooted ball's adjacency, root first, and its vertices' labels) and the
    vectorised decider that computes it for every vertex at once;
    ``track(base, labels)`` opens the tracker of the 2n decisions (L block
    first) along a path from ``base``.

    Compatibility (the outputs always form an independent set) is a semantic
    property; ``apply_local_pair`` re-verifies it on every application.
    """

    radius: int
    decide_l: DecideFn
    decide_r: DecideFn
    bulk_decide_l: BulkDecideFn
    bulk_decide_r: BulkDecideFn
    track: Callable[[BipartiteGraph, "VertexLabels"], FlipTracker]

    def __post_init__(self):
        if self.radius < 0:
            raise ParameterError("radius must be non-negative")


def pair_decisions(
    graph: BipartiteGraph,
    pair: LocalFunctionPair,
    labels: VertexLabels,
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean decision vectors (L side, R side), without verification."""
    if labels.n != graph.n:
        raise ParameterError(f"labels drawn for n={labels.n}, graph has n={graph.n}")
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


def check_threshold(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"p must lie in [0, 1], got {p}")


def random_threshold_pair(p: float) -> LocalFunctionPair:
    """The 1-local pair with parameter p: an L vertex joins iff its own label
    is at most p; an R vertex joins iff every neighbor's label exceeds p.
    Compatible by construction."""
    check_threshold(p)

    def decide_l(adj: Sequence[Sequence[int]], labels: np.ndarray) -> int:
        return int(labels[0] <= p)

    def decide_r(adj: Sequence[Sequence[int]], labels: np.ndarray) -> int:
        return int(all(labels[u] > p for u in adj[0]))

    def bulk_l(graph: BipartiteGraph, labels: VertexLabels) -> np.ndarray:
        return labels.l <= p

    def bulk_r(graph: BipartiteGraph, labels: VertexLabels) -> np.ndarray:
        blocked = np.zeros(graph.n, dtype=bool)
        low = labels.l <= p
        blocked[graph.er[low[graph.el]]] = True
        return ~blocked

    def track(base: BipartiteGraph, labels: VertexLabels) -> FlipTracker:
        # each R vertex's count of low neighbours (labels at most p); r's
        # decision flips when an add lifts its count to 1 or a removal drops it to 0
        low = labels.l <= p
        is_low, n = low.tolist(), base.n
        count = np.bincount(base.er[low[base.el]], minlength=n).tolist()

        def flip(l: int, r: int, added: bool) -> tuple[tuple[int, float], ...]:
            if not is_low[l]:
                return ()
            count[r] += 1 if added else -1
            return ((n + r, -1.0 if added else 1.0),) if count[r] == added else ()
        return flip

    return LocalFunctionPair(1, decide_l, decide_r, bulk_l, bulk_r, track)


def constant_pair(value_l: int, value_r: int) -> LocalFunctionPair:
    """0-local pair with fixed per-side decisions (e.g. (0, 1) selects all of R).

    (1, 1) is constructible but incompatible on any graph with an edge;
    applying it trips the independence verification.
    """

    def mk(v):
        return lambda adj, labels: v

    def mk_bulk(v):
        return lambda graph, labels: np.full(graph.n, bool(v))

    return LocalFunctionPair(0, mk(value_l), mk(value_r), mk_bulk(value_l), mk_bulk(value_r),
                             lambda base, labels: lambda l, r, added: ())


# ---------------------------------------------------------------------------
# Trimming
# ---------------------------------------------------------------------------


def gamma_trim(subset: VertexSubset, gamma: float) -> VertexSubset:
    """Maximum-cardinality gamma-balanced subset of the input, removing
    vertices from the surplus side only (lowest indices kept)."""
    check_gamma(gamma)
    a2, b2 = max_balanced_pair(subset.count_l, subset.count_r, gamma)
    return VertexSubset(lowest_bits(subset.mask_l, a2), lowest_bits(subset.mask_r, b2))
