"""Interpolation paths, single-flip stability probes, and the overlap-chain
construction and checker.

The path resamples one edge coordinate per step from Ber(d/n), sweeping the
fixed coordinate order cyclically, so the marginal law of every step is the
original random graph and any m consecutive steps refresh every coordinate.
Paths are stored as their flips, the steps that change the graph; a step's
graph is materialized by replaying the flips up to it over the base. Probes
walk a path forward once, applying each flip to a mutable adjacency and
updating the function through its tracker and its rounding locally, and
the greedy overlap chain reads the rounded sets one segment per flip; whole
graphs are materialized only for the chain checker.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .analysis import check_density_scale
from .balance import EMPTY_SUBSET, VertexSubset, independence_violation
from .errors import ParameterError
from .graph import BipartiteGraph, check_degree, sample_bipartite_graph
from .local import LocalFunctionPair, VertexLabels, pair_decisions
from .lowdeg import (FlipTracker, _as_factory, check_eta, check_polynomial_output,
                     norm_second_moment, rounding_fails)
from .rng import (NORM_TRIALS, RESAMPLE_DRAW, RandomSeed, check_trial_count,
                  check_trial_streams)
from .stats import wilson_interval

# Counting comparisons against real thresholds get this slack; it keeps the
# greedy selector and the chain checker consistent at exact-boundary values.
COUNT_TOLERANCE = 1e-9
_STEP_BUDGET = 20_000_000  # stability_trial warns before a run of more path steps


@dataclass(frozen=True, eq=False)
class InterpolationPath:
    """Base graph, path length T and the steps whose resample changes the
    graph, as read-only arrays ``flips = (t, l, r, added)``. Step t >= 1
    resamples the edge coordinate (t - 1) mod n^2; a step that redraws the
    current bit changes nothing and is left out."""

    base: BipartiteGraph
    length: int
    flips: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def n(self) -> int:
        return self.base.n

    def edge_coordinates_at(self, t: int) -> np.ndarray:
        """Sorted 0-based edge coordinates of the step-t graph: the base with
        each flip up to t toggling its coordinate, so a coordinate is an edge
        when it occurs an odd number of times among the base and the flips."""
        if not (0 <= t <= self.length):
            raise ParameterError(f"t must lie in [0, {self.length}], got {t}")
        steps, l, r, _ = self.flips
        k = np.searchsorted(steps, t, side="right")
        coords, counts = np.unique(np.concatenate((self.base.coords, l[:k] * self.n + r[:k])),
                                   return_counts=True)
        return coords[counts % 2 == 1]

    def materialize(self, t: int) -> BipartiteGraph:
        if t == 0:
            return self.base
        return BipartiteGraph(self.n, self.edge_coordinates_at(t))


_BITS_CHUNK = 1 << 22


def build_interpolation_path(
    base: BipartiteGraph, T: int, d: float, seed: RandomSeed,
) -> InterpolationPath:
    """Draw all T resample bits up front (a bit is drawn even when it repeats
    the current value, matching the resampling law and keeping seed
    accounting trivial) and keep only the steps that flip an edge. The
    uniforms behind the bits are drawn ``_BITS_CHUNK`` at a time, which gives
    the doubles of one ``random(T)`` call without holding T of them."""
    if T < 0:
        raise ParameterError(f"path length must be non-negative, got {T}")
    n = base.n
    check_degree(n, d)
    rng = seed.generator(RESAMPLE_DRAW)
    bits = np.empty(T, dtype=bool)
    for start in range(0, T, _BITS_CHUNK):
        chunk = bits[start:start + _BITS_CHUNK]
        np.less(rng.random(chunk.size), d / n, out=chunk)
    # step t + 1 visits coordinate t mod m: its old bit is bits[t - m] after
    # the first sweep and a base bit within it
    m = n * n
    first = min(T, m)
    changed = bits.copy()
    changed[first:] ^= bits[:T - first]
    coords = base.coords
    changed[coords[coords < first]] ^= True
    steps = np.flatnonzero(changed)
    flips = (steps + 1, *np.divmod(steps % m, n), bits[steps])
    for a in flips:
        a.setflags(write=False)
    return InterpolationPath(base=base, length=T, flips=flips)


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def check_stability_params(c: float, gamma_steps: int) -> None:
    """The badness threshold factor c and the path length in units of n^2."""
    if not c > 0:
        raise ParameterError("c must be positive")
    if gamma_steps < 1:
        raise ParameterError("gamma_steps must be a positive integer")


@dataclass(frozen=True)
class StabilityConfig:
    """Threshold bookkeeping for single-flip stability.

    ``norm_estimate`` stands in for the exact expectation E||f||^2, which is
    unavailable; reports carry the substituted value.
    """

    c: float
    gamma_steps: int
    degree: int
    norm_estimate: float

    def __post_init__(self):
        check_stability_params(self.c, self.gamma_steps)
        if self.degree < 1:
            raise ParameterError("degree must be a positive integer")
        if not self.norm_estimate > 0:
            raise ParameterError("norm_estimate must be positive")

    @property
    def badness_threshold(self) -> float:
        return self.c * self.norm_estimate

    def probability_floor(self, n: int, d: float) -> float:
        return (d / n) ** (4.0 * self.gamma_steps * self.degree / self.c)


def detect_bad_steps(f, path: InterpolationPath, config: StabilityConfig) -> list[int]:
    """Steps t whose single-coordinate flip moves f by at least
    c * norm_estimate in squared norm. Exact, no sampling within a step.

    One pass over f's tracker along the path's flips: a step that changes no
    edge moves nothing and is never bad, as the threshold is positive.
    """
    threshold = config.badness_threshold
    flip, _ = _tracker(f, path)
    return [t for t, l, r, added in zip(*(a.tolist() for a in path.flips))
            if sum(dv * dv for _, dv in flip(l, r, added)) >= threshold]


def _tracker(f, path: InterpolationPath) -> tuple[FlipTracker, np.ndarray]:
    """f's tracker opened on the path's base graph, and f's checked values there."""
    if not hasattr(f, "track"):
        raise ParameterError(f"{type(f).__name__} has no tracker to walk a path with")
    values = check_polynomial_output(f.evaluate(path.base), path.n)
    return f.track(path.base), values


def walk_rounded_subsets(f, path: InterpolationPath, eta: float) -> Iterator[tuple[int, int, VertexSubset]]:
    """Segments ``(start, stop, subset)``, one from t = 0 and one from each
    flip's step, contiguous up to T + 1: at each t in [start, stop) the set
    that ``round_polynomial(f.evaluate(path.materialize(t)), path.materialize(t), eta)``
    keeps, or EMPTY_SUBSET where that rounding fails.

    The path is walked forward once. Each flip updates per-vertex neighbour
    sets, the outputs named by f's tracker (whose changes must be exact),
    each vertex's count of neighbours in I = {v : value >= 1}, and the running
    conflicted and fractional totals; a flip touches only l, r and the
    neighbours of a vertex that enters or leaves I.
    """
    check_eta(eta)
    flip, values = _tracker(f, path)
    return _walk(flip, path, values.tolist(), eta)


def _walk(flip: FlipTracker, path: InterpolationPath, values: list,
          eta: float) -> Iterator[tuple[int, int, VertexSubset]]:
    n = path.n
    # vertices are numbered as the polynomial's outputs: L is 0..n-1, R is n..2n-1
    adj: list[set] = [set() for _ in range(2 * n)]
    for l, w in zip(path.base.el.tolist(), (path.base.er + n).tolist()):
        adj[l].add(w)
        adj[w].add(l)
    in_i = [v >= 1.0 for v in values]
    frac = sum(0.5 < v < 1.0 for v in values)
    count = [sum(in_i[u] for u in adj[v]) for v in range(2 * n)]
    kept = [0, 0]  # per side, a mask over the indices within the side
    conflicted: set = set()

    def place(v):
        side, i = divmod(v, n)
        kept[side] &= ~(1 << i)
        conflicted.discard(v)
        if in_i[v] and count[v]:
            conflicted.add(v)
        elif in_i[v]:
            kept[side] |= 1 << i

    def rounded():
        if rounding_fails(len(conflicted), frac, eta, n):
            return EMPTY_SUBSET
        return VertexSubset(*kept)

    for v in range(2 * n):
        place(v)
    start = 0
    for step, l, r, added in zip(*(a.tolist() for a in path.flips)):
        yield start, step, rounded()
        start = step
        w = n + r
        sign = 1 if added else -1
        if added:
            adj[l].add(w)
            adj[w].add(l)
        else:
            adj[l].discard(w)
            adj[w].discard(l)
        if in_i[w]:
            count[l] += sign
            place(l)
        if in_i[l]:
            count[w] += sign
            place(w)
        for v, delta in flip(l, r, added):
            old = values[v]
            new = values[v] = old + float(delta)
            frac += (0.5 < new < 1.0) - (0.5 < old < 1.0)
            if (new >= 1.0) != in_i[v]:
                in_i[v] = new >= 1.0
                for u in adj[v]:
                    count[u] += 1 if in_i[v] else -1
                    place(u)
                place(v)
    yield start, path.length + 1, rounded()


@dataclass(frozen=True)
class StabilityReport:
    trials: int
    no_bad_count: int
    empirical_probability: float
    wilson_low: float
    wilson_high: float
    floor: float
    norm_estimate: float


def stability_trial(
    make_f,
    n: int,
    d: float,
    gamma_steps: int,
    c: float,
    degree: int,
    trials: int,
    seed: RandomSeed,
) -> StabilityReport:
    """Empirical probability that a length gamma_steps*n^2 path has no bad
    step, against the floor (d/n)^(4*gamma_steps*degree/c).

    ``make_f`` is a factory called with the per-trial seed (coefficient
    randomness, labels of a wrapped local pair, ...). The norm estimate is
    measured first, over NORM_TRIALS graphs on the first block of streams
    reserved for norm estimates (``seed.norm_block()`` on).
    """
    check_trial_count(trials)
    total_steps = gamma_steps * n * n * trials
    if total_steps > _STEP_BUDGET:
        warnings.warn(
            f"stability_trial will evaluate {total_steps} path steps, above the "
            f"budget of {_STEP_BUDGET}; expect a long run", stacklevel=2)
    check_trial_streams(trials)
    norm_estimate, _ = norm_second_moment(
        make_f, n, d, trials=NORM_TRIALS, seed=seed.norm_block())
    config = StabilityConfig(c=c, gamma_steps=gamma_steps, degree=degree,
                             norm_estimate=norm_estimate)
    T = gamma_steps * n * n
    factory = _as_factory(make_f)
    good = 0
    for t in range(trials):
        trial_seed = seed.shifted(t)
        f = factory(trial_seed)
        base = sample_bipartite_graph(n, d, trial_seed)
        path = build_interpolation_path(base, T, d, trial_seed)
        if not detect_bad_steps(f, path, config):
            good += 1
    p = good / trials
    lo, hi = wilson_interval(good, trials)
    return StabilityReport(
        trials=trials,
        no_bad_count=good,
        empirical_probability=p,
        wilson_low=lo,
        wilson_high=hi,
        floor=config.probability_floor(n, d),
        norm_estimate=norm_estimate,
    )


@dataclass(frozen=True, eq=False)
class LocalPairVectorFunction:
    """A compatible pair with frozen labels, viewed as a 0/1-valued vector
    function of the graph (for stability probes)."""

    pair: LocalFunctionPair
    labels: VertexLabels

    def evaluate(self, graph: BipartiteGraph) -> np.ndarray:
        sel_l, sel_r = pair_decisions(graph, self.pair, self.labels)
        return np.concatenate([sel_l, sel_r]).astype(float)

    def track(self, base: BipartiteGraph) -> FlipTracker:
        return self.pair.track(base, self.labels)


# ---------------------------------------------------------------------------
# The overlap chain: greedy construction and per-condition checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapChainParams:
    """Scale parameters for the overlap chain: epsilon, chain length K, and
    the density scale phi = (log d / d) * n.

    The probability analysis wants K >= ceil(9/epsilon^2) + 1; the mechanics
    of the constructor and checker work for any K >= 2, so that bound is
    documented here but neither enforced nor reported.
    """

    epsilon: float
    K: int
    phi: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ParameterError("epsilon must be positive")
        if self.K < 2:
            raise ParameterError("K must be at least 2")
        if not self.phi > 0:
            raise ParameterError("phi must be positive")

    @staticmethod
    def for_scale(epsilon: float, K: int, n: int, d: float) -> "OverlapChainParams":
        check_density_scale(d)
        return OverlapChainParams(epsilon, K, math.log(d) / d * n)

    @property
    def new_mass_min(self) -> float:
        return self.epsilon / 4.0 * self.phi

    @property
    def new_mass_max(self) -> float:
        return self.epsilon / 2.0 * self.phi

    @property
    def density_min(self) -> float:
        return (1.0 + self.epsilon) * self.phi


@dataclass(frozen=True)
class GreedyChainResult:
    sets: tuple[VertexSubset, ...]
    timestamps: tuple[int, ...]
    success: bool


def _new_mass(s: VertexSubset, union: VertexSubset) -> int:
    return (s.mask_l & ~union.mask_l).bit_count() + (s.mask_r & ~union.mask_r).bit_count()


def greedy_chain_over_segments(
    segments: Iterable[tuple[int, int, VertexSubset]], params: OverlapChainParams,
) -> GreedyChainResult:
    """Greedy selection along the path's segments, as ``walk_rounded_subsets``
    yields them: the set at t = 0 is kept outright, then each next pick is the
    first step whose set has at least (epsilon/4)*phi vertices outside the
    union so far. Succeeds iff K sets are selected; no segment is pulled
    after the K-th pick. A segment is tested at its start and, after a pick
    at t, again at t + 1 inside it, where its set adds nothing to the union."""
    threshold = params.new_mass_min - COUNT_TOLERANCE
    sets, timestamps, union = [], [], EMPTY_SUBSET
    for start, stop, v in segments:
        for t in range(start, stop):
            if sets and _new_mass(v, union) < threshold:
                break
            sets.append(v)
            timestamps.append(t)
            union = union.union(v)
            if len(sets) == params.K:
                return GreedyChainResult(tuple(sets), tuple(timestamps), True)
    if not sets:
        raise ParameterError("the path must have at least one step")
    return GreedyChainResult(tuple(sets), tuple(timestamps), False)


def greedy_overlap_chain(
    path_sets: Iterable[VertexSubset], params: OverlapChainParams,
) -> GreedyChainResult:
    """``greedy_chain_over_segments`` with the set at each t = 0, 1, ... as a
    segment of one step, for per-step callers such as the benchmark's
    re-enactment of the ``ogp`` trial, which the ROADMAP's stage timers delete."""
    return greedy_chain_over_segments(((t, t + 1, v) for t, v in enumerate(path_sets)), params)


@dataclass(frozen=True)
class OverlapChainReport:
    """Per-condition verdicts for a candidate chain.

    Condition 1: each set is independent in its timestamped graph.
    Condition 2: each set has at least (1+epsilon)*phi vertices on both sides.
    Condition 3: each later set contributes new mass in
                 [(epsilon/4)*phi, (epsilon/2)*phi].
    """

    independent_ok: tuple[bool, ...]
    independence_witnesses: tuple[Optional[tuple[int, int]], ...]
    density_ok: tuple[bool, ...]
    new_mass_ok: tuple[bool, ...]
    new_masses: tuple[int, ...]

    @property
    def condition1(self) -> bool:
        return all(self.independent_ok)

    @property
    def condition2(self) -> bool:
        return all(self.density_ok)

    @property
    def condition3(self) -> bool:
        return all(self.new_mass_ok)

    def conditions_bitmask(self) -> int:
        return (1 if self.condition1 else 0) | (2 if self.condition2 else 0) | (4 if self.condition3 else 0)


def check_overlap_chain(
    sets: Sequence[VertexSubset],
    timestamps: Sequence[int],
    path: InterpolationPath,
    params: OverlapChainParams,
) -> OverlapChainReport:
    """Verify the three chain conditions independently and report which fail."""
    if len(sets) != len(timestamps):
        raise ParameterError("sets and timestamps must have equal length")
    if not sets:
        raise ParameterError("a chain must hold at least one set")
    ind_ok = []
    witnesses = []
    for s, t in zip(sets, timestamps):
        w = independence_violation(path.materialize(t), s)
        ind_ok.append(w is None)
        witnesses.append(w)
    dens_min = params.density_min - COUNT_TOLERANCE
    density_ok = [s.count_l >= dens_min and s.count_r >= dens_min for s in sets]
    new_masses, union = [], EMPTY_SUBSET
    for s in sets:
        new_masses.append(_new_mass(s, union))
        union = union.union(s)
    low, high = params.new_mass_min - COUNT_TOLERANCE, params.new_mass_max + COUNT_TOLERANCE
    new_mass_ok = [True] + [low <= mass <= high for mass in new_masses[1:]]
    return OverlapChainReport(
        independent_ok=tuple(ind_ok),
        independence_witnesses=tuple(witnesses),
        density_ok=tuple(density_ok),
        new_mass_ok=tuple(new_mass_ok),
        new_masses=tuple(new_masses),
    )
