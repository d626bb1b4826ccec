"""Interpolation paths, single-flip stability probes, and the overlap-chain
construction and checker.

The path resamples one edge coordinate per step from Ber(d/n), sweeping the
fixed coordinate order cyclically, so the marginal law of every step is the
original random graph and any m consecutive steps refresh every coordinate.
Paths are stored as their flips, the steps that change the graph; a step's
graph is materialized by replaying the flips up to it over the base. Probes
walk a path forward once, applying each flip to a mutable adjacency and
updating the polynomial and its rounding locally; whole graphs are
materialized only for the chain checker and, at flip steps, for a function
without a flip rule.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .balance import EMPTY_SUBSET, VertexSubset, independence_violation
from .errors import ParameterError
from .exact import DEFAULT_ENUMERATION_LIMIT, pareto_profile
from .graph import BipartiteGraph, sample_bipartite_graph
from .local import LocalFunctionPair, VertexLabels, pair_decisions
from .lowdeg import _as_factory, check_polynomial_output, rounding_fails
from .rng import AUX_STREAM_OFFSET, RESAMPLE_DRAW, RandomSeed, check_trial_streams
from .stats import wilson_interval

# Counting comparisons against real thresholds get this slack; it keeps the
# greedy selector and the chain checker consistent at exact-boundary values.
COUNT_TOLERANCE = 1e-9


def coordinate_at_step(n: int, t: int) -> int:
    """Cyclic coordinate schedule over [1, n^2]: step t resamples t - k*m."""
    if t < 1:
        raise ParameterError(f"steps are numbered from 1, got {t}")
    m = n * n
    return (t - 1) % m + 1


@dataclass(frozen=True, eq=False)
class InterpolationPath:
    """Base graph, path length T and the steps whose resample changes the
    graph, as read-only arrays ``flips = (t, l, r, added)``. Step t resamples
    the coordinate of ``coordinate_at_step``; a step that redraws the current
    bit changes nothing and is left out."""

    base: BipartiteGraph
    d: float
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


def build_interpolation_path(
    base: BipartiteGraph, T: int, d: float, seed: RandomSeed,
) -> InterpolationPath:
    """Draw all T resample bits up front (a bit is drawn even when it repeats
    the current value, matching the resampling law and keeping seed
    accounting trivial) and keep only the steps that flip an edge."""
    if T < 0:
        raise ParameterError(f"path length must be non-negative, got {T}")
    n = base.n
    if not (0.0 < d < n):
        raise ParameterError(f"d must satisfy 0 < d < n, got d={d}, n={n}")
    bits = seed.generator(RESAMPLE_DRAW).random(T) < d / n
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
    return InterpolationPath(base=base, d=d, length=T, flips=flips)


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


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
        if self.c <= 0:
            raise ParameterError("c must be positive")
        if self.gamma_steps < 1:
            raise ParameterError("gamma_steps must be a positive integer")
        if self.degree < 1:
            raise ParameterError("degree must be a positive integer")
        if self.norm_estimate <= 0:
            raise ParameterError("norm_estimate must be positive")

    @property
    def badness_threshold(self) -> float:
        return self.c * self.norm_estimate

    def probability_floor(self, n: int, d: float) -> float:
        return (d / n) ** (4.0 * self.gamma_steps * self.degree / self.c)


def detect_bad_steps(f, path: InterpolationPath, config: StabilityConfig) -> list[int]:
    """Steps t whose single-coordinate flip moves f by at least
    c * norm_estimate in squared norm. Exact, no sampling within a step.

    One pass over the path's flips: a step that changes no edge moves nothing
    and is never bad, as the threshold is positive. A flip's move comes from
    the polynomial's flip rule when it has one; otherwise f is evaluated on
    the materialized graph of each flip step.
    """
    threshold = config.badness_threshold
    steps, ls, rs, added = (a.tolist() for a in path.flips)
    if hasattr(f, "flip_rule"):
        return [t for t, l, r, a in zip(steps, ls, rs, added)
                if sum(dv * dv for _, dv in f.flip_rule(l, r, a)) >= threshold]
    bad: list[int] = []
    prev = check_polynomial_output(f.evaluate(path.base), path.n)
    for t in steps:
        cur = check_polynomial_output(f.evaluate(path.materialize(t)), path.n)
        diff = cur - prev
        if float(diff @ diff) >= threshold:
            bad.append(t)
        prev = cur
    return bad


def walk_rounded_subsets(f, path: InterpolationPath, eta: float) -> Iterator[VertexSubset]:
    """For t = 0..T in order, the set that
    ``round_polynomial(f.evaluate(path.materialize(t)), path.materialize(t), eta)``
    keeps, or EMPTY_SUBSET where that rounding fails.

    The path is walked forward once. Each flip updates per-vertex neighbour
    sets, the outputs named by ``f.flip_rule`` (whose changes must be exact),
    each vertex's count of neighbours in I = {v : value >= 1}, and the running
    conflicted and fractional totals; a flip touches only l, r and the
    neighbours of a vertex that enters or leaves I. Steps without a flip
    yield the same subset object as the step before.
    """
    if eta < 0:
        raise ParameterError(f"eta must be non-negative, got {eta}")
    if not hasattr(f, "flip_rule"):
        raise ParameterError(f"{type(f).__name__} has no flip rule to walk a path with")
    values = check_polynomial_output(f.evaluate(path.base), path.n)
    return _walk(f, path, values.tolist(), eta)


def _walk(f, path: InterpolationPath, values: list, eta: float) -> Iterator[VertexSubset]:
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
    current = rounded()
    t = 0
    for step, l, r, added in zip(*(a.tolist() for a in path.flips)):
        yield from itertools.repeat(current, step - t)
        t = step
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
        for v, delta in f.flip_rule(l, r, added):
            old = values[v]
            new = values[v] = old + float(delta)
            frac += (0.5 < new < 1.0) - (0.5 < old < 1.0)
            if (new >= 1.0) != in_i[v]:
                in_i[v] = new >= 1.0
                for u in adj[v]:
                    count[u] += 1 if in_i[v] else -1
                    place(u)
                place(v)
        current = rounded()
    yield from itertools.repeat(current, path.length + 1 - t)


@dataclass(frozen=True)
class StabilityReport:
    trials: int
    no_bad_count: int
    empirical_probability: float
    wilson_low: float
    wilson_high: float
    floor: float
    norm_estimate: float

    @property
    def above_floor(self) -> bool:
        return self.empirical_probability >= self.floor


def stability_trial(
    make_f,
    n: int,
    d: float,
    gamma_steps: int,
    c: float,
    degree: int,
    trials: int,
    seed: RandomSeed,
    norm_estimate: Optional[float] = None,
    norm_trials: int = 30,
    step_budget: int = 20_000_000,
) -> StabilityReport:
    """Empirical probability that a length gamma_steps*n^2 path has no bad
    step, against the floor (d/n)^(4*gamma_steps*degree/c).

    ``make_f`` is a factory called with the per-trial seed (coefficient
    randomness, labels of a wrapped local pair, ...). When ``norm_estimate``
    is omitted it is measured first, on the streams reserved for auxiliary
    estimates (``seed.shifted(AUX_STREAM_OFFSET)`` on).
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    total_steps = gamma_steps * n * n * trials
    if total_steps > step_budget:
        warnings.warn(
            f"stability_trial will evaluate {total_steps} path steps, above the "
            f"budget of {step_budget}; expect a long run", stacklevel=2)
    if norm_estimate is None:
        from .lowdeg import norm_second_moment

        check_trial_streams(trials)
        norm_estimate, _ = norm_second_moment(
            make_f, n, d, trials=norm_trials, seed=seed.shifted(AUX_STREAM_OFFSET))
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
    degree: int = 1

    @property
    def n(self) -> int:
        return self.labels.n

    def evaluate(self, graph: BipartiteGraph) -> np.ndarray:
        sel_l, sel_r = pair_decisions(graph, self.pair, self.labels)
        return np.concatenate([sel_l, sel_r]).astype(float)


# ---------------------------------------------------------------------------
# The overlap chain: greedy construction and per-condition checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapChainParams:
    """Scale parameters for the overlap chain: epsilon, chain length K, and
    the density scale phi = (log d / d) * n.

    The probability analysis wants K >= ceil(9/epsilon^2) + 1; the mechanics
    of the constructor and checker work for any K >= 2, so that bound is
    exposed as a property rather than enforced.
    """

    epsilon: float
    K: int
    phi: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if self.K < 2:
            raise ParameterError("K must be at least 2")
        if self.phi <= 0:
            raise ParameterError("phi must be positive")

    @staticmethod
    def for_scale(epsilon: float, K: int, n: int, d: float) -> "OverlapChainParams":
        if d <= 1:
            raise ParameterError("d must exceed 1 for a positive density scale")
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

    @property
    def satisfies_chain_length_bound(self) -> bool:
        return self.K >= math.ceil(9.0 / self.epsilon**2) + 1


@dataclass(frozen=True)
class GreedyChainResult:
    sets: tuple[VertexSubset, ...]
    timestamps: tuple[int, ...]
    success: bool


def greedy_overlap_chain(
    path_sets: Iterable[VertexSubset], params: OverlapChainParams,
) -> GreedyChainResult:
    """Greedy selection along the path: the first set is kept outright, then
    each next pick is the first set contributing at least (epsilon/4)*phi
    vertices outside the union so far. Succeeds iff K sets are selected.

    ``path_sets`` is any iterable of the sets at t = 0, 1, ...; no set is
    pulled after the K-th pick.
    """
    sets_at = iter(path_sets)
    first = next(sets_at, None)
    if first is None:
        raise ParameterError("path_sets must be non-empty")
    threshold = params.new_mass_min - COUNT_TOLERANCE
    sets = [first]
    timestamps = [0]
    union = first
    last = None
    for t, v in enumerate(sets_at, start=1):
        if v is not last:  # a walk repeats one object until its set changes
            last = v
            new_mass = ((v.mask_l & ~union.mask_l).bit_count()
                        + (v.mask_r & ~union.mask_r).bit_count())
        if new_mass >= threshold:
            sets.append(v)
            timestamps.append(t)
            union = union.union(v)
            last = None
            if len(sets) == params.K:
                break
    return GreedyChainResult(tuple(sets), tuple(timestamps), len(sets) == params.K)


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

    @property
    def present(self) -> bool:
        return self.condition1 and self.condition2 and self.condition3

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
    for t in timestamps:
        if not (0 <= t <= path.length):
            raise ParameterError(f"timestamp {t} outside [0, {path.length}]")
    ind_ok = []
    witnesses = []
    for s, t in zip(sets, timestamps):
        w = independence_violation(path.materialize(t), s)
        ind_ok.append(w is None)
        witnesses.append(w)
    dens_min = params.density_min - COUNT_TOLERANCE
    density_ok = [s.count_l >= dens_min and s.count_r >= dens_min for s in sets]
    new_mass_ok = [True]
    new_masses = [sets[0].size if sets else 0]
    union = sets[0] if sets else EMPTY_SUBSET
    for s in sets[1:]:
        mass = (s.mask_l & ~union.mask_l).bit_count() + (s.mask_r & ~union.mask_r).bit_count()
        new_masses.append(mass)
        new_mass_ok.append(
            params.new_mass_min - COUNT_TOLERANCE <= mass <= params.new_mass_max + COUNT_TOLERANCE)
        union = union.union(s)
    return OverlapChainReport(
        independent_ok=tuple(ind_ok),
        independence_witnesses=tuple(witnesses),
        density_ok=tuple(density_ok),
        new_mass_ok=tuple(new_mass_ok),
        new_masses=tuple(new_masses),
    )


# ---------------------------------------------------------------------------
# Pareto balance probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceProbeReport:
    trials: int
    violating_graphs: int
    violation_rate: float
    wilson_low: float
    wilson_high: float


def profile_violates_balance_inequality(graph: BipartiteGraph, d: float,
                                        limit: int = DEFAULT_ENUMERATION_LIMIT) -> bool:
    """Does any Pareto-profile point of the graph, in units of (log d / d)*n,
    have sum of side densities strictly below their product?"""
    if d <= 1:
        raise ParameterError("d must exceed 1 for a positive density scale")
    scale = math.log(d) / d * graph.n
    profile = pareto_profile(graph, limit=limit)
    for a, b in profile.entries:
        al = a / scale
        ar = b / scale
        if al + ar < al * ar:
            return True
    return False


def balance_inequality_probe(
    n: int, d: float, trials: int, seed: RandomSeed,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> BalanceProbeReport:
    """Fraction of sampled graphs whose Pareto profile (which dominates every
    independent set) contains a sum-below-product point. Reported with a
    Wilson interval, never asserted: the inequality is asymptotic in d."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    violations = 0
    for t in range(trials):
        graph = sample_bipartite_graph(n, d, seed.shifted(t))
        if profile_violates_balance_inequality(graph, d, limit=limit):
            violations += 1
    lo, hi = wilson_interval(violations, trials)
    return BalanceProbeReport(
        trials=trials,
        violating_graphs=violations,
        violation_rate=violations / trials,
        wilson_low=lo,
        wilson_high=hi,
    )
