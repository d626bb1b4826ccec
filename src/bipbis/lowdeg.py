"""Degree-bounded polynomial algorithms over the edge-indicator vector.

A polynomial here is any object with ``n`` and ``evaluate(graph)``, an
ndarray of shape (2n,) (L block first). The path probes walk with its
tracker, ``track(base) -> flip``: called in path order from the graph
``base``, ``flip(l, r, added)`` returns the exact (index, change) pairs of
the outputs that adding (or removing) the edge (l, r) changes. The rounding
procedure thresholds at 1, drops vertices with a selected neighbor, and fails
when the number of dropped vertices plus values strictly between 1/2 and 1
exceeds eta * n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

from .balance import VertexSubset, pack_bits
from .errors import ParameterError
from .graph import BipartiteGraph, sample_bipartite_graph, sample_edge_coordinates
from .rng import GRAPH_DRAW, NORM_TRIALS, POLY_DRAW, RandomSeed, check_trial_count

# Comparisons against eta*n get this much slack so a float-boundary eta*n
# can never flip an integer count across the threshold.
ETA_TOLERANCE = 1e-9
FlipTracker = Callable[[int, int, bool], tuple]


def check_polynomial_output(values: np.ndarray, n: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (2 * n,):
        raise ParameterError(f"polynomial output must have length 2n = {2 * n}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ParameterError("polynomial output contains non-finite values")
    return values


@dataclass(frozen=True, eq=False)
class LinearBlockingPolynomial:
    """Degree-1 construction: value 1 on a fixed k_l-subset of L, 0 on the
    rest of L, and 1 minus the count of selected-L neighbors on each R vertex.
    L values do not depend on the graph at all."""

    n: int
    chosen_l: np.ndarray  # sorted indices, |chosen_l| = k_l

    def evaluate(self, graph: BipartiteGraph) -> np.ndarray:
        if graph.n != self.n:
            raise ParameterError(f"graph has n={graph.n}, polynomial built for n={self.n}")
        values = np.zeros(2 * self.n)
        values[self.chosen_l] = 1.0
        mask = np.zeros(self.n, dtype=bool)
        mask[self.chosen_l] = True
        values[self.n:] = 1.0 - np.bincount(graph.er[mask[graph.el]], minlength=self.n)
        return values

    def track(self, base: BipartiteGraph) -> FlipTracker:
        """Only the R value of r moves, by one, and only if l is chosen."""
        chosen, n = frozenset(self.chosen_l.tolist()), self.n
        return lambda l, r, added: ((n + r, -1.0 if added else 1.0),) if l in chosen else ()


def _check_subset_size(n: int, k: int, name: str = "k_l") -> None:
    if not (0 <= k <= n):
        raise ParameterError(f"{name} must lie in [0, n], got {name}={k}, n={n}")


def choose_blocking_subset(n: int, k_l: int, rng: np.random.Generator) -> np.ndarray:
    """The sorted k_l-subset of L that the linear blocking polynomial selects,
    by a shuffle drawn from ``rng``, a seed's POLY_DRAW generator."""
    _check_subset_size(n, k_l)
    return np.sort(rng.permutation(n)[:k_l])


def linear_blocking_polynomial(n: int, k_l: int, seed: RandomSeed) -> LinearBlockingPolynomial:
    """Pick the selected L-subset by a seeded shuffle, independent of any graph."""
    chosen = choose_blocking_subset(n, k_l, seed.generator(POLY_DRAW))
    chosen.setflags(write=False)
    return LinearBlockingPolynomial(n=n, chosen_l=chosen)


@dataclass(frozen=True)
class LeftIndicatorPolynomial:
    """Degree-0 constant vector: 1 on every L vertex, 0 on every R vertex."""

    n: int

    def evaluate(self, graph: BipartiteGraph) -> np.ndarray:
        if graph.n != self.n:
            raise ParameterError(f"graph has n={graph.n}, polynomial built for n={self.n}")
        values = np.zeros(2 * self.n)
        values[: self.n] = 1.0
        return values

    def track(self, base: BipartiteGraph) -> FlipTracker:
        return lambda l, r, added: ()


def left_indicator_polynomial(n: int) -> LeftIndicatorPolynomial:
    return LeftIndicatorPolynomial(n=n)


# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundingOutcome:
    """Result of thresholded rounding; ``subset`` is None exactly on failure.

    ``conflicted_count`` is the number of selected vertices dropped for having
    a selected neighbor; ``fractional_count`` is the number of values strictly
    inside (1/2, 1).
    """

    subset: Optional[VertexSubset]
    conflicted_count: int
    fractional_count: int

    @property
    def failed(self) -> bool:
        return self.subset is None


def rounding_fails(conflicted: int, fractional: int, eta: float, n: int) -> bool:
    """The failure rule: the dropped vertices plus the fractional values
    exceed the error budget eta * n."""
    return conflicted + fractional > eta * n + ETA_TOLERANCE


def check_eta(eta: float) -> None:
    if not eta >= 0:
        raise ParameterError(f"eta must be non-negative, got {eta}")


def round_polynomial(values: np.ndarray, graph: BipartiteGraph, eta: float) -> RoundingOutcome:
    """Threshold at 1, drop conflicted vertices, fail when the error budget
    eta*n is exceeded. Deterministic in (values, graph, eta)."""
    check_eta(eta)
    n = graph.n
    values = check_polynomial_output(values, n)
    in_i_l = values[:n] >= 1.0
    in_i_r = values[n:] >= 1.0
    frac = int(np.count_nonzero((values > 0.5) & (values < 1.0)))
    both = in_i_l[graph.el] & in_i_r[graph.er]
    conflicted_l = np.unique(graph.el[both])
    conflicted_r = np.unique(graph.er[both])
    conflicted = int(conflicted_l.size + conflicted_r.size)
    if rounding_fails(conflicted, frac, eta, n):
        return RoundingOutcome(None, conflicted, frac)
    in_i_l[conflicted_l] = False
    in_i_r[conflicted_r] = False
    return RoundingOutcome(VertexSubset(pack_bits(in_i_l), pack_bits(in_i_r)), conflicted, frac)


# ---------------------------------------------------------------------------
# Optimization checks
# ---------------------------------------------------------------------------

PolynomialFactory = Callable[[RandomSeed], Any]


def _as_factory(polynomial) -> PolynomialFactory:
    if callable(polynomial) and not hasattr(polynomial, "evaluate"):
        return polynomial
    return lambda _seed: polynomial


def _evaluations(polynomial, n: int, d: float, trials: int,
                 seed: RandomSeed) -> Iterator[tuple[BipartiteGraph, np.ndarray, float]]:
    """For t = 0, ..., trials - 1, the graph sampled on ``seed.shifted(t)``,
    the polynomial's checked output on it and that output's squared norm."""
    factory = _as_factory(polynomial)
    for t in range(trials):
        trial_seed = seed.shifted(t)
        f = factory(trial_seed)
        graph = sample_bipartite_graph(n, d, trial_seed)
        values = check_polynomial_output(f.evaluate(graph), n)
        yield graph, values, float(values @ values)


@dataclass(frozen=True)
class OptimizationReport:
    trials: int
    success_rate: float
    failure_count: int          # FAILURE outcomes from rounding
    norm_mean: float            # measured E ||f||^2
    norm_ci: float              # 1.96 * stderr
    norm_threshold: float       # xi * (k_l + k_r)
    norm_bound_holds: bool

    def __post_init__(self):
        if not (0.0 <= self.success_rate <= 1.0):
            raise ParameterError("success_rate must lie in [0, 1]")


def check_optimization(
    polynomial,
    n: int,
    d: float,
    k_l: int,
    k_r: int,
    xi: float,
    eta: float,
    trials: int,
    seed: RandomSeed,
) -> OptimizationReport:
    """Monte Carlo check of the two optimization conditions: the norm bound
    E||f||^2 <= xi*(k_l + k_r) and the probability of reaching both side-size
    targets after rounding.

    ``polynomial`` is either a fixed evaluator or a factory called with a
    per-trial seed (for coefficient randomness).
    """
    check_trial_count(trials)
    norms = np.empty(trials)
    successes = 0
    failures = 0
    for t, (graph, values, norm) in enumerate(_evaluations(polynomial, n, d, trials, seed)):
        norms[t] = norm
        outcome = round_polynomial(values, graph, eta)
        if outcome.failed:
            failures += 1
            continue
        if outcome.subset.count_l >= k_l and outcome.subset.count_r >= k_r:
            successes += 1
    norm_mean = float(norms.mean())
    stderr = 0.0 if trials == 1 else float(norms.std(ddof=1) / math.sqrt(trials))
    threshold = xi * (k_l + k_r)
    return OptimizationReport(
        trials=trials,
        success_rate=successes / trials,
        failure_count=failures,
        norm_mean=norm_mean,
        norm_ci=1.96 * stderr,
        norm_threshold=threshold,
        norm_bound_holds=bool(norm_mean <= threshold),
    )


def _mean_and_ci(norms: np.ndarray) -> tuple[float, float]:
    """The mean of the sampled squared norms and its normal-approximation 95%
    half-width."""
    return (float(norms.mean()),
            float(1.96 * norms.std(ddof=1) / math.sqrt(norms.size)))


def norm_second_moment(
    polynomial,
    n: int,
    d: float,
    trials: int,
    seed: RandomSeed,
) -> tuple[float, float]:
    """Empirical E||f(A)||^2 with a normal-approximation 95% half-width."""
    if trials < 30:
        raise ParameterError("trials must be >= 30 for the normal approximation")
    return _mean_and_ci(np.array([norm for _, _, norm in _evaluations(polynomial, n, d, trials, seed)]))


def blocking_norm_estimate(n: int, d: float, k_l: int, seed: RandomSeed) -> tuple[float, float]:
    """``norm_second_moment`` of ``lambda s: linear_blocking_polynomial(n,
    k_l, s)`` over NORM_TRIALS trials, read from each trial's edge
    coordinates and chosen subset without building a graph or a polynomial.

    On a graph, ||f||^2 = k_l + sum_r (1 - c_r)^2, where c_r counts r's
    chosen neighbours. Every term is an integer, so the sum is exact in any
    order (while below 2^53) and equals ``values @ values``; the estimate is
    the same double. All trials are drawn and counted together.
    """
    _check_subset_size(n, k_l)
    chosen = np.zeros((NORM_TRIALS, n), dtype=bool)
    for row, rng in zip(chosen, seed.generators(POLY_DRAW, NORM_TRIALS)):
        row[rng.permutation(n)[:k_l]] = True
    coords = sample_edge_coordinates(n, d, lambda: seed.generators(GRAPH_DRAW, NORM_TRIALS))
    cells = np.concatenate(coords)
    # trial t's edge (l, r) is chosen at t*n + l of chosen and counts towards c_r at t*n + r
    trial = np.repeat(np.arange(0, NORM_TRIALS * n, n), [row.size for row in coords])
    hit = chosen.ravel()[cells // n + trial]
    free = 1 - np.bincount(cells[hit] % n + trial[hit], minlength=NORM_TRIALS * n).reshape(NORM_TRIALS, n)
    return _mean_and_ci((k_l + np.einsum("ij,ij->i", free, free)).astype(float))
