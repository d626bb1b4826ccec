"""Degree-bounded polynomial algorithms over the edge-indicator vector.

A polynomial here is any object with ``n``, ``degree`` and
``evaluate(graph) -> ndarray of shape (2n,)`` (L block first). A polynomial
may also give a flip rule, ``flip_rule(l, r, added)``: the outputs that
adding (or removing) the edge (l, r) changes, as exact (index, change)
pairs. Path probes walk with it instead of re-evaluating. The rounding
procedure thresholds at 1, drops vertices with a selected neighbor, and fails
when the number of dropped vertices plus values strictly between 1/2 and 1
exceeds eta * n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .balance import VertexSubset, pack_bits
from .errors import ParameterError
from .graph import BipartiteGraph, sample_bipartite_graph
from .rng import POLY_DRAW, RandomSeed

# Comparisons against eta*n get this much slack so a float-boundary eta*n
# can never flip an integer count across the threshold.
ETA_TOLERANCE = 1e-9


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
    degree: int = 1

    def __post_init__(self):
        # the flip rule's membership test, kept out of the dataclass fields
        object.__setattr__(self, "_chosen", frozenset(self.chosen_l.tolist()))

    @property
    def k_l(self) -> int:
        return int(self.chosen_l.size)

    def evaluate(self, graph: BipartiteGraph) -> np.ndarray:
        if graph.n != self.n:
            raise ParameterError(f"graph has n={graph.n}, polynomial built for n={self.n}")
        values = np.zeros(2 * self.n)
        values[self.chosen_l] = 1.0
        mask = np.zeros(self.n, dtype=bool)
        mask[self.chosen_l] = True
        values[self.n:] = 1.0 - np.bincount(graph.er[mask[graph.el]], minlength=self.n)
        return values

    def flip_rule(self, l: int, r: int, added: bool) -> tuple[tuple[int, float], ...]:
        """Only the R value of r moves, by one, and only if l is chosen."""
        if l in self._chosen:
            return ((self.n + r, -1.0 if added else 1.0),)
        return ()


def linear_blocking_polynomial(n: int, k_l: int, seed: RandomSeed) -> LinearBlockingPolynomial:
    """Pick the selected L-subset by a seeded shuffle, independent of any graph."""
    if not (0 <= k_l <= n):
        raise ParameterError(f"k_l must lie in [0, n], got k_l={k_l}, n={n}")
    rng = seed.generator(POLY_DRAW)
    chosen = np.sort(rng.permutation(n)[:k_l])
    chosen.setflags(write=False)
    return LinearBlockingPolynomial(n=n, chosen_l=chosen)


@dataclass(frozen=True)
class LeftIndicatorPolynomial:
    """Degree-0 constant vector: 1 on every L vertex, 0 on every R vertex."""

    n: int
    degree: int = 0

    def evaluate(self, graph: BipartiteGraph) -> np.ndarray:
        if graph.n != self.n:
            raise ParameterError(f"graph has n={graph.n}, polynomial built for n={self.n}")
        values = np.zeros(2 * self.n)
        values[: self.n] = 1.0
        return values

    def flip_rule(self, l: int, r: int, added: bool) -> tuple[tuple[int, float], ...]:
        return ()


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


def round_polynomial(values: np.ndarray, graph: BipartiteGraph, eta: float) -> RoundingOutcome:
    """Threshold at 1, drop conflicted vertices, fail when the error budget
    eta*n is exceeded. Deterministic in (values, graph, eta)."""
    if eta < 0:
        raise ParameterError(f"eta must be non-negative, got {eta}")
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
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    factory = _as_factory(polynomial)
    norms = np.empty(trials)
    successes = 0
    failures = 0
    for t in range(trials):
        trial_seed = seed.shifted(t)
        f = factory(trial_seed)
        graph = sample_bipartite_graph(n, d, trial_seed)
        values = check_polynomial_output(f.evaluate(graph), n)
        norms[t] = float(values @ values)
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
    factory = _as_factory(polynomial)
    norms = np.empty(trials)
    for t in range(trials):
        trial_seed = seed.shifted(t)
        f = factory(trial_seed)
        graph = sample_bipartite_graph(n, d, trial_seed)
        values = check_polynomial_output(f.evaluate(graph), n)
        norms[t] = float(values @ values)
    mean = float(norms.mean())
    ci = float(1.96 * norms.std(ddof=1) / math.sqrt(trials))
    return mean, ci
