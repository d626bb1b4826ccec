import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipbis import (CompatibilityViolation, ParameterError, RandomSeed,
                    apply_local_pair, constant_pair, draw_labels, gamma_trim,
                    optimal_local_threshold, pair_decisions, random_threshold_pair,
                    sample_bipartite_graph)
from bipbis.experiments import ExperimentConfig, sweep
from bipbis.local import VertexLabels
from conftest import (Side, ball_decisions, brute_trim_best, csr_r_argsort, edge_list_graphs,
                      graph_from_edges, neighborhood, segment_min_exceeds, subset_of)


# ---------------------------------------------------------------------------
# applying pairs
# ---------------------------------------------------------------------------


def test_constant_pair_selects_one_side():
    g = sample_bipartite_graph(30, 3, RandomSeed(1))
    sub = apply_local_pair(g, constant_pair(0, 1), RandomSeed(1))
    assert sub == subset_of([], range(30))
    assert sub.size / (2 * 30) == 0.5


def test_constant_zero_pair_selects_nothing():
    g = sample_bipartite_graph(30, 3, RandomSeed(2))
    assert apply_local_pair(g, constant_pair(0, 0), RandomSeed(2)).size == 0


def test_incompatible_pair_reports_a_violating_edge():
    g = graph_from_edges(2, [(1, 0)])
    with pytest.raises(CompatibilityViolation) as err:
        apply_local_pair(g, constant_pair(1, 1), RandomSeed(3))
    assert err.value.edge == (1, 0)


def test_threshold_pair_on_edgeless_graph_full_at_p1():
    g = graph_from_edges(4, [])
    sub = apply_local_pair(g, random_threshold_pair(1.0), RandomSeed(4))
    assert sub == subset_of(range(4), range(4))


def test_threshold_pair_p0():
    g = sample_bipartite_graph(25, 2, RandomSeed(5))
    sub = apply_local_pair(g, random_threshold_pair(0.0), RandomSeed(5))
    assert sub.count_l == 0
    assert sub.count_r == 25


def test_threshold_pair_p1_keeps_isolated_r_only():
    g = sample_bipartite_graph(25, 2, RandomSeed(6))
    sub = apply_local_pair(g, random_threshold_pair(1.0), RandomSeed(6))
    assert sub.count_l == 25
    assert sub.in_r == frozenset(range(25)) - frozenset(g.er.tolist())


def test_threshold_pair_rejects_bad_p():
    with pytest.raises(ParameterError):
        random_threshold_pair(1.5)


def test_decisions_refuse_labels_drawn_for_another_n():
    g = sample_bipartite_graph(6, 2, RandomSeed(8))
    for pair in (random_threshold_pair(0.3), constant_pair(0, 1)):
        for other in (5, 7):
            with pytest.raises(ParameterError):
                pair_decisions(g, pair, draw_labels(other, RandomSeed(8)))


def test_threshold_pair_always_compatible():
    rng = np.random.default_rng(99)
    for t in range(1000):
        n = int(rng.integers(1, 9))
        d = float(rng.uniform(0.2, min(n - 0.01, 3.5))) if n > 1 else 0.5
        s = RandomSeed(int(rng.integers(0, 2**32)))
        g = sample_bipartite_graph(n, d, s)
        p = float(rng.random())
        apply_local_pair(g, random_threshold_pair(p), s)  # raises on violation


def test_bulk_and_generic_paths_agree():
    rng = np.random.default_rng(123)
    for t in range(50):
        n = int(rng.integers(2, 12))
        s = RandomSeed(int(rng.integers(0, 2**32)))
        g = sample_bipartite_graph(n, float(rng.uniform(0.3, min(n - 0.01, 3.0))), s)
        labels = draw_labels(n, s)
        pair = random_threshold_pair(float(rng.random()))
        fast = pair_decisions(g, pair, labels)
        slow = ball_decisions(g, pair, labels)
        assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])


@given(edge_list_graphs(), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.sampled_from([0.0, 0.05, 0.5]), st.integers(0, 2**32 - 1))
@settings(max_examples=80, derandomize=True, deadline=None, database=None)
def test_threshold_pair_matches_the_segment_minimum_oracle(graph, p, ties, entropy):
    # the edge-list scatter against per-R-vertex minima over an argsort CSR;
    # some labels equal p exactly, and a label at p blocks its R neighbours
    n = graph.n
    rng = np.random.default_rng(entropy)
    values = rng.random(2 * n)
    values[rng.random(2 * n) < ties] = p
    labels = VertexLabels(n, values)
    indptr, flat = csr_r_argsort(graph)
    sel_l, sel_r = pair_decisions(graph, random_threshold_pair(p), labels)
    assert np.array_equal(sel_l, labels.l <= p)
    assert np.array_equal(sel_r, segment_min_exceeds(labels.l[flat], indptr, p))


def _distances_from(graph, v, cap):
    """BFS distances up to cap, keyed by (side, index); farther vertices are absent."""
    ball = neighborhood(graph, v, cap)
    return dict(zip(ball.keys, ball.depths))


def test_locality_is_structural():
    # toggling edges whose endpoints are at distance >= s from every marked
    # vertex leaves the marked decisions unchanged
    rng = np.random.default_rng(31337)
    pair = random_threshold_pair(0.4)
    s = pair.radius
    changed = 0
    for t in range(30):
        n = 10
        seed = RandomSeed(int(rng.integers(0, 2**32)))
        g = sample_bipartite_graph(n, 1.5, seed)
        labels = draw_labels(n, seed)
        marked = [(Side.L, int(rng.integers(0, n))), (Side.R, int(rng.integers(0, n)))]
        dists = [_distances_from(g, v, s) for v in marked]
        safe = [
            (l, r) for l in range(n) for r in range(n)
            if all(dd.get((Side.L, l), s + 1) >= s and dd.get((Side.R, r), s + 1) >= s
                   for dd in dists)
        ]
        if not safe:
            continue
        present = set(zip(g.el.tolist(), g.er.tolist()))
        toggles = [safe[i] for i in rng.choice(len(safe), size=min(6, len(safe)), replace=False)]
        g2 = graph_from_edges(n, sorted(present.symmetric_difference(toggles)))
        changed += int(g2 != g)
        before = pair_decisions(g, pair, labels)
        after = pair_decisions(g2, pair, labels)
        for side, idx in marked:
            arr_b = before[0] if side is Side.L else before[1]
            arr_a = after[0] if side is Side.L else after[1]
            assert arr_b[idx] == arr_a[idx]
    assert changed >= 10  # the metamorphic step must actually perturb graphs


# ---------------------------------------------------------------------------
# trimming
# ---------------------------------------------------------------------------


def test_trim_examples():
    assert gamma_trim(subset_of(range(10), range(4)), 0.5).size == 9
    assert gamma_trim(subset_of([], range(7)), 0.5).size == 1
    t = gamma_trim(subset_of(range(4), range(4)), 0.5)
    assert t == subset_of(range(4), range(4))


def test_trim_is_subset_and_balanced():
    from bipbis import is_gamma_balanced
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = int(rng.integers(0, 30)), int(rng.integers(0, 30))
        gamma = float(rng.choice([0.1, 0.25, 0.5]))
        sub = subset_of(range(a), range(b))
        t = gamma_trim(sub, gamma)
        assert t.in_l <= sub.in_l and t.in_r <= sub.in_r
        assert is_gamma_balanced(t, gamma)


@given(st.integers(0, 10), st.integers(0, 10), st.sampled_from([0.1, 0.25, 1 / 3, 0.5]))
@settings(max_examples=200)
def test_trim_matches_brute_force_maximum(a, b, gamma):
    t = gamma_trim(subset_of(range(a), range(b)), gamma)
    assert t.size == brute_trim_best(a, b, gamma)


# ---------------------------------------------------------------------------
# concentration and first-order performance
# ---------------------------------------------------------------------------


def test_concentration_constant_pair_has_zero_variance():
    # (0, 1) selects none of L and all of R on every graph
    for t in range(30):
        s = RandomSeed(16, t)
        sub = apply_local_pair(sample_bipartite_graph(60, 3, s), constant_pair(0, 1), s)
        assert (sub.count_l, sub.count_r) == (0, 60)


def test_concentration_p0_deterministic_l_side():
    for t in range(30):
        s = RandomSeed(17, t)
        sub = apply_local_pair(sample_bipartite_graph(60, 3, s), random_threshold_pair(0.0), s)
        assert sub.count_l == 0


def test_concentration_stays_bounded_across_scales():
    # the per-side count variances over n, from the rows of
    # sweep local --grid n=1000,10000,100000 --d 10 --p 0.1 --trials 30 --seed 18
    ns = [1000, 10_000, 100_000]
    config = ExperimentConfig("local", {"d": 10, "p": 0.1, "trials": 30, "seed": 18,
                                        "workers": 1})
    rows = np.array([row[:7] for row in sweep(config, {"n": ns}).rows]).reshape(3, 30, 7)
    for col in (5, 6):  # count_l, count_r
        vals = [float(cell[:, col].var(ddof=1) / n) for cell, n in zip(rows, ns)]
        assert max(vals) / min(vals) < 3.0, (col, vals)


def test_first_order_performance_matches_balanced_value():
    # trimmed density converges to the balanced value computed from the
    # empirically measured per-side expectations
    n, d, p, gamma, trials = 100_000, 10, 0.1, 0.5, 20
    pair = random_threshold_pair(p)
    trimmed = np.empty(trials)
    el = np.empty(trials)
    er = np.empty(trials)
    for t in range(trials):
        s = RandomSeed(190, t)
        g = sample_bipartite_graph(n, d, s)
        sub = apply_local_pair(g, pair, s)
        el[t] = sub.count_l / n
        er[t] = sub.count_r / n
        trimmed[t] = gamma_trim(sub, gamma).size / (2 * n)
    alpha = 0.5 * min(float(el.mean()) / gamma, float(er.mean()) / (1 - gamma))
    assert abs(float(trimmed.mean()) - alpha) / alpha < 0.02


# the 1-local pair's per-side densities on one sampled graph: an L vertex
# joins with probability p; an R vertex of degree k joins with (1-p)^k


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
def test_threshold_pair_l_density_is_the_threshold(p):
    n = 20_000
    s = RandomSeed(20, int(p * 100))
    sub = apply_local_pair(sample_bipartite_graph(n, 7, s), random_threshold_pair(p), s)
    # count_l is Binomial(n, p) whatever the graph
    assert abs(sub.count_l / n - p) < 5 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("d, p", [(3, 0.2), (5, 0.2), (10, 0.1)])
def test_threshold_pair_r_density_is_the_blocking_probability(d, p):
    n = 20_000
    s = RandomSeed(21, d)
    g = sample_bipartite_graph(n, d, s)
    sub = apply_local_pair(g, random_threshold_pair(p), s)
    expected = float(((1 - p) ** np.bincount(g.er, minlength=n)).mean())
    # the spread over 40 seeds is at most 1.2/sqrt(n) at these (d, p)
    assert abs(sub.count_r / n - expected) < 6 / math.sqrt(n)


@pytest.mark.parametrize("d", [3, 10, 30])
def test_optimal_threshold_balances_the_two_sides(d):
    # at p* = exp(-d*p*) both sides have density p*, so trimming to gamma = 1/2
    # keeps about p* of each side; the min of two noisy sides sits a little low
    n = 20_000
    p_star = optimal_local_threshold(d)
    s = RandomSeed(22, d)
    sub = apply_local_pair(sample_bipartite_graph(n, d, s), random_threshold_pair(p_star), s)
    for density in (sub.count_l / n, sub.count_r / n, gamma_trim(sub, 0.5).size / (2 * n)):
        assert abs(density - p_star) < 4 / math.sqrt(n), density
