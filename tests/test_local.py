import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipbis import (CapacityError, CompatibilityViolation, ParameterError,
                    RandomSeed, Side, apply_local_pair,
                    constant_pair, draw_labels,
                    estimate_gw_expectation, gamma_balanced_value, gamma_trim,
                    pair_decisions, random_threshold_pair,
                    sample_bipartite_graph)
from bipbis.experiments import ExperimentConfig, sweep
from bipbis.local import _POISSON_MEAN_MAX, VertexLabels, sample_offspring_tree
from conftest import (ball_decisions, brute_trim_best, csr_r_argsort, edge_list_graphs,
                      graph_from_edges, neighborhood, segment_min_exceeds, subset_of)


def bisect_fixed_point(d, lo=0.0, hi=1.0, iters=200):
    """Root of p = exp(-d*p) by bisection; the oracle for the optimal threshold."""
    f = lambda p: p - math.exp(-d * p)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
# the balanced value
# ---------------------------------------------------------------------------


def test_balanced_value_zero_short_circuits():
    assert gamma_balanced_value(0.0, 0.7, 0.3) == 0.0


def test_balanced_value_at_optimal_threshold():
    d = 10
    p_star = bisect_fixed_point(d)
    assert abs(p_star - 0.1745528) < 1e-6  # root of p = exp(-10 p)
    alpha = gamma_balanced_value(p_star, math.exp(-d * p_star), 0.5)
    assert abs(alpha - p_star) < 1e-12


def test_balanced_value_l_branch_for_slack_density():
    # e_l = (1-eps) log d / d against e_r = d^(eps-1): once d^eps outgrows
    # (1-eps) log d, the L term is the minimum
    d, eps = 1e6, 0.2
    e_l = (1 - eps) * math.log(d) / d
    e_r = d ** (eps - 1)
    gamma = 0.5
    assert gamma_balanced_value(e_l, e_r, gamma) == pytest.approx(e_l / (2 * gamma))


def test_balanced_value_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        gamma_balanced_value(1.2, 0.5, 0.5)
    with pytest.raises(ParameterError):
        gamma_balanced_value(0.5, 0.5, 0.7)


@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0),
       st.floats(0.05, 0.5), st.floats(0.1, 0.99))
def test_balanced_value_scaling_invariance(e_l, e_r, gamma, scale):
    base = gamma_balanced_value(e_l, e_r, gamma)
    scaled = gamma_balanced_value(scale * e_l, scale * e_r, gamma)
    assert scaled == pytest.approx(scale * base, rel=1e-12)
    l_min_base = e_l / gamma <= e_r / (1 - gamma)
    l_min_scaled = scale * e_l / gamma <= scale * e_r / (1 - gamma)
    assert l_min_base == l_min_scaled


# ---------------------------------------------------------------------------
# offspring-tree expectations
# ---------------------------------------------------------------------------


def test_gw_expectation_l_side_is_threshold():
    mean, stderr = estimate_gw_expectation(
        random_threshold_pair(0.2), Side.L, d=7, trials=4000, seed=RandomSeed(12))
    assert abs(mean - 0.2) <= max(3 * stderr, 1e-9)


def test_gw_expectation_r_side_is_blocking_probability():
    d, p = 5, 0.2
    mean, stderr = estimate_gw_expectation(
        random_threshold_pair(p), Side.R, d=d, trials=4000, seed=RandomSeed(13))
    assert abs(mean - math.exp(-p * d)) <= 3 * stderr


def test_gw_expectation_constant_pair():
    mean, stderr = estimate_gw_expectation(
        constant_pair(1, 1), Side.L, d=3, trials=500, seed=RandomSeed(14))
    assert mean == 1.0 and stderr == 0.0


@pytest.mark.parametrize("pair, side, d, trials, seed, mean, stderr", [
    (random_threshold_pair(0.2), Side.L, 7, 4000, 12, "0x1.a04189374bc6ap-3", "0x1.a10aef87701b9p-8"),
    (random_threshold_pair(0.2), Side.R, 5, 4000, 13, "0x1.7c6a7ef9db22dp-2", "0x1.f4c485b6e4d4fp-8"),
    (random_threshold_pair(0.37), Side.R, 3.5, 3000, 99, "0x1.1d0369d0369d0p-2", "0x1.0c2be8001cdc4p-7"),
    (constant_pair(0, 1), Side.R, 3, 500, 14, "0x1.0000000000000p+0", "0x0.0p+0"),
])
def test_gw_expectation_is_pinned(pair, side, d, trials, seed, mean, stderr):
    got = estimate_gw_expectation(pair, side, d, trials, RandomSeed(seed))
    assert (got[0].hex(), got[1].hex()) == (mean, stderr)


@pytest.mark.parametrize("d, depth", [(0.5, 4), (2.0, 3), (3.0, 2), (1.0, 0)])
def test_offspring_tree_is_a_tree_within_its_depth(d, depth):
    for stream in range(20):
        adj = sample_offspring_tree(d, depth, RandomSeed(15, stream).generator())
        assert sum(map(len, adj)) == 2 * (len(adj) - 1)
        dist = {0: 0}
        order = [0]
        for v in order:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    order.append(u)
        assert len(dist) == len(adj)
        assert max(dist.values()) <= depth
        # each node lists its parent first, then its children
        assert all(adj[v][0] < v < min(adj[v][1:], default=v + 1) for v in range(1, len(adj)))


def test_offspring_tree_refuses_an_oversized_tree_before_building_it():
    with pytest.raises(CapacityError, match="offspring tree exceeded"):
        sample_offspring_tree(1e12, 1, RandomSeed(15).generator())


@pytest.mark.parametrize("d", [float("nan"), -0.5])
def test_offspring_mean_must_be_non_negative(d):
    with pytest.raises(ParameterError, match="offspring mean"):
        estimate_gw_expectation(random_threshold_pair(0.2), Side.R, d, 10, RandomSeed(1))


# a mean above numpy's Poisson limit would end in numpy's ValueError mid-draw
@pytest.mark.parametrize("d", [float("inf"), 1e19, np.nextafter(_POISSON_MEAN_MAX, np.inf)])
def test_offspring_mean_numpy_cannot_draw_is_refused(d):
    with pytest.raises(ParameterError, match="offspring mean"):
        estimate_gw_expectation(random_threshold_pair(0.2), Side.R, d, 10, RandomSeed(1))


def test_offspring_mean_limit_is_numpys_poisson_limit():
    rng = np.random.default_rng(1)
    assert rng.poisson(_POISSON_MEAN_MAX) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(_POISSON_MEAN_MAX, np.inf))
    # the largest mean numpy draws is still drawn, and the tree is then too large
    with pytest.raises(CapacityError, match="offspring tree exceeded"):
        sample_offspring_tree(_POISSON_MEAN_MAX, 1, rng)


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
    alpha = gamma_balanced_value(float(el.mean()), float(er.mean()), gamma)
    assert abs(float(trimmed.mean()) - alpha) / alpha < 0.02
