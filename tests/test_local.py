import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipbis import (CompatibilityViolation, ParameterError,
                    RandomSeed, Side, VertexId, apply_local_pair,
                    concentration_probe, constant_pair, draw_labels,
                    estimate_gw_expectation, gamma_balanced_value, gamma_trim,
                    pair_decisions, random_threshold_pair,
                    sample_bipartite_graph)
from bipbis.local import GaltonWatsonTree, VertexLabels
from conftest import (ball_decisions, brute_trim_best, csr_argsort, edge_list_graphs,
                      graph_from_edges, segment_min_exceeds, subset_of)


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
    isolated = {j for j in range(25) if g.neighbors_r(j).size == 0}
    assert sub.in_r == frozenset(isolated)


def test_threshold_pair_rejects_bad_p():
    with pytest.raises(ParameterError):
        random_threshold_pair(1.5)


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
    oracle = csr_argsort(n, graph.coords)
    sel_l, sel_r = pair_decisions(graph, random_threshold_pair(p), labels)
    assert np.array_equal(sel_l, labels.l <= p)
    assert np.array_equal(
        sel_r, segment_min_exceeds(labels.l[oracle["flat_r_to_l"]], oracle["indptr_r"], p))


def _distances_from(graph, v, cap):
    """BFS distances (inf beyond cap) keyed by (side, index)."""
    dist = {(v.side, v.index): 0}
    frontier = [(v.side, v.index)]
    for depth in range(1, cap + 1):
        nxt = []
        for side, idx in frontier:
            nbrs = graph.neighbors_l(idx) if side is Side.L else graph.neighbors_r(idx)
            for u in nbrs:
                key = (side.other(), int(u))
                if key not in dist:
                    dist[key] = depth
                    nxt.append(key)
        frontier = nxt
    return dist


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
        marked = [VertexId(Side.L, int(rng.integers(0, n))),
                  VertexId(Side.R, int(rng.integers(0, n)))]
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
        for v in marked:
            arr_b = before[0] if v.side is Side.L else before[1]
            arr_a = after[0] if v.side is Side.L else after[1]
            assert arr_b[v.index] == arr_a[v.index]
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


def test_gw_tree_sampling_shape():
    rng = RandomSeed(15).generator()
    tree = GaltonWatsonTree.sample(2.0, 2, rng)
    assert tree.n_vertices >= 1
    ball = tree.to_neighborhood(Side.R)
    assert ball.root_side is Side.R
    assert ball.depths[0] == 0
    assert all(d <= 2 for d in ball.depths)


# ---------------------------------------------------------------------------
# concentration and first-order performance
# ---------------------------------------------------------------------------


def test_concentration_constant_pair_has_zero_variance():
    rows = concentration_probe(constant_pair(0, 1), [60], d=3,
                               trials_per_n=30, seed=RandomSeed(16))
    assert rows[0].var_l_over_n == 0.0 and rows[0].var_r_over_n == 0.0


def test_concentration_p0_deterministic_l_side():
    rows = concentration_probe(random_threshold_pair(0.0), [60], d=3,
                               trials_per_n=30, seed=RandomSeed(17))
    assert rows[0].var_l_over_n == 0.0


def test_concentration_stays_bounded_across_scales():
    rows = concentration_probe(random_threshold_pair(0.1), [1000, 10_000, 100_000],
                               d=10, trials_per_n=30, seed=RandomSeed(18))
    for col in ("var_l_over_n", "var_r_over_n"):
        vals = [getattr(r, col) for r in rows]
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
