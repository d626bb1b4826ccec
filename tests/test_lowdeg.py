import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipbis import (ParameterError, RandomSeed, check_optimization,
                    is_independent, left_indicator_polynomial,
                    linear_blocking_polynomial, norm_second_moment,
                    round_polynomial, sample_bipartite_graph)
from conftest import chosen_neighbor_counts, edge_list_graphs, graph_from_edges


def make_poly(n, k_l, seed=77):
    return linear_blocking_polynomial(n, k_l, RandomSeed(seed))


# ---------------------------------------------------------------------------
# the degree-1 construction
# ---------------------------------------------------------------------------


def test_linear_polynomial_on_edgeless_graph():
    g = graph_from_edges(5, [])
    f = make_poly(5, 3)
    values = f.evaluate(g)
    assert values[:5].sum() == 3
    assert set(np.flatnonzero(values[:5] == 1.0)) == set(f.chosen_l)
    assert np.all(values[5:] == 1.0)


def test_linear_polynomial_counts_selected_neighbors():
    # force the selected set, then read off R values 1 - (#selected neighbors)
    f = make_poly(4, 2, seed=5)
    l1 = sorted(f.chosen_l.tolist())
    other = [i for i in range(4) if i not in l1]
    edges = [(l1[0], 0)]                       # r0: one selected neighbor
    edges += [(l, 1) for l in l1] + [(other[0], 1), (other[1], 1)]  # r1: 2 selected + 2 not
    g = graph_from_edges(4, edges)
    values = f.evaluate(g)
    assert values[4 + 0] == 0.0
    assert values[4 + 1] == -1.0
    # the 3-selected-neighbor case needs k_l = 3
    f3 = make_poly(5, 3, seed=9)
    l1 = sorted(f3.chosen_l.tolist())
    g3 = graph_from_edges(5, [(l1[0], 0), (l1[1], 0), (l1[2], 0)])
    assert f3.evaluate(g3)[5 + 0] == -2.0


@given(edge_list_graphs(), st.data())
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_linear_polynomial_matches_the_neighbor_count_oracle(graph, data):
    n = graph.n
    k_l = data.draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
    f = make_poly(n, k_l, seed=data.draw(st.integers(0, 2**32 - 1)))
    values = f.evaluate(graph)
    chosen = np.zeros(n)
    chosen[f.chosen_l] = 1.0
    assert np.array_equal(values[:n], chosen)
    assert np.array_equal(values[n:], 1.0 - chosen_neighbor_counts(graph, f.chosen_l))


def test_linear_polynomial_rejects_bad_k():
    with pytest.raises(ParameterError):
        linear_blocking_polynomial(4, 5, RandomSeed(1))


def test_chosen_set_is_seed_deterministic_and_graph_independent():
    a = make_poly(50, 10, seed=3)
    b = make_poly(50, 10, seed=3)
    c = make_poly(50, 10, seed=4)
    assert np.array_equal(a.chosen_l, b.chosen_l)
    assert not np.array_equal(a.chosen_l, c.chosen_l)


def test_degree_discipline_under_single_coordinate_flips():
    # flipping one edge coordinate changes no L value and moves at most one
    # R value, by at most 1; the flip rule names exactly the change that a
    # full re-evaluation shows
    rng = np.random.default_rng(8)
    n = 12
    for f in (make_poly(n, 4, seed=21), left_indicator_polynomial(n)):
        for _ in range(60):
            s = RandomSeed(int(rng.integers(0, 2**31)))
            g = sample_bipartite_graph(n, 2, s)
            before = f.evaluate(g)
            l, r = int(rng.integers(0, n)), int(rng.integers(0, n))
            present = set(zip(g.el.tolist(), g.er.tolist()))
            g2 = graph_from_edges(n, sorted(present.symmetric_difference([(l, r)])))
            delta = f.evaluate(g2) - before
            assert np.all(delta[:n] == 0.0)
            assert np.abs(delta).max() <= 1.0
            assert np.count_nonzero(delta) <= 1
            ruled = np.zeros(2 * n)
            for index, change in f.flip_rule(l, r, (l, r) not in present):
                ruled[index] += change
            assert np.array_equal(ruled, delta)


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------


def test_round_all_zero_values():
    g = graph_from_edges(3, [(0, 0)])
    out = round_polynomial(np.zeros(6), g, eta=0.0)
    assert not out.failed
    assert out.subset.size == 0
    assert out.conflicted_count == 0 and out.fractional_count == 0


def test_round_adjacent_ones_fail_at_eta_zero():
    g = graph_from_edges(2, [(0, 0)])
    values = np.array([1.0, 0.0, 1.0, 0.0])  # l0 and r0 selected, adjacent
    out = round_polynomial(values, g, eta=0.0)
    assert out.failed
    assert out.conflicted_count == 2


def test_round_fractional_budget():
    n = 10
    g = graph_from_edges(n, [])
    eta = 0.3
    budget = int(eta * n)
    values = np.zeros(2 * n)
    values[:budget] = 0.7
    assert not round_polynomial(values, g, eta).failed
    values[budget] = 0.7  # one past the budget
    out = round_polynomial(values, g, eta)
    assert out.failed and out.fractional_count == budget + 1


def test_round_keeps_unconflicted_selected_vertices():
    # l0-r0 conflict drops both; l1 and r1 stay
    g = graph_from_edges(2, [(0, 0)])
    values = np.array([1.0, 2.0, 1.5, 1.0])
    out = round_polynomial(values, g, eta=1.0)
    assert not out.failed
    assert out.subset.in_l == frozenset([1])
    assert out.subset.in_r == frozenset([1])
    assert out.conflicted_count == 2


def test_round_is_deterministic():
    g = sample_bipartite_graph(20, 3, RandomSeed(44))
    values = RandomSeed(45).generator().normal(0.8, 0.5, size=40)
    a = round_polynomial(values, g, 0.2)
    b = round_polynomial(values, g, 0.2)
    assert (a.failed, a.conflicted_count, a.fractional_count) == \
        (b.failed, b.conflicted_count, b.fractional_count)
    assert a.subset == b.subset


@given(st.integers(1, 6), st.integers(0, 2**31 - 1),
       st.sampled_from([0.0, 0.05, 0.2, 0.7, 2.0]))
@settings(max_examples=150, deadline=None)
def test_round_soundness_property(n, entropy, eta):
    s = RandomSeed(entropy)
    g = sample_bipartite_graph(n, min(n - 0.01, 2.0), s) if n > 1 else graph_from_edges(1, [])
    values = s.generator(9).choice(
        [-1.0, 0.0, 0.3, 0.6, 0.75, 1.0, 1.5], size=2 * n)
    out = round_polynomial(values, g, eta)
    in_i = values >= 1.0
    conflicted = set()
    for l, r in zip(g.el.tolist(), g.er.tolist()):
        if in_i[l] and in_i[n + r]:
            conflicted.add(("L", l))
            conflicted.add(("R", r))
    frac = int(np.count_nonzero((values > 0.5) & (values < 1.0)))
    should_fail = len(conflicted) + frac > eta * n + 1e-9
    assert out.failed == should_fail
    if not out.failed:
        assert is_independent(g, out.subset)
        assert out.subset.in_l == frozenset(
            i for i in range(n) if in_i[i] and ("L", i) not in conflicted)


def test_linear_polynomial_never_fails_at_eta_zero():
    # no fractional values and no conflicts, for any graph and selected set
    rng = np.random.default_rng(17)
    for _ in range(150):
        n = int(rng.integers(2, 30))
        s = RandomSeed(int(rng.integers(0, 2**31)))
        g = sample_bipartite_graph(n, float(rng.uniform(0.5, min(n - 0.1, 6.0))), s)
        f = linear_blocking_polynomial(n, int(rng.integers(0, n + 1)), s)
        out = round_polynomial(f.evaluate(g), g, eta=0.0)
        assert not out.failed
        assert out.conflicted_count == 0 and out.fractional_count == 0
        assert is_independent(g, out.subset)


# ---------------------------------------------------------------------------
# optimization checks and the norm moment
# ---------------------------------------------------------------------------


def test_left_indicator_optimizes_exactly():
    for n in (10, 100, 400):
        report = check_optimization(
            left_indicator_polynomial(n), n=n, d=3, k_l=n, k_r=0,
            xi=1.0, eta=0.0, trials=10, seed=RandomSeed(50))
        assert report.success_rate == 1.0
        assert report.failure_count == 0
        assert report.norm_mean == float(n)
        assert report.norm_ci == 0.0
        assert report.norm_bound_holds  # n <= 1 * (n + 0)


def test_all_zero_polynomial_never_succeeds():
    class Zero:
        n = 8
        degree = 0

        def evaluate(self, graph):
            return np.zeros(16)

    report = check_optimization(Zero(), n=8, d=2, k_l=1, k_r=1,
                                xi=1.0, eta=0.0, trials=5, seed=RandomSeed(51))
    assert report.success_rate == 0.0


def test_norm_second_moment_empty_selection_is_exactly_n():
    n = 200
    mean, ci = norm_second_moment(make_poly(n, 0), n=n, d=10,
                                  trials=30, seed=RandomSeed(52))
    assert mean == float(n) and ci == 0.0


def test_norm_second_moment_matches_binomial_oracle():
    scipy_stats = pytest.importorskip("scipy.stats")
    n, d = 10_000, 10
    k_l = n // 10
    mean, ci = norm_second_moment(
        lambda s: linear_blocking_polynomial(n, k_l, s),
        n=n, d=d, trials=40, seed=RandomSeed(53))
    # oracle: ||F||^2 = k_l + sum over R of (1 - B)^2, B ~ Binomial(k_l, d/n)
    ns = np.arange(k_l + 1)
    pmf = scipy_stats.binom.pmf(ns, k_l, d / n)
    oracle = k_l + n * float(np.sum((1.0 - ns) ** 2 * pmf))
    assert abs(mean - oracle) <= ci


def test_factory_polynomials_get_per_trial_seeds():
    seen = []

    def factory(seed):
        f = linear_blocking_polynomial(30, 5, seed)
        seen.append(tuple(f.chosen_l.tolist()))
        return f

    check_optimization(factory, n=30, d=2, k_l=1, k_r=1, xi=10.0, eta=0.0,
                       trials=6, seed=RandomSeed(54))
    assert len(set(seen)) > 1
