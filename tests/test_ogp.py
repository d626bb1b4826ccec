import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipbis import (EMPTY_SUBSET, LocalPairVectorFunction, OverlapChainParams,
                    ParameterError, RandomSeed, StabilityConfig,
                    balance_inequality_probe, build_interpolation_path,
                    check_overlap_chain, coordinate_at_step,
                    detect_bad_steps, draw_labels, greedy_overlap_chain,
                    left_indicator_polynomial, linear_blocking_polynomial,
                    profile_violates_balance_inequality, random_threshold_pair,
                    round_polynomial, sample_bipartite_graph, stability_trial,
                    validate_graph, walk_rounded_subsets)
from conftest import (bad_steps_materialized, flips_argsort, graph_from_edges, resample_draws,
                      subset_of)


def small_path(n=6, d=2.0, T=None, seed=7):
    base = sample_bipartite_graph(n, d, RandomSeed(seed))
    if T is None:
        T = 2 * n * n
    return build_interpolation_path(base, T, d, RandomSeed(seed))


# ---------------------------------------------------------------------------
# the path itself
# ---------------------------------------------------------------------------


def test_coordinate_schedule_is_cyclic():
    for n in (2, 5, 9):
        m = n * n
        assert coordinate_at_step(n, 1) == 1
        assert coordinate_at_step(n, m) == m
        assert coordinate_at_step(n, m + 1) == 1


def test_zero_length_path_is_base():
    base = sample_bipartite_graph(5, 1.5, RandomSeed(3))
    path = build_interpolation_path(base, 0, 1.5, RandomSeed(3))
    assert path.length == 0
    assert path.materialize(0) == base


def test_negative_length_rejected():
    base = sample_bipartite_graph(5, 1.5, RandomSeed(3))
    with pytest.raises(ParameterError):
        build_interpolation_path(base, -1, 1.5, RandomSeed(3))


def test_materialization_is_stable_and_valid():
    path = small_path()
    for t in (0, 1, 17, 36, 50, path.length):
        g1 = path.materialize(t)
        g2 = path.materialize(t)
        assert g1 == g2
        validate_graph(g1)


# T = 0, T below n^2, T off a multiple of n^2, and up to five sweeps; the
# edge density d/n runs from sparse to nearly full
path_shapes = dict(
    n=st.integers(min_value=2, max_value=40), sweeps=st.integers(min_value=0, max_value=5),
    extra=st.sampled_from([0, 1, -1, 0.5]), density=st.sampled_from([0.05, 0.5, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1))


def path_of_shape(n, sweeps, extra, density, seed):
    """A path and the seed it was built with, for the strategies above."""
    m, d = n * n, density * n
    T = max(0, sweeps * m + (int(extra * m) if isinstance(extra, float) else extra))
    base = sample_bipartite_graph(n, d, RandomSeed(seed))
    return build_interpolation_path(base, T, d, RandomSeed(seed, 1)), RandomSeed(seed, 1)


@given(**path_shapes)
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
def test_delta_reconstruction_matches_step_by_step_replay(n, sweeps, extra, density, seed):
    # resampling one coordinate per step must land on the same graphs as
    # replaying the stored flips
    path, path_seed = path_of_shape(n, sweeps, extra, density, seed)
    sigmas, bits = resample_draws(path, path_seed)
    state = np.zeros(n * n, dtype=np.uint8)
    state[path.base.coords] = 1
    for t in range(path.length + 1):
        if t:
            state[sigmas[t - 1] - 1] = bits[t - 1]
        assert np.array_equal(path.edge_coordinates_at(t), np.flatnonzero(state))
        validate_graph(path.materialize(t))


def test_flips_are_the_steps_that_change_the_graph():
    path = small_path(n=5, d=1.8, T=60, seed=21)
    steps, ls, rs, added = path.flips
    expected = []
    for t in range(1, path.length + 1):
        before = set(path.edge_coordinates_at(t - 1).tolist())
        after = set(path.edge_coordinates_at(t).tolist())
        for coord in before ^ after:
            expected.append((t, coord // 5, coord % 5, coord in after))
    got = list(zip(steps.tolist(), ls.tolist(), rs.tolist(), added.tolist()))
    assert got == expected and len(got) > 0


@given(**path_shapes)
@example(n=2000, sweeps=1, extra=0, density=2.0 / 2000, seed=3)
@example(n=2000, sweeps=1, extra=12345, density=4.0 / 2000, seed=4)
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_flips_match_the_argsort_oracle(n, sweeps, extra, density, seed):
    path, path_seed = path_of_shape(n, sweeps, extra, density, seed)
    got = path.flips
    for a, b in zip(got, flips_argsort(path, path_seed)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable


@pytest.mark.parametrize("make", [
    small_path,
    lambda: linear_blocking_polynomial(6, 2, RandomSeed(1)),
    lambda: draw_labels(6, RandomSeed(1)),
    lambda: LocalPairVectorFunction(random_threshold_pair(0.2), draw_labels(6, RandomSeed(1))),
], ids=["path", "polynomial", "labels", "local_pair"])
def test_objects_holding_arrays_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, a, b}) == 2


def test_full_cycle_refreshes_every_coordinate():
    # after m steps the graph is exactly the resampled bits, independent of base
    path = small_path(n=4, d=1.0, T=16, seed=9)
    m = 16
    resampled = np.flatnonzero(resample_draws(path, RandomSeed(9))[1][:m])
    assert np.array_equal(path.edge_coordinates_at(m), resampled)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


class SpikePolynomial:
    """n * indicator(first coordinate set): one flip can move the norm by n^2."""

    degree = 1

    def __init__(self, n):
        self.n = n

    def evaluate(self, graph):
        values = np.zeros(2 * self.n)
        values[0] = self.n * float(0 in graph.coords)
        return values


def test_constant_function_has_no_bad_steps():
    path = small_path()
    config = StabilityConfig(c=0.5, gamma_steps=2, degree=1, norm_estimate=6.0)

    class Const:
        n = path.n
        degree = 0

        def evaluate(self, graph):
            return np.ones(2 * path.n)

    assert detect_bad_steps(Const(), path, config) == []


def test_spike_polynomial_triggers_exactly_on_flips_of_coordinate_one():
    path = small_path(n=6, d=2.0, T=80, seed=33)
    f = SpikePolynomial(6)
    config = StabilityConfig(c=0.5, gamma_steps=1, degree=1, norm_estimate=6.0)
    bad = detect_bad_steps(f, path, config)
    # recompute expected flips of coordinate 1 by replay
    sigmas, bits = resample_draws(path, RandomSeed(33))
    state = np.zeros(36, dtype=np.uint8)
    state[path.base.coords] = 1
    expected = []
    for t in range(1, path.length + 1):
        coord = int(sigmas[t - 1]) - 1
        new = int(bits[t - 1])
        if coord == 0 and new != int(state[0]):
            expected.append(t)
        state[coord] = new
    assert bad == expected
    assert len(bad) > 0


def test_incremental_and_full_detection_agree():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        seed = RandomSeed(int(rng.integers(0, 2**31)))
        base = sample_bipartite_graph(n, 1.5, seed)
        path = build_interpolation_path(base, 3 * n * n, 1.5, seed)
        f = linear_blocking_polynomial(n, max(1, n // 2), seed)
        config = StabilityConfig(c=0.01, gamma_steps=3, degree=1, norm_estimate=2.0)
        fast = detect_bad_steps(f, path, config)
        slow = bad_steps_materialized(f, path, config)
        assert fast == slow


class WithoutFlipRule:
    """A polynomial seen through n, degree and evaluate only, so that
    detect_bad_steps evaluates it on the graphs of the flip steps."""

    def __init__(self, f):
        self.n, self.degree, self.evaluate = f.n, f.degree, f.evaluate


def test_evaluating_at_flips_matches_the_flip_rule_and_every_step():
    # weights of 1/4 move a flip by 1/8 and weights of 1/2 by 1/2, so a
    # threshold of 1/5 makes some flips bad and others not
    rng = np.random.default_rng(9)
    config = StabilityConfig(c=0.1, gamma_steps=2, degree=1, norm_estimate=2.0)
    found = flips = 0
    for _ in range(10):
        n = int(rng.integers(3, 8))
        seed = RandomSeed(int(rng.integers(0, 2**31)))
        path = build_interpolation_path(sample_bipartite_graph(n, 1.5, seed), 2 * n * n, 1.5, seed)
        f = DyadicLinearPolynomial(n, int(rng.integers(0, 2**31)))
        wrapped = WithoutFlipRule(f)
        assert not hasattr(wrapped, "flip_rule")
        by_rule = detect_bad_steps(f, path, config)
        assert detect_bad_steps(wrapped, path, config) == by_rule
        assert bad_steps_materialized(f, path, config) == by_rule
        found += len(by_rule)
        flips += path.flips[0].size
    assert 0 < found < flips


def test_linear_polynomial_single_flip_bound():
    # one flip moves the linear construction by at most 1 in squared norm,
    # so with norm_estimate > 1/c no step is ever bad
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(3, 20))
        seed = RandomSeed(int(rng.integers(0, 2**31)))
        base = sample_bipartite_graph(n, 2.0, seed)
        path = build_interpolation_path(base, n * n, 2.0, seed)
        f = linear_blocking_polynomial(n, n // 2, seed)
        config = StabilityConfig(c=0.5, gamma_steps=1, degree=1, norm_estimate=float(n))
        assert detect_bad_steps(f, path, config) == []


def test_stability_trial_linear_polynomial_beats_floor():
    report = stability_trial(
        lambda s: linear_blocking_polynomial(30, 11, s),
        n=30, d=3, gamma_steps=1, c=0.5, degree=1, trials=10, seed=RandomSeed(60))
    assert report.empirical_probability == 1.0
    assert report.floor == pytest.approx((3 / 30) ** (4 * 1 * 1 / 0.5))
    assert report.above_floor


def test_stability_trial_wrapped_local_pair_beats_floor():
    def make_f(seed):
        return LocalPairVectorFunction(random_threshold_pair(0.2), draw_labels(30, seed))

    report = stability_trial(make_f, n=30, d=3, gamma_steps=1, c=0.5, degree=1,
                             trials=8, seed=RandomSeed(61))
    assert report.above_floor


def test_stability_trial_warns_on_large_step_budget():
    with pytest.warns(UserWarning):
        stability_trial(
            lambda s: linear_blocking_polynomial(8, 3, s),
            n=8, d=2, gamma_steps=1, c=0.5, degree=1, trials=2,
            seed=RandomSeed(62), step_budget=10)


# ---------------------------------------------------------------------------
# the forward walk of the rounded sets
# ---------------------------------------------------------------------------


class DyadicLinearPolynomial:
    """A constant plus a weight per incident edge on every vertex, in quarter
    steps so sums are exact in any order. Unlike the blocking construction,
    its rounding meets conflicts, fractional values and failures."""

    degree = 1

    def __init__(self, n, seed):
        rng = np.random.default_rng(seed)
        self.n = n
        self.const = rng.integers(-2, 7, size=2 * n) / 4.0
        self.weight = rng.integers(-2, 3, size=(n, n)) / 4.0

    def evaluate(self, graph):
        values = self.const.copy()
        w = self.weight[graph.el, graph.er]
        np.add.at(values, graph.el, w)
        np.add.at(values, self.n + graph.er, w)
        return values

    def flip_rule(self, l, r, added):
        w = self.weight[l, r] if added else -self.weight[l, r]
        return ((l, w), (self.n + r, w)) if w else ()


def rounded_by_materializing(f, path, eta):
    """The oracle: every path graph built whole, evaluated and rounded."""
    out = []
    for t in range(path.length + 1):
        g = path.materialize(t)
        outcome = round_polynomial(f.evaluate(g), g, eta)
        out.append(EMPTY_SUBSET if outcome.failed else outcome.subset)
    return out


@given(n=st.integers(2, 7), density=st.floats(0.1, 0.9), kind=st.integers(0, 2),
       k_frac=st.floats(0.0, 1.0), eta=st.sampled_from([0.0, 0.15, 0.5, 2.0]),
       gamma_steps=st.sampled_from([1, 2]), entropy=st.integers(0, 2**31 - 1))
@settings(max_examples=120, deadline=None)
def test_walk_matches_materialized_rounding_at_every_step(
        n, density, kind, k_frac, eta, gamma_steps, entropy):
    seed = RandomSeed(entropy)
    d = density * n
    path = build_interpolation_path(sample_bipartite_graph(n, d, seed),
                                    gamma_steps * n * n, d, seed)
    f = (linear_blocking_polynomial(n, round(k_frac * n), seed),
         left_indicator_polynomial(n),
         DyadicLinearPolynomial(n, entropy))[kind]
    assert list(walk_rounded_subsets(f, path, eta)) == rounded_by_materializing(f, path, eta)
    config = StabilityConfig(c=0.05, gamma_steps=gamma_steps, degree=1, norm_estimate=2.0)
    assert detect_bad_steps(f, path, config) == bad_steps_materialized(f, path, config)


def test_walk_reaches_failures_and_recoveries():
    # the property above must cover rounding that fails and then succeeds again
    n = 6
    path = small_path(n=n, d=3.0, seed=5)
    f = DyadicLinearPolynomial(n, 11)
    walked = list(walk_rounded_subsets(f, path, 0.5))
    assert walked == rounded_by_materializing(f, path, 0.5)
    failed = [s is EMPTY_SUBSET for s in walked]
    assert any(failed) and not all(failed)


def test_walk_rejects_bad_input():
    path = small_path()
    with pytest.raises(ParameterError):
        walk_rounded_subsets(linear_blocking_polynomial(path.n, 2, RandomSeed(1)), path, -0.1)
    with pytest.raises(ParameterError):
        walk_rounded_subsets(SpikePolynomial(path.n), path, 0.0)


# ---------------------------------------------------------------------------
# the overlap chain
# ---------------------------------------------------------------------------


def chain_params(epsilon=0.6, K=3, phi=40.0):
    return OverlapChainParams(epsilon=epsilon, K=K, phi=phi)


def test_greedy_stalls_on_identical_sets():
    v = subset_of(range(20), range(20))
    result = greedy_overlap_chain([v] * 50, chain_params())
    assert not result.success
    assert len(result.sets) == 1 and result.timestamps == (0,)


def test_greedy_succeeds_on_disjoint_sets():
    params = chain_params(epsilon=0.6, K=4, phi=40.0)
    need = math.ceil(params.new_mass_min)
    sets = [subset_of(range(k * need, (k + 1) * need),
                      range(k * need, (k + 1) * need)) for k in range(6)]
    result = greedy_overlap_chain(sets, params)
    assert result.success
    assert result.timestamps == (0, 1, 2, 3)


def test_greedy_over_a_generator_matches_the_list_and_stops_at_k():
    params = chain_params(epsilon=0.6, K=4, phi=40.0)
    step = math.ceil(params.new_mass_min)
    sets = [subset_of(range(10 + (t // 3) * step), range(10)) for t in range(60)]
    pulled = []

    def stream():
        for t, s in enumerate(sets):
            pulled.append(t)
            yield s

    from_list = greedy_overlap_chain(sets, params)
    from_stream = greedy_overlap_chain(stream(), params)
    assert from_stream == from_list and from_list.success
    assert pulled[-1] == from_list.timestamps[-1]
    with pytest.raises(ParameterError):
        greedy_overlap_chain(iter(()), params)


def test_greedy_selection_lands_in_window():
    # grow by exactly ceil(new_mass_min) fresh vertices per step: every pick
    # is then inside [min, 2*min] <= [min, max]
    params = chain_params(epsilon=0.6, K=5, phi=40.0)
    step = math.ceil(params.new_mass_min)
    sets = []
    for t in range(40):
        sets.append(subset_of(range(10 + t * step), range(10)))
    result = greedy_overlap_chain(sets, params)
    assert result.success
    union = sets[0]
    for s, t in zip(result.sets[1:], result.timestamps[1:]):
        new_mass = s.difference(union).size
        assert params.new_mass_min - 1e-9 <= new_mass <= params.new_mass_max + 1e-9
        union = union.union(s)


def test_chain_checker_flags_each_condition():
    n, d = 20, 4.0
    base = sample_bipartite_graph(n, d, RandomSeed(70))
    path = build_interpolation_path(base, n * n, d, RandomSeed(70))
    phi = math.log(d) / d * n  # ~ 6.93
    params = OverlapChainParams(epsilon=0.6, K=2, phi=phi)
    dense = math.ceil(params.density_min)  # per-side size that passes condition 2

    s1 = subset_of(range(dense), range(dense))
    # condition 3 violation: no new mass at all
    report = check_overlap_chain([s1, s1], [0, 5], path, params)
    assert report.condition2
    assert not report.condition3
    assert report.new_masses[1] == 0

    # condition 2 violation: second set too sparse on R
    s2 = subset_of(range(dense + 3), range(2))
    report = check_overlap_chain([s1, s2], [0, 5], path, params)
    assert not report.condition2

    # condition 1 violation: a set containing an actual edge of A^(t)
    g5 = path.materialize(5)
    assert g5.edge_count > 0
    l, r = int(g5.el[0]), int(g5.er[0])
    bad = subset_of({l} | set(range(dense)), {r} | set(range(dense)))
    report = check_overlap_chain([bad], [5], path, params)
    assert not report.condition1
    assert report.independence_witnesses[0] is not None
    wl, wr = report.independence_witnesses[0]
    assert g5.has_edge(wl, wr)


def test_chain_checker_accepts_valid_synthetic_chain():
    # disjoint dense independent sets on an edgeless path always pass
    n = 60
    base = graph_from_edges(n, [])
    path = build_interpolation_path(base, 10, 1e-9 * n, RandomSeed(71))
    assert path.materialize(10).edge_count == 0
    params = OverlapChainParams(epsilon=0.5, K=2, phi=16.0)
    need_dense = math.ceil(params.density_min)
    fresh = math.ceil(params.new_mass_min)
    s1 = subset_of(range(need_dense), range(need_dense))
    s2 = subset_of(range(need_dense + fresh), range(need_dense))
    report = check_overlap_chain([s1, s2], [0, 4], path, params)
    assert report.present
    assert report.conditions_bitmask() == 7


def test_chain_params_validation_and_hypothesis_bound():
    with pytest.raises(ParameterError):
        OverlapChainParams(epsilon=0.0, K=2, phi=10.0)
    with pytest.raises(ParameterError):
        OverlapChainParams(epsilon=0.5, K=1, phi=10.0)
    small = OverlapChainParams(epsilon=0.3, K=2, phi=10.0)
    assert not small.satisfies_chain_length_bound   # needs K >= 101
    big = OverlapChainParams(epsilon=0.3, K=101, phi=10.0)
    assert big.satisfies_chain_length_bound


def test_greedy_coherence_with_checker_condition3():
    # whenever consecutive sets differ by at most (eps/4)*phi vertices, the
    # greedy picks automatically satisfy condition 3
    rng = np.random.default_rng(72)
    for _ in range(20):
        phi = float(rng.uniform(20, 60))
        eps = float(rng.choice([0.3, 0.5, 0.8]))
        params = OverlapChainParams(epsilon=eps, K=int(rng.integers(2, 5)), phi=phi)
        step = max(1, int(params.new_mass_min))  # <= new_mass_min
        sets = [subset_of(range(5 + t * step), range(5)) for t in range(80)]
        result = greedy_overlap_chain(sets, params)
        if not result.success:
            continue
        union = result.sets[0]
        for s in result.sets[1:]:
            mass = s.difference(union).size
            assert params.new_mass_min - 1e-9 <= mass <= params.new_mass_max + 1e-9
            union = union.union(s)


# ---------------------------------------------------------------------------
# the balance probe
# ---------------------------------------------------------------------------


def test_edgeless_graph_violates_at_large_d():
    # profile point a = b = n gives densities d/log d on both sides; for
    # d >= 8 the product clearly beats the sum
    g = graph_from_edges(8, [])
    assert profile_violates_balance_inequality(g, d=8.0)


def test_complete_bipartite_never_violates():
    # every profile point has a zero side, so sum >= product always
    n = 6
    g = graph_from_edges(n, [(l, r) for l in range(n) for r in range(n)])
    for d in (2.0, 8.0, 50.0):
        assert not profile_violates_balance_inequality(g, d=d)


def test_small_l_density_never_violates():
    # alpha_l <= 1 makes alpha_l*alpha_r <= alpha_r <= alpha_l + alpha_r
    for al in np.linspace(0, 1, 11):
        for ar in np.linspace(0, 50, 23):
            assert al + ar >= al * ar - 1e-12


def test_probe_reports_rate_with_interval():
    report = balance_inequality_probe(8, 6.0, trials=40, seed=RandomSeed(73))
    assert report.trials == 40
    assert 0.0 <= report.wilson_low <= report.violation_rate <= report.wilson_high <= 1.0
    assert report.violating_graphs == round(report.violation_rate * 40)
