import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipbis import (EMPTY_SUBSET, LocalPairVectorFunction, OverlapChainParams,
                    ParameterError, RandomSeed, StabilityConfig, StabilityReport, VertexSubset,
                    build_interpolation_path, check_overlap_chain, constant_pair,
                    detect_bad_steps, draw_labels, greedy_chain_over_segments,
                    greedy_overlap_chain, left_indicator_polynomial, linear_blocking_polynomial,
                    random_threshold_pair, round_polynomial, sample_bipartite_graph,
                    stability_trial, validate_graph, walk_rounded_subsets)
from bipbis import ogp
from bipbis.experiments import resolve_params
from conftest import (bad_steps_materialized, flips_argsort, graph_from_edges, per_step,
                      resample_draws, subset_of)


def small_path(n=6, d=2.0, T=None, seed=7):
    base = sample_bipartite_graph(n, d, RandomSeed(seed))
    if T is None:
        T = 2 * n * n
    return build_interpolation_path(base, T, d, RandomSeed(seed))


# ---------------------------------------------------------------------------
# the path itself
# ---------------------------------------------------------------------------


def test_coordinate_schedule_is_cyclic():
    # step t resamples the 0-based edge coordinate (t - 1) mod n^2
    for n in (2, 5, 9):
        m = n * n
        path = small_path(n=n, d=1.5, T=2 * m + 3, seed=n)
        steps, l, r, _ = path.flips
        assert steps[-1] > m  # the schedule wraps past the first sweep
        assert np.array_equal(l * n + r, (steps - 1) % m)


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
    """A path and the d and seed it was built with, for the strategies above."""
    m, d = n * n, density * n
    T = max(0, sweeps * m + (int(extra * m) if isinstance(extra, float) else extra))
    base = sample_bipartite_graph(n, d, RandomSeed(seed))
    return build_interpolation_path(base, T, d, RandomSeed(seed, 1)), d, RandomSeed(seed, 1)


@given(**path_shapes)
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
def test_delta_reconstruction_matches_step_by_step_replay(n, sweeps, extra, density, seed):
    # resampling one coordinate per step must land on the same graphs as
    # replaying the stored flips
    path, d, path_seed = path_of_shape(n, sweeps, extra, density, seed)
    sigmas, bits = resample_draws(path, d, path_seed)
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
@example(n=2100, sweeps=1, extra=0, density=4.0 / 2100, seed=5)  # T > 2**22: two bit chunks
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_flips_match_the_argsort_oracle(n, sweeps, extra, density, seed):
    path, d, path_seed = path_of_shape(n, sweeps, extra, density, seed)
    got = path.flips
    for a, b in zip(got, flips_argsort(path, d, path_seed)):
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
    resampled = np.flatnonzero(resample_draws(path, 1.0, RandomSeed(9))[1][:m])
    assert np.array_equal(path.edge_coordinates_at(m), resampled)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


class SpikePolynomial:
    """n * indicator(first coordinate set): one flip can move the norm by n^2."""

    def __init__(self, n):
        self.n = n

    def evaluate(self, graph):
        values = np.zeros(2 * self.n)
        values[0] = self.n * float(0 in graph.coords)
        return values

    def track(self, base):
        n = self.n
        return lambda l, r, added: ((0, n if added else -n),) if l == r == 0 else ()


def test_constant_function_has_no_bad_steps():
    path = small_path()
    config = StabilityConfig(c=0.5, gamma_steps=2, degree=1, norm_estimate=6.0)

    class Const:
        n = path.n

        def evaluate(self, graph):
            return np.ones(2 * path.n)

        def track(self, base):
            return lambda l, r, added: ()

    assert detect_bad_steps(Const(), path, config) == []


def test_spike_polynomial_triggers_exactly_on_flips_of_coordinate_one():
    path = small_path(n=6, d=2.0, T=80, seed=33)
    f = SpikePolynomial(6)
    config = StabilityConfig(c=0.5, gamma_steps=1, degree=1, norm_estimate=6.0)
    bad = detect_bad_steps(f, path, config)
    # recompute expected flips of coordinate 1 by replay
    sigmas, bits = resample_draws(path, 2.0, RandomSeed(33))
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


class WithoutTracker:
    """A polynomial seen through n and evaluate only."""

    def __init__(self, f):
        self.n, self.evaluate = f.n, f.evaluate


def test_tracked_detection_matches_every_step_and_both_probes_need_a_tracker():
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
        by_tracker = detect_bad_steps(f, path, config)
        assert bad_steps_materialized(f, path, config) == by_tracker
        found += len(by_tracker)
        flips += path.flips[0].size
    assert 0 < found < flips
    refusals = []
    for probe in (lambda g: detect_bad_steps(g, path, config),
                  lambda g: walk_rounded_subsets(g, path, 0.5)):
        with pytest.raises(ParameterError) as refused:
            probe(WithoutTracker(f))
        refusals.append(str(refused.value))
    assert refusals == ["WithoutTracker has no tracker to walk a path with"] * 2


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
    assert report.empirical_probability >= report.floor


def test_stability_trial_wrapped_local_pair_beats_floor():
    def make_f(seed):
        return LocalPairVectorFunction(random_threshold_pair(0.2), draw_labels(30, seed))

    report = stability_trial(make_f, n=30, d=3, gamma_steps=1, c=0.5, degree=1,
                             trials=8, seed=RandomSeed(61))
    assert report.empirical_probability >= report.floor
    # recorded when each flip step's graph was evaluated whole
    assert report == StabilityReport(
        trials=8, no_bad_count=8, empirical_probability=1.0, wilson_low=0.6755843804891231,
        wilson_high=1.0, floor=1.0000000000000005e-08, norm_estimate=21.4)


# The steps at which a flip changes a decision of the 1-local pair at p=0.3,
# n=240, d=3, T=n^2 on RandomSeed(61), recorded when each flip step's graph
# was evaluated whole.
WRAPPED_PAIR_BAD_STEPS_240 = [
    1712, 5236, 5278, 7707, 7730, 7731, 7882, 8309, 8345, 8441, 8749, 8851, 10699,
    10726, 10773, 10777, 13726, 13825, 13922, 14015, 14051, 14132, 18765, 18798, 18867,
    18873, 20402, 20512, 22119, 22218, 22243, 22272, 22642, 22647, 22657, 22684, 23521,
    24055, 24107, 24240, 26728, 26729, 26854, 28137, 28166, 28190, 28193, 28224, 28564,
    28625, 28674, 28734, 28769, 28775, 28783, 29329, 29350, 29379, 29385, 29405, 29424,
    29441, 29467, 30236, 30278, 30585, 30709, 30744, 30776, 31218, 31336, 31726, 31844,
    31879, 31904, 33622, 33731, 33800, 33859, 33866, 33963, 33986, 34065, 34067, 34222,
    34896, 35649, 35701, 35770, 35834, 35854, 35916, 35920, 35936, 35950, 39405, 40330,
    40368, 40489, 40540, 41047, 41054, 41153, 41276, 41553, 41607, 41833, 41870, 42805,
    42943, 42963, 42975, 43059, 43149, 43170, 43943, 43951, 43999, 44018, 44068, 44071,
    44078, 44241, 44266, 44315, 49235, 49320, 49931, 50011, 50013, 50047, 50437, 50467,
    50669, 50802, 51193, 51263, 51690, 51702, 51986, 52005, 52192, 52580, 52637, 54009,
    54071, 54072, 54216, 55179, 55244, 55261, 55262, 55949, 55962, 55997, 56012, 56073,
    56079, 56100, 56119, 56425, 56476, 56530, 56579, 56960, 57030, 57495, 57557,
]


def wrapped_pair_path(n, seed=RandomSeed(61), p=0.3, d=3.0):
    f = LocalPairVectorFunction(random_threshold_pair(p), draw_labels(n, seed))
    return f, build_interpolation_path(sample_bipartite_graph(n, d, seed), n * n, d, seed)


def test_wrapped_local_pair_bad_steps_are_pinned():
    # a flip moves one decision by 1, so a threshold of 1 makes every such flip bad
    f, path = wrapped_pair_path(240)
    config = StabilityConfig(c=0.5, gamma_steps=1, degree=1, norm_estimate=2.0)
    assert detect_bad_steps(f, path, config) == WRAPPED_PAIR_BAD_STEPS_240


def test_stability_trial_warns_on_large_step_budget(monkeypatch):
    monkeypatch.setattr(ogp, "_STEP_BUDGET", 10)
    with pytest.warns(UserWarning):
        stability_trial(
            lambda s: linear_blocking_polynomial(8, 3, s),
            n=8, d=2, gamma_steps=1, c=0.5, degree=1, trials=2,
            seed=RandomSeed(62))


# ---------------------------------------------------------------------------
# the forward walk of the rounded sets
# ---------------------------------------------------------------------------


class DyadicLinearPolynomial:
    """A constant plus a weight per incident edge on every vertex, in quarter
    steps so sums are exact in any order. Unlike the blocking construction,
    its rounding meets conflicts, fractional values and failures."""

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

    def track(self, base):
        def flip(l, r, added):
            w = self.weight[l, r] if added else -self.weight[l, r]
            return ((l, w), (self.n + r, w)) if w else ()
        return flip


def rounded_by_materializing(f, path, eta):
    """The oracle: every path graph built whole, evaluated and rounded."""
    out = []
    for t in range(path.length + 1):
        g = path.materialize(t)
        outcome = round_polynomial(f.evaluate(g), g, eta)
        out.append(EMPTY_SUBSET if outcome.failed else outcome.subset)
    return out


def path_function(kind, n, k_frac, seed, entropy):
    """The three polynomials, then the 1-local pair at p = 0, at p = 1, at p
    tied with an L label and at p = k_frac, then the two constant pairs; each
    pair is wrapped with the labels of ``seed``."""
    if kind < 3:
        return (linear_blocking_polynomial(n, round(k_frac * n), seed),
                left_indicator_polynomial(n),
                DyadicLinearPolynomial(n, entropy))[kind]
    labels = draw_labels(n, seed)
    p = (0.0, 1.0, float(labels.l[round(k_frac * (n - 1))]), k_frac)
    pairs = [random_threshold_pair(x) for x in p] + [constant_pair(0, 1), constant_pair(1, 0)]
    return LocalPairVectorFunction(pairs[kind - 3], labels)


@given(n=st.integers(2, 7), density=st.floats(0.1, 0.9), kind=st.integers(0, 8),
       k_frac=st.floats(0.0, 1.0), eta=st.sampled_from([0.0, 0.15, 0.5, 2.0]),
       gamma_steps=st.sampled_from([1, 2]), entropy=st.integers(0, 2**31 - 1))
@settings(max_examples=360, deadline=None)
def test_walk_matches_materialized_rounding_at_every_step(
        n, density, kind, k_frac, eta, gamma_steps, entropy):
    seed = RandomSeed(entropy)
    d = density * n
    path = build_interpolation_path(sample_bipartite_graph(n, d, seed),
                                    gamma_steps * n * n, d, seed)
    f = path_function(kind, n, k_frac, seed, entropy)
    segments = list(walk_rounded_subsets(f, path, eta))
    walked = per_step(segments)
    assert walked == rounded_by_materializing(f, path, eta)
    config = StabilityConfig(c=0.05, gamma_steps=gamma_steps, degree=1, norm_estimate=2.0)
    assert detect_bad_steps(f, path, config) == bad_steps_materialized(f, path, config)
    # the segment chain reads the walk as the per-step chain reads its expansion,
    # at a bar of 0.6 vertices and at a bar that every step passes, K > T + 1
    for params in (chain_params(epsilon=0.6, K=4, phi=4.0),
                   chain_params(epsilon=1e-12, K=path.length + 2, phi=1.0)):
        assert greedy_chain_over_segments(segments, params) == greedy_overlap_chain(walked, params)


@given(**path_shapes, kind=st.integers(0, 8))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_walk_yields_a_segment_at_zero_and_one_at_each_flip(n, sweeps, extra, density, seed, kind):
    path, _, _ = path_of_shape(n, sweeps, extra, density, seed)
    f = path_function(kind, n, 0.5, RandomSeed(seed), seed)
    starts, stops, _ = zip(*walk_rounded_subsets(f, path, 0.15))
    assert starts == (0, *path.flips[0].tolist())
    assert stops == (*starts[1:], path.length + 1)


def test_walk_reaches_failures_and_recoveries():
    # the property above must cover rounding that fails and then succeeds again
    n = 6
    path = small_path(n=n, d=3.0, seed=5)
    f = DyadicLinearPolynomial(n, 11)
    walked = per_step(walk_rounded_subsets(f, path, 0.5))
    assert walked == rounded_by_materializing(f, path, 0.5)
    failed = [s is EMPTY_SUBSET for s in walked]
    assert any(failed) and not all(failed)


def test_probes_never_rebuild_a_path_graph(monkeypatch):
    # materialize stays an oracle: neither probe builds a path graph whole
    def refuse(self, t):
        raise AssertionError(f"the graph of step {t} was built whole")

    monkeypatch.setattr(ogp.InterpolationPath, "materialize", refuse)
    monkeypatch.setattr(ogp.InterpolationPath, "edge_coordinates_at", refuse)
    pair, path = wrapped_pair_path(40, RandomSeed(64))
    config = StabilityConfig(c=0.5, gamma_steps=1, degree=1, norm_estimate=2.0)
    for f in (linear_blocking_polynomial(40, 12, RandomSeed(64)), pair):
        assert detect_bad_steps(f, path, config) is not None
        assert len(per_step(walk_rounded_subsets(f, path, 0.1))) == path.length + 1


def test_probes_refuse_a_function_built_for_another_n():
    path = small_path(n=6)
    config = StabilityConfig(c=0.5, gamma_steps=1, degree=1, norm_estimate=2.0)
    for other in (5, 7):
        for f in (linear_blocking_polynomial(other, 2, RandomSeed(1)),
                  LocalPairVectorFunction(random_threshold_pair(0.3), draw_labels(other, RandomSeed(1)))):
            with pytest.raises(ParameterError):
                detect_bad_steps(f, path, config)
            with pytest.raises(ParameterError):
                walk_rounded_subsets(f, path, 0.1)


def test_walk_rejects_bad_input():
    path = small_path()
    with pytest.raises(ParameterError):
        walk_rounded_subsets(linear_blocking_polynomial(path.n, 2, RandomSeed(1)), path, -0.1)
    with pytest.raises(ParameterError):
        walk_rounded_subsets(WithoutTracker(SpikePolynomial(path.n)), path, 0.0)


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


segmentations = st.lists(
    st.tuples(st.integers(1, 50), st.integers(0, 255), st.integers(0, 255)), min_size=1, max_size=12)


@given(segmentation=segmentations, epsilon=st.sampled_from([1e-12, 0.2, 0.6, 1.0]),
       phi=st.floats(1.0, 40.0), K=st.integers(2, 700))
@example(segmentation=[(3, 1, 0), (50, 1, 0), (2, 3, 1)], epsilon=1e-12, phi=40.0, K=700)
@example(segmentation=[(1, 0, 0), (40, 7, 0), (9, 7, 3)], epsilon=1e-12, phi=1.0, K=20)
@example(segmentation=[(5, 1, 0), (5, 255, 0), (5, 255, 255)], epsilon=1.0, phi=20.0, K=700)
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_segment_chain_equals_the_chain_over_each_step(segmentation, epsilon, phi, K):
    # segments of 1 to 50 steps with random masks; epsilon = 1e-12 puts the bar
    # at or below 0, so every step picks, inside a segment too
    segments, start = [], 0
    for length, mask_l, mask_r in segmentation:
        segments.append((start, start + length, VertexSubset(mask_l, mask_r)))
        start += length
    params = chain_params(epsilon=epsilon, K=K, phi=phi)
    result = greedy_chain_over_segments(segments, params)
    assert result == greedy_overlap_chain(per_step(segments), params)
    if epsilon == 1e-12:
        assert result.timestamps == tuple(range(min(K, start)))


# The K=50 chain of the ogp defaults at n=200, d=4, epsilon=0.6, gamma_steps=1
# on RandomSeed(1, 0), recorded from the per-step chain: it stalls after six
# picks, so it reads all 40 001 steps, 1513 of them flips.
STALLED_CHAIN_TIMESTAMPS = (0, 7386, 17851, 24214, 28850, 35985)
STALLED_CHAIN_MASK_L = 0x418000e8009c00003204000420050106000001000040085
STALLED_CHAIN_MASKS_R = (
    0xb6a07c85edb3315c7f4f7fbbb39a6fb24f5b09560739ec8b76,
    0xb6a27cadf9b33b4c7f4f7bbba31b47b2cb5108362739ec097e,
    0xb6a27d9ff9373b4c7fcf7b3ba31247b2cb110c3aaf33ac416e,
    0xb6a6fddff33f1bcc57cb5b3b871257b2c9110c3aef33ac616f,
    0xb6b6fddff31f1f8dd7cb1b3b8712d7b6f9150a3aed333c616f,
    0xb2bdfddfe1571fa5d7cb1b35c702d2b3b9111228ed773c716d,
)


def test_a_chain_that_walks_the_whole_path_is_pinned():
    n, d, s = 200, 4.0, RandomSeed(1, 0)
    params = resolve_params("ogp", {"n": n, "d": d, "epsilon": 0.6, "K": 50, "gamma_steps": 1})
    path = build_interpolation_path(sample_bipartite_graph(n, d, s), n * n, d, s)
    f = linear_blocking_polynomial(n, params["k_l"], s)
    assert path.flips[0].size == 1513
    result = greedy_chain_over_segments(walk_rounded_subsets(f, path, params["eta"]),
                                        OverlapChainParams.for_scale(0.6, 50, n, d))
    assert not result.success
    assert result.timestamps == STALLED_CHAIN_TIMESTAMPS
    assert [(v.mask_l, v.mask_r) for v in result.sets] == [
        (STALLED_CHAIN_MASK_L, mask_r) for mask_r in STALLED_CHAIN_MASKS_R]


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
        new_mass = len(s.in_l - union.in_l) + len(s.in_r - union.in_r)
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
    assert wl * n + wr in g5.coords


def test_chain_checker_refuses_an_empty_chain_and_steps_off_the_path():
    path = small_path()
    with pytest.raises(ParameterError):
        check_overlap_chain([], [], path, chain_params())
    for t in (-1, path.length + 1):
        with pytest.raises(ParameterError):
            check_overlap_chain([EMPTY_SUBSET, EMPTY_SUBSET], [0, t], path, chain_params())


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
    assert report.conditions_bitmask() == 7


def test_chain_params_validation():
    with pytest.raises(ParameterError):
        OverlapChainParams(epsilon=0.0, K=2, phi=10.0)
    with pytest.raises(ParameterError):
        OverlapChainParams(epsilon=0.5, K=1, phi=10.0)


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
            mass = len(s.in_l - union.in_l) + len(s.in_r - union.in_r)
            assert params.new_mass_min - 1e-9 <= mass <= params.new_mass_max + 1e-9
            union = union.union(s)
