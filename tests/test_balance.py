import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipbis import (ParameterError, RandomSeed, VertexSubset, apply_local_pair, draw_labels,
                    gamma_trim, independence_violation, is_gamma_balanced, is_independent,
                    max_balanced_pair, pair_decisions, random_threshold_pair,
                    sample_bipartite_graph)
from bipbis.balance import (best_a_for_b, best_b_for_a, is_balanced_counts, lowest_bits,
                            pack_bits, unpack_bits)
from conftest import (brute_balanced, brute_trim_best, gamma_trim_sorted, graph_from_edges,
                      subset_of)

GAMMAS = (0.1, 0.2, 0.25, 1 / 3, 0.4, 0.5)


def test_definition_arithmetic():
    assert is_gamma_balanced(subset_of([0], []), 0.5)          # |1 - 0.5| < 1
    assert not is_gamma_balanced(subset_of([0, 1], []), 0.5)   # |2 - 1| = 1
    assert is_gamma_balanced(subset_of(range(5), range(4)), 0.5)


def test_gamma_rejected_outside_range():
    for bad in (0.0, -0.1, 0.6, 1.0):
        with pytest.raises(ParameterError):
            is_gamma_balanced(subset_of(), bad)


@given(st.integers(0, 40), st.integers(0, 40), st.sampled_from(GAMMAS))
def test_balance_predicate_matches_definition(a, b, gamma):
    assert is_balanced_counts(a, b, gamma) == brute_balanced(a, b, gamma)


@given(st.integers(0, 22), st.integers(0, 22), st.sampled_from(GAMMAS))
@settings(max_examples=300)
def test_max_balanced_pair_is_optimal(a, b, gamma):
    a2, b2 = max_balanced_pair(a, b, gamma)
    assert 0 <= a2 <= a and 0 <= b2 <= b
    assert is_balanced_counts(a2, b2, gamma)
    assert a2 + b2 == brute_trim_best(a, b, gamma)


@given(st.integers(0, 22), st.integers(0, 22),
       st.floats(min_value=0.05, max_value=0.5, allow_nan=False))
@settings(max_examples=200)
def test_max_balanced_pair_arbitrary_gamma(a, b, gamma):
    a2, b2 = max_balanced_pair(a, b, gamma)
    assert is_balanced_counts(a2, b2, gamma)
    assert a2 + b2 == brute_trim_best(a, b, gamma)


def test_one_sided_helpers():
    assert best_b_for_a(0, 7, 0.5) == 1
    assert best_b_for_a(10, 4, 0.5) is None  # R-deficit: no b <= 4 balances a = 10
    assert best_a_for_b(4, 10, 0.5) == 5
    assert sum(max_balanced_pair(10, 4, 0.5)) == 9


def test_subset_ops():
    s = subset_of([0, 1], [2])
    t = subset_of([1], [2, 3])
    assert s.size == 3 and s.count_l == 2 and s.count_r == 1
    assert s.union(t) == subset_of([0, 1], [2, 3])


def test_independence_violation():
    g = graph_from_edges(2, [(0, 0)])
    assert independence_violation(g, subset_of([0], [0])) == (0, 0)
    assert independence_violation(g, subset_of([0], [1])) is None
    assert is_independent(g, subset_of([1], [0, 1]))
    assert independence_violation(g, subset_of([], [])) is None


def test_vertex_indices_outside_the_graph_are_refused():
    g = graph_from_edges(3, [(2, 0)])
    with pytest.raises(ParameterError, match="non-negative"):
        subset_of([-1], [0])
    # 3 is the first index past n and 7 the last one in the padding of the
    # mask's only byte: neither may be dropped when the mask is unpacked
    for in_l, in_r in (([5], [0]), ([3], [0]), ([0], [7]), ([7], []), ([], [200])):
        with pytest.raises(ParameterError, match="at or above n = 3"):
            independence_violation(g, subset_of(in_l, in_r))


def test_negative_masks_are_refused():
    # the constructor takes any int; every reader of the vertex set refuses
    # a negative mask instead of counting or unpacking its sign bits
    g = graph_from_edges(3, [(2, 0)])
    for subset in (VertexSubset(-1, 0), VertexSubset(0, -4)):
        with pytest.raises(ParameterError, match="non-negative"):
            independence_violation(g, subset)
    with pytest.raises(ParameterError, match="non-negative"):
        VertexSubset(-1, 0).in_l
    with pytest.raises(ParameterError, match="non-negative"):
        VertexSubset(0, -1).in_r


INDEX_SETS = st.frozensets(st.one_of(st.integers(0, 70), st.integers(0, 100_000)), max_size=40)
EXACT = settings(max_examples=200, derandomize=True, deadline=None, database=None)


@given(INDEX_SETS, INDEX_SETS, INDEX_SETS, INDEX_SETS)
@EXACT
def test_subset_operations_match_frozensets(l1, r1, l2, r2):
    s, t = subset_of(l1, r1), subset_of(l2, r2)
    assert (s.in_l, s.in_r) == (l1, r1)
    assert (s.count_l, s.count_r, s.size) == (len(l1), len(r1), len(l1) + len(r1))
    got = s.union(t)
    assert (got.in_l, got.in_r) == (l1 | l2, r1 | r2)
    assert got == subset_of(l1 | l2, r1 | r2)
    assert (s == t) == ((l1, r1) == (l2, r2))
    twin = subset_of(sorted(l1, reverse=True), list(r1) + list(r1))
    assert twin == s and hash(twin) == hash(s)


@given(st.lists(st.booleans(), max_size=200))
@EXACT
def test_pack_bits_round_trips(bits):
    selected = np.array(bits, dtype=bool)
    mask = pack_bits(selected)
    assert mask == sum(1 << i for i, b in enumerate(bits) if b)
    unpacked = unpack_bits(mask, len(bits))
    assert unpacked.dtype == bool and np.array_equal(unpacked, selected)


@given(INDEX_SETS, st.integers(0, 45))
@EXACT
def test_lowest_bits_keeps_the_lowest_indices(indices, k):
    mask = subset_of(indices).mask_l
    assert lowest_bits(mask, k) == subset_of(sorted(indices)[:k]).mask_l


@given(INDEX_SETS, INDEX_SETS, st.sampled_from(GAMMAS))
@EXACT
def test_gamma_trim_matches_the_sorted_slice_oracle(in_l, in_r, gamma):
    trimmed = gamma_trim(subset_of(in_l, in_r), gamma)
    assert (trimmed.in_l, trimmed.in_r) == gamma_trim_sorted(in_l, in_r, gamma)


@given(st.integers(1, 70), st.data())
@EXACT
def test_independence_violation_matches_an_edge_scan(n, data):
    g = sample_bipartite_graph(n, min(3.0, n / 2), RandomSeed(data.draw(st.integers(0, 99))))
    in_l = data.draw(st.frozensets(st.integers(0, n - 1)))
    in_r = data.draw(st.frozensets(st.integers(0, n - 1)))
    first = next(((l, r) for l, r in zip(g.el.tolist(), g.er.tolist())
                  if l in in_l and r in in_r), None)
    assert independence_violation(g, subset_of(in_l, in_r)) == first


def test_local_pair_output_at_n_1e5_trims_like_the_oracle():
    n, seed = 100_000, RandomSeed(11)
    graph = sample_bipartite_graph(n, 10.0, seed)
    pair = random_threshold_pair(0.17)
    subset = apply_local_pair(graph, pair, seed)
    sel_l, sel_r = pair_decisions(graph, pair, draw_labels(n, seed))
    in_l, in_r = subset.in_l, subset.in_r
    assert (in_l, in_r) == (frozenset(np.flatnonzero(sel_l).tolist()),
                            frozenset(np.flatnonzero(sel_r).tolist()))
    for gamma in (0.5, 1 / 3, 0.1):
        trimmed = gamma_trim(subset, gamma)
        assert (trimmed.in_l, trimmed.in_r) == gamma_trim_sorted(in_l, in_r, gamma)
