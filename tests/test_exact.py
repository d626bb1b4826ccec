import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipbis import (CapacityError, ParameterError, RandomSeed,
                    enumerate_max_gamma_balanced, is_gamma_balanced,
                    is_independent, max_balanced_pair, max_gamma_balanced_is,
                    max_joint_intersection, pareto_profile,
                    sample_bipartite_graph)
from conftest import (brute_max_balanced, brute_profile, graph_from_edges, milp_optimum,
                      subset_of)

K22 = [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# max_gamma_balanced_is
# ---------------------------------------------------------------------------


def test_empty_graph_takes_everything():
    g = graph_from_edges(3, [])
    size, witness = max_gamma_balanced_is(g, 0.5)
    assert size == 6
    assert witness == subset_of(range(3), range(3))


def test_complete_bipartite_forces_singleton():
    g = graph_from_edges(2, K22)
    size, witness = max_gamma_balanced_is(g, 0.5)
    assert size == 1
    assert witness.size == 1


def test_single_edge_instance():
    # frozen from the 2^(2n) oracle: one edge l0-r0 on 2+2 vertices
    g = graph_from_edges(2, [(0, 0)])
    assert brute_max_balanced(g, 0.5) == 3
    size, witness = max_gamma_balanced_is(g, 0.5)
    assert size == 3
    assert is_independent(g, witness) and is_gamma_balanced(witness, 0.5)


def test_agrees_with_literal_subset_enumeration():
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        d = float(rng.uniform(0.3, min(n - 0.01, 3.0))) if n > 1 else 0.5
        g = sample_bipartite_graph(n, d, RandomSeed(int(rng.integers(0, 2**31))))
        for gamma in (0.1, 0.25, 0.5):
            expected = brute_max_balanced(g, gamma)
            size_bb, w_bb = max_gamma_balanced_is(g, gamma)
            size_en, w_en = enumerate_max_gamma_balanced(g, gamma)
            assert size_bb == size_en == expected
            assert w_bb == w_en
            assert is_independent(g, w_bb) and is_gamma_balanced(w_bb, gamma)
            assert w_bb.size == size_bb


@given(n=st.integers(9, 14), dense=st.booleans(), fraction=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.1, 1 / 3, 0.5]))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_agrees_with_enumeration_past_the_brute_force(n, dense, fraction, seed, gamma):
    # sparse d in [0.5, 3], dense d in [n/2, n - 1]
    d = n / 2 + fraction * (n / 2 - 1) if dense else 0.5 + 2.5 * fraction
    g = sample_bipartite_graph(n, d, RandomSeed(seed))
    assert max_gamma_balanced_is(g, gamma) == enumerate_max_gamma_balanced(g, gamma)


@pytest.mark.parametrize("n, d", [(17, 6.0), (20, 3.0), (23, 6.0), (28, 3.0)])
def test_optimum_matches_milp(n, d):
    g = sample_bipartite_graph(n, d, RandomSeed(31, n))
    for gamma in (0.5, 1 / 3):
        size, witness = max_gamma_balanced_is(g, gamma)
        assert size == milp_optimum(g, gamma)
        assert witness.size == size
        assert is_independent(g, witness) and is_gamma_balanced(witness, gamma)


# (n, d, stream of RandomSeed(1, .), gamma) -> (size, witness_l, witness_r), as
# `bipbis exact` printed them before the solver became one search pass
PINNED_WITNESSES = {
    (24, 3.0, 0, 0.5): (27, "1,2,4,5,6,7,8,9,14,16,19,20,22",
                        "0,1,3,5,6,9,10,11,13,14,17,18,19,20"),
    (24, 3.0, 0, 1 / 3): (26, "1,2,4,5,6,14,16,19,20",
                          "0,1,3,5,6,7,8,9,10,11,13,14,17,18,19,20,23"),
    (24, 3.0, 1, 0.5): (26, "0,1,2,3,4,7,9,12,14,16,19,20,22",
                        "1,4,5,8,9,10,11,12,13,14,19,22,23"),
    (24, 3.0, 1, 1 / 3): (25, "0,1,4,7,9,10,12,16",
                          "1,4,5,6,7,8,9,10,11,12,13,14,16,18,19,21,23"),
    (24, 3.0, 3, 0.5): (24, "0,1,5,6,7,8,9,14,15,16,18,19",
                        "4,6,7,8,9,10,13,14,17,20,22,23"),
    (24, 3.0, 3, 1 / 3): (24, "3,4,5,6,17,18,19,20",
                          "0,2,3,4,5,6,7,8,9,11,12,13,14,16,20,23"),
    (32, 6.0, 2, 0.5): (25, "0,3,8,10,12,16,23,24,26,27,28,29",
                        "1,2,5,8,9,10,12,14,19,22,23,26,30"),
    (32, 6.0, 2, 1 / 3): (26, "0,8,10,16,23,24,26,29",
                          "1,2,5,6,8,9,10,11,12,14,16,19,22,23,24,25,26,30"),
    (32, 6.0, 3, 0.5): (23, "0,8,9,13,14,15,16,17,18,19,21",
                        "4,6,8,9,13,14,15,21,23,28,30,31"),
    (32, 6.0, 3, 1 / 3): (24, "2,3,4,10,13,21,22,23",
                          "0,1,4,6,11,13,15,17,19,23,24,25,26,27,28,29"),
}


def test_witnesses_are_pinned():
    for (n, d, stream, gamma), expected in PINNED_WITNESSES.items():
        size, witness = max_gamma_balanced_is(sample_bipartite_graph(n, d, RandomSeed(1, stream)),
                                              gamma)
        got = (size, ",".join(map(str, sorted(witness.in_l))),
               ",".join(map(str, sorted(witness.in_r))))
        assert got == expected, (n, d, stream, gamma)


def test_adding_an_edge_never_helps():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = sample_bipartite_graph(n, 1.0, RandomSeed(int(rng.integers(0, 2**31))))
        present = set(zip(g.el.tolist(), g.er.tolist()))
        missing = [(l, r) for l in range(n) for r in range(n) if (l, r) not in present]
        if not missing:
            continue
        l, r = missing[int(rng.integers(0, len(missing)))]
        g2 = graph_from_edges(n, sorted(present | {(l, r)}))
        for gamma in (0.25, 0.5):
            assert max_gamma_balanced_is(g2, gamma)[0] <= max_gamma_balanced_is(g, gamma)[0]


def test_capacity_error():
    g = graph_from_edges(5, [])
    with pytest.raises(CapacityError):
        max_gamma_balanced_is(g, 0.5, limit=4)
    with pytest.raises(CapacityError):
        enumerate_max_gamma_balanced(g, 0.5, limit=4)
    with pytest.raises(CapacityError):
        pareto_profile(g, limit=4)


# ---------------------------------------------------------------------------
# pareto_profile
# ---------------------------------------------------------------------------


def test_profile_empty_graph():
    prof = pareto_profile(graph_from_edges(2, []))
    assert prof.entries == ((0, 2), (1, 2), (2, 2))


def test_profile_complete_bipartite():
    prof = pareto_profile(graph_from_edges(2, K22))
    assert prof.entries == ((0, 2), (1, 0), (2, 0))


def test_profile_single_edge():
    prof = pareto_profile(graph_from_edges(2, [(0, 0)]))
    assert prof.entries == ((0, 2), (1, 2), (2, 1))


def test_profile_matches_oracle_and_witnesses():
    rng = np.random.default_rng(555)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        g = sample_bipartite_graph(n, 1.2, RandomSeed(int(rng.integers(0, 2**31)))) \
            if n > 1 else graph_from_edges(1, [])
        prof = pareto_profile(g)
        oracle = brute_profile(g) if g.n <= 8 else None
        for (a, b), witness in zip(prof.entries, prof.witnesses):
            assert oracle[a] == b
            assert witness.count_l == a and witness.count_r == b
            assert is_independent(g, witness)
        bs = [b for _, b in prof.entries]
        assert bs == sorted(bs, reverse=True)


def test_profile_consistency_with_solver():
    # the solver's optimum equals the best gamma-trimmed profile entry
    rng = np.random.default_rng(808)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = sample_bipartite_graph(n, 1.5, RandomSeed(int(rng.integers(0, 2**31))))
        prof = pareto_profile(g)
        for gamma in (0.1, 0.25, 0.5):
            via_profile = max(sum(max_balanced_pair(a, b, gamma)) for a, b in prof.entries)
            assert via_profile == max_gamma_balanced_is(g, gamma)[0]


# ---------------------------------------------------------------------------
# max_joint_intersection
# ---------------------------------------------------------------------------


def test_joint_intersection_empty_s():
    g = graph_from_edges(3, [(0, 0)])
    assert max_joint_intersection(g, subset_of()) == 0


def test_joint_intersection_empty_graph():
    g = graph_from_edges(3, [])
    assert max_joint_intersection(g, subset_of(range(3), range(3))) == 3


def test_joint_intersection_complete_bipartite():
    g = graph_from_edges(2, K22)
    assert max_joint_intersection(g, subset_of(range(2), range(2))) == 0


def test_joint_intersection_restricts_to_s():
    # edge l0-r0; s covers only l0 and r0, so one side must be given up
    g = graph_from_edges(3, [(0, 0)])
    assert max_joint_intersection(g, subset_of([0], [0])) == 0
    assert max_joint_intersection(g, subset_of([0, 1], [0])) == 1


def test_joint_intersection_refuses_vertices_outside_the_graph():
    g = graph_from_edges(3, [])
    for in_l, in_r in (([0], [5]), ([3], [0]), ([0, 1], [7])):
        with pytest.raises(ParameterError, match="at or above n = 3"):
            max_joint_intersection(g, subset_of(in_l, in_r))


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**10 - 1))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_joint_intersection_matches_literal_enumeration(graph_seed, s_bits):
    n = 5
    g = sample_bipartite_graph(n, 2.0, RandomSeed(graph_seed))
    subsets = [frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
    sl, sr = subsets[s_bits % 32], subsets[s_bits // 32]
    edges = list(zip(g.el.tolist(), g.er.tolist()))
    best = max(min(len(in_l & sl), len(in_r & sr))
               for in_l in subsets for in_r in subsets
               if not any(l in in_l and r in in_r for l, r in edges))
    assert max_joint_intersection(g, subset_of(sl, sr)) == best
