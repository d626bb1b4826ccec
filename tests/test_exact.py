import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipbis import (CapacityError, ParameterError, RandomSeed, is_gamma_balanced,
                    is_independent, max_balanced_pair, max_gamma_balanced_is,
                    sample_bipartite_graph)
from bipbis import exact
from bipbis.balance import best_b_for_a
from bipbis.exact import _balanced_tables, _bitsets, _greedy_incumbent, _total_table
from conftest import (biadjacency, bitset_rows, brute_balanced, brute_max_balanced,
                      enter_then_prune_search, enumerate_max_gamma_balanced, graph_from_edges,
                      greedy_incumbent_loop, milp_optimum, subset_of)

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


@given(n=st.integers(9, 20), dense=st.booleans(), fraction=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1),
       gamma=st.sampled_from([0.05, 0.1, 0.25, 1 / 3, 0.45, 0.5]))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_agrees_with_enumeration_past_the_brute_force(n, dense, fraction, seed, gamma):
    # sparse d in [0.5, 3], dense d in [n/2, n - 1]
    d = n / 2 + fraction * (n / 2 - 1) if dense else 0.5 + 2.5 * fraction
    g = sample_bipartite_graph(n, d, RandomSeed(seed))
    assert max_gamma_balanced_is(g, gamma) == enumerate_max_gamma_balanced(g, gamma, limit=20)


@pytest.mark.parametrize("n, d", [(17, 6.0), (20, 3.0), (23, 6.0), (28, 3.0), (40, 4.0)])
def test_optimum_matches_milp(n, d):
    g = sample_bipartite_graph(n, d, RandomSeed(31, n))
    for gamma in (0.5, 1 / 3):
        size, witness = max_gamma_balanced_is(g, gamma, limit=40)
        assert size == milp_optimum(g, gamma)
        assert (size, witness) == enter_then_prune_search(g, gamma, limit=40)
        assert witness.size == size
        assert is_independent(g, witness) and is_gamma_balanced(witness, gamma)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 32, 40, 48, 56, 64])
def test_bound_table_matches_max_balanced_total(n):
    for gamma in (0.05, 0.1, 0.25, 0.3, 1 / 3, 0.45, 0.5):
        total, bound = _balanced_tables(_total_table(n, gamma))
        # the full scan reads total at each trace's (a, u)
        assert total == [[-1 if b is None else a + b
                          for b in (best_b_for_a(a, u, gamma) for u in range(n + 1))]
                         for a in range(n + 1)], gamma
        assert bound == [[sum(max_balanced_pair(a, u, gamma)) for u in range(n + 1)]
                         for a in range(n + 1)], gamma


@given(n=st.integers(1, 24), kind=st.sampled_from(["sparse", "dense", "edgeless", "complete"]),
       fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       gamma=st.sampled_from([0.05, 0.1, 0.25, 1 / 3, 0.45, 0.5]))
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_greedy_incumbent_matches_the_one_start_at_a_time_loop(n, kind, fraction, seed, gamma):
    if kind == "edgeless":
        g = graph_from_edges(n, [])
    elif kind == "complete":
        g = graph_from_edges(n, [(l, r) for l in range(n) for r in range(n)])
    else:
        # sparse d in [0.5, 3], dense d in [n/2, n - 1], both capped inside (0, n)
        d = (n / 2 + fraction * max(n / 2 - 1, 0) if kind == "dense"
             else min(0.5 + 2.5 * fraction, n / 2))
        g = sample_bipartite_graph(n, d, RandomSeed(seed))
    rows = bitset_rows(g)
    table = _total_table(n, gamma)
    total = table.tolist()
    best, mask, blocked = _greedy_incumbent(biadjacency(g), table)
    assert (best, mask, blocked) == greedy_incumbent_loop(rows, total)
    assert blocked == union_of_rows(rows, mask)
    assert best == total[mask.bit_count()][n - blocked.bit_count()]


def union_of_rows(rows, mask):
    blocked = 0
    for v, row in enumerate(rows):
        if mask >> v & 1:
            blocked |= row
    return blocked


@pytest.mark.parametrize("n, d, stream", [(1, 0.5, 0), (7, 3.0, 1), (9, 4.0, 2), (32, 3.0, 0),
                                          (32, 6.0, 2), (40, 4.0, 3)])
def test_bitsets_of_the_biadjacency_match_the_per_edge_rows(n, d, stream):
    # the solver's rows, and its cols in a search order, packed from one matrix
    g = sample_bipartite_graph(n, d, RandomSeed(1, stream))
    rows = bitset_rows(g)
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[g.el, g.er] = True
    assert _bitsets(adjacency) == rows
    order = sorted(range(n), key=lambda i: (-rows[i].bit_count(), i))
    cols = [sum(1 << j for j, v in enumerate(order) if rows[v] >> r & 1) for r in range(n)]
    assert _bitsets(adjacency[order].T) == cols


@pytest.mark.parametrize("d, stream", [(3.0, 0), (3.0, 1), (6.0, 2), (6.0, 3)])
def test_greedy_incumbent_is_optimal_on_the_n32_pinned_graphs(d, stream):
    # the exact-bb benchmark's graphs: an optimal first incumbent is what
    # lets the bound prune from the root on
    g = sample_bipartite_graph(32, d, RandomSeed(1, stream))
    for gamma in (0.5, 1 / 3):
        incumbent = _greedy_incumbent(biadjacency(g), _total_table(32, gamma))[0]
        assert incumbent == max_gamma_balanced_is(g, gamma)[0], gamma


def test_an_optimal_incumbent_with_a_larger_mask_gives_way_to_the_witness():
    g = sample_bipartite_graph(8, 2.0, RandomSeed(1, 8))
    best, mask, _ = _greedy_incumbent(biadjacency(g), _total_table(8, 0.5))
    size, witness = max_gamma_balanced_is(g, 0.5)
    assert best == size and mask > witness.mask_l
    assert (size, witness) == enumerate_max_gamma_balanced(g, 0.5)


# (n, d, stream of RandomSeed(1, .), gamma) -> (size, witness_l, witness_r), as
# `bipbis exact` printed them before the solver became one search pass, and
# for n = 32, d = 3 before it gained the matching bound. (24, 3.0, 4, 0.5) is
# a graph on which a leave branch that restores match_r[r] only after a
# rematch, not after leaving r unmatched, returns another witness
PINNED_WITNESSES = {
    (6, 1.5, 3, 0.5): (9, "1,2,3,4", "0,2,3,4,5"),
    (24, 3.0, 4, 0.5): (21, "2,4,5,7,8,9,10,16,18,19", "2,3,10,11,13,14,16,17,18,21,22"),
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
    (32, 3.0, 0, 0.5): (32, "1,2,5,6,7,8,10,14,16,17,22,23,24,25,26,28",
                        "0,1,3,6,7,9,12,13,14,16,21,22,23,24,25,27"),
    (32, 3.0, 0, 1 / 3): (33, "1,2,5,6,8,10,14,16,22,23,28",
                          "0,1,2,3,5,6,7,9,10,12,13,14,16,17,18,21,22,23,24,25,26,27"),
    (32, 3.0, 1, 0.5): (35, "0,1,4,6,8,9,10,11,12,16,21,22,24,27,28,29,30",
                        "0,1,6,7,8,9,10,14,16,17,18,19,21,22,23,24,26,29"),
    (32, 3.0, 1, 1 / 3): (34, "4,6,9,10,11,12,16,22,27,28,29",
                          "0,1,4,6,7,8,9,10,11,12,14,16,17,18,19,21,22,23,24,26,27,29,30"),
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


def frame_depth():
    """The frames on the stack of the caller, its own included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def chain_graph(n):
    """l_j ~ r_j, r_(j+1) for j < n - 1 and l_(n-1) ~ r_0: Kuhn's matching
    pairs each l_j with r_j, then augments l_(n-1) through all of them."""
    return graph_from_edges(n, [(l, r) for l in range(n - 1) for r in (l, l + 1)] + [(n - 1, 0)])


def test_the_recursion_limit_caps_n_before_any_work(monkeypatch):
    # the cap is the recursion limit less the frames on the stack, the
    # solver's own included, less two: n + 1 search frames and a builtin
    limit = frame_depth() + 50
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: limit)
    message = rf"n <= 47 per side for any limit .*recursion limit of {limit}\), got n = 48"
    with pytest.raises(CapacityError, match=message):
        max_gamma_balanced_is(graph_from_edges(48, []), 0.5, limit=1000)
    assert max_gamma_balanced_is(graph_from_edges(47, []), 0.5, limit=1000)[0] == 94

    def no_work(*args):
        raise AssertionError("work started before the depth check")

    monkeypatch.setattr(exact, "_greedy_incumbent", no_work)
    monkeypatch.setattr(exact, "_max_matching", no_work)
    with pytest.raises(CapacityError, match=message):
        max_gamma_balanced_is(graph_from_edges(48, []), 0.5, limit=1000)


def test_running_out_of_depth_below_the_cap_is_a_capacity_error(monkeypatch):
    # the check reads a limit that the stack does not have, as when calls on
    # it hold levels that no frame shows
    old = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: old)
    sys.setrecursionlimit(frame_depth() + 60)
    try:
        for graph in (graph_from_edges(100, []), chain_graph(100)):  # the search, the matching
            with pytest.raises(CapacityError, match=rf"ran past .* limit of {old} at n = 100"):
                max_gamma_balanced_is(graph, 0.5, limit=1000)
    finally:
        sys.setrecursionlimit(old)


# Under a real recursion limit of 150, from a script's top level: an edgeless
# graph takes every vertex, so the search descends n deep, and the chain
# l_j ~ r_j, r_(j+1) (j < n - 1), l_(n-1) ~ r_0 makes Kuhn's matching augment
# through every pair, n deep. Both run at the cap and are refused past it.
_DEEPEST_AT_THE_CAP = """
import json, re, sys
import numpy as np
from bipbis import BipartiteGraph, CapacityError, max_gamma_balanced_is
def edgeless(n):
    return BipartiteGraph.from_coordinates(n, np.zeros(0, dtype=np.int64))
def chain(n):
    coords = sorted({l * n + r for l in range(n - 1) for r in (l, l + 1)} | {(n - 1) * n})
    return BipartiteGraph.from_coordinates(n, np.array(coords, dtype=np.int64))
sys.setrecursionlimit(150)
try:
    max_gamma_balanced_is(edgeless(150), 0.5, limit=1000)
except CapacityError as exc:
    cap = int(re.search(r"n <= (\\d+)", str(exc)).group(1))
sizes = [max_gamma_balanced_is(edgeless(cap), 0.5, limit=1000)[0]]
sizes.append(max_gamma_balanced_is(chain(cap), 0.5, limit=1000)[0])
refused = 0
for graph in (edgeless(cap + 1), chain(cap + 1)):
    try:
        max_gamma_balanced_is(graph, 0.5, limit=1000)
    except CapacityError:
        refused += 1
print(json.dumps([cap, sizes, refused]))
"""


def test_the_deepest_search_and_matching_run_at_the_cap():
    # a fresh interpreter, as pytest's own calls hold recursion depth that no
    # Python frame shows
    path = os.pathsep.join(filter(None, (str(Path(exact.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _DEEPEST_AT_THE_CAP], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    cap, sizes, refused = json.loads(out.stdout)
    assert cap == 150 - 2 - 2  # the script's frame and the solver's
    assert sizes[0] == 2 * cap
    assert sizes[1] == max_gamma_balanced_is(chain_graph(cap), 0.5, limit=1000)[0]
    assert refused == 2



def test_capacity_error():
    g = graph_from_edges(5, [])
    with pytest.raises(CapacityError):
        max_gamma_balanced_is(g, 0.5, limit=4)
    with pytest.raises(CapacityError):
        enumerate_max_gamma_balanced(g, 0.5, limit=4)


def test_enumeration_capacity_names_the_bound_that_binds():
    # past the 2^n trace table's cap no limit helps, so the message names the cap
    big = graph_from_edges(21, [])
    for limit in (30, 4):
        with pytest.raises(CapacityError, match=r"n <= 20 per side for any limit") as err:
            enumerate_max_gamma_balanced(big, 0.5, limit=limit)
        assert "raise the limit" not in str(err.value)
    with pytest.raises(CapacityError, match="n <= 4 per side, got n = 5; raise the limit"):
        enumerate_max_gamma_balanced(graph_from_edges(5, []), 0.5, limit=4)


def test_enumerators_run_without_bitwise_count(monkeypatch):
    # pyproject allows numpy 1.24, which has no np.bitwise_count
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for n, d, stream in ((3, 1.0, 0), (5, 2.0, 1), (6, 3.0, 2)):
        g = sample_bipartite_graph(n, d, RandomSeed(13, stream))
        for gamma in (0.25, 0.5):
            size, witness = enumerate_max_gamma_balanced(g, gamma)
            assert size == brute_max_balanced(g, gamma)
            assert (size, witness) == max_gamma_balanced_is(g, gamma)




@pytest.mark.parametrize("gamma", [0.0, -0.1, 0.51, 1.0, float("nan")])
def test_solver_refuses_gamma_outside_the_half_interval(gamma):
    # refused before the capacity check, so even an oversized graph says gamma
    for n in (3, 40):
        with pytest.raises(ParameterError, match="gamma must lie in"):
            max_gamma_balanced_is(graph_from_edges(n, []), gamma)


# ---------------------------------------------------------------------------
# the L-trace reduction and the witness, against literal oracles
# ---------------------------------------------------------------------------


def small_graphs(seed, count=20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        yield sample_bipartite_graph(n, float(rng.uniform(0.5, min(2.5, n - 0.5))),
                                     RandomSeed(int(rng.integers(0, 2**31))))


def trace_totals(g, gamma):
    """For each L-mask: (best balanced total with that exact L-set, R-vertices
    it leaves free), by literal scan; total is -1 if no R-count balances it."""
    n = g.n
    edges = list(zip(g.el.tolist(), g.er.tolist()))
    totals = {}
    for l_mask in range(1 << n):
        free = [r for r in range(n)
                if not any(l_mask >> l & 1 and r == r2 for l, r2 in edges)]
        a = l_mask.bit_count()
        bs = [b for b in range(len(free) + 1) if brute_balanced(a, b, gamma)]
        totals[l_mask] = (a + max(bs) if bs else -1, free)
    return totals


@pytest.mark.parametrize("gamma", [0.1, 0.25, 1 / 3, 0.5])
def test_optimum_is_the_best_balanced_point_of_the_free_r_profile(gamma):
    # once the L-trace is fixed the best R-side is forced: the optimum is the
    # best balanced pair under (a, most R-vertices an a-set of L leaves free)
    for g in small_graphs(808):
        profile = {}
        for l_mask, (_, free) in trace_totals(g, gamma).items():
            a = l_mask.bit_count()
            profile[a] = max(profile.get(a, 0), len(free))
        assert sorted(profile.values(), reverse=True) == [profile[a] for a in sorted(profile)]
        via_profile = max(sum(max_balanced_pair(a, b, gamma)) for a, b in profile.items())
        assert max_gamma_balanced_is(g, gamma)[0] == via_profile


@pytest.mark.parametrize("gamma", [0.1, 0.25, 1 / 3, 0.5])
def test_witness_is_the_smallest_optimal_l_mask_and_the_lowest_free_r(gamma):
    for g in small_graphs(555):
        totals = trace_totals(g, gamma)
        best = max(total for total, _ in totals.values())
        l_mask = min(m for m, (total, _) in totals.items() if total == best)
        free = totals[l_mask][1]
        size, witness = max_gamma_balanced_is(g, gamma)
        assert size == best
        assert witness.mask_l == l_mask
        assert sorted(witness.in_r) == free[:best - l_mask.bit_count()]


# the single-edge, empty and complete graphs on 2+2 vertices, by hand:
# balance is |a - gamma*(a+b)| < 1, so at gamma = 1/4 the empty graph cannot
# take (2, 2) and K22 can take both R-vertices
@pytest.mark.parametrize("edges, gamma, size", [
    ([], 0.5, 4), ([], 0.25, 3),
    (K22, 0.5, 1), (K22, 0.25, 2),
    ([(0, 0)], 0.5, 3), ([(0, 0)], 0.25, 3),
])
def test_two_by_two_optima_are_pinned(edges, gamma, size):
    g = graph_from_edges(2, edges)
    assert brute_max_balanced(g, gamma) == size
    got, witness = max_gamma_balanced_is(g, gamma)
    assert got == witness.size == size
    assert is_independent(g, witness) and is_gamma_balanced(witness, gamma)


@pytest.mark.parametrize("gamma", [0.1, 1 / 3, 0.5])
def test_optimum_ignores_the_order_of_the_vertices(gamma):
    rng = np.random.default_rng(91)
    for g in small_graphs(91, count=10):
        n = g.n
        perm_l, perm_r = rng.permutation(n), rng.permutation(n)
        edges = zip(perm_l[g.el].tolist(), perm_r[g.er].tolist())
        assert (max_gamma_balanced_is(graph_from_edges(n, edges), gamma)[0]
                == max_gamma_balanced_is(g, gamma)[0])


def test_swapping_the_sides_keeps_the_half_balanced_optimum():
    # at gamma = 1/2 the balance condition is symmetric in a and b
    for g in small_graphs(92):
        swapped = graph_from_edges(g.n, zip(g.er.tolist(), g.el.tolist()))
        assert max_gamma_balanced_is(swapped, 0.5)[0] == max_gamma_balanced_is(g, 0.5)[0]
    for n, d, stream in ((12, 2.0, 0), (16, 3.0, 1)):
        g = sample_bipartite_graph(n, d, RandomSeed(92, stream))
        swapped = graph_from_edges(n, zip(g.er.tolist(), g.el.tolist()))
        assert max_gamma_balanced_is(swapped, 0.5)[0] == max_gamma_balanced_is(g, 0.5)[0]


@given(n=st.integers(20, 40), dense=st.booleans(), fraction=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.5, 1 / 3, 0.25, 0.1]))
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_checking_children_first_keeps_the_enter_then_prune_witness(n, dense, fraction, seed,
                                                                      gamma):
    # past the enumeration's n = 20: sparse d in [0.5, 3], dense d in [n/2, n - 1]
    d = n / 2 + fraction * (n / 2 - 1) if dense else 0.5 + 2.5 * fraction
    g = sample_bipartite_graph(n, d, RandomSeed(seed))
    assert max_gamma_balanced_is(g, gamma, limit=40) == enter_then_prune_search(g, gamma)
