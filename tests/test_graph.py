import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipbis import (BipartiteGraph, ParameterError, RandomSeed, Side, VertexId,
                    apply_local_pair, edge_index_to_pair, gamma_trim, graph_from_text,
                    graph_to_text, linear_blocking_polynomial, neighborhood,
                    pair_to_edge_index, random_threshold_pair, read_graph_text,
                    round_polynomial, sample_bipartite_graph, validate_graph,
                    write_graph_text)
from bipbis.graph import _bernoulli_coordinates
from conftest import (bernoulli_coordinates_unclipped, bfs_ball, csr_argsort, graph_arrays,
                      graph_from_edges, graph_from_text_loop, graph_to_text_loop,
                      validate_graph_sets)


# ---------------------------------------------------------------------------
# edge-coordinate bijection
# ---------------------------------------------------------------------------


def test_edge_index_first_and_last():
    assert edge_index_to_pair(3, 1) == (0, 0)
    assert pair_to_edge_index(3, 0, 0) == 1
    assert edge_index_to_pair(3, 9) == (2, 2)
    assert pair_to_edge_index(3, 2, 2) == 9


def test_edge_index_totality_n2():
    pairs = [edge_index_to_pair(2, k) for k in range(1, 5)]
    assert sorted(pairs) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@given(st.integers(min_value=1, max_value=50), st.data())
def test_edge_index_roundtrip(n, data):
    index = data.draw(st.integers(min_value=1, max_value=n * n))
    l, r = edge_index_to_pair(n, index)
    assert 0 <= l < n and 0 <= r < n
    assert pair_to_edge_index(n, l, r) == index


def test_edge_index_rejections():
    with pytest.raises(ParameterError):
        edge_index_to_pair(3, 0)
    with pytest.raises(ParameterError):
        edge_index_to_pair(3, 10)
    with pytest.raises(ParameterError):
        pair_to_edge_index(3, 3, 0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_constructor_rejects_unsorted_and_repeated_coordinates():
    # unsorted coordinates once built a graph without the edges (0, 1) and (1, 2)
    with pytest.raises(ParameterError, match="strictly increasing"):
        BipartiteGraph(3, [5, 1])
    # a repeated coordinate once counted as two edges
    with pytest.raises(ParameterError, match="strictly increasing"):
        BipartiteGraph(3, [1, 1])
    g = BipartiteGraph.from_coordinates(3, [5, 1, 1])
    assert g.edge_count == 2 and g.has_edge(0, 1) and g.has_edge(1, 2)


def test_constructor_rejects_out_of_range_input():
    for coords in ([-1, 0], [0, 9], [[0, 1]]):
        with pytest.raises(ParameterError):
            BipartiteGraph(3, coords)
    with pytest.raises(ParameterError, match="too large"):
        BipartiteGraph(2**32, [])


@st.composite
def edge_coordinate_sets(draw):
    """Strictly increasing coordinates: empty, complete and sparse graphs,
    full rows and columns, isolated vertices on both sides, and n large
    enough that the transposed keys pass 2^31."""
    n = draw(st.integers(min_value=1, max_value=8) | st.integers(min_value=9, max_value=300)
             | st.integers(min_value=46_400, max_value=100_000))
    coords = draw(st.lists(st.integers(min_value=0, max_value=n * n - 1), max_size=60))
    if n <= 8 and draw(st.booleans()):
        coords += range(n * n)
    if n <= 300:
        for line in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)):
            coords += [line * n + k for k in range(n)]  # L vertex `line` sees all of R
        for line in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)):
            coords += [k * n + line for k in range(n)]  # R vertex `line` sees all of L
    return n, np.unique(np.array(coords, dtype=np.int64))


@given(edge_coordinate_sets())
@settings(max_examples=200)
def test_csr_matches_argsort_oracle(case):
    n, coords = case
    given_coords = coords.copy()
    g = BipartiteGraph(n, coords)
    assert np.array_equal(coords, given_coords)
    arrays = graph_arrays(g)
    for name, want in csr_argsort(n, given_coords).items():
        got = arrays[name]
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable


def test_easy_algorithms_leave_the_r_side_unbuilt():
    # the calls of one local and one lowdeg trial scan the edge list only and
    # build no CSR
    s = RandomSeed(5)
    g = sample_bipartite_graph(2000, 10, s)
    subset = apply_local_pair(g, random_threshold_pair(0.1746), s)
    gamma_trim(subset, 0.5)
    values = linear_blocking_polynomial(2000, 700, s).evaluate(g)
    round_polynomial(values, g, 0.0)
    assert g._csr is None


ADJACENCY_USES = {
    "csr_l": lambda g: g.csr_l(),
    "csr_r": lambda g: g.csr_r(),
    "neighbors_l": lambda g: g.neighbors_l(0),
    "neighbors_r": lambda g: g.neighbors_r(0),
    "degrees_l": lambda g: g.degrees_l(),
    "degrees_r": lambda g: g.degrees_r(),
    "has_edge": lambda g: g.has_edge(0, 1),
    "validate_graph": validate_graph,
    "neighborhood": lambda g: neighborhood(g, VertexId(Side.R, 1), 1),
}


# every adjacency read builds both sides' CSR, the R side included
@pytest.mark.parametrize("use", sorted(ADJACENCY_USES))
def test_r_side_is_built_on_first_use(use):
    g = sample_bipartite_graph(300, 4, RandomSeed(6))
    assert g._csr is None
    ADJACENCY_USES[use](g)
    built = g._csr
    want = csr_argsort(g.n, g.coords)
    for name, got in zip(("indptr_l", "indptr_r", "flat_r_to_l"), built):
        assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name
        assert not got.flags.writeable
    assert g.csr_l()[0] is built[0] and g.csr_l()[1] is g.er
    assert g.csr_r()[0] is built[1] and g.csr_r()[1] is built[2]
    assert g._csr is built


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_mean_edge_count():
    g = sample_bipartite_graph(1000, 10, RandomSeed(71))
    mean = 1000 * 10
    sd = np.sqrt(1000**2 * 0.01 * 0.99)
    assert abs(g.edge_count - mean) < 4 * sd


def test_sample_degenerate_probability():
    g = sample_bipartite_graph(5, 1e-9, RandomSeed(123))
    assert g.edge_count == 0


def test_sample_determinism_and_seed_separation():
    a = sample_bipartite_graph(4, 2, RandomSeed(5, 0))
    b = sample_bipartite_graph(4, 2, RandomSeed(5, 0))
    c = sample_bipartite_graph(4, 2, RandomSeed(6, 0))
    assert graph_to_text(a) == graph_to_text(b)
    assert a == b
    assert graph_to_text(a) != graph_to_text(c)


@given(st.integers(min_value=1, max_value=10**6), st.floats(min_value=-12, max_value=0),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_bernoulli_coordinates_match_the_unclipped_sums(m, log_p, seed):
    p = 10.0**log_p
    got = _bernoulli_coordinates(m, p, np.random.default_rng(seed))
    want = bernoulli_coordinates_unclipped(m, p, np.random.default_rng(seed))
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_bernoulli_coordinates_end_at_tiny_probabilities():
    # gaps drawn at p = 1e-20 sit at the int64 maximum; summed raw they wrap
    for p in (1e-20, 1e-300):
        assert _bernoulli_coordinates(25, p, np.random.default_rng(3)).size == 0
    assert sample_bipartite_graph(5, 1e-300, RandomSeed(1)).edge_count == 0


def test_sample_rejections():
    with pytest.raises(ParameterError):
        sample_bipartite_graph(0, 1, RandomSeed(1))
    with pytest.raises(ParameterError):
        sample_bipartite_graph(5, 5, RandomSeed(1))
    with pytest.raises(ParameterError):
        sample_bipartite_graph(5, -1, RandomSeed(1))


def test_seed_validation_and_stream_arithmetic():
    with pytest.raises(ParameterError):
        RandomSeed(-1)
    with pytest.raises(ParameterError):
        RandomSeed(2**64)
    with pytest.raises(ParameterError):
        RandomSeed(1, -2)
    s = RandomSeed(9, 3)
    assert s.shifted(4) == RandomSeed(9, 7)
    assert s.with_stream(0) == RandomSeed(9, 0)
    # distinct purposes give independent substreams of one (seed, stream)
    a = s.generator(0).random(4)
    b = s.generator(1).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, RandomSeed(9, 3).generator(0).random(4))


def test_sampled_graphs_pass_full_scan():
    for t in range(25):
        g = sample_bipartite_graph(3 + t % 12, 1.5, RandomSeed(900, t))
        validate_graph(g)


def test_per_coordinate_presence_chi_square():
    # each of the 36 coordinates should be present with probability d/n = 1/3
    scipy_stats = pytest.importorskip("scipy.stats")
    n, d, samples = 6, 2.0, 1500
    counts = np.zeros(n * n)
    for t in range(samples):
        g = sample_bipartite_graph(n, d, RandomSeed(2024, t))
        counts[g.coords] += 1
    p = d / n
    stat = float(np.sum((counts - samples * p) ** 2 / (samples * p * (1 - p))))
    pvalue = scipy_stats.chi2.sf(stat, df=n * n)
    assert pvalue >= 0.01


# ---------------------------------------------------------------------------
# neighborhoods
# ---------------------------------------------------------------------------


def test_neighborhood_radius_zero():
    g = graph_from_edges(3, [(0, 0), (0, 1)])
    ball = neighborhood(g, VertexId(Side.L, 0), 0)
    assert ball.n_vertices == 1
    assert ball.vertex_ids == (VertexId(Side.L, 0),)


def test_neighborhood_star():
    g = graph_from_edges(3, [(0, 0), (0, 1), (0, 2)])
    ball = neighborhood(g, VertexId(Side.L, 0), 1)
    assert ball.n_vertices == 4
    assert ball.root_neighbors() == (1, 2, 3)


def test_neighborhood_path_radius_two():
    # l0 - r0 - l1; the radius-2 ball around l0 is the whole path
    edges = [(0, 0), (1, 0)]
    g = graph_from_edges(2, edges)
    ball = neighborhood(g, VertexId(Side.L, 0), 2)
    got = {(v.side.value, v.index) for v in ball.vertex_ids}
    assert got == bfs_ball(2, edges, "L", 0, 2) == {("L", 0), ("R", 0), ("L", 1)}


def test_neighborhood_matches_bfs_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        g = sample_bipartite_graph(n, float(rng.uniform(0.5, min(n - 0.01, 2.5))),
                                   RandomSeed(int(rng.integers(0, 2**31))))
        edges = list(zip(g.el.tolist(), g.er.tolist()))
        side = Side.L if rng.random() < 0.5 else Side.R
        idx = int(rng.integers(0, n))
        radius = int(rng.integers(0, 4))
        ball = neighborhood(g, VertexId(side, idx), radius)
        got = {(v.side.value, v.index) for v in ball.vertex_ids}
        assert got == bfs_ball(n, edges, side.value, idx, radius)


def test_neighborhood_invalid_vertex():
    g = graph_from_edges(2, [])
    with pytest.raises(ParameterError):
        neighborhood(g, VertexId(Side.L, 5), 1)
    with pytest.raises(ParameterError):
        neighborhood(g, VertexId(Side.L, 0), -1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_text_format_shape():
    g = graph_from_edges(2, [(0, 1), (1, 0)])
    text = graph_to_text(g)
    assert text.splitlines()[0] == "2 2"
    assert text.splitlines()[1:] == ["0 1", "1 0"]


def test_text_roundtrip(tmp_path):
    g = sample_bipartite_graph(9, 2.5, RandomSeed(31))
    path = tmp_path / "g.txt"
    write_graph_text(g, path)
    assert read_graph_text(path) == g


def test_text_malformed():
    with pytest.raises(ParameterError):
        graph_from_text("")
    with pytest.raises(ParameterError):
        graph_from_text("2 3\n0 0\n")  # promises 3 edges, has 1
    with pytest.raises(ParameterError):
        graph_from_text("2 1\n0\n")
    for line in ("0 3", "3 0", "3 3"):
        with pytest.raises(ParameterError, match="out of range"):
            graph_from_text(f"3 1\n{line}\n")


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=40)
def test_text_roundtrip_property(n, data):
    cells = data.draw(st.sets(st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1))))
    g = graph_from_edges(n, sorted(cells))
    assert graph_from_text(graph_to_text(g)) == g


def test_text_rejects_duplicate_edges():
    with pytest.raises(ParameterError, match="line 3: duplicate edge"):
        graph_from_text("3 2\n0 1\n0 1\n")


@pytest.mark.parametrize("token", ["x", "-1", "+1", "1_0", "1.0", "0x1", "\u0661", "\uff11"])
def test_text_rejects_non_integer_tokens(token):
    with pytest.raises(ParameterError, match="not an unsigned decimal integer"):
        graph_from_text(f"2 1\n0 {token}\n")
    with pytest.raises(ParameterError, match="not an unsigned decimal integer"):
        graph_from_text(f"2 1\n0 {token}\n".encode("utf-8"))
    with pytest.raises(ParameterError, match="line 1"):
        graph_from_text(f"{token} 0\n")


def test_text_long_tokens():
    # leading zeros are allowed at any length; values beyond int64 are out of range
    g = graph_from_text("2 1\n0 " + "0" * 30 + "1\n")
    assert g == graph_from_edges(2, [(0, 1)])
    with pytest.raises(ParameterError, match="out of range"):
        graph_from_text("2 1\n0 1" + "0" * 30 + "\n")
    with pytest.raises(ParameterError, match="too large"):
        graph_from_text("1" + "0" * 20 + " 0\n")


SEPARATORS = [" ", "\t", "  ", " \t ", "\x1f"]
LINE_BREAKS = ["\n", "\r\n", "\r", "\n\n", "\r\n  \r\n", "\v", "\f", "\x1c"]
BAD_TOKENS = ["x", "-1", "+1", "1_0", "1.0", "\u0663", "99999999999999999999999", "0"]


@st.composite
def graph_texts(draw):
    """Graph files around the format: shuffled edges, padding, CRLF and blank
    lines, with some duplicated edges, stray tokens and miscounted headers."""
    n = draw(st.integers(min_value=1, max_value=5))
    cell = st.tuples(st.integers(min_value=0, max_value=n - 1),
                     st.integers(min_value=0, max_value=n - 1))
    pairs = draw(st.lists(cell, max_size=10, unique=True))
    if pairs and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))
    rows = [[str(n), str(len(pairs))]] + [[str(l), str(r)] for l, r in pairs]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        row = draw(st.sampled_from(rows))
        action = draw(st.sampled_from(["replace", "drop", "add", "zeros"]))
        k = draw(st.integers(min_value=0, max_value=len(row) - 1))
        if action == "replace":
            row[k] = draw(st.sampled_from(BAD_TOKENS + [str(n)]))
        elif action == "drop":
            del row[k]
        elif action == "add":
            row.insert(k, draw(st.sampled_from(BAD_TOKENS)))
        else:
            row[k] = "00" + row[k]
    text = draw(st.sampled_from(["", "\n", " \r\n"]))
    for row in rows:
        sep = draw(st.sampled_from(SEPARATORS))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        text += pad + sep.join(row) + pad + draw(st.sampled_from(LINE_BREAKS))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@given(graph_texts())
@settings(max_examples=300)
def test_text_parser_matches_loop_oracle(text):
    try:
        expected = graph_from_text_loop(text)
    except ParameterError:
        with pytest.raises(ParameterError):
            graph_from_text(text)
        return
    assert graph_from_text(text) == expected
    assert graph_from_text(text.encode("ascii")) == expected


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1),
       st.data())
@settings(max_examples=60)
def test_text_writer_and_validator_match_loop_oracles(n, seed, data):
    g = sample_bipartite_graph(n, min(n - 0.01, 2.5), RandomSeed(seed))
    assert graph_to_text(g) == graph_to_text_loop(g)
    validate_graph(g)
    validate_graph_sets(g)
    if g.edge_count == 0:
        return
    # moving one R-side adjacency entry to another L vertex breaks symmetry
    indptr_l, indptr_r, flat = g._csr
    flat = flat.copy()
    k = data.draw(st.integers(min_value=0, max_value=flat.size - 1))
    flat[k] = (flat[k] + data.draw(st.integers(min_value=1, max_value=n - 1))) % n
    g._csr = (indptr_l, indptr_r, flat)
    for check in (validate_graph, validate_graph_sets):
        with pytest.raises(ParameterError, match="not symmetric"):
            check(g)


def test_validator_rejects_a_broken_csr_index():
    g = graph_from_edges(3, [(0, 0), (1, 1), (2, 2)])
    indptr_l, _, flat = g.csr_l()[0], *g.csr_r()
    g._csr = (indptr_l, np.array([0, 4, 2, 3]), flat)  # degrees 4, -2, 1 still sum to 3
    with pytest.raises(ParameterError, match="partition"):
        validate_graph(g)
