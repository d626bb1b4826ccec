import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bipbis
from bipbis import (BipartiteGraph, ParameterError, RandomSeed, graph_from_text, graph_to_text,
                    read_graph_text, sample_bipartite_graph, validate_graph)
from bipbis import graph as graph_module
from bipbis.experiments import _write_atomic
from bipbis.graph import _bernoulli_coordinates, _text_blocks
from bipbis.rng import GRAPH_DRAW
from conftest import (Side, bernoulli_coordinates_exact, bernoulli_coordinates_unclipped,
                      bfs_ball, graph_from_edges, graph_from_text_loop, graph_from_text_whole,
                      graph_to_text_loop, neighborhood, validate_graph_loop)


# ---------------------------------------------------------------------------
# edge coordinates: 0-based and row-major, the edge (l, r) is l*n + r
# ---------------------------------------------------------------------------


def test_edge_index_first_and_last():
    assert graph_from_edges(3, [(0, 0)]).coords.tolist() == [0]
    assert graph_from_edges(3, [(2, 2)]).coords.tolist() == [8]
    g = BipartiteGraph(3, np.array([0, 8]))
    assert (g.el.tolist(), g.er.tolist()) == ([0, 2], [0, 2])


def test_edge_index_totality_n2():
    g = BipartiteGraph(2, np.arange(4))
    assert list(zip(g.el.tolist(), g.er.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@given(st.integers(min_value=1, max_value=50), st.data())
def test_edge_index_roundtrip(n, data):
    coord = data.draw(st.integers(min_value=0, max_value=n * n - 1))
    g = BipartiteGraph(n, np.array([coord]))
    l, r = int(g.el[0]), int(g.er[0])
    assert 0 <= l < n and 0 <= r < n
    assert graph_from_edges(n, [(l, r)]).coords.tolist() == [coord]


def test_edge_index_rejections():
    for coords in ([-1], [9]):
        with pytest.raises(ParameterError, match="out of range"):
            BipartiteGraph(3, np.array(coords))
    # an endpoint outside [0, n): (0, 3) and (1, -1) would alias the
    # coordinates of (1, 0) and (0, 2)
    for pair in ((3, 0), (0, 3), (-1, 0), (1, -1), (2**70, 0)):
        with pytest.raises(ParameterError, match="out of range for n=3"):
            graph_from_edges(3, [(0, 1), pair])


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
    assert g.edge_count == 2 and g.coords.tolist() == [1, 5]


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
    enough that the coordinates pass 2^31."""
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
def test_graph_is_its_coordinates_and_their_endpoints(case):
    n, coords = case
    given_coords = coords.copy()
    g = BipartiteGraph(n, coords)
    assert np.array_equal(coords, given_coords)
    for got, want in ((g.coords, given_coords), (g.el, given_coords // n),
                      (g.er, given_coords % n)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    validate_graph(g)
    validate_graph_loop(g)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_mean_edge_count():
    g = sample_bipartite_graph(1000, 10, RandomSeed(71))
    mean = 1000 * 10
    sd = np.sqrt(1000**2 * 0.01 * 0.99)
    assert abs(g.edge_count - mean) < 4 * sd


def test_sampled_coordinates_are_pinned():
    # sha256 of the n=1e5, d=10 coordinates of (seed 1, stream 3): the sampler
    # byte for byte
    coords = sample_bipartite_graph(10**5, 10, RandomSeed(1, 3)).coords
    assert coords.size == 1_000_429
    assert (hashlib.sha256(coords.tobytes()).hexdigest()
            == "4deb348c770fb45eb52bcdb404028118077b4b489319f99ef0736aa6e5fe42ed")


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
    got = _bernoulli_coordinates(m, p, lambda: (np.random.default_rng(seed),))[0]
    want = bernoulli_coordinates_unclipped(m, p, np.random.default_rng(seed))
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("p", [math.nextafter(1 / 3, 0), 1 / 3, math.nextafter(1 / 3, 1), 1.0])
@pytest.mark.parametrize("m", [1, 97, 10**4])
def test_bernoulli_coordinates_match_the_unclipped_sums_where_numpy_switches_to_a_search(m, p):
    for seed in range(3):
        got = _bernoulli_coordinates(m, p, lambda: (np.random.default_rng(seed),))[0]
        want = bernoulli_coordinates_unclipped(m, p, np.random.default_rng(seed))
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_bernoulli_coordinates_match_the_unclipped_sums_on_the_graph_stream():
    n, d = 10**5, 10.0
    got = _bernoulli_coordinates(n * n, d / n, lambda: (RandomSeed(4, 2).generator(GRAPH_DRAW),))[0]
    want = bernoulli_coordinates_unclipped(n * n, d / n, RandomSeed(4, 2).generator(GRAPH_DRAW))
    assert got.size > 0 and got.dtype == want.dtype and np.array_equal(got, want)


# A wrapped running sum gives negative coordinates or never ends, so the
# sampler runs in a child process with a timeout. The first graph fails fast
# on a sampler whose sum wraps, before the draws that would never end.
_LARGE_N_SAMPLES = """
import json
import numpy as np
from bipbis import RandomSeed, sample_bipartite_graph
from bipbis.graph import _bernoulli_coordinates
print(json.dumps({
    "edges": [sample_bipartite_graph(n, 1e-300, RandomSeed(1)).edge_count
              for n in (800000000, 3037000499)],
    "tiny": _bernoulli_coordinates(2147483647**2, 1e-300, lambda: (np.random.default_rng(0),))[0].tolist(),
    "coords": _bernoulli_coordinates(3037000499**2, 1e-17, lambda: (np.random.default_rng(5),))[0].tolist(),
}))
"""


def test_bernoulli_coordinates_never_wrap_at_large_n():
    path = os.pathsep.join(filter(None, (str(Path(bipbis.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-W", "error", "-c", _LARGE_N_SAMPLES],
                         capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["edges"] == [0, 0]
    assert got["tiny"] == []
    want = bernoulli_coordinates_exact(3037000499**2, 1e-17, np.random.default_rng(5))
    assert want.size > 1 and got["coords"] == want.tolist()


def test_bernoulli_coordinates_take_whole_batches_at_large_n(monkeypatch):
    # a batch used to hold one gap once m - pos passed half of INT64_MAX - pos
    calls = []
    draw = graph_module._geometric_gaps

    def counted(*args):
        calls.append(args[1])
        return draw(*args)

    monkeypatch.setattr(graph_module, "_geometric_gaps", counted)
    m, p = 3037000499**2, 1e-14
    got = _bernoulli_coordinates(m, p, lambda: (np.random.default_rng(5),))[0]
    want = bernoulli_coordinates_exact(m, p, np.random.default_rng(5))
    assert got.size == 92606 and np.array_equal(got, want)
    assert len(calls) == 1


@pytest.mark.parametrize("m, p", [(97, 0.5), (10**4, 0.01), (3037000499**2, 1e-17),
                                  (3037000499**2, 1e-19)])
def test_bernoulli_coordinates_are_unchanged_by_short_batches(monkeypatch, m, p):
    # three gaps a batch: the walk crosses batches, and at p = 1e-19 a batch's
    # capped gaps sum past int64 and past 2**64
    draw = graph_module._geometric_gaps
    monkeypatch.setattr(graph_module, "_geometric_gaps",
                        lambda p, size, cap, rng: draw(p, min(size, 3), cap, rng))
    for seed in range(4):
        got = _bernoulli_coordinates(m, p, lambda: (np.random.default_rng(seed),))[0]
        want = bernoulli_coordinates_exact(m, p, np.random.default_rng(seed))
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("m, p", [(97, 0.5), (10**4, 0.01), (3600, 4 / 60),
                                  (3037000499**2, 1e-17), (25, 1e-300)])
@pytest.mark.parametrize("rows", [1, 5])
def test_bernoulli_rows_equal_one_row_draws_from_fresh_generators(monkeypatch, m, p, rows):
    # three gaps a batch, so rows cross batches at different points, and each
    # continues from its own stream while one generator is re-keyed for every row
    draw = graph_module._geometric_gaps
    monkeypatch.setattr(graph_module, "_geometric_gaps",
                        lambda p, size, cap, rngs: draw(p, min(size, 3), cap, rngs))
    seed = RandomSeed(7, (1 << 32) - 2)
    got = _bernoulli_coordinates(m, p, lambda: seed.generators(GRAPH_DRAW, rows))
    assert len(got) == rows
    for i, row in enumerate(got):
        want = _bernoulli_coordinates(m, p, lambda: (seed.shifted(i).generator(GRAPH_DRAW),))[0]
        assert row.dtype == want.dtype and np.array_equal(row, want)
        assert (row.size == 0) == (p == 1e-300)


def test_bernoulli_coordinates_end_at_tiny_probabilities():
    # gaps drawn at p = 1e-20 sit at the int64 maximum; summed raw they wrap
    for p in (1e-20, 1e-300):
        assert _bernoulli_coordinates(25, p, lambda: (np.random.default_rng(3),))[0].size == 0
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
# the tests' ball builder, behind the ball-at-a-time oracles
# ---------------------------------------------------------------------------


def test_neighborhood_radius_zero():
    g = graph_from_edges(3, [(0, 0), (0, 1)])
    ball = neighborhood(g, (Side.L, 0), 0)
    assert ball.keys == ((Side.L, 0),)
    assert ball.depths == (0,) and ball.adj == ((),)


def test_neighborhood_star():
    g = graph_from_edges(3, [(0, 0), (0, 1), (0, 2)])
    ball = neighborhood(g, (Side.L, 0), 1)
    assert len(ball.keys) == 4
    assert ball.adj[0] == (1, 2, 3)


def test_neighborhood_path_radius_two():
    # l0 - r0 - l1; the radius-2 ball around l0 is the whole path
    edges = [(0, 0), (1, 0)]
    g = graph_from_edges(2, edges)
    ball = neighborhood(g, (Side.L, 0), 2)
    got = {(side.value, idx) for side, idx in ball.keys}
    assert got == bfs_ball(2, edges, "L", 0, 2) == {("L", 0), ("R", 0), ("L", 1)}
    assert ball.depths == (0, 1, 2)


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
        ball = neighborhood(g, (side, idx), radius)
        got = {(s.value, i) for s, i in ball.keys}
        assert got == bfs_ball(n, edges, side.value, idx, radius)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_text_format_shape():
    g = graph_from_edges(2, [(0, 1), (1, 0)])
    text = graph_to_text(g)
    assert text.splitlines()[0] == "2 2"
    assert text.splitlines()[1:] == ["0 1", "1 0"]


def write_graph_file(graph, path):
    """Write the graph file as the ``sample`` command does."""
    _write_atomic(str(path), lambda fh: fh.writelines(_text_blocks(graph)))


def test_text_roundtrip(tmp_path):
    g = sample_bipartite_graph(9, 2.5, RandomSeed(31))
    path = tmp_path / "g.txt"
    write_graph_file(g, path)
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
    validate_graph_loop(g)
    if g.edge_count == 0:
        return
    # moving one entry of any array breaks the graph, and both checks name the same fault
    name = data.draw(st.sampled_from(["coords", "el", "er"]))
    broken = getattr(g, name).copy()
    broken[data.draw(st.integers(min_value=0, max_value=broken.size - 1))] += data.draw(
        st.sampled_from([-n * n, -n, -1, 1, n, n * n]))
    setattr(g, name, broken)
    errors = []
    for check in (validate_graph, validate_graph_loop):
        with pytest.raises(ParameterError) as error:
            check(g)
        errors.append(str(error.value))
    assert errors[0] == errors[1]


# the largest n whose n^2 edge coordinates fit in int64; n - 1 has 10 digits
LARGEST_N = math.isqrt(2**63 - 1)


def endpoints(n):
    """Endpoints below n, every width up to that of n - 1 drawn alike."""
    widths = st.integers(min_value=1, max_value=len(str(n - 1)))
    return widths.flatmap(lambda w: st.integers(min_value=10 ** (w - 1) if w > 1 else 0,
                                                max_value=min(10 ** w, n) - 1))


@st.composite
def wide_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=LARGEST_N))
    return n, draw(st.lists(st.tuples(endpoints(n), endpoints(n)), min_size=1, max_size=12))


@given(wide_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=200)
@example((LARGEST_N, [(10 ** w - 1, 10 ** (w - 1)) for w in range(1, 10)]
          + [(0, LARGEST_N - 1), (LARGEST_N - 1, 0)]), 3)  # every width, 1 to 10 digits
def test_text_writer_matches_the_loop_oracle_on_wide_tokens(graph_edges, write_edges):
    g = graph_from_edges(*graph_edges)
    with mock.patch.object(graph_module, "_WRITE_EDGES", write_edges):
        text = graph_to_text(g)
    assert text == graph_to_text_loop(g)
    assert graph_from_text(text) == g


# unsorted, repeated, out-of-range and inconsistent arrays in place of each of
# the graph's own, whose coordinates are [1, 5, 6], el [0, 1, 2] and er [1, 2, 0]
BROKEN_ARRAYS = [
    ("coords", [5, 1, 6], "strictly increasing"),
    ("coords", [1, 5, 5], "strictly increasing"),
    ("coords", [-1, 5, 6], "out of range"),
    ("coords", [1, 5, 9], "out of range"),
    ("coords", [1, 5, 7], "R endpoints"),
    ("coords", [1, 2, 6], "L endpoints"),
    ("coords", [1, 5, 6, 7], "edge_count 3 disagrees"),
    ("coords", [[1, 5, 6]], "one-dimensional"),
    ("el", [1, 0, 2], "L endpoints"),
    ("el", [0, 1, 1], "L endpoints"),
    ("el", [0, 1, 3], "L endpoints"),
    ("el", [0, 1], "L endpoints"),
    ("er", [2, 1, 0], "R endpoints"),
    ("er", [1, 2, 2], "R endpoints"),
    ("er", [1, 2, 3], "R endpoints"),
    ("er", [1, 2, 0, 0], "R endpoints"),
]


@pytest.mark.parametrize("name, values, match", BROKEN_ARRAYS)
def test_validator_rejects_each_broken_array(name, values, match):
    g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    validate_graph(g)
    setattr(g, name, np.array(values, dtype=np.int64))
    with pytest.raises(ParameterError, match=match):
        validate_graph(g)


# ---------------------------------------------------------------------------
# text I/O in blocks
# ---------------------------------------------------------------------------


# Block sizes small enough that the files above cross many block cuts: a cut
# after every line break, searched one byte at a time, and cuts a few bytes
# apart, which split CRLF pairs and blank-line runs.
TINY_BLOCKS = [{"_READ_BYTES": 1, "_WRITE_EDGES": 1, "_CUT_WINDOW": 1},
               {"_READ_BYTES": 5, "_WRITE_EDGES": 2, "_CUT_WINDOW": 2},
               {"_READ_BYTES": 13, "_WRITE_EDGES": 3, "_CUT_WINDOW": 256}]


@pytest.mark.parametrize("sizes", TINY_BLOCKS)
def test_text_tests_pass_across_block_cuts(sizes, tmp_path):
    with mock.patch.multiple(graph_module, **sizes):
        test_text_parser_matches_loop_oracle()
        test_text_writer_and_validator_match_loop_oracles()
        test_text_roundtrip_property()
        test_text_roundtrip(tmp_path)
        test_text_format_shape()
        test_text_malformed()
        test_text_rejects_duplicate_edges()
        test_text_long_tokens()
        for token in ["x", "-1", "+1", "1_0", "1.0", "0x1", "\u0661", "\uff11"]:
            test_text_rejects_non_integer_tokens(token)


@given(graph_texts(), st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=3))
@settings(max_examples=400)
@example("2 1\r\n0 1\r\n", 4, 1)        # a cut between \r and \n
@example("\n\n\n\n2 1\n\n\n0 1\n", 1, 1)  # blank-line runs before and inside
@example("2 1\n0\n1\n", 4, 1)            # a malformed line starts a block
@example("2 2\n0 1\n1 9\n0 1 1\n", 3, 2)  # out of range, then malformed
@example("3 2\n0 3\n4 0\n", 1, 1)          # out of range twice
@example("2 1 \n0 1\t\r\n", 24, 1)       # a line break after a gap's first byte
def test_block_reader_matches_the_whole_file_reader(text, read_bytes, window):
    """The same graph, or the same first error word for word."""
    try:
        expected = graph_from_text_whole(text)
    except ParameterError as error:
        with mock.patch.multiple(graph_module, _READ_BYTES=read_bytes, _CUT_WINDOW=window):
            with pytest.raises(ParameterError) as got:
                graph_from_text(text)
        assert str(got.value) == str(error)
        return
    with mock.patch.multiple(graph_module, _READ_BYTES=read_bytes, _CUT_WINDOW=window):
        assert graph_from_text(text) == expected
        assert graph_from_text(text.encode("ascii")) == expected


def test_text_io_memory_is_bounded_by_the_edges_and_one_block(tmp_path):
    g = sample_bipartite_graph(20_000, 10.0, RandomSeed(3))
    raw = graph_to_text(g).encode("ascii")
    tracemalloc.start()
    try:
        write_graph_file(g, tmp_path / "g.txt")
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        read_back = graph_from_text(raw)
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert read_back == g
    # Measured with numpy 2.4 at m = 200 244 (2.2 MB of text): 3.0 MB to
    # write and 15.1 MB to read, against 22.6 and 32.0 MB for whole-file
    # arrays. At the end the reader holds 24 bytes an edge, the graph it returns.
    assert write_peak < 128 * graph_module._WRITE_EDGES
    assert read_peak < 24 * g.edge_count + 12 * graph_module._READ_BYTES
