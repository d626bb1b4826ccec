"""Balanced bipartite graphs: sampling, edge-coordinate indexing, neighborhoods, text I/O.

Edge coordinates number the n-by-n biadjacency cells 1..n^2 in row-major order
(L-vertex major, R-vertex minor). Everything downstream that replays or
resamples edges -- notably the interpolation path -- relies on this order
being stable across runs, so it is fixed here once.

Graphs are logically immutable after construction and safe to share
read-only across parallel workers; the CSR adjacency of both sides is built
once, on first use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParameterError
from .rng import GRAPH_DRAW, RandomSeed


class Side(enum.Enum):
    L = "L"
    R = "R"

    def other(self) -> "Side":
        return Side.R if self is Side.L else Side.L


@dataclass(frozen=True)
class VertexId:
    side: Side
    index: int

    def global_index(self, n: int) -> int:
        """Position in the length-2n vertex order: L 0..n-1, then R 0..n-1."""
        return self.index if self.side is Side.L else n + self.index


# ---------------------------------------------------------------------------
# Edge-coordinate bijection (1-based, row-major with the L index outer)
# ---------------------------------------------------------------------------


def pair_to_edge_index(n: int, l: int, r: int) -> int:
    if not (0 <= l < n and 0 <= r < n):
        raise ParameterError(f"vertex pair ({l}, {r}) out of range for n={n}")
    return l * n + r + 1


def edge_index_to_pair(n: int, index: int) -> tuple[int, int]:
    if not (1 <= index <= n * n):
        raise ParameterError(f"edge index {index} outside [1, {n * n}]")
    l, r = divmod(index - 1, n)
    return l, r


# ---------------------------------------------------------------------------
# The graph itself
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_vertex_count(n: int) -> None:
    """n must be positive, with its n^2 edge coordinates within int64."""
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    if n * n > _INT64_MAX:
        raise ParameterError(f"n={n} is too large: n^2 edge coordinates must fit in int64")


class BipartiteGraph:
    """A balanced bipartite graph on n+n vertices.

    ``coords`` must be a strictly increasing array of 0-based row-major edge
    coordinates in [0, n^2), with n^2 within int64; unsorted or repeated
    coordinates raise ParameterError. ``from_coordinates`` accepts any order
    and drops repeats. The edge set is that array and its endpoint arrays
    ``el`` and ``er``; the graph is logically immutable and its arrays are
    read-only. Both sides' CSR index arrays and the R-side neighbour order
    are built together, once, on the first adjacency read; edge-list kernels
    never build them.
    """

    __slots__ = ("n", "edge_count", "coords", "el", "er", "_csr")

    def __init__(self, n: int, coords: np.ndarray):
        _check_vertex_count(n)
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 1:
            raise ParameterError(f"edge coordinates must be one-dimensional, got shape {coords.shape}")
        if np.any(coords[1:] <= coords[:-1]):
            raise ParameterError("edge coordinates must be strictly increasing")
        if coords.size and (coords[0] < 0 or coords[-1] >= n * n):
            raise ParameterError("edge coordinate out of range")
        self.n = n
        self.coords = coords
        self.edge_count = int(coords.size)
        self.el, self.er = np.divmod(coords, n)
        self._csr = None
        for arr in (self.coords, self.el, self.er):
            arr.setflags(write=False)

    @staticmethod
    def from_coordinates(n: int, coords: np.ndarray) -> "BipartiteGraph":
        """Build from sorted, duplicate-free 0-based coordinates."""
        coords = np.unique(np.asarray(coords, dtype=np.int64))
        return BipartiteGraph(n, coords)

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        coords = [pair_to_edge_index(n, l, r) - 1 for l, r in pairs]
        return BipartiteGraph.from_coordinates(n, np.array(coords, dtype=np.int64))

    # -- adjacency access ---------------------------------------------------

    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L indptr, R indptr, flat L-neighbour indices over R), built on first use."""
        if self._csr is None:
            n = self.n
            # Row-major order makes el non-decreasing and er increasing within
            # a row, so sorting the unique transposed keys r*n + l orders the
            # edges by (r, l), as a stable argsort of er would; each key is
            # below n^2.
            keys = self.er * n
            keys += self.el
            keys.sort()
            keys %= n
            indptr_l, indptr_r = (np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
                                  for ends in (self.el, self.er))
            for arr in (indptr_l, indptr_r, keys):
                arr.setflags(write=False)
            self._csr = (indptr_l, indptr_r, keys)
        return self._csr

    def neighbors_l(self, i: int) -> np.ndarray:
        """Sorted R-neighbors of L-vertex i."""
        indptr = self._adjacency()[0]
        return self.er[indptr[i]:indptr[i + 1]]

    def neighbors_r(self, j: int) -> np.ndarray:
        """Sorted L-neighbors of R-vertex j."""
        indptr, flat = self.csr_r()
        return flat[indptr[j]:indptr[j + 1]]

    def neighbors(self, v: VertexId) -> np.ndarray:
        if not (0 <= v.index < self.n):
            raise ParameterError(f"vertex {v} out of range for n={self.n}")
        return self.neighbors_l(v.index) if v.side is Side.L else self.neighbors_r(v.index)

    def degrees_l(self) -> np.ndarray:
        return np.diff(self._adjacency()[0])

    def degrees_r(self) -> np.ndarray:
        return np.diff(self._adjacency()[1])

    def csr_l(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, flat R-neighbor indices) over L vertices, for bulk kernels."""
        return self._adjacency()[0], self.er

    def csr_r(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, flat L-neighbor indices) over R vertices."""
        _, indptr, flat = self._adjacency()
        return indptr, flat

    def has_edge(self, l: int, r: int) -> bool:
        row = self.neighbors_l(l)
        k = np.searchsorted(row, r)
        return bool(k < row.size and row[k] == r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash((self.n, self.coords.tobytes()))

    def __repr__(self):
        return f"BipartiteGraph(n={self.n}, edge_count={self.edge_count})"


def validate_graph(graph: BipartiteGraph) -> None:
    """Full-scan structural check: bipartite, symmetric, consistent counts."""
    n = graph.n
    if graph.el.size and (graph.el.min() < 0 or graph.el.max() >= n):
        raise ParameterError("L endpoint out of range")
    if graph.er.size and (graph.er.min() < 0 or graph.er.max() >= n):
        raise ParameterError("R endpoint out of range")
    coords = np.sort(graph.coords)
    if np.any(coords[1:] == coords[:-1]):
        raise ParameterError("duplicate edges present")
    if int(graph.degrees_l().sum()) != graph.edge_count:
        raise ParameterError("L-degree sum disagrees with edge_count")
    if int(graph.degrees_r().sum()) != graph.edge_count:
        raise ParameterError("R-degree sum disagrees with edge_count")
    # symmetry: the sorted edge coordinates rebuilt from each side's CSR agree
    l_rows, l_nbrs = _csr_pairs(*graph.csr_l())
    r_rows, r_nbrs = _csr_pairs(*graph.csr_r())
    if not np.array_equal(np.sort(l_rows * n + l_nbrs), np.sort(r_nbrs * n + r_rows)):
        raise ParameterError("adjacency is not symmetric across sides")


def _csr_pairs(indptr: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vertex, neighbor) arrays of every entry of one side's CSR adjacency."""
    degrees = np.diff(indptr)
    if degrees.size and (degrees.min() < 0 or indptr[0] < 0 or indptr[-1] > flat.size):
        raise ParameterError("CSR index pointers are not a valid partition")
    return np.repeat(np.arange(degrees.size), degrees), flat[indptr[0]:indptr[-1]]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _bernoulli_coordinates(m: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions of iid Bernoulli(p) successes over 0..m-1.

    Uses geometric gap jumps, so the cost is O(successes) rather than O(m);
    with m = n^2 cells a per-cell draw is infeasible at experiment scale.
    A gap beyond m is cut to m + 1 before the running sum: every position from
    it on still lands past m, and for p below about 1e-17 the draws near the
    int64 maximum would otherwise wrap the sum negative and never end.
    """
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    expected = m * p
    batch = max(int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16, 16)
    pos = -1
    chunks = []
    while pos < m:
        gaps = np.minimum(rng.geometric(p, size=batch), m + 1)
        steps = np.cumsum(gaps) + pos
        chunks.append(steps)
        pos = int(steps[-1])
    coords = np.concatenate(chunks)
    return coords[coords < m]


def sample_bipartite_graph(n: int, d: float, seed: RandomSeed) -> BipartiteGraph:
    """Sample the random bipartite graph with each L-R pair present independently
    with probability d/n, deterministically given (n, d, seed)."""
    _check_vertex_count(n)
    if not (0.0 < d < n):
        raise ParameterError(f"d must satisfy 0 < d < n (edge probability d/n in (0,1)), got d={d}, n={n}")
    rng = seed.generator(GRAPH_DRAW)
    coords = _bernoulli_coordinates(n * n, d / n, rng)
    return BipartiteGraph(n, coords)


# ---------------------------------------------------------------------------
# Neighborhoods (rooted balls)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Neighborhood:
    """The radius-s ball around a root, as a rooted induced subgraph.

    Local vertex 0 is the root. ``global_indices`` maps local vertices to
    positions in the host graph's length-2n vertex order; it is None for
    synthetic balls (offspring trees) with no host graph.
    """

    root_side: Side
    vertex_ids: tuple[VertexId, ...]
    adj: tuple[tuple[int, ...], ...]
    depths: tuple[int, ...]
    global_indices: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    def root_neighbors(self) -> tuple[int, ...]:
        return self.adj[0]


def neighborhood(graph: BipartiteGraph, v: VertexId, radius: int) -> Neighborhood:
    """BFS ball of graph-distance <= radius around v, with induced edges."""
    if radius < 0:
        raise ParameterError(f"radius must be non-negative, got {radius}")
    if not (0 <= v.index < graph.n):
        raise ParameterError(f"vertex {v} out of range for n={graph.n}")
    local = {(v.side, v.index): 0}
    order = [(v.side, v.index)]
    depths = [0]
    frontier = [(v.side, v.index)]
    for depth in range(1, radius + 1):
        nxt = []
        for side, idx in frontier:
            nbrs = graph.neighbors_l(idx) if side is Side.L else graph.neighbors_r(idx)
            for u in nbrs:
                key = (side.other(), int(u))
                if key not in local:
                    local[key] = len(order)
                    order.append(key)
                    depths.append(depth)
                    nxt.append(key)
        frontier = nxt
    adj: list[list[int]] = [[] for _ in order]
    for side, idx in order:
        a = local[(side, idx)]
        nbrs = graph.neighbors_l(idx) if side is Side.L else graph.neighbors_r(idx)
        for u in nbrs:
            key = (side.other(), int(u))
            if key in local:
                adj[a].append(local[key])
    vertex_ids = tuple(VertexId(side, idx) for side, idx in order)
    gidx = np.array([vid.global_index(graph.n) for vid in vertex_ids], dtype=np.int64)
    return Neighborhood(
        root_side=v.side,
        vertex_ids=vertex_ids,
        adj=tuple(tuple(sorted(a)) for a in adj),
        depths=tuple(depths),
        global_indices=gidx,
    )


# ---------------------------------------------------------------------------
# Text serialization: header "n m", then m lines "l r" (0-based, row-major)
# ---------------------------------------------------------------------------


def graph_to_text(graph: BipartiteGraph) -> str:
    endpoints = np.column_stack((graph.el, graph.er)).ravel().tolist()
    return f"{graph.n} {graph.edge_count}\n" + ("%d %d\n" * graph.edge_count) % tuple(endpoints)


def write_graph_text(graph: BipartiteGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(graph))


# The reader works on the raw bytes. Line breaks and blanks are the ASCII
# characters that str.splitlines() and str.split() treat as such; any other
# byte that is not a decimal digit, non-ASCII bytes included, is rejected.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e"
# Edge tokens are accumulated in int64 over at most this many trailing digits.
# A longer token with a nonzero digit before them is at least 10**18, out of
# range for any n whose n^2 edge coordinates fit in int64.
_MAX_DIGITS = 18


def graph_from_text(text: str | bytes) -> BipartiteGraph:
    """Parse the text format: a header line "n m", then m lines "l r".

    Every token must be an unsigned ASCII decimal integer and every nonblank
    line must hold exactly two. Endpoints must lie in [0, n) and no edge may
    appear twice. Blank lines and CRLF line endings are allowed. Any violation
    raises ParameterError naming the offending line.
    """
    raw = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    data = np.frombuffer(raw, dtype=np.uint8)
    # uint8 differences wrap around, so each "x - a < k" tests a <= x < a + k
    digit = data - ord("0") < 10
    brk = (data - ord("\n") < 4) | (data - ord("\x1c") < 3)  # \n \v \f \r, \x1c-\x1e
    blank = (data == ord("\t")) | (data - ord("\x1f") < 2)    # \t, \x1f and space
    valid = digit | brk | blank
    if not valid.all():
        raise _bad_line(raw, int(valid.argmin()), "not an unsigned decimal integer")
    # tokens are the maximal runs of digits, raw[starts[k]:ends[k]]
    flips = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = flips[0::2], flips[1::2]
    if starts.size == 0:
        raise ParameterError("empty graph file")
    # opens[k]: token k is the first on its line. Tokens 2j and 2j+1 must share
    # a line of their own; the sentinel makes an odd last token open a pair.
    opens = np.ones(starts.size + 1, dtype=bool)
    opens[1:-1] = np.logical_or.reduceat(brk, flips[:-1])[1::2]
    bad = np.flatnonzero(~opens[0:-1:2] | opens[1::2])
    if bad.size:
        at = int(starts[2 * bad[0]])
        what = "edge" if brk[starts[0]:at].any() else "header"
        raise _bad_line(raw, at, f"malformed {what} line")
    n, m = int(raw[starts[0]:ends[0]]), int(raw[starts[1]:ends[1]])
    if starts.size // 2 - 1 != m:
        raise ParameterError(f"header promises {m} edges, file has {starts.size // 2 - 1}")
    _check_vertex_count(n)

    starts, ends = starts[2:], ends[2:]
    widths = ends - starts
    values = np.zeros(starts.size, dtype=np.int64)
    width = min(int(widths.max(initial=0)), _MAX_DIGITS)
    at = ends - width  # a negative index wraps inside data; such digits are masked
    for back in range(width, 0, -1):
        digits = data[at] - ord("0")
        digits[widths < back] = 0
        values *= 10
        values += digits
        at += 1
    long = np.flatnonzero(widths > _MAX_DIGITS)
    if long.size:
        heads = np.stack([starts[long], ends[long] - _MAX_DIGITS], axis=1).ravel()
        values[long[np.logical_or.reduceat(data != ord("0"), heads)[0::2]]] = _INT64_MAX

    el, er = values[0::2], values[1::2]
    bad = np.flatnonzero((el >= n) | (er >= n))
    if bad.size:
        raise _bad_line(raw, int(starts[2 * bad[0]]), f"vertex pair out of range for n={n}")
    unsorted = el * n + er
    coords = np.sort(unsorted)
    dup = np.flatnonzero(coords[1:] == coords[:-1])
    if dup.size:
        again = np.flatnonzero(unsorted == coords[dup[0]])[1]
        raise _bad_line(raw, int(starts[2 * again]), "duplicate edge")
    return BipartiteGraph(n, coords)


def _bad_line(raw: bytes, offset: int, reason: str) -> ParameterError:
    """A ParameterError naming the line that holds raw[offset], which follows
    only ASCII bytes. Lines are numbered from 1, as str.splitlines() splits."""
    before = raw[:offset].decode("ascii").splitlines(keepends=True)
    head = before.pop() if before and before[-1][-1] not in _LINE_BREAKS else ""
    tail = raw[offset:offset + 80].decode("utf-8", "replace").splitlines() or [""]
    return ParameterError(f"line {len(before) + 1}: {reason}: {head + tail[0]!r}")


def read_graph_text(path) -> BipartiteGraph:
    with open(path, "rb") as fh:
        return graph_from_text(fh.read())
