"""Balanced bipartite graphs: sampling, edge coordinates, text I/O.

Edge coordinates number the n-by-n biadjacency cells 0..n^2 - 1 in row-major
order (L-vertex major, R-vertex minor), so the edge (l, r) is l*n + r. Code
that replays or resamples edges -- notably the interpolation path -- relies
on this order being stable across runs, so it is fixed here once.

A graph is its edge list: the sorted coordinates and their endpoint arrays.
Every kernel scatters over that list; there is no adjacency index. Graphs
are logically immutable after construction and safe to share read-only
across parallel workers.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ParameterError
from .rng import GRAPH_DRAW, RandomSeed


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


def check_degree(n: int, d: float) -> None:
    """The average degree d must satisfy 0 < d < n: each L-R pair is an edge
    with probability d/n in (0, 1)."""
    if not (0.0 < d < n):
        raise ParameterError(f"d must satisfy 0 < d < n, got d={d}, n={n}")


def _check_coordinates(n: int, coords: np.ndarray) -> None:
    """coords must be a strictly increasing 1-D array within [0, n^2)."""
    if coords.ndim != 1:
        raise ParameterError(f"edge coordinates must be one-dimensional, got shape {coords.shape}")
    if np.any(coords[1:] <= coords[:-1]):
        raise ParameterError("edge coordinates must be strictly increasing")
    if coords.size and (coords[0] < 0 or coords[-1] >= n * n):
        raise ParameterError("edge coordinate out of range")


class BipartiteGraph:
    """A balanced bipartite graph on n+n vertices.

    ``coords`` must be a strictly increasing array of 0-based row-major edge
    coordinates in [0, n^2), with n^2 within int64; unsorted or repeated
    coordinates raise ParameterError. ``from_coordinates`` accepts any order
    and drops repeats. The edge set is that array and its endpoint arrays
    ``el`` and ``er``; the graph is logically immutable and its arrays are
    read-only.
    """

    __slots__ = ("n", "edge_count", "coords", "el", "er")

    def __init__(self, n: int, coords: np.ndarray):
        _check_vertex_count(n)
        coords = np.asarray(coords, dtype=np.int64)
        _check_coordinates(n, coords)
        self.n = n
        self.coords = coords
        self.edge_count = int(coords.size)
        # er = coords - el * n, formed in place: with no edge-sized temporary to
        # free, peak RSS holds steady over repeated constructions
        self.el = coords // n
        self.er = self.el * n
        np.subtract(coords, self.er, out=self.er)
        for arr in (self.coords, self.el, self.er):
            arr.setflags(write=False)

    @staticmethod
    def from_coordinates(n: int, coords: np.ndarray) -> "BipartiteGraph":
        """Build from sorted, duplicate-free 0-based coordinates."""
        coords = np.unique(np.asarray(coords, dtype=np.int64))
        return BipartiteGraph(n, coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash((self.n, self.coords.tobytes()))

    def __repr__(self):
        return f"BipartiteGraph(n={self.n}, edge_count={self.edge_count})"


def validate_graph(graph: BipartiteGraph) -> None:
    """Full-scan check of what the graph holds: strictly increasing edge
    coordinates in [0, n^2), endpoint arrays equal to their rows and
    columns, and an edge count equal to their number."""
    n, coords = graph.n, graph.coords
    _check_vertex_count(n)
    _check_coordinates(n, coords)
    if graph.edge_count != coords.size:
        raise ParameterError(f"edge_count {graph.edge_count} disagrees with {coords.size} coordinates")
    if not np.array_equal(graph.el, coords // n):
        raise ParameterError("L endpoints disagree with the edge coordinates")
    if not np.array_equal(graph.er, coords % n):
        raise ParameterError("R endpoints disagree with the edge coordinates")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


# numpy's Generator.geometric inverts an exponential below this p and searches
# from it up
_GEOMETRIC_SEARCH_P = 1.0 / 3.0
# a standard exponential draw is below 745, the -log of the smallest positive
# double, so E / scale stays finite for any scale from here up
_FINITE_SCALE = 1e-305


def _double_at_least(k: int) -> float:
    """The smallest double that is at least the integer k."""
    x = float(k)
    return x if x >= k else math.nextafter(x, math.inf)


def _geometric_gaps(p: float, size: int, cap: float,
                    rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """(rows, size) int64: row i is ``rng.geometric(p, size)`` of the i-th
    generator of ``rngs``, drawn before the next one is pulled, with every
    draw lowered to at most ``cap``, an integer-valued double below 2**63.

    For p < 1/3 numpy draws ceil(E / -log1p(-p)), E a standard exponential,
    and turns a value at or above 2**63 into the int64 maximum. This inverts
    the same exponentials with log1p taken once, not once per draw, and caps
    them before the ceiling: ceil(min(x, cap)) = min(ceil(x), cap), and the
    result casts to int64 exactly. The inversion runs once over all rows.
    """
    search = p >= _GEOMETRIC_SEARCH_P
    rows = [rng.geometric(p, size=size) if search else rng.standard_exponential(size) for rng in rngs]
    draws = rows[0][None] if len(rows) == 1 else np.array(rows).reshape(-1, size)  # one row: a view
    if search:
        return np.minimum(draws, int(cap), out=draws)
    scale = -math.log1p(-p)
    if scale >= _FINITE_SCALE:
        draws /= scale
    else:  # large draws divide to inf, as numpy's own do, without a warning
        with np.errstate(over="ignore"):
            draws /= scale
    np.minimum(draws, cap, out=draws)
    np.ceil(draws, out=draws)
    return draws.astype(np.int64)


def _cut(steps: np.ndarray, pos: int, m: int) -> tuple[list, list]:
    """Turn each row of gaps into running positions from ``pos``, in place.
    Return each row's index of its first position at or past m, read as
    uint64, and whether it has one."""
    steps[:, 0] += pos
    steps.cumsum(axis=1, out=steps)
    past = steps.view(np.uint64) >= m
    ends = past.argmax(axis=1)
    return ends.tolist(), past[np.arange(ends.size), ends].tolist()


def _bernoulli_coordinates(m: int, p: float,
                           rows: Callable[[], Iterable[np.random.Generator]]) -> list:
    """For each generator of ``rows()``, the sorted positions of iid
    Bernoulli(p) successes over 0..m-1 drawn from it, for m up to the largest
    n^2 within int64.

    Uses geometric gap jumps, so the cost is O(successes) rather than O(m);
    with m = n^2 cells a per-cell draw is infeasible at experiment scale.
    The gaps mirror numpy's ``Generator.geometric`` rule: below p = 1/3,
    ceil(E / -log1p(-p)) with E a standard exponential, and a search from
    1/3 up (``_geometric_gaps``). So the coordinates are those of summing
    ``rng.geometric`` draws raw wherever that sum stays within int64;
    ``test_bernoulli_coordinates_match_the_unclipped_sums`` checks this on the
    installed numpy.

    The walk stops at the first position at or past m, and no position
    before it wraps. From position pos a gap of m - pos or more lands at or
    past m, so a batch's gaps are capped at the smallest double at least
    m - pos (below m - pos + 1024). Up to the first position at or past m
    the running sum is then below 2m + 1025, within uint64. A sum
    past int64 wraps to a negative int64, which read as uint64 is at or past
    m too, so that first position is the first uint64 value at least m;
    whatever the batch holds after it is dropped. Drawing the gaps in
    batches leaves their sequence, and so the coordinates, unchanged. The
    offset and the running sum write into the gap array.

    The rows' first batches are drawn, inverted, summed and cut as one 2-D
    array. ``rows()`` yields each row's generator from its start, valid until
    the next is pulled (``RandomSeed.generators`` re-keys one generator), so
    the rare row that its first batch leaves short of m draws that batch
    again from a new ``rows()`` before it goes on.
    """
    if p <= 0.0:
        return [np.empty(0, dtype=np.int64) for _ in rows()]
    expected = m * p
    batch = max(int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16, 16)
    first = _geometric_gaps(p, batch, _double_at_least(m + 1), rows())
    coords = []
    for i, (row, end, done) in enumerate(zip(first, *_cut(first, -1, m))):
        chunks = [row]
        if not done:
            rng = next(itertools.islice(rows(), i, None))
            _geometric_gaps(p, batch, _double_at_least(m + 1), (rng,))  # to the state after it
        while not done:
            pos = int(chunks[-1][-1])
            steps = _geometric_gaps(p, batch, _double_at_least(m - pos), (rng,))
            (end,), (done,) = _cut(steps, pos, m)
            chunks.append(steps[0])
        chunks[-1] = chunks[-1][:end]
        coords.append(chunks[0] if len(chunks) == 1 else np.concatenate(chunks))
    return coords


def sample_edge_coordinates(n: int, d: float,
                            rows: Callable[[], Iterable[np.random.Generator]]) -> list:
    """The sorted edge coordinates l*n + r of random bipartite graphs with
    each L-R pair present independently with probability d/n, one drawn from
    each GRAPH_DRAW generator of ``rows()`` (see ``_bernoulli_coordinates``)."""
    _check_vertex_count(n)
    check_degree(n, d)
    return _bernoulli_coordinates(n * n, d / n, rows)


def sample_bipartite_graph(n: int, d: float, seed: RandomSeed) -> BipartiteGraph:
    """Sample the random bipartite graph with each L-R pair present independently
    with probability d/n, deterministically given (n, d, seed)."""
    return BipartiteGraph(n, sample_edge_coordinates(n, d, lambda: (seed.generator(GRAPH_DRAW),))[0])


# ---------------------------------------------------------------------------
# Text serialization: header "n m", then m lines "l r" (0-based, row-major)
# ---------------------------------------------------------------------------


# The writer formats at most this many edge lines at a time. The reader parses
# blocks of about this many bytes, each ending just after a line break byte, so
# no line spans two blocks and a file this small is one block.
_WRITE_EDGES = 1 << 16
_READ_BYTES = 1 << 20


def graph_to_text(graph: BipartiteGraph) -> str:
    return "".join(_text_blocks(graph))


def _text_blocks(graph: BipartiteGraph) -> Iterator[str]:
    """The text format in pieces: the header line, then the edge lines in
    blocks of at most _WRITE_EDGES."""
    yield f"{graph.n} {graph.edge_count}\n"
    for lo in range(0, graph.edge_count, _WRITE_EDGES):
        yield _edge_lines(graph.el[lo:lo + _WRITE_EDGES], graph.er[lo:lo + _WRITE_EDGES])


def _edge_lines(el: np.ndarray, er: np.ndarray) -> str:
    """One line "l r" for each endpoint pair, in order; there is at least one.

    Every token is first written as a fixed-width row of digits, leading
    zeros included, and its separator; the leading zeros are then dropped.
    """
    # endpoints are below n <= 3037000499 < 2**32, since n^2 fits in int64
    values = np.empty(2 * el.size, dtype=np.uint32)
    values[0::2] = el
    values[1::2] = er
    skip = np.zeros(values.size, dtype=np.uint8)  # each token's leading zeros
    width, ten, top = 1, 10, int(values.max())
    while ten <= top:
        skip += values < ten
        width += 1
        ten *= 10
    rows = np.empty((values.size, width + 1), dtype=np.uint8)
    rows[0::2, width] = ord(" ")
    rows[1::2, width] = ord("\n")
    for col in range(width - 1, -1, -1):
        tens = values // 10
        rows[:, col] = values - tens * 10 + ord("0")
        values = tens
    # keep[s]: the bytes kept of a row with s leading zeros
    keep = np.arange(width + 1) >= np.arange(width + 1)[:, None]
    return rows[keep[skip]].tobytes().decode("ascii")


# The reader works on the raw bytes. Line breaks and blanks are the ASCII
# characters that str.splitlines() and str.split() treat as such; any other
# byte that is not a decimal digit, non-ASCII bytes included, is rejected.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e"
# Edge tokens are accumulated in int64 over at most this many trailing digits.
# A longer token with a nonzero digit before them is at least 10**18, out of
# range for any n whose n^2 edge coordinates fit in int64.
_MAX_DIGITS = 18
# A block cut is searched for this many bytes at a time.
_CUT_WINDOW = 256


def _breaks(data: np.ndarray) -> np.ndarray:
    """Where the bytes are line breaks: \\n \\v \\f \\r and \\x1c-\\x1e."""
    # uint8 differences wrap around, so each "x - a < k" tests a <= x < a + k
    return (data - ord("\n") < 4) | (data - ord("\x1c") < 3)


def _line_blocks(data: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive (lo, hi) spans covering data, each the shortest of at least
    _READ_BYTES bytes that ends just after a line break, or at the end."""
    lo = 0
    while lo < data.size:
        hi = lo + _READ_BYTES
        while hi < data.size:
            cut = np.flatnonzero(_breaks(data[hi - 1:hi - 1 + _CUT_WINDOW]))
            if cut.size:
                hi += int(cut[0])
                break
            hi += _CUT_WINDOW
        hi = min(hi, data.size)
        yield lo, hi
        lo = hi


def _token_flips(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digit mask, flips) of a block: its tokens are the maximal runs of
    digits, block[flips[2k]:flips[2k + 1]]."""
    digit = block - ord("0") < 10
    return digit, np.flatnonzero(np.diff(digit, prepend=False, append=False))


def _token_values(block: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The int64 values of the tokens block[starts[k]:ends[k]], any value of
    10**18 or more read as the int64 maximum."""
    widths = ends - starts
    values = np.zeros(starts.size, dtype=np.int64)
    width = min(int(widths.max(initial=0)), _MAX_DIGITS)
    at = ends - width  # a negative index wraps inside the block; such digits are masked
    for back in range(width, 0, -1):
        digits = block[at] - ord("0")
        digits[widths < back] = 0
        values *= 10
        values += digits
        at += 1
    long = np.flatnonzero(widths > _MAX_DIGITS)
    if long.size:
        heads = np.stack([starts[long], ends[long] - _MAX_DIGITS], axis=1).ravel()
        values[long[np.logical_or.reduceat(block != ord("0"), heads)[0::2]]] = _INT64_MAX
    return values


def graph_from_text(text: str | bytes) -> BipartiteGraph:
    """Parse the text format: a header line "n m", then m lines "l r".

    Every token must be an unsigned ASCII decimal integer and every nonblank
    line must hold exactly two. Endpoints must lie in [0, n) and no edge may
    appear twice. Blank lines and CRLF line endings are allowed. Any violation
    raises ParameterError naming the offending line.

    The bytes are parsed in blocks of whole lines (``_line_blocks``). Beyond
    the bytes and the graph returned, the working memory is one block's
    arrays and 8 bytes an edge, 16 while the coordinates are sorted. The
    first fault in this order is reported: a byte that is not a digit, blank
    or line break; a line without exactly two tokens; the header's edge
    count; n; an endpoint out of range; a repeated edge.
    """
    raw = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    data = np.frombuffer(raw, dtype=np.uint8)
    header = None        # the header's token offsets: start, end, start, end
    n_ok = False         # the header's n is a valid vertex count
    malformed = None     # _bad_line's offset and reason for the first malformed line
    out_of_range = None  # offset of the first pair with an endpoint out of range
    pairs = 0            # token pairs, the header's included
    chunks = []          # per block, its edge coordinates in file order
    for lo, hi in _line_blocks(data):
        block = data[lo:hi]
        digit, flips = _token_flips(block)
        brk = _breaks(block)
        valid = digit | brk | (block == ord("\t")) | (block - ord("\x1f") < 2)  # \t \x1f space
        if not valid.all():
            raise _bad_line(raw, lo + int(valid.argmin()), "not an unsigned decimal integer")
        if malformed is not None or flips.size == 0:
            continue
        starts, ends = flips[0::2], flips[1::2]
        # opens[k]: token k is the first on its line, as a block's first token
        # is. Tokens 2j and 2j+1 must share a line of their own; the sentinel
        # makes an odd last token open a pair. A token opens a line when the
        # gap before it holds a line break; only a gap longer than one byte
        # needs more than its first byte read.
        opens = np.ones(starts.size + 1, dtype=bool)
        gap_lo, gap_hi = ends[:-1], starts[1:]
        opens[1:-1] = brk[gap_lo]
        long = np.flatnonzero(gap_hi - gap_lo > 1)
        if long.size:
            spans = np.stack([gap_lo[long], gap_hi[long]], axis=1).ravel()
            opens[1 + long] = np.logical_or.reduceat(brk, spans)[0::2]
        bad = np.flatnonzero(~opens[0:-1:2] | opens[1::2])
        if bad.size:
            at = int(starts[2 * bad[0]])
            what = "edge" if header is not None or brk[starts[0]:at].any() else "header"
            malformed = (lo + at, f"malformed {what} line")
            continue
        pairs += starts.size // 2
        if header is None:
            header = (lo + flips[:4]).tolist()
            # n exactly, or the int64 maximum if it is too large either way
            head = raw[header[0]:header[1]].lstrip(b"0")
            n = int(head or b"0") if len(head) <= _MAX_DIGITS else _INT64_MAX
            n_ok = 0 < n and n * n <= _INT64_MAX
            starts, ends = starts[2:], ends[2:]
        if not n_ok or out_of_range is not None:
            continue
        values = _token_values(block, starts, ends)
        el, er = values[0::2], values[1::2]
        bad = np.flatnonzero((el >= n) | (er >= n))
        if bad.size:
            out_of_range = lo + int(starts[2 * bad[0]])
            continue
        coords = el * n
        coords += er
        chunks.append(coords)
    if header is None and malformed is None:
        raise ParameterError("empty graph file")
    if malformed is not None:
        raise _bad_line(raw, *malformed)
    n, m = int(raw[header[0]:header[1]]), int(raw[header[2]:header[3]])
    if pairs - 1 != m:
        raise ParameterError(f"header promises {m} edges, file has {pairs - 1}")
    _check_vertex_count(n)
    if out_of_range is not None:
        raise _bad_line(raw, out_of_range, f"vertex pair out of range for n={n}")
    unsorted = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    del chunks
    coords = np.sort(unsorted)
    dup = np.flatnonzero(coords[1:] == coords[:-1])
    if dup.size:
        again = int(np.flatnonzero(unsorted == coords[dup[0]])[1])
        raise _bad_line(raw, _edge_line_offset(data, again), "duplicate edge")
    del unsorted
    return BipartiteGraph(n, coords)


def _edge_line_offset(data: np.ndarray, k: int) -> int:
    """The offset of edge k's first token in a file that parsed cleanly."""
    first = 2 * (k + 1)  # the header is token pair 0
    for lo, hi in _line_blocks(data):
        flips = _token_flips(data[lo:hi])[1]
        if 2 * first < flips.size:
            return lo + int(flips[2 * first])
        first -= flips.size // 2


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
