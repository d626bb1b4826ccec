"""Vertex subsets and the near-balance arithmetic shared by solvers and trimmers.

The defining predicate is strict: a set with a vertices on L and b on R is
gamma-balanced when |a - gamma*(a+b)| < 1. Every helper here reduces to
integer searches against that predicate, so boundary behaviour is identical
wherever balance is consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParameterError


def check_gamma(gamma: float) -> None:
    if not (0.0 < gamma <= 0.5):
        raise ParameterError(f"gamma must lie in (0, 1/2], got {gamma}")


def pack_bits(selected: np.ndarray) -> int:
    """The bitmask of a boolean array: element i is bit i."""
    return int.from_bytes(np.packbits(selected, bitorder="little").tobytes(), "little")


def unpack_bits(mask: int, n: int) -> np.ndarray:
    """The boolean array of length n whose element i is bit i of mask, for a
    mask below 2^n (a higher bit in the last byte's padding is dropped)."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def lowest_bits(mask: int, k: int) -> int:
    """The k >= 0 lowest set bits of mask (all of them when it has no more)."""
    if mask.bit_count() <= k:
        return mask
    cut = int(np.flatnonzero(unpack_bits(mask, mask.bit_length()))[k])  # the (k+1)-th set bit
    return mask & ((1 << cut) - 1)


def _mask_of(indices: Iterable[int]) -> int:
    idx = np.fromiter(map(int, indices), dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ParameterError(f"vertex indices must be non-negative, got {idx.min()}")
    selected = np.zeros(idx.max(initial=-1) + 1, dtype=bool)
    selected[idx] = True
    return pack_bits(selected)


def _check_mask(mask: int) -> None:
    if mask < 0:
        raise ParameterError(f"subset mask must be non-negative, got {mask}")


def _index_set(mask: int) -> frozenset:
    _check_mask(mask)
    return frozenset(np.flatnonzero(unpack_bits(mask, mask.bit_length())).tolist())


@dataclass(frozen=True)
class VertexSubset:
    """A subset of the 2n vertices, one bitmask per side: vertex i is bit i.
    Masks must be non-negative; the path walker builds one subset per flip,
    so the readers of the vertex set check that, not the constructor."""

    mask_l: int
    mask_r: int

    @staticmethod
    def of(in_l: Iterable[int] = (), in_r: Iterable[int] = ()) -> "VertexSubset":
        return VertexSubset(_mask_of(in_l), _mask_of(in_r))

    @property
    def in_l(self) -> frozenset:
        """The L indices, built on every access in O(n): not for hot paths."""
        return _index_set(self.mask_l)

    @property
    def in_r(self) -> frozenset:
        """The R indices, built on every access in O(n): not for hot paths."""
        return _index_set(self.mask_r)

    @property
    def count_l(self) -> int:
        return self.mask_l.bit_count()

    @property
    def count_r(self) -> int:
        return self.mask_r.bit_count()

    @property
    def size(self) -> int:
        return self.mask_l.bit_count() + self.mask_r.bit_count()

    def union(self, other: "VertexSubset") -> "VertexSubset":
        return VertexSubset(self.mask_l | other.mask_l, self.mask_r | other.mask_r)


EMPTY_SUBSET = VertexSubset(0, 0)


def is_balanced_counts(a: int, b: int, gamma: float) -> bool:
    """The strict balance predicate on side counts."""
    return abs(a - gamma * (a + b)) < 1.0


def is_gamma_balanced(subset: VertexSubset, gamma: float) -> bool:
    check_gamma(gamma)
    return is_balanced_counts(subset.count_l, subset.count_r, gamma)


def best_b_for_a(a: int, b_cap: int, gamma: float) -> int | None:
    """Largest b <= b_cap with (a, b) balanced, or None.

    The valid b form an open real interval of width 2/gamma around
    a*(1-gamma)/gamma; we scan a small window downward against the exact
    predicate so float rounding at the boundary can never disagree with
    ``is_balanced_counts``.
    """
    if b_cap < 0:
        return None
    upper = (a * (1.0 - gamma) + 1.0) / gamma
    lower = (a * (1.0 - gamma) - 1.0) / gamma
    start = min(b_cap, int(upper) + 2)
    stop = max(0, int(lower) - 2)
    for b in range(start, stop - 1, -1):
        if is_balanced_counts(a, b, gamma):
            return b
    return None


def best_a_for_b(b: int, a_cap: int, gamma: float) -> int | None:
    """Largest a <= a_cap with (a, b) balanced, or None."""
    if a_cap < 0:
        return None
    upper = (gamma * b + 1.0) / (1.0 - gamma)
    lower = (gamma * b - 1.0) / (1.0 - gamma)
    start = min(a_cap, int(upper) + 2)
    stop = max(0, int(lower) - 2)
    for a in range(start, stop - 1, -1):
        if is_balanced_counts(a, b, gamma):
            return a
    return None


def max_balanced_pair(a: int, b: int, gamma: float) -> tuple[int, int]:
    """Side counts of a maximum-total balanced pair dominated by (a, b).

    Any balanced (a', b') with a' <= a, b' <= b extends, one unit at a time,
    to a balanced pair with a' = a or b' = b, so only the two one-sided
    candidates need comparing. At least one always exists ((0, 0) is
    balanced), so this never fails for a, b >= 0.
    """
    check_gamma(gamma)
    if a < 0 or b < 0:
        raise ParameterError("side counts must be non-negative")
    best: tuple[int, int] | None = None
    bb = best_b_for_a(a, b, gamma)
    if bb is not None:
        best = (a, bb)
    aa = best_a_for_b(b, a, gamma)
    if aa is not None and (best is None or aa + b > best[0] + best[1]):
        best = (aa, b)
    if best is None:
        raise AssertionError(f"no balanced sub-pair found for ({a}, {b}, {gamma})")
    return best


def check_subset_range(subset: VertexSubset, n: int) -> None:
    _check_mask(subset.mask_l)
    _check_mask(subset.mask_r)
    if subset.mask_l >> n or subset.mask_r >> n:
        raise ParameterError(f"subset names a vertex index at or above n = {n}")


def independence_violation(graph, subset: VertexSubset) -> tuple[int, int] | None:
    """First edge of the graph with both endpoints inside the subset, or None."""
    n = graph.n
    check_subset_range(subset, n)
    both = unpack_bits(subset.mask_l, n)[graph.el] & unpack_bits(subset.mask_r, n)[graph.er]
    hits = np.flatnonzero(both)
    if hits.size == 0:
        return None
    k = int(hits[0])
    return int(graph.el[k]), int(graph.er[k])


def is_independent(graph, subset: VertexSubset) -> bool:
    return independence_violation(graph, subset) is None
