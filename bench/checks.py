"""Independent checks of bipbis outputs.

Nothing here imports bipbis: every expected value is computed from the
definitions (balance predicate, binomial moments, the text format) or by an
independent solver (scipy's MILP), so a fault in the library cannot hide
behind the library's own helpers. Each checker returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Width, in standard deviations, of the acceptance window for counts and
# means that are random. Six (five for the 30-sample norm mean) keeps the
# chance of a false alarm over two sets of ten runs per workload below one
# in a thousand.
COUNT_Z = 6.0
NORM_Z = 5.0


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def fixed_point(d: float) -> float:
    """Root p* of p = exp(-d p) in (0, 1), by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - math.exp(-d * mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_gamma(gamma: float) -> Fraction:
    """The balance fraction as an exact rational (1/2, 1/3, ...)."""
    return Fraction(gamma).limit_denominator(64)


def is_balanced(a: int, b: int, gamma: float) -> bool:
    """|a - gamma (a + b)| < 1, in exact rational arithmetic."""
    return abs(a - exact_gamma(gamma) * (a + b)) < 1


def max_balanced_total(a_cap: int, b_cap: int, gamma: float) -> int:
    """Largest a + b over balanced (a, b) with a <= a_cap, b <= b_cap, by a
    scan over every a."""
    g = exact_gamma(gamma)
    p, q = g.numerator, g.denominator
    best = 0
    for a in range(a_cap + 1):
        # balanced  <=>  (q-p) a - q < p b < (q-p) a + q
        b = min(b_cap, ((q - p) * a + q - 1) // p)
        if b >= 0 and p * b > (q - p) * a - q and a + b > best:
            best = a + b
    return best


def floor_k_l(n: int, d: float, epsilon: float) -> int:
    return math.floor((1 - epsilon) * math.log(d) / d * n)


def local_count_moments(n: int, d: float, p: float) -> tuple[float, float, float, float]:
    """(mean_l, sd_l, mean_r, sd_r) of the 1-local pair's side counts.

    count_l ~ Bin(n, p). Given S = count_l, each R vertex independently sees
    no selected neighbour with probability q^S, q = 1 - d/n, so
    count_r | S ~ Bin(n, q^S); the moments of q^S and q^(2S) are binomial
    generating functions.
    """
    q = 1.0 - d / n
    mean_l = n * p
    sd_l = math.sqrt(n * p * (1 - p))
    e1 = (1 - p + p * q) ** n
    e2 = (1 - p + p * q * q) ** n
    mean_r = n * e1
    var_r = n * (e1 - e2) + n * n * (e2 - e1 * e1)
    return mean_l, sd_l, mean_r, math.sqrt(var_r)


def norm_moments(n: int, d: float, k_l: int) -> tuple[float, float]:
    """Mean and standard deviation of ||f||^2 for the degree-1 blocking
    polynomial: k_l + sum_r (1 - X_r)^2 with X_r ~ Bin(k_l, d/n) iid."""
    pr = d / n
    xs = np.arange(k_l + 1)
    pmf = np.array([math.comb(k_l, int(x)) * pr**x * (1 - pr) ** (k_l - x) for x in xs])
    y = (1.0 - xs) ** 2
    m1 = float(pmf @ y)
    m2 = float(pmf @ (y * y))
    return k_l + n * m1, math.sqrt(n * (m2 - m1 * m1))


def _within(value: float, mean: float, sd: float, z: float) -> bool:
    return abs(value - mean) <= z * sd


# ---------------------------------------------------------------------------
# Row checks, one per command
# ---------------------------------------------------------------------------


def check_local_row(row, n: int, d: float, p: float, gamma: float) -> list[str]:
    problems = []
    _, rn, rd, rp, rg, count_l, count_r, trimmed, ms = row
    if (rn, rd, rp, rg) != (n, d, p, gamma):
        problems.append(f"local row echoes {(rn, rd, rp, rg)}, expected {(n, d, p, gamma)}")
    mean_l, sd_l, mean_r, sd_r = local_count_moments(n, d, p)
    if not _within(count_l, mean_l, sd_l, COUNT_Z):
        problems.append(f"count_l={count_l} outside {mean_l:.1f} +- {COUNT_Z} * {sd_l:.1f}")
    if not _within(count_r, mean_r, sd_r, COUNT_Z):
        problems.append(f"count_r={count_r} outside {mean_r:.1f} +- {COUNT_Z} * {sd_r:.1f}")
    best = max_balanced_total(count_l, count_r, gamma)
    if trimmed != best:
        problems.append(f"trimmed_size={trimmed}, max balanced pair within "
                        f"({count_l}, {count_r}) has {best}")
    if not ms > 0:
        problems.append(f"wall_time_ms={ms} is not positive")
    return problems


def blocking_counts(n: int, el: np.ndarray, er: np.ndarray, chosen_l: np.ndarray) -> np.ndarray:
    """c_r: number of chosen L neighbours of every R vertex."""
    chosen = np.zeros(n, dtype=bool)
    chosen[chosen_l] = True
    return np.bincount(er[chosen[el]], minlength=n)


def check_lowdeg_row(row, n: int, d: float, epsilon: float,
                     c_r: np.ndarray | None = None) -> list[str]:
    """``c_r`` (blocking counts recomputed from the graph's edges) enables the
    exact norm and R-count checks."""
    problems = []
    _, rn, rd, k_l, k_r, count_l, count_r, norm_sq, failed = row
    if (rn, rd) != (n, d):
        problems.append(f"lowdeg row echoes {(rn, rd)}, expected {(n, d)}")
    want_k_l = floor_k_l(n, d, epsilon)
    want_k_r = math.floor((1 - epsilon) * d ** (epsilon - 1) * n)
    if (k_l, k_r) != (want_k_l, want_k_r):
        problems.append(f"(k_l, k_r)={(k_l, k_r)}, expected {(want_k_l, want_k_r)}")
    if failed != 0:
        problems.append("rounding failed at eta=0, but every value is an integer <= 1")
    if count_l != k_l:
        problems.append(f"count_l={count_l}, expected k_l={k_l}: chosen L vertices are never blocked")
    if c_r is not None:
        want_norm = k_l + int(((1 - c_r) ** 2).sum())
        if norm_sq != want_norm:
            problems.append(f"norm_sq={norm_sq}, recomputed from the edges {want_norm}")
        want_r = int((c_r == 0).sum())
        if count_r != want_r:
            problems.append(f"count_r={count_r}, R vertices with no chosen neighbour {want_r}")
    return problems


def check_norm_estimate(norm_estimate: float, n: int, d: float, k_l: int,
                        samples: int = 30) -> list[str]:
    mean, sd = norm_moments(n, d, k_l)
    half = NORM_Z * sd / math.sqrt(samples)
    if abs(norm_estimate - mean) > half:
        return [f"norm_estimate={norm_estimate:.3f} outside {mean:.3f} +- {half:.3f}"]
    return []


def check_ogp_row(row, n: int, d: float, epsilon: float, c: float, k_l: int,
                  norm_estimate: float) -> list[str]:
    problems = []
    _, rn, rd, T, bad, success, bits = row
    if (rn, rd) != (n, d):
        problems.append(f"ogp row echoes {(rn, rd)}, expected {(n, d)}")
    if T != n * n:
        problems.append(f"T={T}, expected n^2={n * n}")
    if c * norm_estimate > 1 and bad != 0:
        problems.append(f"bad_edge_count={bad}, but one flip moves ||f||^2 by at most 1 "
                        f"< c * norm_estimate = {c * norm_estimate:.2f}")
    if success != 1:
        problems.append("greedy overlap chain failed")
    if not bits & 1:
        problems.append(f"conditions_passed={bits}: rounded sets are independent, bit 1 must be set")
    # every rounded set keeps at most the k_l chosen L vertices
    density_min = (1 + epsilon) * math.log(d) / d * n
    if bits & 2 and k_l < density_min:
        problems.append(f"conditions_passed={bits} claims density, but k_l={k_l} < {density_min:.2f}")
    problems += check_norm_estimate(norm_estimate, n, d, k_l)
    return problems


def check_chain_density(bits: int, sets, n: int, d: float, epsilon: float) -> list[str]:
    """Bit 2 against the chain sets themselves: (in_l, in_r) pairs."""
    density_min = (1 + epsilon) * math.log(d) / d * n
    dense = all(len(a) >= density_min and len(b) >= density_min for a, b in sets)
    if bool(bits & 2) != dense:
        return [f"conditions_passed={bits}, but the chain sets are "
                f"{'' if dense else 'not '}all dense"]
    return []


def independence_problem(el: np.ndarray, er: np.ndarray, in_l, in_r, n: int) -> list[str]:
    mask_l = np.zeros(n, dtype=bool)
    mask_r = np.zeros(n, dtype=bool)
    mask_l[list(in_l)] = True
    mask_r[list(in_r)] = True
    hits = np.flatnonzero(mask_l[el] & mask_r[er])
    if hits.size:
        k = int(hits[0])
        return [f"edge ({int(el[k])}, {int(er[k])}) has both endpoints selected"]
    return []


def parse_witness(text: str) -> list[int]:
    return [int(v) for v in text.split(",")] if text else []


def check_exact(outputs: dict, n: int, el: np.ndarray, er: np.ndarray, gamma: float,
                optimum: int | None) -> list[str]:
    """``optimum`` comes from an independent solver (None skips that check)."""
    problems = []
    wl, wr = parse_witness(outputs["witness_l"]), parse_witness(outputs["witness_r"])
    if len(set(wl)) != len(wl) or len(set(wr)) != len(wr):
        return ["witness repeats a vertex"]
    if any(not 0 <= v < n for v in wl + wr):
        return [f"witness vertex outside [0, {n})"]
    problems += independence_problem(el, er, wl, wr, n)
    if not is_balanced(len(wl), len(wr), gamma):
        problems.append(f"witness sides ({len(wl)}, {len(wr)}) are not {gamma:.4f}-balanced")
    if len(wl) + len(wr) != outputs["size"]:
        problems.append(f"witness has {len(wl) + len(wr)} vertices, reported size {outputs['size']}")
    if optimum is not None and outputs["size"] != optimum:
        problems.append(f"reported optimum {outputs['size']}, independent solver {optimum}")
    return problems


# ---------------------------------------------------------------------------
# Graph text format and the independent exact solver
# ---------------------------------------------------------------------------


def parse_graph_text(text: str) -> tuple[int, int, np.ndarray, np.ndarray, int]:
    """(n, header edge count, L endpoints, R endpoints, edge line count)."""
    lines = text.count("\n") + (0 if text.endswith("\n") else 1)
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    n, m = int(values[0]), int(values[1])
    pairs = values[2:].reshape(-1, 2)
    return n, m, pairs[:, 0].copy(), pairs[:, 1].copy(), lines - 1


def check_graph_text(text: str, n: int, coords: np.ndarray) -> list[str]:
    """The file's header, line count and edges against the sampled graph's
    sorted row-major coordinates."""
    fn, m, el, er, edge_lines = parse_graph_text(text)
    problems = []
    if fn != n:
        problems.append(f"header n={fn}, expected {n}")
    if m != edge_lines:
        problems.append(f"header promises {m} edges, file has {edge_lines} edge lines")
    if m != coords.size or not np.array_equal(el * n + er, coords):
        problems.append("edges in the file differ from the sampled graph")
    return problems


def milp_optimum(n: int, el: np.ndarray, er: np.ndarray, gamma: float) -> int:
    """Maximum gamma-balanced independent set size by scipy's MILP (HiGHS).

    Variables x (L) and y (R) in {0, 1}; x_l + y_r <= 1 on every edge; with
    gamma = p/q, a = sum x and b = sum y, balance is |(q-p) a - p b| <= q - 1.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    g = exact_gamma(gamma)
    p, q = g.numerator, g.denominator
    m = el.size
    A = np.zeros((m + 1, 2 * n))
    A[np.arange(m), el] = 1
    A[np.arange(m), n + er] = 1
    A[m, :n] = q - p
    A[m, n:] = -p
    lo = np.r_[np.full(m, -np.inf), -(q - 1)]
    hi = np.r_[np.ones(m), q - 1]
    res = milp(-np.ones(2 * n), constraints=LinearConstraint(A, lo, hi),
               integrality=np.ones(2 * n), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"MILP did not solve: {res.message}")
    return int(round(-res.fun))
