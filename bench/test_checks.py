"""Each benchmark checker accepts a right output and rejects a wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import checks

# A 4+4 graph: L0-R0, L0-R1, L1-R1, L2-R2, L3-R2, L3-R3
N = 4
EL = np.array([0, 0, 1, 2, 3, 3])
ER = np.array([0, 1, 1, 2, 2, 3])


def brute_optimum(gamma: float) -> int:
    edges = set(zip(EL.tolist(), ER.tolist()))
    best = 0
    for a in range(N + 1):
        for sl in itertools.combinations(range(N), a):
            free = [r for r in range(N) if all((l, r) not in edges for l in sl)]
            for b in range(len(free) + 1):
                if checks.is_balanced(a, b, gamma):
                    best = max(best, a + b)
    return best


def exact_outputs(in_l, in_r):
    return {"size": len(in_l) + len(in_r),
            "witness_l": ",".join(map(str, in_l)), "witness_r": ",".join(map(str, in_r))}


@pytest.mark.parametrize("gamma", [0.5, 1 / 3])
def test_milp_matches_brute_force(gamma):
    assert checks.milp_optimum(N, EL, ER, gamma) == brute_optimum(gamma)


def test_exact_accepts_an_optimal_witness():
    # L {1, 2} blocks R {1, 2}; R {0, 3} is free
    out = exact_outputs([1, 2], [0, 3])
    assert checks.check_exact(out, N, EL, ER, 0.5, brute_optimum(0.5)) == []


def test_exact_rejects_a_set_with_an_edge_inside():
    out = exact_outputs([0, 2], [1, 3])  # L0-R1 is an edge
    assert any("both endpoints" in p for p in checks.check_exact(out, N, EL, ER, 0.5, None))


def test_exact_rejects_an_optimum_one_too_small():
    out = exact_outputs([1], [0, 3])  # independent and balanced, but 3 < 4
    problems = checks.check_exact(out, N, EL, ER, 0.5, brute_optimum(0.5))
    assert any("independent solver" in p for p in problems)


def test_exact_rejects_an_unbalanced_witness():
    out = exact_outputs([1], [0, 2, 3])
    assert any("balanced" in p for p in checks.check_exact(out, N, EL, ER, 0.5, None))


def test_max_balanced_total_by_definition():
    for gamma in (0.5, 1 / 3, 0.25):
        for a_cap, b_cap in itertools.product(range(8), repeat=2):
            want = max(a + b for a in range(a_cap + 1) for b in range(b_cap + 1)
                       if abs(a - gamma * (a + b)) < 1.0)
            assert checks.max_balanced_total(a_cap, b_cap, gamma) == want


def local_row(n=100_000, d=10.0, gamma=0.5):
    p = checks.fixed_point(d)
    mean_l, _, mean_r, _ = checks.local_count_moments(n, d, p)
    a, b = round(mean_l), round(mean_r)
    return (0, n, d, p, gamma, a, b, checks.max_balanced_total(a, b, gamma), 250.0), p


def test_local_row_accepted_and_tampered_rows_rejected():
    row, p = local_row()
    assert checks.check_local_row(row, 100_000, 10.0, p, 0.5) == []
    short = row[:7] + (row[7] - 1,) + row[8:]
    assert any("trimmed_size" in s for s in checks.check_local_row(short, 100_000, 10.0, p, 0.5))
    far = row[:5] + (row[5] + 5000,) + row[6:]
    assert any("count_l" in s for s in checks.check_local_row(far, 100_000, 10.0, p, 0.5))


def test_fixed_point():
    p = checks.fixed_point(10.0)
    assert abs(p - math.exp(-10.0 * p)) < 1e-12
    assert abs(p - 0.1746) < 1e-3


def lowdeg_case():
    n, d, eps = 200, 10.0, 0.5
    rng = np.random.default_rng(0)
    el, er = np.nonzero(rng.random((n, n)) < d / n)
    k_l = checks.floor_k_l(n, d, eps)
    chosen = np.sort(rng.permutation(n)[:k_l])
    c_r = checks.blocking_counts(n, el, er, chosen)
    k_r = math.floor((1 - eps) * d ** (eps - 1) * n)
    norm = float(k_l + ((1 - c_r) ** 2).sum())
    return (0, n, d, k_l, k_r, k_l, int((c_r == 0).sum()), norm, 0), (n, d, eps), c_r


def test_lowdeg_row_accepted_and_tampered_rows_rejected():
    row, (n, d, eps), c_r = lowdeg_case()
    assert checks.check_lowdeg_row(row, n, d, eps, c_r) == []
    bad_norm = row[:7] + (row[7] + 1.0, 0)
    assert any("norm_sq" in s for s in checks.check_lowdeg_row(bad_norm, n, d, eps, c_r))
    bad_count = row[:5] + (row[5] - 1,) + row[6:]
    assert any("count_l" in s for s in checks.check_lowdeg_row(bad_count, n, d, eps, c_r))
    failed = row[:8] + (1,)
    assert any("failed" in s for s in checks.check_lowdeg_row(failed, n, d, eps, c_r))


def test_ogp_row_accepted_and_tampered_rows_rejected():
    n, d, eps, c = 60, 4.0, 0.6, 0.5
    k_l = max(1, checks.floor_k_l(n, d, eps))
    mean, _ = checks.norm_moments(n, d, k_l)
    row = (0, n, d, n * n, 0, 1, 5)
    assert checks.check_ogp_row(row, n, d, eps, c, k_l, mean) == []
    for tampered, word in (((0, n, d, n * n - 1, 0, 1, 5), "T="),
                           ((0, n, d, n * n, 3, 1, 5), "bad_edge_count"),
                           ((0, n, d, n * n, 0, 1, 4), "bit 1"),
                           ((0, n, d, n * n, 0, 1, 7), "density")):
        assert any(word in s for s in checks.check_ogp_row(tampered, n, d, eps, c, k_l, mean))
    assert checks.check_ogp_row(row, n, d, eps, c, k_l, mean + 20.0) != []


def test_norm_moments_match_simulation():
    n, d, k_l = 60, 4.0, 8
    mean, sd = checks.norm_moments(n, d, k_l)
    x = np.random.default_rng(1).binomial(k_l, d / n, size=(20_000, n))
    norms = k_l + ((1 - x) ** 2).sum(axis=1)
    assert abs(norms.mean() - mean) < 5 * sd / math.sqrt(norms.size)
    assert abs(norms.std() / sd - 1) < 0.05


def test_chain_density_bit():
    n, d, eps = 60, 4.0, 0.6
    dense = (set(range(40)), set(range(40)))  # density_min is about 33.3
    thin = (set(range(5)), set(range(25)))
    assert checks.check_chain_density(2, [dense, dense], n, d, eps) == []
    assert checks.check_chain_density(0, [dense, thin], n, d, eps) == []
    assert checks.check_chain_density(0, [dense, dense], n, d, eps) != []
    assert checks.check_chain_density(2, [dense, thin], n, d, eps) != []


def test_graph_text_checks():
    coords = EL * N + ER
    text = f"{N} {EL.size}\n" + "".join(f"{l} {r}\n" for l, r in zip(EL, ER))
    assert checks.check_graph_text(text, N, coords) == []
    dropped = text.rsplit("\n", 2)[0] + "\n"  # last edge line removed
    assert any("header promises" in p for p in checks.check_graph_text(dropped, N, coords))
    moved = text.replace("3 3\n", "3 1\n")
    assert any("differ" in p for p in checks.check_graph_text(moved, N, coords))
