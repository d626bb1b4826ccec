"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Quantitative tolerances are pinned here, not configurable. Statistical
criteria run on fixed seeds so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from bipbis import (RandomSeed, OverlapChainParams, StabilityConfig,
                    algorithmic_threshold, apply_local_pair,
                    build_interpolation_path, check_optimization,
                    check_overlap_chain, classify_phase, detect_bad_steps,
                    enumerate_max_gamma_balanced, existence_threshold,
                    first_moment_exponent, gamma_trim, greedy_overlap_chain,
                    is_gamma_balanced, is_independent,
                    left_indicator_polynomial, linear_blocking_polynomial,
                    max_gamma_balanced_is, norm_second_moment,
                    optimal_local_threshold, random_threshold_pair,
                    round_polynomial, sample_bipartite_graph, stability_trial)
from bipbis.analysis import PhasePoint, PhaseRegion
from conftest import ACCEPTANCE_LINES, brute_max_balanced, graph_from_edges, subset_of


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def run_local_trials(n, d, p, gamma, trials, seed_base):
    dens_l = np.empty(trials)
    dens_r = np.empty(trials)
    trimmed = np.empty(trials)
    for t in range(trials):
        s = RandomSeed(seed_base, t)
        g = sample_bipartite_graph(n, d, s)
        sub = apply_local_pair(g, random_threshold_pair(p), s)
        dens_l[t] = sub.count_l / n
        dens_r[t] = sub.count_r / n
        trimmed[t] = gamma_trim(sub, gamma).size / (2 * n)
    return dens_l, dens_r, trimmed


def test_criterion_01_local_pair_expectations():
    t0 = time.perf_counter()
    n, d, p, trials = 100_000, 10, 0.1, 20
    dens_l, dens_r, _ = run_local_trials(n, d, p, 0.5, trials, seed_base=101)
    mean_l, mean_r = float(dens_l.mean()), float(dens_r.mean())
    target_r = math.exp(-1.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(mean_l - p) <= 0.005 and abs(mean_r - target_r) <= 0.01
          and elapsed <= 60.0)
    report(1, "1-local per-side densities", ok,
           f"L={mean_l:.5f} target {p}+-0.005; R={mean_r:.5f} target {target_r:.5f}+-0.01; "
           f"{elapsed:.1f}s <= 60s")


def test_criterion_02_balanced_value_at_optimal_threshold():
    n, d, gamma, trials = 100_000, 10, 0.5, 20
    p_star = optimal_local_threshold(d)
    _, _, trimmed = run_local_trials(n, d, p_star, gamma, trials, seed_base=202)
    mean_density = float(trimmed.mean())
    rel_err = abs(mean_density - p_star) / p_star
    report(2, "trimmed density matches the balanced value", rel_err < 0.02,
           f"density={mean_density:.5f} vs alpha=p*={p_star:.5f}, rel err {rel_err:.4f} < 0.02")


def test_criterion_03_degree1_achievability():
    scipy_stats = pytest.importorskip("scipy.stats")
    n, d, eps, trials = 10_000, 50, 0.5, 100
    k_l = math.floor((1 - eps) * math.log(d) / d * n)
    k_r = math.floor((1 - eps) * d ** (eps - 1) * n)
    assert (k_l, k_r) == (391, 707)
    rep = check_optimization(
        lambda s: linear_blocking_polynomial(n, k_l, s),
        n=n, d=d, k_l=k_l, k_r=k_r, xi=30.0, eta=0.0,
        trials=trials, seed=RandomSeed(303))
    ns = np.arange(k_l + 1)
    pmf = scipy_stats.binom.pmf(ns, k_l, d / n)
    oracle = k_l + n * float(np.sum((1.0 - ns) ** 2 * pmf))
    norm_ok = abs(rep.norm_mean - oracle) <= rep.norm_ci
    ok = rep.failure_count == 0 and rep.success_rate >= 0.99 and norm_ok
    report(3, "degree-1 polynomial achievability", ok,
           f"success={rep.success_rate:.3f} >= 0.99, failures={rep.failure_count}, "
           f"norm={rep.norm_mean:.1f} vs oracle {oracle:.1f} within +-{rep.norm_ci:.1f}")


def test_criterion_04_trivial_optimizer_exact():
    details = []
    ok = True
    for n in (10, 100, 1000):
        rep = check_optimization(left_indicator_polynomial(n), n=n, d=3,
                                 k_l=n, k_r=0, xi=1.0, eta=0.0,
                                 trials=10, seed=RandomSeed(404))
        ok &= (rep.success_rate == 1.0 and rep.norm_mean == float(n)
               and rep.norm_ci == 0.0 and rep.norm_bound_holds)
        details.append(f"n={n}: rate={rep.success_rate} norm={rep.norm_mean}")
    report(4, "left-indicator (n,0,0,1,0)-optimization", ok, "; ".join(details))


def test_criterion_05_exact_solver_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    discrepancies = 0
    graphs = 0
    while graphs < 500:
        n = int(rng.integers(2, 9))
        d = float(rng.uniform(0.3, min(n - 0.05, 4.0)))
        g = sample_bipartite_graph(n, d, RandomSeed(int(rng.integers(0, 2**31))))
        graphs += 1
        for gamma in (0.1, 0.25, 0.5):
            expected = brute_max_balanced(g, gamma)
            size_bb, w_bb = max_gamma_balanced_is(g, gamma)
            size_en, w_en = enumerate_max_gamma_balanced(g, gamma)
            valid = (is_independent(g, w_bb) and is_gamma_balanced(w_bb, gamma)
                     and w_bb.size == size_bb and w_bb == w_en)
            if not (size_bb == size_en == expected and valid):
                discrepancies += 1
    elapsed = time.perf_counter() - t0
    ok = discrepancies == 0 and elapsed <= 120.0
    report(5, "branch-and-bound equals full enumeration", ok,
           f"{graphs} graphs x 3 gammas, discrepancies={discrepancies}, "
           f"{elapsed:.1f}s <= 120s")


def test_criterion_06_rounding_soundness_fuzz():
    rng = np.random.default_rng(606)
    etas = np.array([0.0, 0.05, 0.2, 0.5, 2.0])
    grid = np.array([-2.0, -1.0, 0.0, 0.3, 0.5, 0.6, 0.75, 1.0, 1.25, 2.0])
    checked = 0
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        if n == 1:
            g = graph_from_edges(1, [(0, 0)] if rng.random() < 0.5 else [])
        else:
            g = sample_bipartite_graph(n, float(rng.uniform(0.2, n - 0.1)),
                                       RandomSeed(int(rng.integers(0, 2**31))))
        kind = rng.integers(0, 3)
        if kind == 0:
            values = rng.choice(grid, size=2 * n)
        elif kind == 1:
            values = rng.normal(0.8, 0.6, size=2 * n)
        else:
            values = rng.uniform(-0.5, 1.5, size=2 * n)
        eta = float(rng.choice(etas))
        out = round_polynomial(values, g, eta)
        # independent re-derivation of the failure predicate
        in_i = values >= 1.0
        conflicted = set()
        for l, r in zip(g.el.tolist(), g.er.tolist()):
            if in_i[l] and in_i[n + r]:
                conflicted.add(("L", int(l)))
                conflicted.add(("R", int(r)))
        frac = int(np.count_nonzero((values > 0.5) & (values < 1.0)))
        should_fail = len(conflicted) + frac > eta * n + 1e-9
        ok &= out.failed == should_fail
        if not out.failed:
            ok &= is_independent(g, out.subset)
        checked += 1
        if not ok:
            break
    report(6, "rounding soundness under fuzz", ok,
           f"{checked} (graph, values, eta) triples, failure predicate exact, "
           f"all successes independent")


def test_criterion_07_path_marginals_and_decorrelation():
    scipy_stats = pytest.importorskip("scipy.stats")
    n, d, seeds = 20, 4.0, 1000
    m = n * n
    t_values = [0, 40, 80, 120, 160, 200, 240, 280, 320, 400]
    counts = {t: np.empty(seeds, dtype=np.int64) for t in t_values}
    ind0 = np.empty((seeds, m), dtype=np.int8)
    indm = np.empty((seeds, m), dtype=np.int8)
    for k in range(seeds):
        s = RandomSeed(707, k)
        base = sample_bipartite_graph(n, d, s)
        path = build_interpolation_path(base, m, d, s)
        for t in t_values:
            counts[t][k] = path.edge_coordinates_at(t).size
        row0 = np.zeros(m, dtype=np.int8)
        row0[path.edge_coordinates_at(0)] = 1
        rowm = np.zeros(m, dtype=np.int8)
        rowm[path.edge_coordinates_at(m)] = 1
        ind0[k] = row0
        indm[k] = rowm
    # chi-square of the edge-count law against Binomial(m, d/n) at each t
    p = d / n
    support = np.arange(m + 1)
    pmf = scipy_stats.binom.pmf(support, m, p)
    lo = int(scipy_stats.binom.ppf(1e-4, m, p))
    hi = int(scipy_stats.binom.ppf(1 - 1e-4, m, p))
    edges = [0] + list(range(lo, hi + 1)) + [m + 1]
    pvalues = []
    for t in t_values:
        obs, _ = np.histogram(counts[t], bins=edges)
        exp = np.array([pmf[a:b].sum() for a, b in zip(edges[:-1], edges[1:])]) * seeds
        keep_mask = exp >= 5
        obs_k = np.append(obs[keep_mask], obs[~keep_mask].sum())
        exp_k = np.append(exp[keep_mask], exp[~keep_mask].sum())
        stat = float(((obs_k - exp_k) ** 2 / exp_k).sum())
        pvalues.append(float(scipy_stats.chi2.sf(stat, df=len(obs_k) - 1)))
    chi_ok = all(pv >= 0.01 for pv in pvalues)
    # pooled edge-indicator correlation between step 0 and step m
    x = ind0.ravel().astype(float)
    y = indm.ravel().astype(float)
    r = float(np.corrcoef(x, y)[0, 1])
    sigma = 1.0 / math.sqrt(x.size)
    corr_ok = abs(r) <= 4 * sigma
    report(7, "interpolation-path marginals", chi_ok and corr_ok,
           f"min chi2 p-value {min(pvalues):.3f} >= 0.01 over {len(t_values)} t's; "
           f"corr(A0, Am)={r:.5f} within 4 sigma = {4 * sigma:.5f}")


def test_criterion_08_stability_probe():
    d, c = 3.0, 0.5
    total_paths = 0
    total_bad = 0
    norm_floor_ok = True
    for n, paths in ((4, 25), (6, 25), (11, 25), (30, 25)):
        assert n > 1 / c
        k_l = max(2, math.floor(0.5 * math.log(d) / d * n))
        norm_est, _ = norm_second_moment(
            lambda s, n=n, k=k_l: linear_blocking_polynomial(n, k, s),
            n=n, d=d, trials=30, seed=RandomSeed(808, 5000 + n))
        norm_floor_ok &= norm_est > 1 / c  # makes the ||delta||^2 <= 1 bound binding
        config = StabilityConfig(c=c, gamma_steps=1, degree=1, norm_estimate=norm_est)
        for k in range(paths):
            s = RandomSeed(808, n * 100 + k)
            base = sample_bipartite_graph(n, d, s)
            path = build_interpolation_path(base, n * n, d, s)
            f = linear_blocking_polynomial(n, k_l, s)
            total_bad += len(detect_bad_steps(f, path, config))
            total_paths += 1
    rep = stability_trial(lambda s: linear_blocking_polynomial(30, 11, s),
                          n=30, d=3, gamma_steps=1, c=0.5, degree=1,
                          trials=20, seed=RandomSeed(809))
    ok = (total_bad == 0 and total_paths == 100 and norm_floor_ok
          and rep.above_floor)
    report(8, "degree-1 stability", ok,
           f"{total_paths} paths, bad steps={total_bad}; empirical "
           f"P(no bad)={rep.empirical_probability:.2f} >= floor {rep.floor:.2e}")


def test_criterion_09_overlap_chain_checker_coherence():
    ok = True
    details = []
    n, d = 400, 8.0
    phi = math.log(d) / d * n
    base = graph_from_edges(n, [])
    path = build_interpolation_path(base, 120, 1e-6, RandomSeed(909))
    for eps in (0.3, 0.6):
        for K in (2, 4):
            params = OverlapChainParams(epsilon=eps, K=K, phi=phi)
            step = max(1, int(params.new_mass_min))  # per-step change <= (eps/4)*phi
            vsets = [subset_of(range(10 + t * step), range(10)) for t in range(120)]
            result = greedy_overlap_chain(vsets, params)
            ok &= result.success
            rep = check_overlap_chain(result.sets, result.timestamps, path, params)
            ok &= rep.condition3
            details.append(f"eps={eps} K={K} cond3={rep.condition3}")
    # hand-built violations, each rejected for the right reason
    params = OverlapChainParams(epsilon=0.6, K=2, phi=phi)
    dense = math.ceil(params.density_min)
    s1 = subset_of(range(dense), range(dense))
    rep = check_overlap_chain([s1, s1], [0, 5], path, params)
    ok &= (not rep.condition3) and rep.condition1 and rep.condition2
    jump = subset_of(range(dense + math.ceil(params.new_mass_max) + 5), range(dense))
    rep = check_overlap_chain([s1, jump], [0, 5], path, params)
    ok &= (not rep.condition3) and rep.condition2
    sparse = subset_of(range(dense), range(3))
    rep = check_overlap_chain([s1, sparse], [0, 5], path, params)
    ok &= not rep.condition2
    edge_graph = graph_from_edges(8, [(0, 0)])
    edge_path = build_interpolation_path(edge_graph, 0, 1.0, RandomSeed(910))
    tiny = OverlapChainParams(epsilon=0.6, K=2, phi=2.0)
    rep = check_overlap_chain([subset_of([0, 1, 2], [0, 1, 2])], [0], edge_path, tiny)
    ok &= (not rep.condition1) and rep.independence_witnesses[0] == (0, 0)
    report(9, "overlap-chain constructor/checker coherence", ok, "; ".join(details))


def test_criterion_10_thresholds_and_classifier():
    ok = existence_threshold(0.5) == 2.0 and algorithmic_threshold(0.5) == 1.0
    for gamma in np.linspace(0.05, 0.5, 10):
        ratio = existence_threshold(gamma) / algorithmic_threshold(gamma)
        ok &= abs(ratio - 1.0 / (1.0 - gamma)) < 1e-12
    ok &= classify_phase(PhasePoint(0.5, 5.0)) is PhaseRegion.EASY
    ok &= classify_phase(PhasePoint(1.5, 1.5)) is PhaseRegion.HARD
    ok &= classify_phase(PhasePoint(3.0, 3.0)) is PhaseRegion.NONEXISTENT
    ok &= first_moment_exponent(2.0, 100.0, 0.5).leading_coefficient == 0.0
    report(10, "thresholds, classifier, exponent", ok,
           "existence(1/2)=2, algorithmic(1/2)=1, ratio=1/(1-gamma), "
           "figure exemplars, leading coefficient 0 at c=2")
