"""End-to-end acceptance checks; each test prints the values it verifies.

Wall-clock budgets stated in the asserts are part of the contract.
Publication-scale sweeps (10^4 replications at N=5000, external network
datasets) are intentionally exercised via CLI presets rather than here; the
scaled runs below plus the per-module suites stand in for them.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
from scipy import stats

from halting_cascade.cascade import IHCParams, run_batch, run_cascade
from halting_cascade.graph import generate_ba, generate_er
from halting_cascade.incentives import compute_payouts, surplus_to_length
from halting_cascade.metrics import summarize
from halting_cascade.oracle import (
    OracleSpec,
    binomial_pmf,
    oracle_success_probability,
    p_lambda,
    simulate_oracle,
    truncation_bounds,
)
from halting_cascade.skills import bind_params, sample_skill_world
from test_cascade import ic_reference
from test_metrics import bin_by_seed_degree
from test_oracle import poisson_cdf


def _regime_batch(master: int, p_r: float, p_a: float, p_h: float, reps: int = 200):
    results = []
    for rep in range(reps):
        net_ss, node_ss, run_ss = np.random.SeedSequence([master, rep]).spawn(3)
        network = generate_er(2000, 50.0, net_ss)
        seed_node = int(np.random.default_rng(node_ss).integers(network.n))
        results.append(
            run_cascade(network, IHCParams(p_r, p_a, p_h), (seed_node,), run_ss)
        )
    return summarize(results)


def _skill_world_batch(master: int, p_r: float, vacancy_size: int, reps: int = 200):
    results = []
    for rep in range(reps):
        world_ss, net_ss, node_ss, run_ss = np.random.SeedSequence(
            [master, vacancy_size, rep]
        ).spawn(4)
        world = sample_skill_world(2000, 3.0, vacancy_size, seed=world_ss)
        network = generate_er(2000, 20.0, net_ss)
        seed_node = int(np.random.default_rng(node_ss).integers(network.n))
        results.append(
            run_cascade(network, bind_params(world, p_r), (seed_node,), run_ss)
        )
    return results


def test_01_zero_application_reduces_to_plain_cascade():
    started = time.perf_counter()
    network = generate_er(1000, 20.0, np.random.SeedSequence([1, 0]))
    mismatches = 0
    for cell, p_r in enumerate((0.02, 0.05, 0.1)):
        for rep in range(500):
            node_ss, run_ss = np.random.SeedSequence([1, cell, rep]).spawn(2)
            seed_node = int(np.random.default_rng(node_ss).integers(network.n))
            full = run_cascade(
                network,
                IHCParams(p_r, 0.0, 1.0),
                (seed_node,),
                run_ss,
                record_trace=True,
            )
            reached = network.n - full.trace[-1].passive
            if reached != ic_reference(network, p_r, (seed_node,), run_ss):
                mismatches += 1
    elapsed = time.perf_counter() - started
    print(f"reached-set mismatches over 1500 paired runs: {mismatches}")
    print(f"elapsed: {elapsed:.1f} s (budget 10 s)")
    assert mismatches == 0
    assert elapsed < 10.0


def test_02_above_both_boundaries_hires_in_one_hop():
    started = time.perf_counter()
    summary = _regime_batch(2, p_r=0.5, p_a=0.5, p_h=0.5)
    elapsed = time.perf_counter() - started
    print(
        f"success_rate={summary.success_rate:.3f} "
        f"median_chain_length={summary.median_chain_length}"
    )
    print(f"elapsed: {elapsed:.1f} s (budget 30 s)")
    assert summary.success_rate >= 0.9
    assert summary.median_chain_length == 2
    assert elapsed < 30.0


def test_03_below_both_boundaries_rarely_hires():
    started = time.perf_counter()
    summary = _regime_batch(3, p_r=0.01, p_a=0.1, p_h=0.5)
    elapsed = time.perf_counter() - started
    print(f"success_rate={summary.success_rate:.3f}")
    print(f"elapsed: {elapsed:.1f} s (budget 30 s)")
    assert summary.success_rate <= 0.2
    assert elapsed < 30.0


def test_04_skill_count_tail_fractions():
    started = time.perf_counter()
    targets = {4: 0.35, 6: 0.08, 8: 0.01}
    world = sample_skill_world(5000, 3.0, 4, seed=4)
    counts = world.counts
    for at_least, target in targets.items():
        analytic = 1.0 - poisson_cdf(at_least - 1, 3.0)
        empirical = float(np.mean(counts >= at_least))
        sigma = math.sqrt(analytic * (1.0 - analytic) / world.n)
        print(
            f"count >= {at_least}: analytic={analytic:.5f} target={target} "
            f"empirical={empirical:.5f} 3sigma={3 * sigma:.5f}"
        )
        assert abs(analytic - target) <= 0.005
        assert abs(empirical - analytic) <= 3 * sigma
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.2f} s (instant)")
    assert elapsed < 5.0


def test_05_truncation_window_values():
    started = time.perf_counter()
    p_q = p_lambda(3.0, 6, 5000, 0.98)
    bounds = truncation_bounds(5000, p_q, 3.0, 0.98)
    measured = (bounds.l_min, bounds.l_max, bounds.k_max)
    # the window as TruncationBounds defines it, computed with scipy alone:
    # the integers enclosing 2.5 sigma around the binomial mean of the
    # qualified count, and the first catalog size at which the cdf of the
    # largest of 5000 Poisson(3) counts reaches the 0.98 mass threshold
    qualified = stats.binom(5000, p_q)
    band = (qualified.mean() - 2.5 * qualified.std(), qualified.mean() + 2.5 * qualified.std())
    l_min = max(0, math.floor(band[0]))
    l_max = min(5000, math.ceil(band[1]))
    max_count_cdf = stats.poisson.cdf(np.arange(100), 3.0) ** 5000
    k_max = int(np.argmax(max_count_cdf >= 0.98))
    required = (l_min, l_max, k_max)
    elapsed = time.perf_counter() - started
    print(f"p_qualified={p_q:.6e}")
    print(f"2.5 sigma band: [{band[0]:.3f}, {band[1]:.3f}]")
    print(
        f"max-count cdf at k={k_max - 1}: {max_count_cdf[k_max - 1]:.4f}, "
        f"at k={k_max}: {max_count_cdf[k_max]:.4f}"
    )
    print(f"measured window: {measured}")
    print(f"required window: {required}")
    print(f"elapsed: {elapsed:.3f} s (instant)")
    assert required == (2, 19, 13)
    assert measured == required
    assert elapsed < 5.0


def test_06_baseline_success_reference_values():
    started = time.perf_counter()
    targets = {4: 0.97, 6: 0.65, 8: 0.31}
    measured = {}
    for vacancy_size, target in targets.items():
        spec = OracleSpec(5000, 0.5, 0.2, 3.0, vacancy_size)
        value = oracle_success_probability(spec)
        measured[vacancy_size] = value
        print(
            f"vacancy={vacancy_size}: measured={value:.6f} target={target} "
            f"|diff|={abs(value - target):.4f} (tolerance 0.02)"
        )
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.2f} s (budget 10 s)")
    assert elapsed < 10.0
    assert all(
        abs(measured[v] - target) <= 0.02 for v, target in targets.items()
    )


def test_07_baseline_analytic_matches_simulation():
    started = time.perf_counter()
    failures = []
    for vacancy_size in (2, 4):
        for p_r in (0.2, 1.0):
            spec = OracleSpec(500, 0.5, p_r, 3.0, vacancy_size)
            analytic = oracle_success_probability(spec)
            # binomial thinning collapses the untruncated series to a closed
            # form; the truncated series sums the same nonnegative terms over
            # the qualified-count window only, so it undershoots by at most
            # the binomial mass outside the window (1e-12 absorbs
            # floating-point summation error)
            p_q = p_lambda(3.0, vacancy_size, 500)
            closed = 1.0 - (1.0 - p_q * p_r) ** round(0.5 * 500)
            bounds = truncation_bounds(500, p_q, 3.0)
            dropped = 1.0 - math.fsum(
                binomial_pmf(qualified, 500, p_q)
                for qualified in range(bounds.l_min, bounds.l_max + 1)
            )
            assert analytic <= closed + 1e-12
            assert closed <= analytic + dropped + 1e-12
            hits = 0
            for rep in range(2000):
                world_ss, run_ss = np.random.SeedSequence(
                    [7, vacancy_size, int(p_r * 10), rep]
                ).spawn(2)
                world = sample_skill_world(500, 3.0, vacancy_size, seed=world_ss)
                hits += simulate_oracle(world, 0.5, p_r, *run_ss.spawn(2)).success
            empirical = hits / 2000
            se = math.sqrt(analytic * (1.0 - analytic) / 2000)
            ok = analytic - 3 * se <= empirical <= analytic + dropped + 3 * se
            print(
                f"vacancy={vacancy_size} p_r={p_r}: analytic={analytic:.4f} "
                f"closed={closed:.6f} dropped={dropped:.6f} "
                f"empirical={empirical:.4f} 3se={3 * se:.4f} ok={ok}"
            )
            if not ok:
                failures.append((vacancy_size, p_r))
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.1f} s (budget 60 s)")
    assert elapsed < 60.0
    assert not failures


def test_08_success_rate_independent_of_specificity():
    started = time.perf_counter()
    rates = {}
    for vacancy_size in (4, 6, 8):
        results = _skill_world_batch(8, p_r=0.3, vacancy_size=vacancy_size)
        rates[vacancy_size] = summarize(results).success_rate
        print(f"vacancy={vacancy_size}: success_rate={rates[vacancy_size]:.3f}")
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.1f} s (budget 60 s)")
    assert all(rate >= 0.9 for rate in rates.values())
    assert elapsed < 60.0


def test_09_chain_depth_orders_with_specificity():
    depths = {}
    for vacancy_size in (4, 6, 8):
        results = _skill_world_batch(9, p_r=0.15, vacancy_size=vacancy_size)
        depths[vacancy_size] = np.array(
            [r.chain_length for r in results if r.success], dtype=float
        )
        print(
            f"vacancy={vacancy_size}: successes={depths[vacancy_size].size} "
            f"mean_depth={depths[vacancy_size].mean():.3f}"
        )
    rng = np.random.default_rng(909)
    for low, high in ((4, 6), (6, 8)):
        a, b = depths[low], depths[high]
        wins = 0
        for _ in range(2000):
            wins += rng.choice(b, b.size).mean() >= rng.choice(a, a.size).mean()
        fraction = wins / 2000
        print(f"bootstrap P(mean depth {high} >= {low}) = {fraction:.3f}")
        assert fraction >= 0.95


def test_10_payout_conservation_and_inversion():
    started = time.perf_counter()
    checked = 0
    for budget in (1, 8, 1000):
        for chain_length in range(1, 51):
            schedule = compute_payouts(chain_length, budget)
            assert sum(schedule.payouts) + schedule.surplus == Fraction(budget)
            assert surplus_to_length(schedule.surplus, budget) == chain_length
            checked += 1
    elapsed = time.perf_counter() - started
    print(f"exact conservation and inversion on {checked} schedules")
    print(f"elapsed: {elapsed:.2f} s (instant)")
    assert checked == 150
    assert elapsed < 5.0


def test_11_seed_connectivity_drives_success_on_hub_networks():
    started = time.perf_counter()
    network = generate_ba(2000, 50, 50, seed=20260815)
    # with the mean degree 97.55, the diffusion value p_r (1 - p_a) k is
    # about 0.88 and the halting value p_r p_a p_h k about 0.05, below both of
    # classify_regime's mean-degree boundaries; with this graph's mean excess
    # degree <k^2 - k>/<k> = 144.62 the diffusion value is 1.30, above the
    # spreading boundary. At p_r = 0.2 the mean-degree diffusion value is
    # about 17.6 and every degree bin hires in every run
    results = run_batch(network, IHCParams(0.01, 0.1, 0.5), 2000, 424242)
    binned = bin_by_seed_degree(results, network)
    xs, ys = [], []
    for (lo, hi), summary in binned.items():
        print(f"degree bin [{lo},{hi}): n={summary.n_runs} success={summary.success_rate:.4f}")
        if summary.n_runs >= 30:  # bins with a handful of runs carry no rate
            xs.append(lo)
            ys.append(summary.success_rate)
    assert len(set(ys)) > 1, f"success rates saturate: {ys}"
    rho = stats.spearmanr(xs, ys).statistic
    elapsed = time.perf_counter() - started
    print(f"spearman(bin, success_rate) = {rho}")
    print(f"elapsed: {elapsed:.1f} s (budget 120 s)")
    assert elapsed < 120.0
    assert rho > 0
