"""Tests for the direct-recommendation baseline, analytic and simulated."""
from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from halting_cascade.cascade import IHCParams, run_cascade
from halting_cascade.graph import generate_star
from halting_cascade import oracle
from halting_cascade.oracle import (
    OracleSpec,
    TruncationBounds,
    _log_comb,
    binomial_pmf,
    oracle_success_probability,
    p_lambda,
    p_success_trial,
    poisson_pmf,
    post_vacancy,
    simulate_oracle,
    truncation_bounds,
)
from halting_cascade.skills import SkillWorld, sample_skill_world

ALPHA = 1e-3  # chance that a law test with a Bonferroni bound fails on a correct sampler


def poisson_cdf(k: int, rate: float) -> float:
    if k < 0:
        return 0.0
    return min(1.0, math.fsum(poisson_pmf(i, rate) for i in range(k + 1)))


def hypergeom_pmf(k: int, total: int, tagged: int, draws: int) -> float:
    """Probability of k tagged items in ``draws`` picks without replacement."""
    if not 0 <= tagged <= total or not 0 <= draws <= total:
        raise ValueError("need 0 <= tagged, draws <= total")
    if k < max(0, draws - (total - tagged)) or k > min(tagged, draws):
        return 0.0
    return math.exp(
        _log_comb(tagged, k) + _log_comb(total - tagged, draws - k) - _log_comb(total, draws)
    )


def _per_k_catalog_cap(population: int, skill_rate: float, mass_threshold: float) -> int:
    """Catalog cap searched one k at a time, the cdf rebuilt from 0 for each."""
    k = 0
    while poisson_cdf(k, skill_rate) ** population < mass_threshold:
        if k > skill_rate and poisson_pmf(k, skill_rate) == 0.0:
            break
        k += 1
    return k


def _per_k_p_lambda(
    skill_rate: float, vacancy_size: int, population: int, mass_threshold: float
) -> float:
    """``p_lambda`` with every pmf and cdf value recomputed where it is read."""
    cap = _per_k_catalog_cap(population, skill_rate, mass_threshold)
    total = 0.0
    prev = 0.0
    for catalog in range(cap + 1):
        cum = poisson_cdf(catalog, skill_rate) ** population
        weight = cum - prev
        prev = cum
        if catalog < vacancy_size or weight <= 0.0:
            continue
        log_denom = _log_comb(catalog, vacancy_size)
        inner = math.fsum(
            poisson_pmf(k, skill_rate) * math.exp(_log_comb(k, vacancy_size) - log_denom)
            for k in range(vacancy_size, catalog + 1)
        )
        total += weight * inner
    return total


def _independent_p_qualified(
    skill_rate: float, vacancy_size: int, population: int, mass_threshold: float
) -> float:
    """Reference for p_lambda built on scipy cdfs and exact binomials."""
    cap = 0
    while stats.poisson.cdf(cap, skill_rate) ** population < mass_threshold:
        cap += 1
    total = 0.0
    prev = 0.0
    for catalog in range(cap + 1):
        cum = stats.poisson.cdf(catalog, skill_rate) ** population
        weight = cum - prev
        prev = cum
        if catalog < vacancy_size or weight <= 0.0:
            continue
        denom = math.comb(catalog, vacancy_size)
        inner = sum(
            stats.poisson.pmf(k, skill_rate) * math.comb(k, vacancy_size) / denom
            for k in range(vacancy_size, catalog + 1)
        )
        total += weight * inner
    return total


def _independent_success(spec: OracleSpec, mass_threshold: float = 0.98) -> float:
    """Reference for the closed-form success chance, all-scipy pipeline."""
    n = spec.population
    p_q = _independent_p_qualified(
        spec.skill_rate, spec.vacancy_size, n, mass_threshold
    )
    mean = n * p_q
    sd = math.sqrt(n * p_q * (1.0 - p_q))
    l_min = max(0, math.floor(mean - 2.5 * sd))
    l_max = min(n, math.ceil(mean + 2.5 * sd))
    draws = round(spec.reach_fraction * n)
    total = 0.0
    for qualified in range(l_min, l_max + 1):
        outer = stats.binom.pmf(qualified, n, p_q)
        inner = sum(
            stats.hypergeom.pmf(in_reach, n, qualified, draws)
            * (1.0 - (1.0 - spec.p_r) ** in_reach)
            for in_reach in range(0, min(qualified, draws) + 1)
        )
        total += outer * inner
    return min(1.0, total)


class TestKernels:
    def test_poisson_pmf(self):
        assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1), abs=1e-15)
        assert poisson_pmf(-1, 2.0) == 0.0
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0
        for k in range(12):
            assert poisson_pmf(k, 3.0) == pytest.approx(
                stats.poisson.pmf(k, 3.0), rel=1e-12
            )
        with pytest.raises(ValueError):
            poisson_pmf(1, -0.5)

    def test_poisson_cdf(self):
        assert poisson_cdf(-1, 3.0) == 0.0
        assert poisson_cdf(60, 3.0) == 1.0
        for k in range(12):
            assert poisson_cdf(k, 3.0) == pytest.approx(
                stats.poisson.cdf(k, 3.0), rel=1e-12
            )

    def test_binomial_pmf(self):
        assert binomial_pmf(2, 4, 0.5) == pytest.approx(0.375, abs=1e-12)
        assert binomial_pmf(-1, 4, 0.5) == 0.0
        assert binomial_pmf(5, 4, 0.5) == 0.0
        assert binomial_pmf(0, 4, 0.0) == 1.0
        assert binomial_pmf(4, 4, 1.0) == 1.0
        for k in range(11):
            assert binomial_pmf(k, 10, 0.37) == pytest.approx(
                stats.binom.pmf(k, 10, 0.37), rel=1e-10
            )
        with pytest.raises(ValueError):
            binomial_pmf(1, -2, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(1, 2, 1.5)

    def test_hypergeom_pmf(self):
        support = [hypergeom_pmf(k, 20, 5, 10) for k in range(0, 6)]
        assert math.fsum(support) == pytest.approx(1.0, abs=1e-12)
        for k in range(0, 6):
            assert hypergeom_pmf(k, 20, 5, 10) == pytest.approx(
                stats.hypergeom.pmf(k, 20, 5, 10), rel=1e-10
            )
        assert hypergeom_pmf(6, 20, 5, 10) == 0.0
        assert hypergeom_pmf(0, 10, 8, 5) == 0.0  # at least 3 tagged must appear
        with pytest.raises(ValueError):
            hypergeom_pmf(1, 10, 11, 5)
        with pytest.raises(ValueError):
            hypergeom_pmf(1, 10, 5, 11)

    def test_p_success_trial(self):
        assert p_success_trial(0, 0.5) == 0.0
        assert p_success_trial(5, 0.0) == 0.0
        assert p_success_trial(5, 1.0) == 1.0
        assert p_success_trial(10, 0.3) == pytest.approx(1.0 - 0.7**10, rel=1e-12)
        with pytest.raises(ValueError):
            p_success_trial(-1, 0.5)
        with pytest.raises(ValueError):
            p_success_trial(1, 1.5)


class TestQualifiedProbability:
    def test_matches_independent_reference(self):
        for population, vacancy_size in ((100, 1), (5000, 4), (5000, 6), (5000, 8)):
            ours = p_lambda(3.0, vacancy_size, population)
            ref = _independent_p_qualified(3.0, vacancy_size, population, 0.98)
            assert ours == pytest.approx(ref, rel=1e-9)

    def test_frozen_values(self):
        assert p_lambda(3.0, 1, 100) == pytest.approx(0.366887, abs=1e-4)
        assert p_lambda(3.0, 4, 5000) == pytest.approx(1.016454e-02, rel=1e-3)
        assert p_lambda(3.0, 6, 5000) == pytest.approx(2.137470e-03, rel=1e-3)
        assert p_lambda(3.0, 8, 5000) == pytest.approx(7.284730e-04, rel=1e-3)

    def test_vacancy_beyond_catalog_cap_is_impossible(self):
        assert p_lambda(3.0, 20, 5000) == 0.0

    def test_monotone_in_vacancy_size(self):
        values = [p_lambda(3.0, v, 1000) for v in range(1, 10)]
        assert values == sorted(values, reverse=True)

    def test_monte_carlo_agreement(self):
        # the closed form truncates the agent's count at the catalog size
        # without renormalizing, so it sits slightly below the generative
        # truth (0.3751 by exhaustive count-only sampling at these inputs);
        # check it lands within that documented bias band
        n_worlds, n_agents = 1500, 100
        base = np.random.SeedSequence(20260815)
        fractions = []
        for world_ss in base.spawn(n_worlds):
            world = sample_skill_world(n_agents, 3.0, 1, seed=world_ss)
            qualified = int(np.sum(world.coverage == 1))
            fractions.append(qualified / n_agents)
        observed = float(np.mean(fractions))
        se = float(np.std(fractions, ddof=1)) / math.sqrt(n_worlds)
        expected = p_lambda(3.0, 1, n_agents, mass_threshold=0.999999)
        assert se > 0
        assert observed - 3 * se < 0.3751 < observed + 3 * se
        assert abs(observed - expected) < 0.01

    @settings(max_examples=60, deadline=None)
    @given(
        population=st.integers(min_value=1, max_value=5000),
        skill_rate=st.one_of(
            st.sampled_from([0.0, 3.0, 7.5]), st.floats(min_value=0.0, max_value=8.0)
        ),
        vacancy_size=st.integers(min_value=0, max_value=12),
        mass_threshold=st.one_of(
            st.sampled_from([0.5, 0.98, 0.999999, 1.0]),
            st.floats(min_value=0.01, max_value=1.0),
        ),
    )
    @example(population=100, skill_rate=5.0, vacancy_size=4, mass_threshold=1.0)
    @example(population=5000, skill_rate=7.5, vacancy_size=6, mass_threshold=1.0)
    @example(population=3000, skill_rate=0.0, vacancy_size=0, mass_threshold=1.0)
    @example(population=5000, skill_rate=3.0, vacancy_size=6, mass_threshold=0.98)
    def test_one_pass_table_equals_per_k_search(
        self, population, skill_rate, vacancy_size, mass_threshold
    ):
        expected = _per_k_p_lambda(skill_rate, vacancy_size, population, mass_threshold)
        assert p_lambda(skill_rate, vacancy_size, population, mass_threshold) == expected
        bounds = truncation_bounds(population, expected, skill_rate, mass_threshold)
        assert bounds.k_max == _per_k_catalog_cap(population, skill_rate, mass_threshold)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            p_lambda(3.0, 4, 0)
        for bad_rate in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="skill_rate"):
                p_lambda(bad_rate, 4, 100)
        with pytest.raises(ValueError):
            p_lambda(3.0, -1, 100)
        with pytest.raises(ValueError):
            p_lambda(3.0, 4, 100, mass_threshold=0.0)
        with pytest.raises(ValueError):
            p_lambda(3.0, 4, 100, mass_threshold=1.5)


class TestCatalogTable:
    """``oracle._catalog`` keeps a running exact sum in place of a fresh
    ``math.fsum`` per k; both are correctly rounded, so every entry is ``==``."""

    # (population, skill_rate, mass_threshold): the pinned specs of these
    # tests and of the CLI's, the benchmark's cap, and skill rate 300
    SPECS = [
        (100, 3.0, 0.98), (5000, 3.0, 0.98), (3000, 3.0, 0.98), (2000, 3.0, 0.98),
        (100, 5.0, 1.0), (5000, 7.5, 1.0), (3000, 0.0, 1.0), (5000, 3.0, 0.999999),
        (2000, 300.0, 0.98),
    ]

    @pytest.mark.parametrize("population, skill_rate, mass_threshold", SPECS)
    def test_equals_a_fresh_fsum_per_entry(self, population, skill_rate, mass_threshold):
        pmf, cdf = oracle._catalog(population, skill_rate, mass_threshold)
        assert pmf == [poisson_pmf(k, skill_rate) for k in range(len(pmf))]
        assert cdf == [min(1.0, math.fsum(pmf[: k + 1])) ** population for k in range(len(pmf))]

    def test_skill_rate_3000_within_a_second(self):
        started = time.perf_counter()
        pmf, cdf = oracle._catalog(2000, 3000.0, 0.98)
        elapsed = time.perf_counter() - started
        print(f"{len(pmf)} entries in {elapsed:.2f} s (budget 1 s)")
        assert cdf[-1] >= 0.98 > cdf[-2]
        assert elapsed < 1.0


class TestTruncationBounds:
    def test_window_for_population_scale_inputs(self):
        p_q = p_lambda(3.0, 6, 5000)
        bounds = truncation_bounds(5000, p_q, 3.0)
        assert bounds == TruncationBounds(2, 19, 13, 0.98)

    def test_degenerate_p_qualified(self):
        zero = truncation_bounds(100, 0.0, 3.0)
        assert (zero.l_min, zero.l_max) == (0, 0)
        one = truncation_bounds(100, 1.0, 3.0)
        assert (one.l_min, one.l_max) == (100, 100)

    def test_window_is_well_formed(self):
        for p_q in (1e-4, 0.01, 0.3, 0.9):
            bounds = truncation_bounds(2000, p_q, 3.0)
            assert 0 <= bounds.l_min <= bounds.l_max <= 2000

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            truncation_bounds(100, -0.1, 3.0)
        with pytest.raises(ValueError):
            truncation_bounds(100, 0.5, 3.0, mass_threshold=0.0)
        for skill_rate in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="skill_rate must be finite"):
                truncation_bounds(100, 0.5, skill_rate)


def _scalar_kernel_success(spec: OracleSpec, mass_threshold: float = 0.98) -> float:
    """The double sum term by term from the public scalar kernels."""
    n = spec.population
    p_q = p_lambda(spec.skill_rate, spec.vacancy_size, n, mass_threshold)
    bounds = truncation_bounds(n, p_q, spec.skill_rate, mass_threshold)
    draws = round(spec.reach_fraction * n)
    total = 0.0
    for qualified in range(bounds.l_min, bounds.l_max + 1):
        outer = binomial_pmf(qualified, n, p_q)
        if outer == 0.0:
            continue
        lo = max(0, draws - (n - qualified))
        hi = min(qualified, draws)
        total += outer * math.fsum(
            hypergeom_pmf(in_reach, n, qualified, draws) * p_success_trial(in_reach, spec.p_r)
            for in_reach in range(lo, hi + 1)
        )
    return min(1.0, total)


class TestSuccessProbability:
    @pytest.mark.parametrize("population", [1, 2, 37, 500, 5000])
    def test_equals_scalar_kernel_sum(self, population):
        specs = [
            OracleSpec(population, reach, p_r, 3.0, vacancy)
            for reach, p_r, vacancy in itertools.product(
                (0.0, 0.35, 1.0), (0.0, 0.2, 1.0), (0, 2, 6)
            )
        ]
        specs += [OracleSpec(population, 0.5, 0.2, rate, 2) for rate in (0.0, 7.5)]
        for spec in specs:
            assert oracle_success_probability(spec) == _scalar_kernel_success(spec), spec
        tight = OracleSpec(population, 0.5, 0.2, 3.0, 4)
        assert oracle_success_probability(tight, 0.999) == _scalar_kernel_success(
            tight, 0.999
        )

    def test_matches_independent_reference(self):
        for vacancy_size in (4, 6, 8):
            spec = OracleSpec(5000, 0.5, 0.2, 3.0, vacancy_size)
            assert oracle_success_probability(spec) == pytest.approx(
                _independent_success(spec), rel=1e-9
            )

    def test_frozen_values(self):
        certain = {4: 0.991005, 6: 0.988240, 8: 0.833934}
        weak = {4: 0.984957, 6: 0.650491, 8: 0.302398}
        for grid, p_r in ((certain, 1.0), (weak, 0.2)):
            for vacancy_size, expected in grid.items():
                spec = OracleSpec(5000, 0.5, p_r, 3.0, vacancy_size)
                assert oracle_success_probability(spec) == pytest.approx(
                    expected, abs=5e-6
                )

    def test_zero_p_r_and_zero_reach(self):
        assert oracle_success_probability(OracleSpec(500, 0.5, 0.0, 3.0, 4)) == 0.0
        assert oracle_success_probability(OracleSpec(500, 0.0, 1.0, 3.0, 4)) == 0.0

    def test_full_reach_certain_recommendation_reduction(self):
        # with everyone reached and certain recommendation the closed form
        # collapses to "at least one qualified agent exists"
        population = 500
        spec = OracleSpec(population, 1.0, 1.0, 3.0, 4)
        p_q = p_lambda(3.0, 4, population)
        collapsed = -math.expm1(population * math.log1p(-p_q))
        value = oracle_success_probability(spec)
        assert value <= collapsed + 1e-12
        assert value == pytest.approx(collapsed, abs=0.02)

    def test_monotone_in_reach_and_p_r_and_vacancy(self):
        by_reach = [
            oracle_success_probability(OracleSpec(500, rho, 0.3, 3.0, 4))
            for rho in (0.1, 0.3, 0.5, 0.9)
        ]
        assert by_reach == sorted(by_reach)
        by_p_r = [
            oracle_success_probability(OracleSpec(500, 0.5, p, 3.0, 4))
            for p in (0.05, 0.2, 0.6, 1.0)
        ]
        assert by_p_r == sorted(by_p_r)
        by_vacancy = [
            oracle_success_probability(OracleSpec(500, 0.5, 0.3, 3.0, v))
            for v in (2, 4, 6, 8)
        ]
        assert by_vacancy == sorted(by_vacancy, reverse=True)

    def test_stable_under_tighter_truncation(self):
        for vacancy_size in (4, 6, 8):
            spec = OracleSpec(5000, 0.5, 0.2, 3.0, vacancy_size)
            loose = oracle_success_probability(spec, mass_threshold=0.98)
            tight = oracle_success_probability(spec, mass_threshold=0.9999)
            assert abs(loose - tight) < 1e-2

    def test_within_dropped_mass_of_the_untruncated_closed_form(self):
        """Reaching d agents without replacement out of a Binomial(n, p_q)
        qualified count leaves Binomial(d, p_q) qualified among them, so the
        untruncated series is ``1 - (1 - p_r p_q)^d``. The window drops only
        non-negative terms, each at most its binomial weight."""
        for n, rate, vacancy, p_r, reach in itertools.product(
            (100, 2000, 5000), (0.5, 3.0, 7.5), (0, 1, 4, 8), (0.0, 0.2, 1.0), (0.0, 0.5, 1.0)
        ):
            p_q = p_lambda(rate, vacancy, n)
            bounds = truncation_bounds(n, p_q, rate)
            untruncated = 1 - (1 - p_r * p_q) ** round(reach * n)
            dropped = stats.binom.cdf(bounds.l_min - 1, n, p_q) + stats.binom.sf(
                bounds.l_max, n, p_q
            )
            gap = untruncated - oracle_success_probability(OracleSpec(n, reach, p_r, rate, vacancy))
            assert 0 <= gap <= dropped + 1e-9, (n, rate, vacancy, p_r, reach)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OracleSpec(0, 0.5, 0.2, 3.0, 4)
        with pytest.raises(ValueError):
            OracleSpec(100, 1.5, 0.2, 3.0, 4)
        with pytest.raises(ValueError):
            OracleSpec(100, 0.5, -0.2, 3.0, 4)
        for bad_rate in (-3.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="skill_rate"):
                OracleSpec(100, 0.5, 0.2, bad_rate, 4)
        with pytest.raises(ValueError):
            OracleSpec(100, 0.5, 0.2, 3.0, -4)


def reference_simulate_oracle(world, reach_fraction, p_r, star_rng, run_rng):
    """Direct posting as first written: a one-hop cascade on a directed star.

    The hub 0 points at the leaves ``generate_star`` draws from ``star_rng``,
    and ``run_cascade`` runs from it on ``run_rng`` with application
    probability one and per-agent hiring at full skill coverage.
    """
    star = generate_star(world.n, reach_fraction, star_rng)
    p_h = (world.coverage == world.vacancy_size).astype(float)
    params = IHCParams(p_r=p_r, p_a=1.0, p_h=p_h)
    return run_cascade(star, params, seeds=(0,), rng_seed=run_rng)


class TestSimulatedOracle:
    def test_zero_reach_always_fails(self):
        world = sample_skill_world(50, 3.0, 4, seed=1)
        result = simulate_oracle(world, 0.0, 1.0, 2, 3)
        assert not result.success
        assert result.chain_length == 1
        assert result.applicants == 0

    def test_everyone_reached_empty_vacancy(self):
        world = sample_skill_world(50, 3.0, 0, seed=1)
        result = simulate_oracle(world, 1.0, 1.0, 2, 3)
        assert result.success
        assert result.chain_length == 2
        assert result.applicants == 49
        assert result.halters == 49

    def test_success_always_has_chain_length_two(self):
        world = sample_skill_world(300, 3.0, 4, seed=4)
        outcomes = [
            simulate_oracle(world, 0.5, 0.4, *np.random.SeedSequence(i).spawn(2))
            for i in range(200)
        ]
        assert any(r.success for r in outcomes)
        assert any(not r.success for r in outcomes)
        for result in outcomes:
            assert result.steps == 1
            if result.success:
                assert result.chain_length == 2

    def test_matches_star_cascade_reference_in_law(self):
        """Success, applicants and halters against the one-hop star cascade,
        on one fixed world per case: z of the difference of means over 2000
        runs a side, two-sided, with a Bonferroni bound at ``ALPHA``; a
        metric constant on both sides must be the same constant."""
        # (n, skill_rate, vacancy_size, reach, p_r): the benchmark's world,
        # a rare qualified agent, an empty vacancy, certain recommendation,
        # and a population of five
        cases = [(2000, 3.0, 2, 0.5, 0.3), (300, 3.0, 4, 0.5, 0.2), (40, 3.0, 0, 1.0, 0.5),
                 (60, 6.0, 3, 0.3, 1.0), (5, 3.0, 1, 1.0, 0.7)]
        runs, metrics = 2000, ("success", "applicants", "halters")
        bound = stats.norm.isf(ALPHA / (2 * len(cases) * len(metrics)))
        worst = (0.0, "")
        for case, (n, skill_rate, vacancy_size, reach, p_r) in enumerate(cases):
            world = sample_skill_world(n, skill_rate, vacancy_size, seed=case)
            ours_ss, theirs_ss = np.random.SeedSequence([31, case]).spawn(2)
            ours = [simulate_oracle(world, reach, p_r, *ss.spawn(2)) for ss in ours_ss.spawn(runs)]
            theirs = [
                reference_simulate_oracle(world, reach, p_r, *map(np.random.default_rng, ss.spawn(2)))
                for ss in theirs_ss.spawn(runs)
            ]
            for result in ours:
                assert result.chain_length == (2 if result.applicants else 1)
                assert (result.steps, result.seeds) == (1, (0,))
                assert result.success == (result.halters > 0)
            for metric in metrics:
                a, b = (np.array([getattr(r, metric) for r in side], float) for side in (ours, theirs))
                se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / runs)
                if se == 0:
                    assert a[0] == b[0], (case, metric)
                    continue
                z = (a.mean() - b.mean()) / se
                if abs(z) > abs(worst[0]):
                    worst = (z, f"case {case} {metric}: {a.mean():.4f} vs {b.mean():.4f}")
        print(f"worst z={worst[0]:.2f} at {worst[1]}; bound {bound:.2f}")
        assert abs(worst[0]) < bound

    @given(
        n=st.integers(1, 3000),
        share=st.floats(0.0, 1.0),
        reach=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        p_r=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, share=0.0, reach=1.0, p_r=1.0, seed=1)
    @example(n=40, share=1.0, reach=1.0, p_r=0.5, seed=2)
    @settings(max_examples=200, deadline=None)
    def test_posting_follows_its_draw_schedule(self, n, share, reach, p_r, seed):
        """The run stream gives ``binomial(d, p_r)`` recommended agents, the
        star stream, only if any, ``hypergeometric(q, n - 1 - q, R)`` hires."""
        qualified = round(share * (n - 1))
        (star, run), (star_want, run_want) = (
            [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)]
            for _ in range(2)
        )
        got = post_vacancy(n, qualified, reach, p_r, star, run)
        reach_count = round(reach * (n - 1))
        recommended = int(run_want.binomial(reach_count, p_r)) if reach_count else 0
        hired = 0
        if recommended:
            hired = int(star_want.hypergeometric(qualified, n - 1 - qualified, recommended))
        assert (got.applicants, got.halters, got.success) == (recommended, hired, hired > 0)
        assert star.bit_generator.state == star_want.bit_generator.state
        assert run.bit_generator.state == run_want.bit_generator.state

    def test_reads_the_qualified_count_off_the_world(self):
        # agent 0 is the hub: its coverage never counts
        world = SkillWorld(2, [2, 2, 1, 2, 0], [2, 2, 1, 2, 0])
        got = simulate_oracle(world, 1.0, 1.0, 3, 4)
        assert got == post_vacancy(5, 2, 1.0, 1.0, 3, 4)
        assert (got.applicants, got.halters) == (4, 2)

    @pytest.mark.parametrize("qualified", [-1, 5])
    def test_rejects_a_qualified_count_outside_the_others(self, qualified):
        with pytest.raises(ValueError, match="qualified"):
            post_vacancy(5, qualified, 0.5, 0.5, 1, 2)

    @pytest.mark.parametrize("reach, p_r", [(-0.1, 0.5), (1.5, 0.5), (0.5, -0.1), (0.5, 1.5)])
    def test_rejects_probabilities_outside_unit_interval(self, reach, p_r):
        world = sample_skill_world(20, 3.0, 2, seed=0)
        with pytest.raises(ValueError):
            simulate_oracle(world, reach, p_r, 1, 2)

    def test_rate_matches_closed_form(self):
        population, reps = 400, 600
        spec = OracleSpec(population, 0.5, 0.2, 3.0, 4)
        base = np.random.SeedSequence(99)
        hits = 0
        for world_ss, run_ss in zip(base.spawn(reps), base.spawn(2 * reps)[reps:]):
            world = sample_skill_world(population, 3.0, 4, seed=world_ss)
            hits += simulate_oracle(world, 0.5, 0.2, *run_ss.spawn(2)).success
        rate = hits / reps
        expected = oracle_success_probability(spec)
        sigma = math.sqrt(expected * (1.0 - expected) / reps)
        assert abs(rate - expected) < 3 * sigma
