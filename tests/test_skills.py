"""Tests for skill worlds and the probabilities they induce."""
from __future__ import annotations

import functools
import math
import time
import tracemalloc
from collections.abc import Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from halting_cascade.skills import (
    CoverageLaw,
    SkillWorld,
    _log_factorial,
    bind_params,
    sample_coverage_counts,
    sample_skill_world,
)

ALPHA = 1e-3  # chance that a law test with Bonferroni bounds fails on a correct sampler


# scalar references for one agent's skill set; ``bind_params`` must agree
def hiring_probability(agent_skills: Set[int], vacancy: Set[int]) -> float:
    """1.0 when the agent holds every required skill, else 0.0."""
    return 1.0 if vacancy <= agent_skills else 0.0


def application_probability(agent_skills: Set[int], vacancy: Set[int]) -> float:
    """Fraction of required skills the agent holds; 1.0 for an empty vacancy."""
    if not vacancy:
        return 1.0
    return len(agent_skills & vacancy) / len(vacancy)


def _reference_world(n: int, skill_rate: float, vacancy_size: int, seed) -> SkillWorld:
    """The skill world drawn skill by skill, as a held matrix.

    Each agent holds the first ``count`` entries of a uniformly random
    permutation of the catalog (the row-wise argsort of a block of uniforms),
    and the vacancy is a uniform ``vacancy_size``-subset of it. The world is
    read off the matrix: row sums are the counts, sums over the vacancy's
    columns the coverages.
    """
    rng = np.random.default_rng(seed)
    counts = rng.poisson(skill_rate, size=n)
    universe = int(max(counts.max(), vacancy_size))
    order = np.argsort(rng.random((n, universe)), axis=1)
    held = np.empty((n, universe), dtype=bool)
    held[np.arange(n)[:, None], order] = np.arange(universe) < counts[:, None]
    vacancy = rng.choice(universe, size=vacancy_size, replace=False)
    return SkillWorld(vacancy_size, held.sum(axis=1), held[:, np.sort(vacancy)].sum(axis=1))


def _agent_sets(world: SkillWorld) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Skill sets with the world's counts and coverages, and the vacancy
    ``{0, ..., vacancy_size - 1}``: agent i holds its first ``coverage[i]``
    required skills and ``counts[i] - coverage[i]`` skills outside the
    vacancy."""
    v = world.vacancy_size
    sets = [
        frozenset(range(cov)) | frozenset(range(v, v + count - cov))
        for count, cov in zip(world.counts.tolist(), world.coverage.tolist())
    ]
    return sets, frozenset(range(v))


def _poisson_tail(rate: float, at_least: int) -> float:
    body = sum(math.exp(-rate) * rate**k / math.factorial(k) for k in range(at_least))
    return 1.0 - body


class TestSampling:
    def test_same_seed_same_world(self):
        a = sample_skill_world(40, 3.0, 4, seed=123)
        b = sample_skill_world(40, 3.0, 4, seed=123)
        c = sample_skill_world(40, 3.0, 4, seed=124)
        assert np.array_equal(a.counts, b.counts) and np.array_equal(a.coverage, b.coverage)
        assert not (np.array_equal(a.counts, c.counts) and np.array_equal(a.coverage, c.coverage))

    def test_catalog_covers_counts_and_vacancy(self):
        world = sample_skill_world(200, 5.0, 2, seed=0)
        assert world.universe_size == world.counts.max() >= 2
        assert world.vacancy_size == 2
        assert np.all(world.coverage <= np.minimum(world.counts, 2))

    def test_catalog_floor_is_vacancy_size(self):
        world = sample_skill_world(10, 0.0, 5, seed=0)
        assert world.universe_size == 5
        assert not world.counts.any() and not world.coverage.any()

    def test_empty_vacancy(self):
        world = sample_skill_world(10, 2.0, 0, seed=0)
        assert world.vacancy_size == 0
        assert not world.coverage.any()

    def test_mean_skill_count_matches_rate(self):
        world = sample_skill_world(5000, 3.0, 4, seed=7)
        mean = float(world.counts.mean())
        assert abs(mean - 3.0) < 3 * math.sqrt(3.0 / 5000)

    def test_tail_fractions_match_poisson(self):
        world = sample_skill_world(5000, 3.0, 4, seed=21)
        for at_least in (4, 6, 8):
            expected = _poisson_tail(3.0, at_least)
            observed = float(np.mean(world.counts >= at_least))
            sigma = math.sqrt(expected * (1.0 - expected) / world.n)
            assert abs(observed - expected) < 3 * sigma

    def test_counts_are_the_first_draw(self):
        # coverages are drawn after the counts, so a seed's per-agent counts
        # do not depend on how coverages are drawn
        world = sample_skill_world(5000, 3.0, 4, seed=4)
        assert world.counts.tolist() == np.random.default_rng(4).poisson(3.0, 5000).tolist()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n must"):
            sample_skill_world(0, 3.0, 4, seed=0)
        with pytest.raises(ValueError, match="skill_rate"):
            sample_skill_world(5, -1.0, 4, seed=0)
        with pytest.raises(ValueError, match="vacancy_size"):
            sample_skill_world(5, 3.0, -1, seed=0)

    def test_catalog_past_the_hypergeometric_limit_names_skill_rate(self):
        with pytest.raises(ValueError, match="skill_rate=2000000000.0"):
            sample_skill_world(2, 2e9, 4, seed=0)


class TestAgainstReference:
    """The sampler against the held-matrix reference, the same law by another route."""

    def test_same_counts_and_catalog(self):
        # an empty catalog, every count 0, a high rate, the benchmark's size
        for n, skill_rate, vacancy_size in ((1, 0.0, 0), (5, 0.0, 3), (40, 7.5, 2), (2000, 3.0, 8)):
            for seed in range(20):
                got = sample_skill_world(n, skill_rate, vacancy_size, seed)
                want = _reference_world(n, skill_rate, vacancy_size, seed)
                assert np.array_equal(got.counts, want.counts)
                assert got.universe_size == want.universe_size

    def test_empty_vacancy_is_covered_identically(self):
        for seed in range(20):
            got, want = sample_skill_world(50, 3.0, 0, seed), _reference_world(50, 3.0, 0, seed)
            assert np.array_equal(got.coverage, want.coverage)

    def test_coverage_law_matches_reference(self):
        """Coverage histograms and per-world qualified counts agree in law.

        Both samplers draw the same counts and catalog at one seed, and
        given them each agent's coverage is independent of every other's.
        So the pooled coverage histograms are compared by a chi-square test
        of homogeneity, each is compared with the hypergeometric law summed
        over the world's agents by a chi-square goodness of fit, and the
        per-world qualified counts (coverage == vacancy_size), exchangeable
        within a seed, by a two-sided Wilcoxon signed-rank test on their
        differences. Every test is two-sided and must give p > 0.001.
        """
        n_worlds, n_agents, rate, bound = 1000, 50, 3.0, 1e-3
        report = []
        for vacancy_size in (1, 2, 4):
            bins = np.arange(vacancy_size + 1)
            got, want, expected = [], [], np.zeros(bins.size)
            for seed in np.random.SeedSequence(20261020 + vacancy_size).spawn(n_worlds):
                ours = sample_skill_world(n_agents, rate, vacancy_size, seed)
                theirs = _reference_world(n_agents, rate, vacancy_size, seed)
                got.append(ours.coverage)
                want.append(theirs.coverage)
                pmf = stats.hypergeom.pmf(
                    bins[:, None], ours.universe_size, vacancy_size, ours.counts[None, :]
                )
                expected += pmf.sum(axis=1)
            got, want = np.array(got), np.array(want)
            hist = np.array([np.bincount(c.ravel(), minlength=bins.size) for c in (got, want)])
            homogeneity = stats.chi2_contingency(hist[:, hist.sum(axis=0) > 0], correction=False)
            fits = [stats.chisquare(h, expected * h.sum() / expected.sum()) for h in hist]
            qualified = [(c == vacancy_size).sum(axis=1) for c in (got, want)]
            paired = stats.wilcoxon(qualified[0], qualified[1], zero_method="zsplit")
            results = {
                "homogeneity": homogeneity.pvalue,
                "fit, sampler": fits[0].pvalue,
                "fit, reference": fits[1].pvalue,
                "qualified, paired": paired.pvalue,
            }
            report += [(p, vacancy_size, name) for name, p in results.items()]
            print(
                f"v={vacancy_size}: chi2 homogeneity={homogeneity.statistic:.2f} "
                f"fit={fits[0].statistic:.2f} (reference {fits[1].statistic:.2f}) "
                f"Wilcoxon={paired.statistic:.0f} "
                + " ".join(f"p[{name}]={p:.4f}" for name, p in results.items())
            )
        worst = min(report)
        print(f"worst: p={worst[0]:.4f} ({worst[2]}, v={worst[1]}), bound p > {bound}")
        assert worst[0] > bound


# (n, skill_rate, vacancy_size): an overdispersed qualified count (its
# variance is about 186 against 51 for a binomial), the benchmark's size and
# its largest vacancy, no skills, an empty vacancy, and a vacancy larger
# than every count (the catalog is the vacancy)
_HISTOGRAM_SHAPES = [(500, 3.0, 2), (2000, 3.0, 8), (50, 0.0, 3), (100, 3.0, 0), (100, 3.0, 30)]
_WORLDS = 4000  # per shape and side


@functools.lru_cache(maxsize=None)
def _histograms(n: int, skill_rate: float, vacancy_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(worlds, classes) coverage histograms: ``sample_coverage_counts`` on
    one generator, and the ``bincount`` of per-agent worlds on others."""
    law = CoverageLaw(n, skill_rate, vacancy_size)
    rng = np.random.default_rng([20261020, n, vacancy_size])
    ours = np.array([sample_coverage_counts(law, rng) for _ in range(_WORLDS)])
    seeds = np.random.SeedSequence([20261021, n, vacancy_size]).spawn(_WORLDS)
    theirs = np.array([
        np.bincount(sample_skill_world(n, skill_rate, vacancy_size, seed).coverage,
                    minlength=vacancy_size + 1)
        for seed in seeds
    ])
    return ours, theirs


class TestCoverageCounts:
    """The class-count sampler against ``bincount`` of per-agent worlds, the
    same law by another route. Every comparison is two-sided, with a
    Bonferroni bound over its family at ``ALPHA``."""

    def test_class_means_match_per_agent_worlds(self):
        """z of the difference of each class's mean count; a class constant
        on both sides must be the same constant."""
        pairs = [(shape, _histograms(*shape)) for shape in _HISTOGRAM_SHAPES]
        tested = sum(
            int(((ours.var(0) + theirs.var(0)) > 0).sum()) for _, (ours, theirs) in pairs
        )
        bound = stats.norm.isf(ALPHA / (2 * tested))
        worst = (0.0, "")
        for shape, (ours, theirs) in pairs:
            assert (ours.sum(axis=1) == shape[0]).all()
            for c in range(ours.shape[1]):
                se = math.sqrt((ours[:, c].var(ddof=1) + theirs[:, c].var(ddof=1)) / _WORLDS)
                if se == 0:
                    assert ours[0, c] == theirs[0, c], (shape, c)
                    continue
                z = (ours[:, c].mean() - theirs[:, c].mean()) / se
                if abs(z) > abs(worst[0]):
                    worst = (z, f"{shape} class {c}: {ours[:, c].mean():.4f} vs "
                                f"{theirs[:, c].mean():.4f}")
        print(f"worst z={worst[0]:.2f} at {worst[1]}; bound {bound:.2f} over {tested} means")
        assert abs(worst[0]) < bound

    def test_full_coverage_variance_and_law_match(self):
        """The qualified count m_v: z of the difference of its variances,
        each with the standard error sqrt((m4 - s**4) / worlds), and a
        two-sample Kolmogorov-Smirnov test of its law."""
        varied = [shape for shape in _HISTOGRAM_SHAPES if _histograms(*shape)[1][:, -1].var()]
        bound = stats.norm.isf(ALPHA / (2 * len(varied)))
        worst_z, worst_p = (0.0, None), (1.0, None)
        for shape in _HISTOGRAM_SHAPES:
            full = [side[:, -1].astype(float) for side in _histograms(*shape)]
            if shape not in varied:
                assert full[0].tolist() == full[1].tolist(), shape
                continue
            var = [x.var(ddof=1) for x in full]
            se = math.sqrt(sum(((x - x.mean()) ** 4).mean() - v**2 for x, v in zip(full, var))
                           / _WORLDS)
            z = (var[0] - var[1]) / se
            p = stats.ks_2samp(*full).pvalue
            n, v = shape[0], shape[2]
            mean_share = full[1].mean() / n
            print(f"{shape}: var(m_v) {var[0]:.2f} vs {var[1]:.2f} (binomial "
                  f"{n * mean_share * (1 - mean_share):.2f}), z={z:.2f}; KS p={p:.4f}")
            worst_z = max(worst_z, (abs(z), shape))
            worst_p = min(worst_p, (p, shape))
        print(f"worst |z|={worst_z[0]:.2f} at {worst_z[1]}, bound {bound:.2f}; "
              f"worst KS p={worst_p[0]:.4f} at {worst_p[1]}, bound {ALPHA / len(varied):.1e}")
        assert worst_z[0] < bound
        assert worst_p[0] > ALPHA / len(varied)

    def test_mixture_equals_the_hypergeometric_sum(self):
        """``mix`` against scipy's Poisson and hypergeometric pmfs, summed
        over every count below the largest, for largest counts above and
        below the vacancy size."""
        for n, skill_rate, v in ((500, 3.0, 2), (40, 7.5, 12), (200, 1e6, 4)):
            law = CoverageLaw(n, skill_rate, v)
            center = int(np.argmax(law.pmf))
            for top in range(max(1, center - 10), center + 12, 3):
                most = law.low + top
                counts = np.arange(law.low, most)
                hyp = stats.hypergeom.pmf(np.arange(v + 1), max(most, v), v, counts[:, None])
                want = stats.poisson.pmf(counts, skill_rate) @ hyp
                assert law.mix(top) == pytest.approx(want / want.sum(), abs=1e-11)

    def test_log_factorial_matches_lgamma(self):
        k = np.unique(np.geomspace(1, 10**9, 400).astype(np.int64))
        k = np.concatenate([np.arange(2000), k])
        want = np.array([math.lgamma(i + 1) for i in k.tolist()])
        assert np.abs(_log_factorial(k) - want).max() <= 4e-16 * want.max()
        assert np.array_equal(_log_factorial(np.arange(1024)), want[:1024])

    def test_same_generator_state_same_histogram(self):
        law = CoverageLaw(300, 3.0, 4)
        first = [sample_coverage_counts(law, np.random.default_rng(5)) for _ in range(2)]
        assert first[0] == first[1]
        assert sum(first[0]) == 300 and len(first[0]) == 5

    def test_one_agent_and_no_skills(self):
        assert sample_coverage_counts(CoverageLaw(1, 0.0, 2), np.random.default_rng(0)) == [1, 0, 0]
        assert sample_coverage_counts(CoverageLaw(7, 3.0, 0), np.random.default_rng(0)) == [7]

    def test_high_rate_draws_fast_and_matches_mean_coverage(self):
        """At skill rate 10**6 the tables span O(sqrt(rate)) counts, 100
        worlds take under 5 s, and the mean coverage per agent matches the
        per-agent sampler's within |z| < 3.29 (two-sided, ``ALPHA``)."""
        n, rate, v, worlds = 200, 1e6, 4, 100
        started = time.perf_counter()
        law = CoverageLaw(n, rate, v)
        rng = np.random.default_rng(7)
        ours = [np.dot(sample_coverage_counts(law, rng), range(v + 1)) / n for _ in range(worlds)]
        elapsed = time.perf_counter() - started
        theirs = [
            sample_skill_world(n, rate, v, seed).coverage.mean()
            for seed in np.random.SeedSequence(8).spawn(worlds)
        ]
        se = math.sqrt((np.var(ours, ddof=1) + np.var(theirs, ddof=1)) / worlds)
        z = (np.mean(ours) - np.mean(theirs)) / se
        print(f"{law.pmf.size} table entries; {elapsed:.2f} s; mean coverage "
              f"{np.mean(ours):.5f} vs {np.mean(theirs):.5f}, z={z:.2f}")
        assert law.pmf.size <= 30 * math.sqrt(rate) + 82
        assert elapsed < 5.0
        assert abs(z) < stats.norm.isf(ALPHA / 2)

    def test_catalog_past_the_hypergeometric_limit_is_refused_before_any_table(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="skill_rate=2000000000.0"):
                CoverageLaw(2, 2e9, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize(
        "n, skill_rate, vacancy_size, message",
        [(0, 3.0, 2, "n must"), (5, -1.0, 2, "skill_rate"), (5, math.nan, 2, "skill_rate"),
         (5, math.inf, 2, "skill_rate"), (5, 3.0, -1, "vacancy_size")],
    )
    def test_rejects_bad_arguments(self, n, skill_rate, vacancy_size, message):
        with pytest.raises(ValueError, match=message):
            CoverageLaw(n, skill_rate, vacancy_size)


class TestProbabilities:
    def test_hiring_requires_every_skill(self):
        assert hiring_probability({1, 2, 3}, {1, 2}) == 1.0
        assert hiring_probability({1}, {1, 2}) == 0.0
        assert hiring_probability(set(), set()) == 1.0
        assert hiring_probability({0}, {1, 2}) == 0.0

    def test_application_scales_with_overlap(self):
        assert application_probability({1, 2, 3}, {1, 2}) == 1.0
        assert application_probability({1}, {1, 2}) == 0.5
        assert application_probability({0}, {1, 2}) == 0.0
        assert application_probability({1, 2}, {1, 2, 3, 4}) == 0.5
        assert application_probability(set(), set()) == 1.0

    @settings(max_examples=100)
    @given(
        agent=st.frozensets(st.integers(0, 12)),
        extra=st.frozensets(st.integers(0, 12)),
        vacancy=st.frozensets(st.integers(0, 12)),
    )
    def test_probability_invariants(self, agent, extra, vacancy):
        p_h = hiring_probability(agent, vacancy)
        p_a = application_probability(agent, vacancy)
        assert p_h in (0.0, 1.0)
        assert 0.0 <= p_a <= 1.0
        if p_h == 1.0:
            assert p_a == 1.0
        # more skills never hurt
        assert application_probability(agent | extra, vacancy) >= p_a
        assert hiring_probability(agent | extra, vacancy) >= p_h


class TestBinding:
    def test_bound_params_mirror_world(self):
        world = sample_skill_world(300, 3.0, 6, seed=5)
        params = bind_params(world, p_r=0.25)
        assert params.p_r == 0.25
        p_a = np.asarray(params.p_a)
        p_h = np.asarray(params.p_h)
        assert p_a.shape == p_h.shape == (300,)
        sets, vacancy = _agent_sets(world)
        for i, skills in enumerate(sets):
            assert p_h[i] == hiring_probability(skills, vacancy)
            assert p_a[i] == application_probability(skills, vacancy)
        assert np.all(p_a[p_h == 1.0] == 1.0)
        assert p_h.any() and not p_h.all()

    def test_empty_vacancy_binds_everything_to_one(self):
        world = sample_skill_world(50, 3.0, 0, seed=2)
        params = bind_params(world, p_r=1.0)
        assert np.all(np.asarray(params.p_a) == 1.0)
        assert np.all(np.asarray(params.p_h) == 1.0)


class TestArrayStorage:
    def test_arrays_are_read_only_ints(self):
        world = sample_skill_world(40, 3.0, 4, seed=3)
        for values in (world.counts, world.coverage):
            assert values.dtype == np.int64
            assert values.shape == (40,)
            with pytest.raises(ValueError):
                values[0] += 1

    def test_coverage_is_a_read_only_column_sum(self):
        # the reference's route: coverage is the held matrix summed over the vacancy's columns
        held = np.random.default_rng(8).random((200, 6)) < 0.5
        vacancy = [1, 4, 5]
        world = SkillWorld(len(vacancy), held.sum(axis=1), held[:, vacancy].sum(axis=1))
        assert np.array_equal(world.coverage, held[:, vacancy].sum(axis=1))
        with pytest.raises(ValueError):
            world.coverage[0] += 1

    def test_row_sums_are_the_poisson_counts(self):
        # the held-matrix reference reads its counts off its rows
        world = _reference_world(3000, 3.0, 4, seed=17)
        counts = np.random.default_rng(17).poisson(3.0, 3000)
        assert np.array_equal(world.counts, counts)

    def test_coverage_counts_required_skills_held(self):
        # when the catalog is the vacancy, every skill an agent holds is required
        world = sample_skill_world(50, 3.0, 30, seed=5)
        assert world.universe_size == 30
        assert np.array_equal(world.coverage, world.counts)

    def test_constructor_copies_its_arrays(self):
        counts, coverage = np.array([2, 0]), np.array([1, 0])
        world = SkillWorld(1, counts, coverage)
        counts[1], coverage[1] = 5, 1
        assert counts.flags.writeable and coverage.flags.writeable
        assert world.counts.tolist() == [2, 0] and world.coverage.tolist() == [1, 0]
        assert world.n == 2 and world.universe_size == 2

    def test_rejects_arrays_of_different_lengths(self):
        with pytest.raises(ValueError, match="one length"):
            SkillWorld(2, np.array([1, 2, 3]), np.array([0, 1]))

    @pytest.mark.parametrize(
        "counts, coverage", [([-1, 2], [0, 1]), ([1, 2], [0, -1])], ids=["count", "coverage"]
    )
    def test_rejects_negative_values(self, counts, coverage):
        with pytest.raises(ValueError, match="non-negative"):
            SkillWorld(2, np.array(counts), np.array(coverage))

    def test_rejects_coverage_above_count(self):
        with pytest.raises(ValueError, match="exceed"):
            SkillWorld(4, np.array([1, 2]), np.array([1, 3]))

    def test_rejects_coverage_above_vacancy_size(self):
        with pytest.raises(ValueError, match="exceed"):
            SkillWorld(2, np.array([5, 2]), np.array([3, 1]))
