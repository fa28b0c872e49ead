"""Tests for skill worlds and the probabilities they induce."""
from __future__ import annotations

import math
from collections.abc import Set

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from halting_cascade import skills
from halting_cascade.skills import (
    SkillWorld,
    bind_params,
    sample_skill_world,
)


def agent_skills(world: SkillWorld) -> tuple[frozenset[int], ...]:
    """Each agent's skill ids as a set, read off the ``held`` matrix."""
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in world.held)


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
    """``sample_skill_world`` as it was before its row-sort cut: the argsort
    layout and the draws it fixes, which the library must keep."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(skill_rate, size=n)
    universe = int(max(counts.max(), vacancy_size))
    order = np.argsort(rng.random((n, universe)), axis=1)
    held = np.empty((n, universe), dtype=bool)
    held[np.arange(n)[:, None], order] = np.arange(universe) < counts[:, None]
    vacancy = (
        frozenset(rng.choice(universe, size=vacancy_size, replace=False).tolist())
        if vacancy_size
        else frozenset()
    )
    return SkillWorld(universe, vacancy, held)


class _QuarterUniforms(np.random.Generator):
    """A generator whose uniforms are rounded down to quarters, so they tie."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.floor(super().random(size) * 4) / 4


def _poisson_tail(rate: float, at_least: int) -> float:
    body = sum(math.exp(-rate) * rate**k / math.factorial(k) for k in range(at_least))
    return 1.0 - body


class TestSampling:
    def test_same_seed_same_world(self):
        a = sample_skill_world(40, 3.0, 4, seed=123)
        b = sample_skill_world(40, 3.0, 4, seed=123)
        assert a == b
        assert a != sample_skill_world(40, 3.0, 4, seed=124)

    def test_catalog_covers_counts_and_vacancy(self):
        world = sample_skill_world(200, 5.0, 2, seed=0)
        largest = max(len(s) for s in agent_skills(world))
        assert world.universe_size == largest
        assert len(world.vacancy) == 2
        for skills in (*agent_skills(world), world.vacancy):
            assert all(0 <= skill < world.universe_size for skill in skills)

    def test_catalog_floor_is_vacancy_size(self):
        world = sample_skill_world(10, 0.0, 5, seed=0)
        assert world.universe_size == 5
        assert all(s == frozenset() for s in agent_skills(world))
        assert world.vacancy == frozenset(range(5))

    def test_empty_vacancy(self):
        world = sample_skill_world(10, 2.0, 0, seed=0)
        assert world.vacancy == frozenset()

    def test_mean_skill_count_matches_rate(self):
        world = sample_skill_world(5000, 3.0, 4, seed=7)
        mean = sum(len(s) for s in agent_skills(world)) / world.n
        assert abs(mean - 3.0) < 3 * math.sqrt(3.0 / 5000)

    def test_tail_fractions_match_poisson(self):
        world = sample_skill_world(5000, 3.0, 4, seed=21)
        counts = np.array([len(s) for s in agent_skills(world)])
        for at_least in (4, 6, 8):
            expected = _poisson_tail(3.0, at_least)
            observed = float(np.mean(counts >= at_least))
            sigma = math.sqrt(expected * (1.0 - expected) / world.n)
            assert abs(observed - expected) < 3 * sigma

    def test_counts_are_the_first_draw(self):
        # skill identities and the vacancy are drawn after the counts, so a
        # seed's per-agent counts do not depend on how identities are drawn
        world = sample_skill_world(5000, 3.0, 4, seed=4)
        counts = [len(s) for s in agent_skills(world)]
        assert counts == np.random.default_rng(4).poisson(3.0, 5000).tolist()

    def test_skill_ids_uniform_over_catalog(self):
        world = sample_skill_world(5000, 3.0, 4, seed=11)
        held = [skill for skills in agent_skills(world) for skill in skills]
        observed = np.bincount(held, minlength=world.universe_size)
        assert stats.chisquare(observed).pvalue > 0.001

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n must"):
            sample_skill_world(0, 3.0, 4, seed=0)
        with pytest.raises(ValueError, match="skill_rate"):
            sample_skill_world(5, -1.0, 4, seed=0)
        with pytest.raises(ValueError, match="vacancy_size"):
            sample_skill_world(5, 3.0, -1, seed=0)


class TestAgainstArgsortLayout:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 60),
        skill_rate=st.floats(0, 7.5, allow_nan=False),
        vacancy_size=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, skill_rate=0.0, vacancy_size=0, seed=0)  # an empty catalog
    @example(n=5, skill_rate=0.0, vacancy_size=3, seed=0)  # every count is 0
    @example(n=40, skill_rate=7.5, vacancy_size=2, seed=1)
    @example(n=2000, skill_rate=3.0, vacancy_size=8, seed=20260815)
    def test_equals_reference(self, n, skill_rate, vacancy_size, seed):
        """The same world, and the generator left where the reference leaves it."""
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_skill_world(n, skill_rate, vacancy_size, ours)
        want = _reference_world(n, skill_rate, vacancy_size, theirs)
        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_tied_cut_takes_the_argsort_path(self, monkeypatch):
        fallbacks = []
        layout = skills._argsort_layout

        def counting(u, counts):
            fallbacks.append(u.shape)
            return layout(u, counts)

        monkeypatch.setattr(skills, "_argsort_layout", counting)
        for seed in range(5):
            ours = _QuarterUniforms(np.random.PCG64(seed))
            theirs = _QuarterUniforms(np.random.PCG64(seed))
            assert sample_skill_world(300, 3.0, 4, ours) == _reference_world(300, 3.0, 4, theirs)
        assert len(fallbacks) == 5

    def test_untied_worlds_take_the_cut_path(self, monkeypatch):
        fallbacks = []
        monkeypatch.setattr(skills, "_argsort_layout", lambda u, c: fallbacks.append(u.shape))
        for seed in range(5):
            sample_skill_world(2000, 3.0, 4, seed)
        assert fallbacks == []


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
        for i, skills in enumerate(agent_skills(world)):
            assert p_h[i] == hiring_probability(skills, world.vacancy)
            assert p_a[i] == application_probability(skills, world.vacancy)
        assert np.all(p_a[p_h == 1.0] == 1.0)

    def test_empty_vacancy_binds_everything_to_one(self):
        world = sample_skill_world(50, 3.0, 0, seed=2)
        params = bind_params(world, p_r=1.0)
        assert np.all(np.asarray(params.p_a) == 1.0)
        assert np.all(np.asarray(params.p_h) == 1.0)


class TestArrayStorage:
    def test_held_is_a_read_only_matrix(self):
        world = sample_skill_world(40, 3.0, 4, seed=3)
        assert world.held.dtype == bool
        assert world.held.shape == (40, world.universe_size)
        with pytest.raises(ValueError):
            world.held[0, 0] = not world.held[0, 0]

    def test_constructor_copies_its_matrix(self):
        held = np.array([[True, False], [False, False]])
        world = SkillWorld(2, frozenset({1}), held)
        held[1, 1] = True
        assert held.flags.writeable
        assert agent_skills(world) == (frozenset({0}), frozenset())

    def test_rejects_matrix_of_wrong_width(self):
        with pytest.raises(ValueError, match="universe_size"):
            SkillWorld(3, frozenset(), np.zeros((4, 2), dtype=bool))

    def test_row_sums_are_the_poisson_counts(self):
        world = sample_skill_world(3000, 3.0, 4, seed=17)
        counts = np.random.default_rng(17).poisson(3.0, 3000)
        assert np.array_equal(world.held.sum(axis=1), counts)

    def test_agent_skills_view_matches_rows(self):
        world = sample_skill_world(200, 4.0, 3, seed=8)
        assert len(agent_skills(world)) == world.n == 200
        for row, skills in zip(world.held, agent_skills(world)):
            assert skills == frozenset(np.flatnonzero(row).tolist())

    def test_coverage_counts_required_skills_held(self):
        world = sample_skill_world(200, 4.0, 3, seed=8)
        expected = [len(skills & world.vacancy) for skills in agent_skills(world)]
        assert world.coverage().tolist() == expected

    def test_coverage_is_a_read_only_column_sum(self):
        world = sample_skill_world(200, 4.0, 3, seed=8)
        coverage = world.coverage()
        assert coverage is world.coverage()
        assert np.array_equal(coverage, world.held[:, sorted(world.vacancy)].sum(axis=1))
        with pytest.raises(ValueError):
            coverage[0] += 1

    def test_rejects_skill_ids_outside_catalog(self):
        with pytest.raises(ValueError, match="skill ids"):
            SkillWorld(3, frozenset({3}), np.zeros((2, 3), dtype=bool))

    def test_one_cell_changes_equality(self):
        world = sample_skill_world(20, 3.0, 2, seed=1)
        held = world.held.copy()
        held[0, 0] = not held[0, 0]
        other = SkillWorld(world.universe_size, world.vacancy, held)
        assert other != world

