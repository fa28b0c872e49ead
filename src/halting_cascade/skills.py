"""Skill-based agent heterogeneity.

Each agent holds a Poisson number of distinct skills from a shared catalog,
and a vacancy requires a set of catalog skills. Hiring is all-or-nothing: an
agent can be hired only if it holds every required skill. Application
propensity scales with the fraction of required skills the agent holds. So
the model reads one value per agent, its coverage: how many of the
vacancy's skills it holds. A skill world stores each agent's skill count
and coverage, and no skill ids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import IHCParams

# numpy's hypergeometric sampler needs both of its urn sizes below this
_URN_LIMIT = 10**9


@dataclass(frozen=True, eq=False)
class SkillWorld:
    """Per-agent skill counts and vacancy coverages, as read-only int arrays.

    Agent ``i`` holds ``counts[i]`` distinct catalog skills, ``coverage[i]``
    of them among the vacancy's ``vacancy_size`` required skills.
    """

    vacancy_size: int
    counts: np.ndarray
    coverage: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        coverage = np.array(self.coverage, dtype=np.int64)
        if counts.ndim != 1 or counts.shape != coverage.shape:
            raise ValueError("counts and coverage must be 1-D arrays of one length")
        if np.any(counts < 0) or np.any(coverage < 0):
            raise ValueError("counts and coverage must be non-negative")
        if np.any(coverage > np.minimum(counts, self.vacancy_size)):
            raise ValueError("an agent's coverage cannot exceed its count or vacancy_size")
        for name, values in (("counts", counts), ("coverage", coverage)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def universe_size(self) -> int:
        """The catalog size: the largest count, and at least ``vacancy_size``."""
        return int(self.counts.max(initial=self.vacancy_size))


def sample_skill_world(n: int, skill_rate: float, vacancy_size: int, seed) -> SkillWorld:
    """Draw a fresh skill world for n agents.

    Per-agent skill counts are Poisson(skill_rate). The catalog size K is the
    largest count observed (at least vacancy_size), fixed before any coverage
    is drawn. Each agent's skills are a uniform ``count``-subset of the
    catalog and the vacancy an independent uniform ``vacancy_size``-subset,
    so an agent's coverage is hypergeometric: ``count`` skills drawn without
    replacement from K, of which ``vacancy_size`` are required. Coverages are
    independent across agents given the counts and K.

    Draws: ``poisson(skill_rate, n)`` for the counts, then one
    ``hypergeometric(vacancy_size, K - vacancy_size, counts)`` call for the
    coverages, and nothing else.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if skill_rate < 0:
        raise ValueError("skill_rate must be non-negative")
    if vacancy_size < 0:
        raise ValueError("vacancy_size must be non-negative")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(skill_rate, size=n)
    universe = int(counts.max(initial=vacancy_size))
    if max(vacancy_size, universe - vacancy_size) >= _URN_LIMIT:
        raise ValueError(
            f"skill_rate={skill_rate} and vacancy_size={vacancy_size} give a catalog of "
            f"{universe} skills; the vacancy and the rest of the catalog must each "
            f"hold fewer than {_URN_LIMIT}"
        )
    coverage = rng.hypergeometric(vacancy_size, universe - vacancy_size, counts)
    return SkillWorld(vacancy_size, counts, coverage)


def bind_params(world: SkillWorld, p_r) -> IHCParams:
    """Cascade parameters with per-agent application and hiring probabilities.

    Both come from each agent's coverage of the vacancy: ``p_a`` is the
    covered fraction, ``p_h`` is 1.0 at full coverage; an empty vacancy
    binds both to 1.0.
    """
    required = world.vacancy_size
    coverage = world.coverage
    p_a = coverage / required if required else np.ones(world.n)
    p_h = (coverage == required).astype(float)
    return IHCParams(p_r=p_r, p_a=p_a, p_h=p_h)
