"""Skill-based agent heterogeneity.

A skill world fixes a shared catalog of skill ids, which skills each agent
holds (one boolean matrix row per agent), and the set of skills a vacancy
requires. Hiring is all-or-nothing: an agent can be hired only if it holds
every required skill. Application propensity scales with the fraction of
required skills the agent holds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import IHCParams


@dataclass(frozen=True, eq=False)
class SkillWorld:
    """Agent skills as a read-only ``(n, universe_size)`` boolean matrix.

    ``held[i, s]`` is true when agent ``i`` holds skill ``s``; the per-agent
    sets and equality are views of it.
    """

    universe_size: int
    vacancy: frozenset[int]
    held: np.ndarray

    def __post_init__(self):
        held = np.array(self.held, dtype=bool)
        if held.ndim != 2 or held.shape[1] != self.universe_size:
            raise ValueError("held must be an (n, universe_size) matrix")
        _check_skill_ids(self.vacancy, self.universe_size)
        held.flags.writeable = False
        object.__setattr__(self, "held", held)

    @property
    def n(self) -> int:
        return self.held.shape[0]

    @property
    def agent_skills(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in self.held)

    def coverage(self) -> np.ndarray:
        """How many of the vacancy's required skills each agent holds."""
        return self.held[:, sorted(self.vacancy)].sum(axis=1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkillWorld):
            return NotImplemented
        return (
            self.universe_size == other.universe_size
            and self.vacancy == other.vacancy
            and bool(np.array_equal(self.held, other.held))
        )


def _check_skill_ids(ids, universe_size: int) -> None:
    if not all(0 <= s < universe_size for s in ids):
        raise ValueError(f"skill ids must lie in [0, {universe_size}), got {sorted(ids)}")


def sample_skill_world(n: int, skill_rate: float, vacancy_size: int, seed) -> SkillWorld:
    """Draw a fresh skill world for n agents.

    Per-agent skill counts are Poisson(skill_rate). The catalog size is the
    largest count observed (at least vacancy_size), fixed before any skill
    identities are drawn. Each agent's skills are distinct uniform picks
    from the catalog: the first ``count`` entries of a uniformly random
    permutation of it.

    Draw order: the n Poisson counts first, then one ``(n, catalog)`` block
    of uniforms whose row-wise argsort gives every agent's permutation, and
    the vacancy (distinct uniform picks) last.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if skill_rate < 0:
        raise ValueError("skill_rate must be non-negative")
    if vacancy_size < 0:
        raise ValueError("vacancy_size must be non-negative")
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


def bind_params(world: SkillWorld, p_r) -> IHCParams:
    """Cascade parameters with per-agent application and hiring probabilities.

    Both come from each agent's coverage of the vacancy: ``p_a`` is the
    covered fraction, ``p_h`` is 1.0 at full coverage; an empty vacancy
    binds both to 1.0.
    """
    required = len(world.vacancy)
    coverage = world.coverage()
    p_a = coverage / required if required else np.ones(world.n)
    p_h = (coverage == required).astype(float)
    return IHCParams(p_r=p_r, p_a=p_a, p_h=p_h)
