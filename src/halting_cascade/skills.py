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

    ``held[i, s]`` is true when agent ``i`` holds skill ``s``; coverage and
    equality are read from it. Coverage is computed once, on construction.
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
        coverage = held[:, sorted(self.vacancy)].sum(axis=1)
        coverage.flags.writeable = False
        object.__setattr__(self, "_coverage", coverage)

    @property
    def n(self) -> int:
        return self.held.shape[0]

    def coverage(self) -> np.ndarray:
        """How many of the vacancy's required skills each agent holds (read-only)."""
        return self._coverage

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

    An agent holds the skills whose uniforms are at most its row's
    ``count``-th smallest one, the cut (none when its count is 0), read off
    one row-wise sort. That is the argsort layout unless a row's cut value
    repeats at the next rank; a world with such a row is laid out by the
    argsort itself (``_argsort_layout``).
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
    u = rng.random((n, universe))
    held = _cut_layout(u, counts)
    if held is None:
        held = _argsort_layout(u, counts)
    vacancy = frozenset(rng.choice(universe, size=vacancy_size, replace=False).tolist())
    return SkillWorld(universe, vacancy, held)


def _cut_layout(u: np.ndarray, counts: np.ndarray) -> np.ndarray | None:
    """Each row's ``count`` smallest uniforms, or None if a cut value repeats."""
    n, universe = u.shape
    if universe == 0:
        return np.zeros((n, 0), dtype=bool)
    ranked = np.sort(u, axis=1)
    rows = np.arange(n)
    cut = ranked[rows, np.maximum(counts - 1, 0)]
    above = ranked[rows, np.minimum(counts, universe - 1)]
    if np.any((cut == above) & (counts > 0) & (counts < universe)):
        return None
    # uniforms lie in [0, 1), so a cut of -1 holds nothing
    cut[counts == 0] = -1.0
    return u <= cut[:, None]


def _argsort_layout(u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``count`` entries of each row's argsort, as a boolean matrix."""
    n, universe = u.shape
    order = np.argsort(u, axis=1)
    held = np.empty((n, universe), dtype=bool)
    held[np.arange(n)[:, None], order] = np.arange(universe) < counts[:, None]
    return held


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
