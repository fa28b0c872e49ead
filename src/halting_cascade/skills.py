"""Skill-based agent heterogeneity.

Each agent holds a Poisson number of distinct skills from a shared catalog,
and a vacancy requires a set of catalog skills. Hiring is all-or-nothing: an
agent can be hired only if it holds every required skill. Application
propensity scales with the fraction of required skills the agent holds. So
the model reads one value per agent, its coverage: how many of the
vacancy's skills it holds. A skill world stores each agent's skill count
and coverage, and no skill ids.

Where agents have no identities, as on G(n, p), a world is only its
coverage histogram: ``sample_coverage_counts`` draws it from a
``CoverageLaw`` in time that does not grow with n. ``SkillWorld``,
``sample_skill_world`` and ``bind_params`` serve loaded networks, whose
agents are nodes, and are the tests' reference for the histogram.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    _check_catalog(skill_rate, vacancy_size, universe)
    coverage = rng.hypergeometric(vacancy_size, universe - vacancy_size, counts)
    return SkillWorld(vacancy_size, counts, coverage)


def _check_catalog(skill_rate: float, vacancy_size: int, universe: int) -> None:
    if max(vacancy_size, universe - vacancy_size) >= _URN_LIMIT:
        raise ValueError(
            f"skill_rate={skill_rate} and vacancy_size={vacancy_size} give a catalog of "
            f"{universe} skills; the vacancy and the rest of the catalog must each "
            f"hold fewer than {_URN_LIMIT}"
        )


_LOG_FACTORIALS = np.array([math.lgamma(k + 1) for k in range(1024)])


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """``lgamma(k + 1)`` of a non-negative int array: read off a table below
    1024, and Stirling's series to its z**-7 term (Abramowitz & Stegun
    6.1.41) when any entry is past it; past 20, the series' first dropped
    term is below 1.1e-15."""
    if k.max(initial=0) < _LOG_FACTORIALS.size:
        return _LOG_FACTORIALS[k]
    z = k + 1.0
    r = 1.0 / (z * z)
    series = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2 * math.pi) + (
        1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))
    ) / z
    return np.where(k < 20, _LOG_FACTORIALS[np.minimum(k, 19)], series)


@dataclass(frozen=True, eq=False)
class CoverageLaw:
    """The law of a skill world's coverage histogram, as tables over the
    Poisson bulk, for ``sample_coverage_counts``.

    The tables cover counts ``low..low + len(pmf) - 1``, the rate plus or
    minus ``15 sqrt(rate) + 40``, whose Poisson mass outside is below 1e-26
    (Bernstein's inequality); counts outside have chance 0 here. Over that
    window ``pmf`` is the Poisson pmf and ``log_cdf`` the log of its cdf:
    ``log1p(-S(k + 1))`` with S the upper tail summed from the tail, or,
    where S(k + 1) >= 1/2, the log of the pmf summed from the head.
    ``max_cdf`` is ``exp(n log_cdf)``, the cdf of the largest of n counts.
    Built once per sweep group; the coverage mixtures below the largest
    count are filled in per largest count as draws need them.
    """

    n: int
    skill_rate: float
    vacancy_size: int
    low: int = field(init=False)
    pmf: np.ndarray = field(init=False, repr=False)
    log_cdf: np.ndarray = field(init=False, repr=False)
    max_cdf: np.ndarray = field(init=False, repr=False)
    _mixes: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 <= self.skill_rate < math.inf:
            raise ValueError(f"skill_rate must be finite and non-negative, got {self.skill_rate}")
        if self.vacancy_size < 0:
            raise ValueError("vacancy_size must be non-negative")
        rate = self.skill_rate
        width = 15 * math.sqrt(rate) + 40
        low, high = max(0, math.floor(rate - width)), math.ceil(rate + width) if rate else 0
        _check_catalog(rate, self.vacancy_size, max(high, self.vacancy_size))
        counts = np.arange(low, high + 1)
        pmf = np.exp(counts * math.log(rate) - rate - _log_factorial(counts)) if rate else np.ones(1)
        above = np.append(np.cumsum(pmf[::-1])[-2::-1], 0.0)  # S(k + 1)
        log_cdf = np.where(above < 0.5, np.log1p(-np.minimum(above, 0.5)), np.log(np.cumsum(pmf)))
        for name, value in (
            ("low", low), ("pmf", pmf), ("log_cdf", log_cdf), ("max_cdf", np.exp(self.n * log_cdf))
        ):
            object.__setattr__(self, name, value)

    def mix(self, top: int) -> np.ndarray:
        """The coverage law of an agent whose count lies below the window's
        ``top``-th count M: pi_x = sum over counts c < M of f(c) Hyp(x; K,
        v, c), normalised, where Hyp(x; K, v, c) = C(v, x) C(K - v, c - x)
        / C(K, c) is the chance that c of K = max(M, v) catalog skills hold
        x of the vacancy's v."""
        pi = self._mixes.get(top)
        if pi is None:
            v, most = self.vacancy_size, self.low + top
            universe = max(most, v)
            counts = np.arange(self.low, most)
            covered = np.arange(min(v, most - 1) + 1)
            inside = counts[:, None] - covered  # held skills outside the vacancy
            outside = universe - v - inside  # catalog skills outside both
            ok = (inside >= 0) & (outside >= 0)
            log_split = np.where(
                ok,
                _log_factorial(v - covered) + _log_factorial(covered)
                + _log_factorial(np.where(ok, inside, 0)) + _log_factorial(np.where(ok, outside, 0)),
                np.inf,
            )
            whole, vacancy, rest = _log_factorial(np.array([universe, v, universe - v]))
            log_counts = _log_factorial(counts) + _log_factorial(universe - counts) - whole
            log_counts += vacancy + rest
            pi = np.zeros(v + 1)
            pi[: covered.size] = self.pmf[:top] @ np.exp(log_counts[:, None] - log_split)
            pi /= pi.sum()
            self._mixes[top] = pi
        return pi


def sample_coverage_counts(law: CoverageLaw, rng: np.random.Generator) -> list[int]:
    """A skill world's coverage histogram m_0..m_v, drawn from class counts.

    Its law is that of ``np.bincount(sample_skill_world(n, skill_rate, v,
    rng).coverage, minlength=v + 1)``, for the counts in ``law``'s window,
    and no step costs time in n: agents of one class are lumped, as in
    Kemeny & Snell, *Finite Markov Chains*, 1960. Given the largest count
    M, the agents are independent draws of the Poisson law cut at M, at
    least one of them at M. So: M by inverting ``max_cdf``; the J agents at M as the first
    one's position G, a geometric law truncated at n, and ``binomial(n - G,
    q)`` more after it, q = f(M)/F(M). They hold every one of the K =
    max(M, v) catalog skills or every skill they have, so their coverage is
    min(M, v). The other n - J agents split by one ``multinomial`` over
    ``law.mix``.

    Draws, from ``rng``: ``random()`` for M; unless M is the window's
    lowest count or q rounds to 1, where every agent is at M, ``random()``
    for G and ``binomial(n - G, q)``; if any agent is left,
    ``multinomial(n - J, pi)``. A catalog of 10**9 skills or
    more beyond the vacancy is refused when ``law`` is built.
    """
    n, v = law.n, law.vacancy_size
    top = int(np.searchsorted(law.max_cdf, 1.0 - rng.random()))
    q = float(law.pmf[top]) / math.exp(law.log_cdf[top])
    at_top = n
    if top and q < 1.0:
        log_miss = math.log1p(-q)
        # P(G <= g) = (1 - (1 - q)**g) / (1 - (1 - q)**n), inverted at a uniform in (0, 1]
        tail = math.log1p((1.0 - rng.random()) * math.expm1(n * log_miss))
        first = min(max(math.ceil(tail / log_miss), 1), n)
        at_top = 1 + int(rng.binomial(n - first, q))
    counts = [0] * (v + 1)
    if at_top < n:
        counts = rng.multinomial(n - at_top, law.mix(top)).tolist()
    counts[min(law.low + top, v)] += at_top
    return counts


def coverage_classes(vacancy_size: int) -> tuple[list[float], list[float]]:
    """The chances of coverage c = 0..v: ``p_a`` is the covered fraction c/v,
    ``p_h`` 1.0 at full coverage only; at v = 0 one class has both 1.0."""
    v = vacancy_size
    return ([c / v for c in range(v + 1)] if v else [1.0]), [0.0] * v + [1.0]


def bind_params(world: SkillWorld, p_r) -> IHCParams:
    """Cascade parameters with per-agent ``p_a``/``p_h``: each agent's
    coverage class's chances (``coverage_classes``)."""
    p_a, p_h = coverage_classes(world.vacancy_size)
    return IHCParams(p_r=p_r, p_a=np.take(p_a, world.coverage), p_h=np.take(p_h, world.coverage))
