"""Closed-form success probability for the direct-recommendation baseline.

The baseline ("oracle") posts the vacancy straight to a uniformly chosen
fraction of the population from a central hub. Success needs at least one
reached agent that is both recommended and fully qualified. The analytic
value marginalizes over the number of qualified agents (binomial), how many
of them land in the reached sample (hypergeometric), and whether any of
those gets recommended. All kernels run in log space so population-scale
terms stay finite, and the outer sums are truncated to the bulk of their
probability mass.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeResult
from .skills import SkillWorld

MASS_THRESHOLD = 0.98  # the paper's share of the catalog size's mass below its cap


@dataclass(frozen=True)
class OracleSpec:
    population: int
    reach_fraction: float
    p_r: float
    skill_rate: float
    vacancy_size: int

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be at least 1")
        if not 0 <= self.reach_fraction <= 1:
            raise ValueError("reach_fraction must lie in [0, 1]")
        if not 0 <= self.p_r <= 1:
            raise ValueError("p_r must lie in [0, 1]")
        _check_skill_rate(self.skill_rate)
        if self.vacancy_size < 0:
            raise ValueError("vacancy_size must be non-negative")


@dataclass(frozen=True)
class TruncationBounds:
    """Truncation window for the analytic sums.

    ``l_min``..``l_max`` bound the qualified-agent count (2.5 sigma around
    its binomial mean); ``k_max`` caps the skill-catalog size at the point
    where the distribution of the maximum per-agent skill count has
    accumulated ``mass_threshold`` of its mass.
    """

    l_min: int
    l_max: int
    k_max: int
    mass_threshold: float


# -- distribution kernels (log space) ----------------------------------------


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def poisson_pmf(k: int, rate: float) -> float:
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if k < 0:
        return 0.0
    if rate == 0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))


def binomial_pmf(k: int, n: int, p: float) -> float:
    if n < 0 or not 0 <= p <= 1:
        raise ValueError("need n >= 0 and p in [0, 1]")
    if k < 0 or k > n:
        return 0.0
    if p == 0:
        return 1.0 if k == 0 else 0.0
    if p == 1:
        return 1.0 if k == n else 0.0
    return math.exp(
        _log_comb(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def p_success_trial(reached: int, p_r: float) -> float:
    """Chance that at least one of ``reached`` independent contacts lands."""
    if reached < 0:
        raise ValueError("reached must be non-negative")
    if not 0 <= p_r <= 1:
        raise ValueError("p_r must lie in [0, 1]")
    if reached == 0:
        return 0.0
    if p_r == 1.0:
        return 1.0
    return -math.expm1(reached * math.log1p(-p_r))


# -- qualified-agent probability ---------------------------------------------

_ULP = 1 << 1074  # 1 in units of 2**-1074, the gap between subnormal doubles


def _catalog(
    population: int, skill_rate: float, mass_threshold: float
) -> tuple[list[float], list[float]]:
    """Poisson pmf and catalog-size cdf for sizes 0..cap, built in one pass.

    The skill catalog is as large as the biggest per-agent Poisson count, so
    its cdf at k is the Poisson cdf at k raised to the population size. The
    cap is the first k where that cdf reaches ``mass_threshold``. The float
    cdf can level off just below 1, so the table also ends at the first k
    past the mode whose pmf rounds to 0, where the cdf can grow no more.
    Every finite double is an integer multiple of 2**-1074, so the running
    sum is kept exactly as an integer count of those units, and Python's
    int true division rounds it correctly: each Poisson cdf entry is the
    one a fresh ``math.fsum`` of ``pmf[:k + 1]`` gives, in time linear in
    the table, not quadratic.
    """
    pmf: list[float] = []
    cdf: list[float] = []
    total = 0
    k = 0
    while True:
        x = poisson_pmf(k, skill_rate)
        pmf.append(x)
        num, den = x.as_integer_ratio()
        total += num * (_ULP // den)
        cdf.append(min(1.0, total / _ULP) ** population)
        if cdf[k] >= mass_threshold or (k > skill_rate and pmf[k] == 0.0):
            return pmf, cdf
        k += 1


def _check_skill_rate(skill_rate: float) -> None:
    if not 0 <= skill_rate < math.inf:
        raise ValueError(f"skill_rate must be finite and non-negative, got {skill_rate}")


def _check_mass_threshold(mass_threshold: float) -> None:
    if not 0 < mass_threshold <= 1:
        raise ValueError("mass_threshold must lie in (0, 1]")


def p_lambda(
    skill_rate: float,
    vacancy_size: int,
    population: int,
    mass_threshold: float = MASS_THRESHOLD,
) -> float:
    """Probability that one agent holds every skill of a random vacancy.

    Marginalizes over the catalog size (the maximum skill count among the
    population, summed up to the ``mass_threshold`` cap) and the agent's own
    Poisson skill count: an agent with k of K catalog skills covers a fixed
    vacancy of size v with probability C(k, v) / C(K, v).
    """
    if population < 1:
        raise ValueError("population must be at least 1")
    _check_skill_rate(skill_rate)
    if vacancy_size < 0:
        raise ValueError("vacancy_size must be non-negative")
    _check_mass_threshold(mass_threshold)
    pmf, cdf = _catalog(population, skill_rate, mass_threshold)
    total = 0.0
    prev = 0.0
    for catalog, cum in enumerate(cdf):
        weight = cum - prev
        prev = cum
        if catalog < vacancy_size or weight <= 0.0:
            continue
        log_denom = _log_comb(catalog, vacancy_size)
        inner = math.fsum(
            pmf[k] * math.exp(_log_comb(k, vacancy_size) - log_denom)
            for k in range(vacancy_size, catalog + 1)
        )
        total += weight * inner
    return total


def truncation_bounds(
    population: int,
    p_qualified: float,
    skill_rate: float,
    mass_threshold: float = MASS_THRESHOLD,
) -> TruncationBounds:
    """Truncation window used by ``oracle_success_probability``."""
    if not 0 <= p_qualified <= 1:
        raise ValueError("p_qualified must lie in [0, 1]")
    _check_skill_rate(skill_rate)
    _check_mass_threshold(mass_threshold)
    mean = population * p_qualified
    sd = math.sqrt(population * p_qualified * (1 - p_qualified))
    l_min = max(0, math.floor(mean - 2.5 * sd))
    l_max = min(population, math.ceil(mean + 2.5 * sd))
    k_max = len(_catalog(population, skill_rate, mass_threshold)[1]) - 1
    return TruncationBounds(l_min, l_max, k_max, mass_threshold)


def oracle_success_probability(spec: OracleSpec, mass_threshold: float = MASS_THRESHOLD) -> float:
    """Chance the hub's direct posting produces at least one hire."""
    p_q = p_lambda(spec.skill_rate, spec.vacancy_size, spec.population, mass_threshold)
    bounds = truncation_bounds(spec.population, p_q, spec.skill_rate, mass_threshold)
    return truncated_series(spec, p_q, bounds)


@functools.lru_cache(maxsize=4)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only ``lgamma(i + 1)`` for i = 0..n, built once per population."""
    table = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    table.flags.writeable = False
    return table


def truncated_series(spec: OracleSpec, p_qualified: float, bounds: TruncationBounds) -> float:
    """The success series of ``oracle_success_probability`` over its window.

    Sums, for each qualified count in ``bounds.l_min..l_max``, its binomial
    weight times the chance that some reached qualified agent is
    recommended. The hypergeometric terms are the log-space expression
    ``C(q, x) C(n - q, d - x) / C(n, d)``, evaluated from the population's
    table of ``lgamma(i + 1)`` in the scalar expression's operation order, so every
    term is bit-identical to the scalar ``hypergeom_pmf`` that
    ``tests/test_oracle.py`` keeps as a reference.
    """
    n = spec.population
    draws = round(spec.reach_fraction * n)
    lf = _log_factorials(n)
    trial = [p_success_trial(k, spec.p_r) for k in range(min(draws, bounds.l_max) + 1)]
    log_all_draws = lf[n] - lf[draws] - lf[n - draws]

    total = 0.0
    for qualified in range(bounds.l_min, bounds.l_max + 1):
        outer = binomial_pmf(qualified, n, p_qualified)
        if outer == 0.0:
            continue
        lo = max(0, draws - (n - qualified))
        hi = min(qualified, draws)
        in_reach = np.arange(lo, hi + 1)
        missed = n - qualified
        log_terms = (
            (lf[qualified] - lf[in_reach] - lf[qualified - in_reach])
            + (lf[missed] - lf[draws - in_reach] - lf[missed - draws + in_reach])
            - log_all_draws
        )
        reached_terms = math.fsum(
            map(operator.mul, map(math.exp, log_terms.tolist()), trial[lo : hi + 1])
        )
        total += outer * reached_terms
    return min(1.0, total)


# -- simulation counterpart ---------------------------------------------------


def post_vacancy(
    n: int, qualified: int, reach_fraction: float, p_r: float, star_seed, run_seed
) -> CascadeResult:
    """One stochastic trial of the hub posting, drawn as counts.

    The hub posts straight to d = round(reach_fraction * (n - 1)) distinct
    agents drawn uniformly from the n - 1 others, ``qualified`` of which
    cover every required skill. Each reached agent is recommended with
    probability ``p_r`` and then always applies, and an applicant is hired
    when it is qualified. The recommended agents are a uniform subset of
    the others given their number, so that number is ``binomial(d, p_r)``
    and the hires among them are hypergeometric. The result reads as a
    one-step cascade seeded at the hub, agent 0: successful runs report
    chain length 2.

    Draws: the run stream, ``run_seed``, gives R = ``binomial(d, p_r)``
    recommended agents; if R > 0, the star stream, ``star_seed``, gives
    ``hypergeometric(qualified, n - 1 - qualified, R)`` hires. Neither
    stream is read when d is 0. Each seed is anything
    ``numpy.random.default_rng`` accepts.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= qualified < n:
        raise ValueError(f"qualified must lie in [0, n - 1], got {qualified}")
    if not 0 <= reach_fraction <= 1:
        raise ValueError("reach fraction must lie in [0, 1]")
    if not 0 <= p_r <= 1:
        raise ValueError(f"p_r must lie in [0, 1], got {p_r}")
    reach = round(reach_fraction * (n - 1))
    recommended = hired = 0
    if reach:
        recommended = int(np.random.default_rng(run_seed).binomial(reach, p_r))
        if recommended:
            hired = int(
                np.random.default_rng(star_seed).hypergeometric(
                    qualified, n - 1 - qualified, recommended
                )
            )
    return CascadeResult(
        success=bool(hired),
        chain_length=2 if recommended else 1,
        applicants=recommended,
        halters=hired,
        steps=1,
        seeds=(0,),
    )


def simulate_oracle(
    world: SkillWorld,
    reach_fraction: float,
    p_r: float,
    star_seed,
    run_seed,
) -> CascadeResult:
    """One stochastic trial of the hub posting, on the same skill world.

    Agent 0 acts as the hub, and the agents that cover every required skill
    among the others are the qualified ones; ``post_vacancy`` draws the
    posting from their number, with the same streams and draws. The hub
    never applies, so its own skills are unused.
    """
    qualified = int(np.count_nonzero(world.coverage[1:] == world.vacancy_size))
    return post_vacancy(world.n, qualified, reach_fraction, p_r, star_seed, run_seed)
