"""An exact finite-n check of cascades on G(n, p).

``exact_gnp_success`` is the chance of a hire from a uniform seed agent, or
from a seed of a given degree, on G(n, p) with scalar ``p_a``/``p_h``. It
is a recursion over the counts of the Reed-Frost chain that a cascade on
G(n, p) is, and it shares no code with either sampler. The tests check it
against closed forms, and then both samplers against it: the chain
(``replicate`` on ``ErdosRenyi``) and the engine (``run_cascade`` on a fresh
``generate_er`` graph per replication, by ``replicate``'s factory path).
The seeds are fixed; a bound that fails at its seed is a finding, not a
seed to change. Each test prints its statistic.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from scipy import stats

from halting_cascade.cascade import IHCParams, replicate
from halting_cascade.graph import ErdosRenyi, generate_er
from halting_cascade.metrics import degree_bin

ALPHA = 1e-3


@functools.lru_cache(maxsize=None)
def _success_table(
    n: int, mean_degree: float, p_r: float, p_a: float, p_h: float
) -> tuple[float, np.ndarray]:
    """``P(n - 1, 1)`` and ``g_{n-1}(r)`` for r = 0..n-1.

    ``P(U, F)`` is the chance of a hire from U unreached agents and a
    frontier of F carriers. Each unreached agent is recruited independently
    with chance ``q_F = 1 - (1 - p p_r)^F``, and r recruits give a hire with
    chance ``1 - (1 - p_a p_h)^r``; given none, each of them carries on
    independently with chance ``s = (1 - p_a)/(1 - p_a p_h)``. So ``P(0, F)
    = 0`` and ``P(U, F) = sum_r Bin(r; U, q_F) g_U(r)``, where ``g_U(r) = 1 -
    (1 - p_a p_h)^r + (1 - p_a p_h)^r sum_f Bin(f; r, s) P(U - r, f)``. Rows
    U = 1..n-1 are filled in order, and the inner sum ``W(U', r) = sum_f
    Bin(f; r, s) P(U', f)`` is one matrix-vector product per finished row.
    Takes about 0.3 s at n = 200.
    """
    m = n - 1
    contact = mean_degree / m * p_r
    keep = 1 - p_a * p_h  # a recruit is not hired
    s = (1 - p_a) / keep if keep else 0.0
    ks = np.arange(m + 1)
    no_hire = keep**ks
    carriers = stats.binom.pmf(ks[None, :], ks[:, None], s)  # [r, f]
    q = 1 - (1 - contact) ** ks  # [F]
    P = np.zeros((m + 1, m + 1))  # [U, F]
    W = np.zeros((m + 1, m + 1))  # [U', r]
    for U in range(1, m + 1):
        r = ks[: U + 1]
        g = 1 - no_hire[r] + no_hire[r] * W[U - r, r]
        g[0] = 0.0  # no recruit, no frontier
        # the unreached agents and the frontier hold at most n agents, the
        # seed in a frontier of one
        P[U, : m - U + 2] = stats.binom.pmf(r[None, :], U, q[: m - U + 2, None]) @ g
        W[U] = carriers @ P[U]
    return float(P[m, 1]), g


def exact_gnp_success(
    n: int, mean_degree: float, p_r: float, p_a: float, p_h: float, seed_degree: int | None = None
) -> float:
    """The exact chance of a hire on G(n, p), p = mean_degree/(n-1).

    A uniform seed gives ``P(n - 1, 1)``. A seed of degree D recruits
    Binomial(D, p_r) of its neighbours at step 1, and every pair not
    touching the seed is still unrevealed, so it gives ``sum_r Bin(r; D,
    p_r) g_{n-1}(r)``: what the ER bins of ``ba-vs-er`` estimate.
    """
    uniform, g = _success_table(n, mean_degree, p_r, p_a, p_h)
    if seed_degree is None:
        return uniform
    recruits = stats.binom.pmf(np.arange(seed_degree + 1), seed_degree, p_r)
    return float(recruits @ g[: seed_degree + 1])


def test_reference_values():
    """The values that the ROADMAP quotes at k = 8, p_r = p_a = 0.3, p_h = 0.5."""
    assert round(exact_gnp_success(60, 8.0, 0.3, 0.3, 0.5), 4) == 0.8247
    assert round(exact_gnp_success(200, 8.0, 0.3, 0.3, 0.5), 4) == 0.8260


@pytest.mark.parametrize("n, mean_degree", [(60, 2.0), (60, 17.7), (200, 8.0)])
@pytest.mark.parametrize("p_r", [0.3, 1.0])
def test_identities(n, mean_degree, p_r):
    """No applier or no hire gives 0; when every recruit is hired, success
    is the chance that the seed recommends anyone at all."""
    p = mean_degree / (n - 1)
    for degree in (None, 0, 3, 12):
        assert exact_gnp_success(n, mean_degree, p_r, 0.0, 0.7, degree) == 0.0
        assert exact_gnp_success(n, mean_degree, p_r, 0.7, 0.0, degree) == 0.0
    assert exact_gnp_success(n, mean_degree, p_r, 1.0, 1.0) == pytest.approx(
        1 - (1 - p * p_r) ** (n - 1), rel=1e-12
    )
    for degree in (0, 3, 12):
        assert exact_gnp_success(n, mean_degree, p_r, 1.0, 1.0, degree) == pytest.approx(
            1 - (1 - p_r) ** degree, rel=1e-12, abs=1e-15
        )


# sparse and dense graphs at both sizes; p = 0.3 at the dense ends
_GROUPS = [(60, 2.0), (60, 17.7), (200, 2.0), (200, 8.0), (200, 59.7)]
# (p_r, p_a, p_h), p_r up to 1; the first cell is the ROADMAP's reference
_CELLS = [(0.3, 0.3, 0.5), (1.0, 0.2, 0.5), (0.1, 0.8, 0.5), (0.6, 0.05, 1.0)]
_REPS = 2000
# a count checked by its normal z must have at least this variance: a near
# certain outcome has too few of the rare one for the normal tail to hold
_MIN_VARIANCE = 5.0


def _runs(sampler: str, n: int, mean_degree: float):
    """(seed degree, successes per cell) per replication of one group."""
    network = ErdosRenyi(n, mean_degree)
    if sampler == "engine":
        network = functools.partial(generate_er, n, mean_degree)
    params = [IHCParams(*cell) for cell in _CELLS]
    paths = [(cell,) for cell in range(len(_CELLS))]
    seed = {"chain": 18, "engine": 19}[sampler]
    return [
        (degree, [result.success for result, _ in outcomes])
        for degree, _, outcomes in replicate(seed, paths, _REPS, network, params)
    ]


def _z_scores(sampler: str):
    """Per (group, cell), the z of the success count against the exact
    expectation: over all runs, and over the runs of each seed-degree bin,
    given their seed degrees (success is then independent run by run)."""
    for n, mean_degree in _GROUPS:
        runs = _runs(sampler, n, mean_degree)
        degrees = np.array([degree for degree, _ in runs])
        for cell, (p_r, p_a, p_h) in enumerate(_CELLS):
            hits = np.array([successes[cell] for _, successes in runs], dtype=float)
            exact = exact_gnp_success(n, mean_degree, p_r, p_a, p_h)
            where = f"{sampler} n={n} k={mean_degree} (p_r, p_a, p_h)={(p_r, p_a, p_h)}"
            yield hits.sum(), np.full(len(runs), exact), f"{where} all seeds"
            by_degree = {
                d: exact_gnp_success(n, mean_degree, p_r, p_a, p_h, int(d))
                for d in np.unique(degrees)
            }
            conditional = np.array([by_degree[d] for d in degrees])
            bins = np.array([degree_bin(int(d)) for d in degrees])
            for lo, hi in sorted({tuple(b) for b in bins.tolist()}):
                kept = (bins[:, 0] == lo) & (bins[:, 1] == hi)
                yield hits[kept].sum(), conditional[kept], f"{where} degrees [{lo}, {hi})"


@pytest.mark.parametrize("sampler", ["chain", "engine"])
def test_samplers_match_the_exact_success(sampler):
    """Two-sided z of each success count against its exact expectation,
    over every (group, cell) and every ``ba-vs-er`` seed-degree bin with
    variance at least ``_MIN_VARIANCE``: |z| below the Bonferroni bound
    over the comparisons made."""
    checked = []
    for hits, chances, where in _z_scores(sampler):
        variance = float((chances * (1 - chances)).sum())
        if variance >= _MIN_VARIANCE:
            checked.append(((hits - chances.sum()) / math.sqrt(variance), where, len(chances)))
    bound = stats.norm.isf(ALPHA / (2 * len(checked)))
    z, where, runs = max(checked, key=lambda point: abs(point[0]))
    print(f"{sampler}: worst z={z:.2f} at {where} ({runs} runs);"
          f" bound {bound:.2f} over {len(checked)} comparisons")
    assert abs(z) < bound
