"""Distribution checks of the generators and of the sweeps' streams.

Each test compares draws with a law, not with one stream of numbers, so it
holds across a change of draw schedule: BA graphs against the list-and-set
reference in ``test_graph``, ER edge counts against Binomial(C(n, 2), p),
cascades sampled on G(n, p) as they reveal it against cascades on drawn
ER graphs, and sibling streams against independence. The seeds are fixed; a bound that
fails at its seed is a finding, not a seed to change. Each test prints its
statistic.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from scipy import stats

from halting_cascade.cascade import IHCParams, replication_streams, run_cascade
from halting_cascade.graph import ErdosRenyi, generate_ba, generate_er
from halting_cascade.skills import bind_params, sample_skill_world
from test_graph import _reference_ba

ALPHA = 1e-3
_BA_GRAPHS = 300  # per side


@functools.lru_cache(maxsize=None)
def _ba_features(n: int, n0: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One row per graph: degree of core node 0, degree of node n0, max
    degree; ``generate_ba`` on seeds 0.., the reference on disjoint seeds."""

    def features(network):
        degrees = network.out_degrees
        return degrees[0], degrees[n0], degrees.max()

    ours = [features(generate_ba(n, n0, k, seed)) for seed in range(_BA_GRAPHS)]
    theirs = [
        features(_reference_ba(n, n0, k, seed))
        for seed in range(10**6, 10**6 + _BA_GRAPHS)
    ]
    return np.array(ours), np.array(theirs)


def _two_sample_chi2(a: np.ndarray, b: np.ndarray, bins: int = 8):
    """Chi-square test of homogeneity on bins cut at the pooled quantiles."""
    pooled = np.concatenate([a, b])
    edges = np.unique(np.quantile(pooled, np.linspace(0, 1, bins + 1)[1:-1]))
    table = np.array(
        [np.bincount(np.searchsorted(edges, x, side="right"), minlength=len(edges) + 1)
         for x in (a, b)]
    )
    table = table[:, table.sum(axis=0) > 0]
    statistic, p_value, dof, _ = stats.chi2_contingency(table)
    return statistic, p_value, dof


# (300, 5, 5): many short first pools; (300, 1, 1): a one-node core. Both
# grow more than 256 nodes.
@pytest.mark.parametrize("params", [(300, 5, 5), (300, 1, 1)])
@pytest.mark.parametrize("feature", ["degree of node 0", "degree of node n0", "max degree"])
def test_ba_degrees_match_the_reference(params, feature):
    column = ["degree of node 0", "degree of node n0", "max degree"].index(feature)
    ours, theirs = _ba_features(*params)
    statistic, p_value, dof = _two_sample_chi2(ours[:, column], theirs[:, column])
    print(f"BA{params} {feature}: chi2={statistic:.2f} dof={dof} p={p_value:.3g}")
    assert p_value > ALPHA


# n - 1 = 40 keeps p = mean_degree / (n - 1) a short decimal
@pytest.mark.parametrize("p", [0.05, 0.3, 0.35, 0.6, 0.9])
def test_er_edge_counts_are_binomial(p):
    n, graphs = 41, 400
    pairs = n * (n - 1) // 2
    q = p * (n - 1) / (n - 1)  # the p generate_er computes
    counts = np.array([generate_er(n, p * (n - 1), seed).edge_count for seed in range(graphs)])
    law = stats.binom(pairs, q)
    # bins at the law's deciles, so every expected count is about 40
    inner = np.unique(law.ppf(np.linspace(0, 1, 11)[1:-1]))
    probs = np.diff(np.concatenate([[0.0], law.cdf(inner), [1.0]]))
    observed = np.bincount(np.searchsorted(inner, counts, side="left"), minlength=len(probs))
    statistic, p_value = stats.chisquare(observed, probs * graphs)
    print(f"ER p={q}: mean edges {counts.mean():.1f} (law {pairs * q:.1f}),"
          f" chi2={statistic:.2f} dof={len(probs) - 1} p={p_value:.3g}")
    assert p_value > ALPHA


def test_er_at_p_one_takes_every_pair():
    n = 41
    counts = {generate_er(n, n - 1, seed).edge_count for seed in range(20)}
    assert counts == {n * (n - 1) // 2}


_ER_N = 100
_ER_REPS = 2000  # per side and mean degree
# (p_r, p_a/p_h bound from the replication's skill world, else p_a 0.2 and p_h 0)
_ER_CELLS = [(p_r, skilled) for p_r in (0.05, 0.3, 1.0) for skilled in (False, True)]
_ER_METRICS = ("success", "chain length", "applicants", "steps", "reach", "seed degree")
_ER_DEGREES = (2.0, 19.8)  # sparse, and dense at p = 0.2
# per mean degree, every (cell, metric) but the seed degree, which all cells share
_ER_COMPARISONS = len(_ER_DEGREES) * (len(_ER_CELLS) * (len(_ER_METRICS) - 1) + 1)
# Bonferroni: under the null, every |z| stays below this with chance 1 - ALPHA
_ER_Z_BOUND = stats.norm.isf(ALPHA / (2 * _ER_COMPARISONS))


def _er_outcomes(mean_degree: float, sampled: bool, seed: int) -> np.ndarray:
    """(cell, replication, metric) outcomes on G(_ER_N, p).

    Each replication draws a uniform seed agent, the graph (by
    ``generate_er``, or only the seed's neighbours by ``ErdosRenyi.reveal``
    when ``sampled``) and a skill world (rate 3, vacancy size 2), then runs
    every cell from that seed with a trace. One generator feeds every draw in
    turn.
    """
    rng = np.random.default_rng(seed)
    law = ErdosRenyi(_ER_N, mean_degree)
    out = np.empty((len(_ER_CELLS), _ER_REPS, len(_ER_METRICS)))
    for rep in range(_ER_REPS):
        node = int(rng.integers(_ER_N))
        network = law.reveal(node, rng) if sampled else generate_er(_ER_N, mean_degree, rng)
        seed_degree = len(network.out_neighbors(node))
        world = sample_skill_world(_ER_N, 3.0, 2, rng)
        for cell, (p_r, skilled) in enumerate(_ER_CELLS):
            params = bind_params(world, p_r) if skilled else IHCParams(p_r, 0.2, 0.0)
            result = run_cascade(network, params, (node,), rng, record_trace=True)
            reach = _ER_N - result.trace[-1].passive
            out[cell, rep] = (
                result.success, result.chain_length, result.applicants, result.steps, reach,
                seed_degree,
            )
    return out


@pytest.mark.parametrize("mean_degree", _ER_DEGREES)
def test_er_sampler_matches_the_engine_on_drawn_graphs(mean_degree):
    """Two-sided z of the difference in means, engine on drawn graphs against
    the sampler, per (cell, metric): |z| < ``_ER_Z_BOUND`` (4.31). A metric
    constant on both sides, success at p_h = 0, must be the same constant."""
    engine = _er_outcomes(mean_degree, sampled=False, seed=1)
    sampled = _er_outcomes(mean_degree, sampled=True, seed=2)
    worst = (0.0, "")
    for cell, (p_r, skilled) in enumerate(_ER_CELLS):
        for column, metric in enumerate(_ER_METRICS):
            if metric == "seed degree" and cell:
                continue
            ours, theirs = sampled[cell, :, column], engine[cell, :, column]
            se = math.sqrt((ours.var(ddof=1) + theirs.var(ddof=1)) / _ER_REPS)
            if se == 0:
                assert ours[0] == theirs[0], (p_r, skilled, metric)
                continue
            z = (ours.mean() - theirs.mean()) / se
            if abs(z) > abs(worst[0]):
                where = "skill world" if skilled else "p_h=0"
                worst = (z, f"p_r={p_r} {where} {metric}: {ours.mean():.4f} vs {theirs.mean():.4f}")
    print(f"ER({_ER_N}, {mean_degree}): worst z={worst[0]:.2f} at {worst[1]};"
          f" bound {_ER_Z_BOUND:.2f} over {_ER_COMPARISONS} comparisons")
    assert abs(worst[0]) < _ER_Z_BOUND


_UNIFORMS = 10**6


@pytest.mark.parametrize("path", [(), (3, 1)])
def test_sibling_streams_are_uncorrelated(path):
    """Child 0 against child 1 of one replication, and replication 0 against
    replication 1 of one child: |Pearson r| below 5e-3, five times the
    standard error 1e-3 of r between independent streams."""
    # draws are taken per replication: the generators move on with the iterator
    (rep0_child0, rep0_child1), (rep1_child0, _) = (
        [rng.random(_UNIFORMS) for rng in rngs]
        for rngs in replication_streams(20260815, [(path, 0), (path, 1)], 2)
    )
    for name, other in (("child 1", rep0_child1), ("rep 1", rep1_child0)):
        r = np.corrcoef(rep0_child0, other)[0, 1]
        print(f"path {path}: child 0 rep 0 against {name}: r={r:.2e}")
        assert abs(r) < 5e-3
