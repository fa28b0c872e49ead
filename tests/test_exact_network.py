"""The exact joint law of ``run_cascade`` on tiny networks.

``exact_law`` enumerates the cascade's chain by a depth-first walk over its
states (passive set, frontier, steps, last recruiting step, applicants,
probability) and returns the chance of each outcome cell (success, chain
length, applicants, halters, steps). At each state the targets are the
frontier's passive out-neighbours; target t, with m_t arcs from the
frontier, is recruited with chance ``1 - (1 - p_r)**m_t``, independently of
the others, and each recruit then spreads (``1 - p_a``), applies unhired
(``p_a (1 - p_h)``) or is hired (``p_a p_h``). Every subset of targets and
every outcome of each recruit is a branch; a branch stops on any hire or an
empty frontier. The walk reads the network through ``out_neighbors`` alone
and shares no code with the engine.

Each network's 20,000 runs from ``run_batch`` are compared with its law by
a chi-square test, cells with an expected count below 5 pooled. The seeds
are fixed; a bound that fails at its seed is a finding, not a seed to
change. The test prints its statistics.

``chain_law`` weights ``exact_law`` over every graph on five agents, each
with chance ``p**e (1 - p)**(10 - e)``: the joint law of a cascade on
G(5, p), which ``run_chain`` samples as a chain over class counts. Its
20,000 runs per case are compared with that law the same way.
"""
from __future__ import annotations

import io
import itertools
import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from scipy import stats

from halting_cascade.cascade import IHCParams, run_batch, run_chain
from halting_cascade.graph import Network, generate_ba, load_edge_list
from halting_cascade.skills import coverage_classes

RUNS = 20_000
ALPHA = 1e-3  # over all networks, Bonferroni-corrected per network below

MISS, SPREAD, APPLY, HIRE = range(4)


def exact_law(network, params: IHCParams, seeds) -> dict[tuple, float]:
    """Chance of each (success, chain length, applicants, halters, steps)."""
    n = network.n
    p_a = np.broadcast_to(np.asarray(params.p_a, dtype=float), (n,)).tolist()
    p_h = np.broadcast_to(np.asarray(params.p_h, dtype=float), (n,)).tolist()
    out = [network.out_neighbors(v).tolist() for v in range(n)]
    law: dict[tuple, float] = defaultdict(float)

    def walk(passive, frontier, steps, last, applicants, prob):
        steps += 1
        arcs = Counter(t for u in frontier for t in out[u] if t in passive)
        options = []
        for t, m in sorted(arcs.items()):
            hit = 1 - (1 - params.p_r) ** m
            outcomes = (
                (MISS, 1 - hit),
                (SPREAD, hit * (1 - p_a[t])),
                (APPLY, hit * p_a[t] * (1 - p_h[t])),
                (HIRE, hit * p_a[t] * p_h[t]),
            )
            options.append([(t, kind, chance) for kind, chance in outcomes if chance > 0])
        for branch in itertools.product(*options):
            chance = prob * math.prod(c for _, _, c in branch)
            recruits = {t for t, kind, _ in branch if kind != MISS}
            spreaders = [t for t, kind, _ in branch if kind == SPREAD]
            applied = sum(kind in (APPLY, HIRE) for _, kind, _ in branch)
            hires = sum(kind == HIRE for _, kind, _ in branch)
            reached = steps if recruits else last
            if hires or not spreaders:
                law[(hires > 0, reached + 1, applicants + applied, hires, steps)] += chance
            else:
                walk(passive - recruits, spreaders, steps, reached, applicants + applied, chance)

    seeds = sorted(set(seeds))
    walk(frozenset(range(n)) - set(seeds), seeds, 0, 0, 0, 1.0)
    return dict(law)


def chi_square(law: dict[tuple, float], observed: Counter, runs: int) -> tuple[float, int]:
    """Pearson's statistic and its degrees of freedom. Cells whose expected
    count is below 5 are pooled, smallest first, and the pool takes further
    cells until it reaches 5."""
    cells = sorted(law, key=law.get)
    pool_expected = pool_observed = 0.0
    stat, used = 0.0, 0
    for cell in cells:
        expected = law[cell] * runs
        if pool_expected < 5 and (expected < 5 or pool_expected > 0):
            pool_expected += expected
            pool_observed += observed[cell]
            continue
        stat += (observed[cell] - expected) ** 2 / expected
        used += 1
    if pool_expected > 0:
        stat += (pool_observed - pool_expected) ** 2 / pool_expected
        used += 1
    return stat, used - 1


def _digraph(n: int, arcs: int, seed: int) -> Network:
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = rng.choice(len(pairs), arcs, replace=False)
    return Network(n, [pairs[i] for i in sorted(chosen)], directed=True)


_EDGE_LIST = "# labels need a remap\n10 20\n20 30\n30 40\n40 10\n10 30\n40 50\n50 60\n60 20\n"

# name: (network, params, seeds or None for a uniform seed agent)
CASES = {
    "directed": (_digraph(7, 21, seed=3), IHCParams(0.5, 0.3, 0.5), (0,)),
    "star": (
        Network(8, [(0, leaf) for leaf in range(1, 8)]),
        IHCParams(0.6, 0.2, 0.6),
        None,
    ),
    "ba": (generate_ba(8, 3, 2, seed=4), IHCParams(0.5, 0.25, 0.5), (0,)),
    "ba-no-applicants": (generate_ba(8, 3, 2, seed=4), IHCParams(0.5, 0.0, 0.5), (0,)),
    "edge-list-p_r-one": (
        load_edge_list(io.StringIO(_EDGE_LIST)),
        IHCParams(1.0, 0.3, 0.5),
        (2,),
    ),
    "two-seeds": (
        Network(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 7),
                    (6, 7), (2, 3)]),
        IHCParams(0.5, 0.2, 0.5),
        (2, 3),
    ),
    "per-agent": (
        _digraph(7, 21, seed=5),
        IHCParams(
            0.5,
            np.random.default_rng(6).uniform(0.0, 0.5, 7),
            np.random.default_rng(7).uniform(0.2, 1.0, 7),
        ),
        (0, 5),
    ),
}


def _law(network, params, seeds) -> dict[tuple, float]:
    if seeds is not None:
        return exact_law(network, params, seeds)
    mixed: dict[tuple, float] = defaultdict(float)
    for seed in range(network.n):
        for cell, chance in exact_law(network, params, (seed,)).items():
            mixed[cell] += chance / network.n
    return dict(mixed)


class TestExactLaw:
    def test_hand_computed_one_step_law(self):
        # a lone seed with two leaves, p_a 1: the seed reaches r leaves with
        # chance Bin(r; 2, p_r), and each is hired with chance p_h
        p_r, p_h = 0.3, 0.4
        law = exact_law(Network(3, [(0, 1), (0, 2)]), IHCParams(p_r, 1.0, p_h), (0,))
        want = {
            (False, 1, 0, 0, 1): (1 - p_r) ** 2,
            (False, 2, 1, 0, 1): 2 * p_r * (1 - p_r) * (1 - p_h),
            (True, 2, 1, 1, 1): 2 * p_r * (1 - p_r) * p_h,
            (False, 2, 2, 0, 1): p_r**2 * (1 - p_h) ** 2,
            (True, 2, 2, 1, 1): p_r**2 * 2 * p_h * (1 - p_h),
            (True, 2, 2, 2, 1): p_r**2 * p_h**2,
        }
        assert law.keys() == want.keys()
        for cell, chance in want.items():
            assert law[cell] == pytest.approx(chance, abs=1e-15)

    def test_parallel_arcs_recruit_per_arc(self):
        # two seeds with one shared neighbour: it is recruited unless both arcs miss
        law = exact_law(Network(3, [(0, 2), (1, 2)]), IHCParams(0.5, 0.0, 0.0), (0, 1))
        assert law == pytest.approx({(False, 1, 0, 0, 1): 0.25, (False, 2, 0, 0, 2): 0.75})

    @pytest.mark.parametrize("case", CASES)
    def test_law_sums_to_one(self, case):
        assert sum(_law(*CASES[case]).values()) == pytest.approx(1.0, abs=1e-12)

    def test_engine_follows_the_exact_law(self):
        threshold = ALPHA / len(CASES)
        results = {}
        for master_seed, (name, (network, params, seeds)) in enumerate(CASES.items()):
            law = _law(network, params, seeds)
            runs = run_batch(network, params, RUNS, 20261021 + master_seed, seeds)
            observed = Counter(
                (r.success, r.chain_length, r.applicants, r.halters, r.steps) for r in runs
            )
            outside = set(observed) - set(law)
            stat, df = chi_square(law, observed, RUNS)
            p = float(stats.chi2.sf(stat, df))
            results[name] = (stat, df, p, len(law), outside)
            print(f"{name}: chi2 {stat:.1f} on {df} df, p {p:.3f}, {len(law)} cells")
        for name, (stat, df, p, _, outside) in results.items():
            assert not outside, f"{name}: outcomes outside the law: {sorted(outside)}"
            assert p > threshold, f"{name}: chi2 {stat:.1f} on {df} df, p {p:.2e}"


# -- run_chain: the same law on G(n, p), weighted over every graph -------------

CHAIN_N = 5
CHAIN_PAIRS = list(itertools.combinations(range(CHAIN_N), 2))

# name: (p, p_r, p_a per class, p_h per class, the class of each agent but the seed)
CHAIN_CASES = {
    "one-class": (0.6, 0.5, [0.3], [0.5], [0, 0, 0, 0]),
    # vacancy 2: coverage 1 applies half the time and is never hired
    "skill-classes": (0.5, 0.7, *coverage_classes(2), [0, 1, 1, 2]),
    "p_r-one": (0.4, 1.0, [0.2], [0.5], [0, 0, 0, 0]),
}


def chain_law(p, p_r, p_a, p_h, classes) -> dict[tuple, float]:
    """The joint law of a cascade from agent 0 on G(5, p): ``exact_law`` on
    each of the 2**10 graphs on five agents, weighted by ``p**e (1 - p)**(10
    - e)`` for its e edges. Agent i + 1 is in class ``classes[i]``; the
    seed's chances are never read, since a seed never applies."""
    params = IHCParams(
        p_r, [0.0] + [p_a[c] for c in classes], [0.0] + [p_h[c] for c in classes]
    )
    law: dict[tuple, float] = defaultdict(float)
    for mask in range(2 ** len(CHAIN_PAIRS)):
        edges = [pair for i, pair in enumerate(CHAIN_PAIRS) if mask >> i & 1]
        weight = p ** len(edges) * (1 - p) ** (len(CHAIN_PAIRS) - len(edges))
        for cell, chance in exact_law(Network(CHAIN_N, edges), params, (0,)).items():
            law[cell] += weight * chance
    return dict(law)


def chain_runs(p, p_r, p_a, p_h, classes, runs: int, seed: int) -> Counter:
    """Outcome cells of ``runs`` ``run_chain`` cascades from agent 0, the
    seed's neighbours drawn per class as ``replicate`` draws them."""
    unreached = np.bincount(classes, minlength=len(p_a)).tolist()
    rng = np.random.default_rng(seed)
    observed: Counter = Counter()
    for _ in range(runs):
        neighbours = [rng.binomial(size, p) for size in unreached]
        r = run_chain(p_a, p_h, p_r, p, unreached, neighbours, 0, rng)
        observed[(r.success, r.chain_length, r.applicants, r.halters, r.steps)] += 1
    return observed


class TestChainLaw:
    """``run_chain`` against ``exact_law`` weighted over every graph on five
    agents, with one class and with skill classes: success, chain length,
    applicants, halters and steps, where ``tests/test_exact_gnp.py`` checks
    the success rate alone. α = 1e-3 over the cases, Bonferroni-corrected."""

    @pytest.mark.parametrize("case", CHAIN_CASES)
    def test_law_sums_to_one(self, case):
        assert sum(chain_law(*CHAIN_CASES[case]).values()) == pytest.approx(1.0, abs=1e-12)

    def test_chain_follows_the_exact_law(self):
        threshold = ALPHA / len(CHAIN_CASES)
        results = {}
        for seed, (name, case) in enumerate(CHAIN_CASES.items()):
            law = chain_law(*case)
            observed = chain_runs(*case, RUNS, 20261022 + seed)
            outside = set(observed) - set(law)
            stat, df = chi_square(law, observed, RUNS)
            p = float(stats.chi2.sf(stat, df))
            results[name] = (stat, df, p, outside)
            print(f"{name}: chi2 {stat:.1f} on {df} df, p {p:.3f}, {len(law)} cells")
        for name, (stat, df, p, outside) in results.items():
            assert not outside, f"{name}: outcomes outside the law: {sorted(outside)}"
            assert p > threshold, f"{name}: chi2 {stat:.1f} on {df} df, p {p:.2e}"
