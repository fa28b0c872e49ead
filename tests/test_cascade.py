"""Tests for the halting-cascade engine."""
from __future__ import annotations

import hashlib
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halting_cascade import cascade, oracle, skills
from halting_cascade.cascade import (
    CascadeResult,
    IHCParams,
    StateCounts,
    replicate,
    replication_streams,
    run_batch,
    run_cascade,
)
from halting_cascade.graph import ErdosRenyi, Network, generate_ba, generate_er, generate_star


def _complete(n: int) -> Network:
    return Network(n, list(itertools.combinations(range(n), 2)))


def _directed_path(n: int) -> Network:
    return Network(n, [(i, i + 1) for i in range(n - 1)], directed=True)


# -- reference engines --------------------------------------------------------
#
# Both follow the randomness contract of ``halting_cascade.cascade`` in the
# plainest form: O(n) tables per run and per step, arcs gathered one source
# at a time, hash-based unique and a set difference for the next frontier.
# ``_reference_cascade`` is the engine as first written; the library's engine
# must return ``==`` results, trace included. ``ic_reference`` is a plain
# independent cascade that consumes one placeholder draw per newly activated
# node, so its reached set equals the engine's with application probability
# zero under a shared seed.


def _reference_seeds(seeds, n: int) -> np.ndarray:
    arr = np.unique(np.fromiter((int(s) for s in seeds), dtype=np.int64))
    if arr.size == 0:
        raise ValueError("at least one seed agent is required")
    if arr[0] < 0 or arr[-1] >= n:
        raise ValueError("seed agent id out of range")
    return arr


def _reference_per_agent(value, n: int) -> np.ndarray:
    if np.isscalar(value):
        return np.full(n, float(value))
    arr = np.asarray(value, dtype=float)
    assert arr.shape == (n,)
    return arr


def _reference_out_arcs(network, frontier) -> np.ndarray:
    """Arc targets of ``frontier`` one source at a time, apart from ``out_arcs``."""
    parts = [network.out_neighbors(int(s)) for s in frontier]
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


# the reference's agent states, in the order of ``StateCounts``' fields;
# an agent's state only ever increases
PASSIVE, FRESH, SPENT, APPLIED, HALTED = range(5)


def _reference_counts(state: np.ndarray) -> StateCounts:
    binned = np.bincount(state, minlength=5)
    return StateCounts(*(int(c) for c in binned[:5]))


def _reference_cascade(network, params, seeds, rng_seed, *, record_trace=False):
    n = network.n
    seed_arr = _reference_seeds(seeds, n)
    p_a = _reference_per_agent(params.p_a, n)
    p_h = _reference_per_agent(params.p_h, n)
    rng = np.random.default_rng(rng_seed)

    state = np.full(n, PASSIVE, dtype=np.int8)
    state[seed_arr] = FRESH
    generation = np.zeros(n, dtype=np.int64)
    generation[seed_arr] = 1

    frontier = seed_arr
    applicants_total = 0
    halters = np.empty(0, dtype=np.int64)
    trace = [_reference_counts(state)] if record_trace else None
    steps = 0

    for step in range(1, n + 1):
        steps = step
        passive_before = state == PASSIVE
        dst = _reference_out_arcs(network, frontier)
        dst = dst[passive_before[dst]]
        state[frontier] = SPENT

        newly = np.empty(0, dtype=np.int64)
        if dst.size:
            hit = rng.random(dst.size) < params.p_r
            newly = np.unique(dst[hit])

        appliers = np.empty(0, dtype=np.int64)
        if newly.size:
            state[newly] = FRESH
            generation[newly] = step + 1
            appliers = newly[rng.random(newly.size) < p_a[newly]]

        if appliers.size:
            state[appliers] = APPLIED
            applicants_total += int(appliers.size)
            halters = appliers[rng.random(appliers.size) < p_h[appliers]]
            state[halters] = HALTED

        if trace is not None:
            trace.append(_reference_counts(state))
        if halters.size:
            break
        frontier = np.setdiff1d(newly, appliers, assume_unique=True)
        if frontier.size == 0:
            break

    if halters.size:
        chain_length = int(generation[halters].min())
    else:
        chain_length = int(generation.max())
    return CascadeResult(
        success=bool(halters.size),
        chain_length=chain_length,
        applicants=applicants_total,
        halters=int(halters.size),
        steps=steps,
        seeds=tuple(int(s) for s in seed_arr),
        trace=tuple(trace) if trace is not None else None,
    )


def ic_reference(network, p_r, seeds, rng_seed) -> int:
    """Plain independent-cascade spread; returns the reached-set size."""
    n = network.n
    seed_arr = _reference_seeds(seeds, n)
    rng = np.random.default_rng(rng_seed)

    active = np.zeros(n, dtype=bool)
    active[seed_arr] = True
    frontier = seed_arr
    for _ in range(n):
        inactive_before = ~active
        dst = _reference_out_arcs(network, frontier)
        dst = dst[inactive_before[dst]]
        newly = np.empty(0, dtype=np.int64)
        if dst.size:
            hit = rng.random(dst.size) < p_r
            newly = np.unique(dst[hit])
        if newly.size:
            active[newly] = True
            rng.random(newly.size)  # placeholder application block
        frontier = newly
        if frontier.size == 0:
            break
    return int(active.sum())


@st.composite
def _cascade_cases(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    net_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    kind = draw(st.sampled_from(["er", "ba", "star", "path"]))
    if kind == "er":
        network = generate_er(n, draw(st.floats(0.0, 1.0)) * (n - 1), seed=net_seed)
    elif kind == "ba":
        n0 = draw(st.integers(min_value=1, max_value=n - 1))
        k = draw(st.integers(min_value=1, max_value=n0))
        network = generate_ba(n, n0, k, seed=net_seed)
    elif kind == "star":
        network = generate_star(n, draw(st.floats(0.0, 1.0)), seed=net_seed)
    else:
        network = _directed_path(n)
    prob = st.floats(min_value=0.0, max_value=1.0)
    per_agent = st.lists(prob, min_size=n, max_size=n)
    params = IHCParams(
        p_r=draw(prob),
        p_a=draw(prob | per_agent),
        p_h=draw(prob | per_agent),
    )
    seeds = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True)
    )
    return network, params, seeds


class TestSingleRun:
    def test_no_spread_when_p_r_zero(self):
        result = run_cascade(_complete(11), IHCParams(0.0, 1.0, 1.0), (0,), 7)
        assert not result.success
        assert result.chain_length == 1
        assert result.applicants == 0
        assert result.steps == 1
        assert result.halters == 0

    def test_complete_graph_all_probs_one(self):
        result = run_cascade(_complete(11), IHCParams(1.0, 1.0, 1.0), (0,), 7)
        assert result.success
        assert result.chain_length == 2
        assert result.applicants == 10
        assert result.steps == 1
        assert result.halters == 10

    def test_path_hand_trace(self):
        # 0 - 1 - 2: the middle agent only relays, the end agent is a
        # certain applicant and certain hire
        network = Network(3, [(0, 1), (1, 2)])
        params = IHCParams(1.0, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        result = run_cascade(network, params, (0,), 3, record_trace=True)
        assert result.success
        assert result.chain_length == 3
        assert result.steps == 2
        assert result.applicants == 1
        assert result.halters == 1
        assert result.trace == (
            StateCounts(passive=2, fresh=1, spent=0, applied=0, halted=0),
            StateCounts(passive=1, fresh=1, spent=1, applied=0, halted=0),
            StateCounts(passive=0, fresh=0, spent=2, applied=0, halted=1),
        )

    def test_last_step_splits_applicants_into_applied_and_halted(self):
        # both leaves of the seed are recruited and apply at step 1; only
        # agent 1 can be hired, so agent 2 stays an unhired applicant
        network = Network(3, [(0, 1), (0, 2)], directed=True)
        params = IHCParams(p_r=1.0, p_a=1.0, p_h=[0.0, 1.0, 0.0])
        result = run_cascade(network, params, (0,), 5, record_trace=True)
        assert result.success
        assert result.steps == 1
        assert result.applicants == 2
        assert result.halters == 1
        assert result.trace == (
            StateCounts(passive=2, fresh=1, spent=0, applied=0, halted=0),
            StateCounts(passive=0, fresh=0, spent=1, applied=1, halted=1),
        )

    def test_seeds_never_apply(self):
        result = run_cascade(_complete(2), IHCParams(1.0, 1.0, 1.0), (0,), 5)
        assert result.success
        assert result.applicants == 1
        assert result.halters == 1

        isolated = run_cascade(Network(1, []), IHCParams(1.0, 1.0, 1.0), (0,), 5)
        assert not isolated.success
        assert isolated.applicants == 0
        assert isolated.chain_length == 1

    def test_failed_run_reports_deepest_generation(self):
        # the longest run there is: one recruit per step, and the n-th step
        # finds no passive agent left and ends the run by itself
        for n in (2, 4, 200):
            result = run_cascade(_directed_path(n), IHCParams(1.0, 0.0, 1.0), (0,), 9)
            assert not result.success
            assert result.chain_length == n
            assert result.steps == n

    def test_trace_off_by_default(self):
        result = run_cascade(_complete(4), IHCParams(0.5, 0.5, 0.5), (0,), 11)
        assert result.trace is None

    def test_invalid_seeds(self):
        network = _complete(3)
        params = IHCParams(0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="at least one seed"):
            run_cascade(network, params, (), 0)
        with pytest.raises(ValueError, match="out of range"):
            run_cascade(network, params, (3,), 0)
        with pytest.raises(ValueError, match="out of range"):
            run_cascade(network, params, (-1,), 0)
        # a non-integer id is named, not truncated to agent 1
        for seed in (1.7, np.float64(1.0), "1"):
            with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {seed!r}")):
                run_cascade(network, params, (seed,), 0)
        assert run_cascade(network, params, (np.int64(1), 1), 0) == run_cascade(
            network, params, (1,), 0
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="p_r"):
            IHCParams(1.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="p_a"):
            IHCParams(0.5, -0.1, 0.5)
        with pytest.raises(ValueError, match="p_h"):
            IHCParams(0.5, 0.5, [0.5, 2.0])
        with pytest.raises(ValueError, match="length-3"):
            run_cascade(_complete(3), IHCParams(0.5, [0.1, 0.2], 0.5), (0,), 0)

    def test_nan_per_agent_probabilities_rejected(self):
        # NaN fails every comparison, so a min/max range check lets it through
        with pytest.raises(ValueError, match="p_a"):
            IHCParams(0.5, [math.nan] * 10, 0.5)
        with pytest.raises(ValueError, match="p_h"):
            IHCParams(0.5, 0.5, [0.5] * 9 + [math.nan])
        with pytest.raises(ValueError, match="p_a"):
            IHCParams(0.5, np.array([0.2, math.nan, 0.7]), [1.0, 1.0, 1.0])


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=25),
        degree_frac=st.floats(min_value=0.0, max_value=1.0),
        p_r=st.floats(min_value=0.0, max_value=1.0),
        p_a=st.floats(min_value=0.0, max_value=1.0),
        p_h=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_trace_conserves_agents(self, n, degree_frac, p_r, p_a, p_h, seed):
        network = generate_er(n, degree_frac * (n - 1), seed=seed)
        params = IHCParams(p_r, p_a, p_h)
        result = run_cascade(network, params, (0,), seed, record_trace=True)

        assert result.trace is not None
        assert len(result.trace) == result.steps + 1
        assert result.trace[0] == StateCounts(n - 1, 1, 0, 0, 0)
        passive_path = [c.passive for c in result.trace]
        for counts in result.trace:
            assert sum(counts) == n
        assert passive_path == sorted(passive_path, reverse=True)

        assert result.success == bool(result.halters)
        assert result.applicants >= result.halters
        assert result.chain_length >= (2 if result.success else 1)
        final = result.trace[-1]
        assert final.applied + final.halted == result.applicants

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=25),
        degree_frac=st.floats(min_value=0.0, max_value=1.0),
        p_r=st.floats(min_value=0.0, max_value=1.0),
        p_a=st.floats(min_value=0.0, max_value=1.0),
        p_h=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sampled_trace_conserves_agents(self, n, degree_frac, p_r, p_a, p_h, seed):
        # the same laws on a G(n, p) run as a chain over counts, from a drawn seed
        law = ErdosRenyi(n, degree_frac * (n - 1))
        runs = replicate(seed, [()], 1, law, [IHCParams(p_r, p_a, p_h)], None, None, True)
        ((result, _),) = next(runs)[2]

        assert result.trace is not None
        assert len(result.trace) == result.steps + 1
        assert result.trace[0] == StateCounts(n - 1, 1, 0, 0, 0)
        passive_path = [c.passive for c in result.trace]
        for counts in result.trace:
            assert sum(counts) == n
        assert passive_path == sorted(passive_path, reverse=True)

        assert result.success == bool(result.halters)
        assert result.applicants >= result.halters
        assert result.chain_length >= (2 if result.success else 1)
        final = result.trace[-1]
        assert final.applied + final.halted == result.applicants

    @settings(max_examples=30, deadline=None)
    @given(
        p_a=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_never_hired_when_p_h_zero(self, p_a, seed):
        network = generate_er(30, 4, seed=11)
        result = run_cascade(network, IHCParams(0.5, p_a, 0.0), (0,), seed)
        assert not result.success
        assert result.halters == 0

    def test_shared_seed_applicants_monotone_in_p_a(self):
        # single-generation star, no hiring: the application block reads
        # the same uniforms for both runs, so raising p_a only adds appliers
        network = generate_star(40, 1.0, seed=5)
        for run_seed in range(20):
            counts = [
                run_cascade(
                    network, IHCParams(0.6, p_a, 0.0), (0,), run_seed
                ).applicants
                for p_a in (0.3, 0.7)
            ]
            assert counts[0] <= counts[1]


class TestReferenceEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(case=_cascade_cases(), rng_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_engine_equals_reference(self, case, rng_seed):
        network, params, seeds = case
        got = run_cascade(network, params, seeds, rng_seed, record_trace=True)
        want = _reference_cascade(network, params, seeds, rng_seed, record_trace=True)
        assert got == want


def _random_digraph(n: int, out_degree: int, seed: int) -> Network:
    """``n * out_degree`` distinct arcs drawn uniformly, no self-loops."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(n * (n - 1), n * out_degree, replace=False)
    u, v = np.divmod(keys, n - 1)
    v += v >= u
    return Network(n, np.column_stack([u, v]), directed=True)


class _ArcCounter:
    """A network that records how many arcs each ``out_arcs`` call returns."""

    def __init__(self, network: Network):
        self.network, self.n, self.sizes = network, network.n, []

    def out_arcs(self, sources: np.ndarray) -> np.ndarray:
        arcs = self.network.out_arcs(sources)
        self.sizes.append(arcs.size)
        return arcs


class TestLargeFrontierEquivalence:
    """Steps with more than 10,000 candidate arcs, where the engine's
    per-arc selection works on arrays far larger than in the hypothesis cases."""

    NETWORKS = {
        "er": lambda: generate_er(4000, 20.0, seed=5),
        "ba": lambda: generate_ba(3000, 10, 10, seed=6),
        "directed": lambda: _random_digraph(3000, 16, seed=7),
    }

    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    def test_engine_equals_reference(self, kind):
        network = self.NETWORKS[kind]()
        p_a = np.random.default_rng(1).random(network.n) * 0.04
        points = {
            "saturating": IHCParams(0.5, 0.1, 0.0),
            "halting": IHCParams(0.5, p_a, 0.02),
        }
        halted_late = False
        for point, params in points.items():
            for run_seed in range(4):
                counter = _ArcCounter(network)
                got = run_cascade(counter, params, (run_seed,), run_seed, record_trace=True)
                want = _reference_cascade(
                    network, params, (run_seed,), run_seed, record_trace=True
                )
                assert got == want
                large = max(counter.sizes) > 10_000
                if point == "saturating":
                    assert large and not got.success
                halted_late |= large and got.success
        assert halted_late


class TestIcEquivalence:
    def test_reach_matches_reference_exactly(self):
        er = generate_er(200, 8, seed=42)
        star = generate_star(60, 0.8, seed=9)
        for network in (er, star):
            for p_r in (0.02, 0.1, 0.3, 1.0):
                for run_seed in range(20):
                    result = run_cascade(
                        network,
                        IHCParams(p_r, 0.0, 1.0),
                        (0,),
                        run_seed,
                        record_trace=True,
                    )
                    reached = network.n - result.trace[-1].passive
                    assert reached == ic_reference(network, p_r, (0,), run_seed)
                    assert not result.success


class TestStatistics:
    def test_one_step_hiring_rate_matches_closed_form(self):
        # star center with 10 contacts, certain application and hiring:
        # success iff at least one contact is recommended
        results = run_batch(
            _complete(11), IHCParams(0.3, 1.0, 1.0), 10_000, 2024, seeds=(0,)
        )
        rate = sum(r.success for r in results) / len(results)
        expected = 1.0 - 0.7**10
        sigma = math.sqrt(expected * (1.0 - expected) / len(results))
        assert abs(rate - expected) < 3 * sigma


def _chain(law, params, master_seed, reps=1):
    """The cascade results of ``replicate``'s one-cell group on ``law``."""
    runs = replicate(master_seed, [()], reps, law, [params], record_trace=True)
    return [result for _, _, ((result, _),) in runs]


def _assert_fixed_seeds_refused(monkeypatch, law, seeds, skills=None):
    """On G(n, p) ``replicate``, and ``run_batch`` through it, refuse any
    ``seeds`` with ``ValueError`` before they build a stream."""

    def unread(*args):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(cascade, "replication_streams", unread)
    params = IHCParams(0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="seeds must be None"):
        next(replicate(0, [()], 1, law, [params if skills is None else 0.5], skills, seeds))
    with pytest.raises(ValueError, match="seeds must be None"):
        run_batch(law, params, 1, 0, seeds=seeds)


class TestErdosRenyiSampler:
    """``run_chain``, the G(n, p) cascade over class counts: laws that hold
    run by run. ``tests/test_distributions.py`` compares its outcome
    distributions with the engine's on drawn graphs, and
    ``tests/test_exact_gnp.py`` its success rate with an exact recursion."""

    def test_p_zero_ends_at_step_one(self):
        for result in _chain(ErdosRenyi(50, 0.0), IHCParams(1.0, 0.5, 1.0), 3, reps=20):
            assert (result.success, result.steps, result.chain_length) == (False, 1, 1)
            assert result.trace[-1] == StateCounts(49, fresh=0, spent=1, applied=0, halted=0)

    def test_p_and_p_r_one_recruit_every_agent_at_step_one(self):
        # no applicant: the whole population carries at step 2, where the
        # contact chance is 1 (log1p(-1) is -inf) and no passive agent is left
        n = 30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for result in _chain(ErdosRenyi(n, n - 1), IHCParams(1.0, 0.0, 1.0), 4, reps=n):
                assert (result.success, result.steps, result.chain_length) == (False, 2, 2)
                assert result.trace[1:] == (
                    StateCounts(passive=0, fresh=n - 1, spent=1, applied=0, halted=0),
                    StateCounts(passive=0, fresh=0, spent=n, applied=0, halted=0),
                )

    def test_contact_chance_one_recruits_every_passive_agent(self):
        # step 1 recruits the seed's one neighbour; at step 2 the contact
        # chance p p_r is 1, so both classes' passive agents are all recruited
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cascade.run_chain(
                [0.0, 0.0], [1.0, 1.0], 1.0, 1.0, [5, 3], [1, 0], 9, rng, record_trace=True
            )
        assert result.trace == (
            StateCounts(passive=8, fresh=1, spent=0, applied=0, halted=0),
            StateCounts(passive=7, fresh=1, spent=1, applied=0, halted=0),
            StateCounts(passive=0, fresh=7, spent=2, applied=0, halted=0),
            StateCounts(passive=0, fresh=0, spent=9, applied=0, halted=0),
        )
        assert (result.steps, result.chain_length, result.seeds) == (3, 3, (9,))

    def test_p_a_zero_never_hires(self):
        params = IHCParams(1.0, 0.0, 1.0)
        for result in _chain(ErdosRenyi(40, 6.0), params, 5, reps=50):
            assert (result.success, result.applicants, result.halters) == (False, 0, 0)

    def test_seed_never_applies(self, monkeypatch):
        # one agent is fully covered, the only one that could be hired: a run
        # seeded at it never hires, and on the complete graph every other does
        n, runs = 4, []
        chain = cascade.run_chain

        def recording(*args, **kwargs):
            result = chain(*args, **kwargs)
            runs.append((args[4], result))
            return result

        monkeypatch.setattr(cascade, "run_chain", recording)
        monkeypatch.setattr(skills, "sample_coverage_counts", lambda law, rng: [n - 1, 0, 1])
        list(replicate(0, [()], 60, ErdosRenyi(n, 3.0), [1.0], (3.0, 2, 0.5)))
        seeded = [result.success for unreached, result in runs if unreached[2] == 0]
        others = [result.success for unreached, result in runs if unreached[2] == 1]
        assert seeded and others and len(seeded) + len(others) == 60
        assert not any(seeded) and all(others)

    @pytest.mark.parametrize("seeds", [None, (0,), (3,)], ids=["drawn", "hub", "other"])
    def test_seed_and_hub_hold_uniform_labels(self, monkeypatch, seeds):
        """On G(n, p) agents are labelled class by class, and the hub (agent
        0) and the seed hold uniform labels. So a drawn seed shares the
        hub's class with chance sum (m_c / n)**2, as two independent uniform
        agents do, not sum m_c (m_c - 1) / (n (n - 1)), as two distinct
        agents would. At vacancy size 1 there are two classes: the seed's is
        the one its chain finds short, and the hub's is full coverage when
        the oracle's qualified count is short. Over 4000 replications of 6
        agents, z of the shared count against the sum of its chances,
        two-sided, below 3.29; the other law's z is printed. A fixed seed,
        the hub or another agent, is refused before any stream is built."""
        n, reps, worlds, chains, posts = 6, 4000, [], [], []
        if seeds is not None:
            _assert_fixed_seeds_refused(monkeypatch, ErdosRenyi(n, 2.0), seeds, (3.0, 1, 0.5))
            return
        sample, chain, post = skills.sample_coverage_counts, cascade.run_chain, oracle.post_vacancy

        def drawing(*args):
            worlds.append(sample(*args))
            return list(worlds[-1])

        def running(*args, **kwargs):
            chains.append(list(args[4]))
            return chain(*args, **kwargs)

        def posting(*args):
            posts.append(args[1])
            return post(*args)

        monkeypatch.setattr(skills, "sample_coverage_counts", drawing)
        monkeypatch.setattr(cascade, "run_chain", running)
        monkeypatch.setattr(oracle, "post_vacancy", posting)
        list(replicate(12, [()], reps, ErdosRenyi(n, 2.0), [0.5], (3.0, 1, 0.5), seeds))
        shared, chances = 0, {"independent": [], "distinct": []}
        for counts, unreached, qualified in zip(worlds, chains, posts, strict=True):
            seed_class = [a - b for a, b in zip(counts, unreached)].index(1)
            hub_class = int(qualified < counts[1])
            shared += seed_class == hub_class
            chances["independent"].append(sum(m * m for m in counts) / n**2)
            chances["distinct"].append(sum(m * (m - 1) for m in counts) / (n * (n - 1)))
        assert len(worlds) == reps
        zs = {
            name: (shared - sum(p)) / math.sqrt(sum(x * (1 - x) for x in p))
            for name, p in chances.items()
        }
        print(f"seeds={seeds}: shared {shared:.0f} of {reps}; z against independent labels "
              f"{zs['independent']:.2f}, against distinct agents {zs['distinct']:.2f}")
        assert abs(zs["independent"]) < 3.29

    def test_a_million_agents_with_skills_allocate_no_agent_array(self):
        """A G(n, p) sweep with skill worlds keeps no per-agent array: 20
        replications of two cells at n = 10**6 peak under 1 MB of traced
        allocations (a per-agent world alone takes 8 MB)."""
        tracemalloc.start()
        try:
            runs = list(replicate(3, [(0,), (1,)], 20, ErdosRenyi(10**6, 20.0), [0.2, 1.0],
                                  (3.0, 4, 0.5)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"peak {peak} bytes")
        assert len(runs) == 20
        assert peak < 1_000_000

    def test_population_past_the_hypergeometric_limit_is_refused_before_any_draw(
        self, monkeypatch
    ):
        def unread(*args):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(cascade, "replication_streams", unread)
        with pytest.raises(ValueError, match="population=1000000000"):
            next(replicate(0, [()], 1, ErdosRenyi(10**9, 20.0), [0.5], (3.0, 2, 0.5)))

    def test_only_the_drawn_seed_runs(self, monkeypatch):
        """Every fixed seed set is refused, valid or not, with or without
        skills; the drawn seed runs every cell."""
        law = ErdosRenyi(20, 4.0)
        for seeds in [(0,), (3,), (19,), (np.int64(3), 3), (1, 2), (), (-1,), (20,), (1.5,)]:
            _assert_fixed_seeds_refused(monkeypatch, law, seeds)
            _assert_fixed_seeds_refused(monkeypatch, law, seeds, (3.0, 2, 0.5))
        monkeypatch.undo()
        for result in _chain(law, IHCParams(0.5, 0.5, 0.5), 0, reps=20):
            assert len(result.seeds) == 1 and 0 <= result.seeds[0] < 20

    def test_per_agent_probabilities_are_rejected(self):
        law = ErdosRenyi(20, 4.0)
        for params in [IHCParams(0.5, np.full(20, 0.5), 0.5), IHCParams(0.5, 0.5, [0.5] * 20)]:
            with pytest.raises(ValueError, match="scalar p_a and p_h"):
                next(replicate(0, [()], 1, law, [IHCParams(0.5, 0.5, 0.5), params]))

    @pytest.mark.parametrize(
        "n, mean_degree", [(2, 1.0), (40, 6.0), (300, 20.0), (10, 0.0), (25, 24.0)]
    )
    def test_seed_neighbours_follow_their_draw_schedule(self, n, mean_degree, monkeypatch):
        """The leader's world child draws the coverage histogram and the
        hub's label, and the seed leaves the class whose cumulative count
        holds its id. The leader's network child draws the seed's
        neighbours, one ``binomial(U_c, p)`` call per coverage class in
        ascending order, over the class's unreached agents; every cell runs
        on those counts."""
        law = ErdosRenyi(n, mean_degree)
        calls = []
        chain = cascade.run_chain

        def recording(*args, **kwargs):
            calls.append(args[:7])
            return chain(*args, **kwargs)

        monkeypatch.setattr(cascade, "run_chain", recording)
        list(replicate(6, [(0,), (1,)], 3, law, [0.3, 1.0], (3.0, 2, 0.5)))
        streams = replication_streams(6, [((0,), child) for child in range(3)], 3)
        coverage = skills.CoverageLaw(n, 3.0, 2)
        for rep, (world_rng, net_rng, node_rng) in enumerate(streams):
            unreached = np.array(skills.sample_coverage_counts(coverage, world_rng))
            world_rng.integers(n)  # the hub's label
            seed = int(node_rng.integers(n))
            unreached[np.searchsorted(np.cumsum(unreached), seed, side="right")] -= 1
            neighbours = [net_rng.binomial(size, law.p) for size in unreached.tolist()]
            want = (law.p, unreached.tolist(), neighbours, seed)
            for p_r, args in zip([0.3, 1.0], calls[2 * rep : 2 * rep + 2]):
                assert args == ([0.0, 0.5, 1.0], [0.0, 0.0, 1.0], p_r, *want)

    def test_a_group_shares_the_seed_star(self, monkeypatch):
        """Each replication draws one seed agent and its degree, from the
        leader's children, and every cell runs from them. ``replicate``
        yields the seed's degree. A fixed seed is refused before any stream
        is built."""
        law = ErdosRenyi(60, 5.0)
        params = [IHCParams(p_r, 0.2, 0.5) for p_r in (0.3, 1.0)]
        runs = list(replicate(9, [(0,), (1,)], 5, law, params))
        for _, (seed,), outcomes in runs:
            assert all(result.seeds == (seed,) for result, _ in outcomes)
        net_rng, node_rng = next(replication_streams(9, [((0,), 0), ((0,), 1)], 1))
        degree, (seed,), _ = runs[0]
        assert seed == int(node_rng.integers(60))
        assert degree == net_rng.binomial(59, law.p)
        _assert_fixed_seeds_refused(monkeypatch, law, (5,))


class TestBatch:
    def test_batch_is_deterministic_with_prefix_property(self):
        network = generate_er(50, 6, seed=3)
        params = IHCParams(0.2, 0.5, 0.5)
        full = run_batch(network, params, 200, 99)
        again = run_batch(network, params, 200, 99)
        prefix = run_batch(network, params, 50, 99)
        assert full == again
        assert full[:50] == prefix

    def test_batch_p_r_zero_never_succeeds(self):
        results = run_batch(generate_er(30, 5, seed=1), IHCParams(0.0, 1.0, 1.0), 40, 0)
        assert all(not r.success for r in results)
        assert all(r.chain_length == 1 for r in results)

    def test_batch_draws_varied_seed_agents(self):
        results = run_batch(generate_er(10, 3, seed=2), IHCParams(0.1, 0.1, 0.1), 500, 5)
        drawn = {r.seeds[0] for r in results}
        assert drawn <= set(range(10))
        assert len(drawn) > 5

    def test_batch_fixed_seed_agents_reused(self):
        results = run_batch(
            generate_er(20, 4, seed=8), IHCParams(0.3, 0.2, 0.9), 25, 1, seeds=(4, 7)
        )
        assert all(r.seeds == (4, 7) for r in results)

    @pytest.mark.parametrize("master_seed", [0, 7, 2**40])
    def test_batch_follows_the_sweeps_stream_rule(self, master_seed):
        """A batch is the sweeps' group of one cell at the empty path."""
        network = generate_er(60, 5, seed=1)
        params = IHCParams(0.4, 0.3, 0.6)
        sweep = cascade.replicate(master_seed, [()], 30, network, [params])
        assert run_batch(network, params, 30, master_seed) == [
            result for _, _, ((result, _),) in sweep
        ]

    def test_fixed_seed_agents_read_only_the_cascade_child(self):
        network = generate_er(60, 5, seed=1)
        params = IHCParams(0.4, 0.3, 0.6)
        streams = replication_streams(9, [((), 1)], 30)
        assert run_batch(network, params, 30, 9, seeds=(3, 8)) == [
            run_cascade(network, params, (3, 8), run_rng) for (run_rng,) in streams
        ]

    def test_batch_rejects_bad_arguments(self):
        network = generate_er(10, 3, seed=0)
        params = IHCParams(0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match="n_reps"):
            run_batch(network, params, 0, 1)
        with pytest.raises(ValueError, match="master_seed"):
            run_batch(network, params, 5, -1)
        # a float or a bool is not read as the integer it rounds to
        for n_reps, master_seed, name in [
            (5, 1.5, "master_seed"),
            (5, True, "master_seed"),
            (2.5, 1, "n_reps"),
            (True, 1, "n_reps"),
        ]:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                run_batch(network, params, n_reps, master_seed)
        assert run_batch(network, params, np.int64(3), np.uint32(1)) == run_batch(
            network, params, 3, 1
        )

    # sha256 over every result's fields, trace included, computed on the
    # engine as first written; any change to a draw or a result moves it.
    # Re-pinned when ``halters`` became a count: the engine that kept halter
    # ids gives these digests with ``len(halters)`` in its place
    PINNED_BATCHES = {
        "saturating": (
            IHCParams(0.3, 0.1, 0.0),
            20,
            (0, 1, 2),
            "58bbf9c08d2c8657bf64345889a9345eabb1b2a9b8d70773d81e2d40f68fc380",
        ),
        "halting": (
            IHCParams(0.5, 1.0, 1.0),
            60,
            None,
            "4ead80e4d8dd36a99823c078b18545342b13ea852a8c1563bc998bcf7aaa18e3",
        ),
        "dying": (
            IHCParams(0.02, 0.1, 0.5),
            60,
            None,
            "6d4271aa1fe8871ecaa19d8116a6d34cbdf6efb0ffb6a1ada8e5afe656e9a703",
        ),
    }

    @pytest.mark.parametrize("point", sorted(PINNED_BATCHES))
    def test_batch_output_pinned(self, point):
        params, reps, seeds, expected = self.PINNED_BATCHES[point]
        network = generate_er(300, 8.0, seed=2024)
        digest = hashlib.sha256()
        for r in run_batch(network, params, reps, 17, seeds, record_trace=True):
            fields = (
                r.success,
                r.chain_length,
                r.applicants,
                r.halters,
                r.steps,
                r.seeds,
                r.trace,
            )
            digest.update(repr(fields).encode())
        assert digest.hexdigest() == expected


def _states(rngs) -> list[dict]:
    return [rng.bit_generator.state for rng in rngs]


def _philox_state(key: np.random.SeedSequence, child: int, rep: int) -> dict:
    """The PCG64 state of stream (child, rep) under the Philox key of ``key``,
    rebuilt by hand from the layout ``replication_streams`` states."""
    # the counter as an int: a list with a word past 2**63 would be read as floats
    philox = np.random.Philox(key=key.generate_state(2, np.uint64), counter=child << 64 | rep)
    w0, w1, w2, w3 = philox.random_raw(4).tolist()
    state = np.random.PCG64(0).state
    state["state"] = {"state": w0 << 64 | w1, "inc": w2 << 64 | w3 | 1}
    return state


class TestSeedTree:
    """The streams form a tree: the Philox key of a cell path is that of
    ``SeedSequence(seed)``'s spawn child at the path, and (child, rep) picks a
    block under that key."""

    @given(
        seed=st.one_of(
            st.integers(0, 2**100), st.lists(st.integers(0, 2**64), min_size=1, max_size=3)
        ),
        path=st.lists(st.integers(0, 4), max_size=4),
        child=st.integers(0, 2**64 - 1),
        rep=st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_states_and_draws_equal_seed_sequence_children(self, seed, path, child, rep):
        # the spawn child is reached by spawning, one generation per path word
        node = np.random.SeedSequence(seed)
        for word in path:
            node = node.spawn(word + 1)[word]
        # the generator stays at the last replication's state
        *_, (got,) = replication_streams(seed, [(tuple(path), child)], rep + 1)
        want = _philox_state(node, child, rep)
        assert got.bit_generator.state == want
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = want
        assert got.random(8).tolist() == rng.random(8).tolist()

    @pytest.mark.parametrize(
        "entropy",
        [42, [20260815, 3, 1], [2**64 + 3, 0], []],
        ids=["int", "int-list", "wide-int-list", "empty"],
    )
    def test_children_equal_a_fresh_spawn(self, entropy):
        got = _states(next(replication_streams(entropy, [((j,), 1) for j in range(5)], 1)))
        want = np.random.SeedSequence(entropy).spawn(5)
        assert got == [_philox_state(child, 1, 0) for child in want]

    def test_replication_states_follow_the_row_layout(self):
        # one generator per row in row order, a repeated row repeating its state
        seed, reps = 2**70 + 9, 3
        streams = [((4, 1), 0), ((4, 1), 2), ((), 1), ((4, 1), 0)]
        for rep, rngs in enumerate(replication_streams(seed, streams, reps)):
            states = _states(rngs)
            for (path, child), state in zip(streams, states, strict=True):
                key = np.random.SeedSequence(seed, spawn_key=path)
                assert state == _philox_state(key, child, rep)
            assert states[0] == states[3] != states[1]
        assert rep == reps - 1

    def test_a_buffered_half_word_does_not_leak_into_the_next_stream(self):
        streams = replication_streams(7, [((), 0)], 2)
        (rng,) = next(streams)
        rng.integers(5000)  # a 32-bit draw leaves the other half buffered
        assert rng.bit_generator.state["has_uint32"] == 1
        (advanced,) = next(streams)
        assert advanced is rng
        want = _philox_state(np.random.SeedSequence(7), 0, 1)
        assert rng.bit_generator.state == want
        fresh = np.random.Generator(np.random.PCG64())
        fresh.bit_generator.state = want
        assert rng.integers(5000, size=9).tolist() == fresh.integers(5000, size=9).tolist()

    @pytest.mark.parametrize(
        "seed, streams",
        [
            (-1, [((), 0)]),
            ([3, -2], [((), 0)]),
            # SeedSequence would read (2**32,) as the words of (0, 1)
            (3, [((2**32,), 0)]),
            (3, [((0,), -1)]),
        ],
        ids=["negative", "negative-word", "wide-tail", "negative-key"],
    )
    def test_bad_keys_rejected(self, seed, streams):
        with pytest.raises(ValueError):
            list(replication_streams(seed, streams, 1))

    def test_no_rows(self):
        assert list(replication_streams(5, [], 4)) == []
        assert list(replication_streams(5, [((), 0)], 0)) == []

    def test_states_across_block_edges_follow_the_layout(self):
        # words are read four per replication from one Philox per stream; the
        # layout's state holds at any rep, past any power-of-two boundary
        seed, reps = 31, 2049
        streams = [((2,), 0), ((), 3)]
        checked = {1023, 1024, 1025, 2048}
        for rep, rngs in enumerate(replication_streams(seed, streams, reps)):
            if rep in checked:
                want = [
                    _philox_state(np.random.SeedSequence(seed, spawn_key=path), child, rep)
                    for path, child in streams
                ]
                assert _states(rngs) == want
        assert rep == reps - 1

    def test_memory_does_not_grow_with_reps(self):
        tracemalloc.start()
        try:
            next(replication_streams(5, [((), 0)], 50_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestStreamChildren:
    """Paths from a later child index on give the streams of the children
    that a fresh ``spawn`` gives from that index on."""

    @pytest.mark.parametrize(
        "make",
        [lambda: [20260815, 3, 1], lambda: np.random.SeedSequence([1, 2], spawn_key=(5, 0))],
        ids=["int-list", "spawned-seed-sequence"],
    )
    def test_start_gives_the_later_children_of_a_fresh_spawn(self, make):
        parent = make()
        if not isinstance(parent, np.random.SeedSequence):
            parent = np.random.SeedSequence(parent)
        paths = [(*parent.spawn_key, j) for j in (3, 4)]
        streams = replication_streams(parent.entropy, [(path, 0) for path in paths], 1)
        got = _states(next(streams))
        want = parent.spawn(5)[3:]
        assert got == [_philox_state(child, 0, 0) for child in want]
