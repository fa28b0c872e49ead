"""Tests for the halting-cascade engine."""
from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halting_cascade.cascade import (
    AgentState,
    CascadeResult,
    IHCParams,
    StateCounts,
    replication_states,
    reseeded,
    run_batch,
    run_cascade,
    seed_tree,
)
from halting_cascade.graph import Network, generate_ba, generate_er, generate_star


def _complete(n: int) -> Network:
    return Network(n, list(itertools.combinations(range(n), 2)))


def _directed_path(n: int) -> Network:
    return Network(n, [(i, i + 1) for i in range(n - 1)], directed=True)


# -- reference engines --------------------------------------------------------
#
# Both follow the randomness contract of ``halting_cascade.cascade`` in the
# plainest form: O(n) tables per run and per step, hash-based unique and a
# set difference for the next frontier. ``_reference_cascade`` is the engine
# as first written; the library's engine must return ``==`` results, trace
# included. ``ic_reference`` is a plain independent cascade that consumes one
# placeholder draw per newly activated node, so its reached set equals the
# engine's with application probability zero under a shared seed.


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


def _reference_counts(state: np.ndarray) -> StateCounts:
    binned = np.bincount(state, minlength=5)
    return StateCounts(*(int(c) for c in binned[:5]))


def _reference_cascade(network, params, seeds, rng_seed, *, record_trace=False):
    n = network.n
    seed_arr = _reference_seeds(seeds, n)
    p_a = _reference_per_agent(params.p_a, n)
    p_h = _reference_per_agent(params.p_h, n)
    rng = np.random.default_rng(rng_seed)

    state = np.full(n, AgentState.PASSIVE, dtype=np.int8)
    state[seed_arr] = AgentState.FRESH
    generation = np.zeros(n, dtype=np.int64)
    generation[seed_arr] = 1

    frontier = seed_arr
    applicants_total = 0
    halters = np.empty(0, dtype=np.int64)
    trace = [_reference_counts(state)] if record_trace else None
    steps = 0

    for step in range(1, n + 1):
        steps = step
        passive_before = state == AgentState.PASSIVE
        dst = network.out_arcs(frontier)
        dst = dst[passive_before[dst]]
        state[frontier] = AgentState.SPENT

        newly = np.empty(0, dtype=np.int64)
        if dst.size:
            hit = rng.random(dst.size) < params.p_r
            newly = np.unique(dst[hit])

        appliers = np.empty(0, dtype=np.int64)
        if newly.size:
            state[newly] = AgentState.FRESH
            generation[newly] = step + 1
            appliers = newly[rng.random(newly.size) < p_a[newly]]

        if appliers.size:
            state[appliers] = AgentState.APPLIED
            applicants_total += int(appliers.size)
            halters = appliers[rng.random(appliers.size) < p_h[appliers]]
            state[halters] = AgentState.HALTED

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
        halters=frozenset(int(h) for h in halters),
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
        dst = network.out_arcs(frontier)
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
        assert result.halters == frozenset()

    def test_complete_graph_all_probs_one(self):
        result = run_cascade(_complete(11), IHCParams(1.0, 1.0, 1.0), (0,), 7)
        assert result.success
        assert result.chain_length == 2
        assert result.applicants == 10
        assert result.steps == 1
        assert result.halters == frozenset(range(1, 11))

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
        assert result.halters == frozenset({2})
        assert result.trace == (
            StateCounts(passive=2, fresh=1, spent=0, applied=0, halted=0),
            StateCounts(passive=1, fresh=1, spent=1, applied=0, halted=0),
            StateCounts(passive=0, fresh=0, spent=2, applied=0, halted=1),
        )

    def test_seeds_never_apply(self):
        result = run_cascade(_complete(2), IHCParams(1.0, 1.0, 1.0), (0,), 5)
        assert result.success
        assert result.applicants == 1
        assert result.halters == frozenset({1})

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
        assert result.applicants >= len(result.halters)
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
        assert result.halters == frozenset()

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

    def test_batch_rejects_bad_arguments(self):
        network = generate_er(10, 3, seed=0)
        params = IHCParams(0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match="n_reps"):
            run_batch(network, params, 0, 1)
        with pytest.raises(ValueError, match="master_seed"):
            run_batch(network, params, 5, -1)

    # sha256 over every result's fields, trace included, computed on the
    # engine as first written; any change to a draw or a result moves it
    PINNED_BATCHES = {
        "saturating": (
            IHCParams(0.3, 0.1, 0.0),
            20,
            (0, 1, 2),
            "498773659e25aa6cbcda3b602ee09e0e380794c96f35047af89a384e345e3f28",
        ),
        "halting": (
            IHCParams(0.5, 1.0, 1.0),
            60,
            None,
            "ebf6b41502859bc504df3c305f6c232146273ca2b94091f1ed8edf0be4a0c4d5",
        ),
        "dying": (
            IHCParams(0.02, 0.1, 0.5),
            60,
            None,
            "9aa07b7586bc1578b1dd1881000b2a965d5b5dae3fa74531d794f044c5472604",
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
                sorted(r.halters),
                r.steps,
                r.seeds,
                r.trace,
            )
            digest.update(repr(fields).encode())
        assert digest.hexdigest() == expected


_MASTER_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3]), st.integers(0, 2**100 - 1)
)


def _child(entropy, key) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy, spawn_key=key)


class TestSeedTree:
    """The tree's states are those of numpy's ``SeedSequence`` children."""

    @given(
        seed=_MASTER_SEEDS,
        path=st.lists(st.integers(0, 2**32 - 1), max_size=4),
        start=st.integers(0, 2**32 - 3),
        parent_key=st.lists(st.integers(0, 40), max_size=1),
    )
    @settings(max_examples=200, deadline=None)
    def test_states_and_draws_equal_seed_sequence_children(self, seed, path, start, parent_key):
        # child indices from ``start`` on; a one-word parent key gives the
        # two-word spawn keys of the oracle's grandchildren. From a path of
        # three on, the run entropy fills the pool and no padding applies.
        tails = [(*path, rep) for rep in range(2) for _ in range(3)]
        keys = [(*parent_key, start + j) for _ in range(2) for j in range(3)]
        rng = np.random.default_rng(0)
        for tail, key, state in zip(tails, keys, seed_tree(seed, tails, keys), strict=True):
            child = _child([seed, *tail], key)
            assert state == np.random.PCG64(child).state
            assert reseeded(rng, state).random(8).tolist() == (
                np.random.default_rng(child).random(8).tolist()
            )

    @pytest.mark.parametrize(
        "entropy",
        [42, [20260815, 3, 1], [2**64 + 3, 0], []],
        ids=["int", "int-list", "wide-int-list", "empty"],
    )
    def test_children_equal_a_fresh_spawn(self, entropy):
        got = seed_tree(entropy, [()] * 5, [(j,) for j in range(5)])
        want = np.random.SeedSequence(entropy).spawn(5)
        assert got == [np.random.PCG64(child).state for child in want]

    def test_replication_states_follow_the_row_layout(self):
        rows, keys = [(4, 1), (4, 1), (0, 2)], [(0, 3), (1, 3), (2, 0)]
        for rep, states in enumerate(replication_states(2**40 + 9, rows, keys, 3)):
            for row, key, state in zip(rows, keys, states, strict=True):
                child = _child([2**40 + 9, *row, rep], key)
                assert state == np.random.PCG64(child).state
        assert rep == 2

    def test_a_buffered_half_word_does_not_leak_into_the_next_stream(self):
        first, second = seed_tree(7, [(0,), (1,)], [(0,), (0,)])
        rng = reseeded(np.random.default_rng(0), first)
        rng.integers(5000)  # a 32-bit draw leaves the other half buffered
        assert rng.bit_generator.state["has_uint32"] == 1
        fresh = np.random.default_rng(_child([7, 1], (0,)))
        assert reseeded(rng, second).bit_generator.state == fresh.bit_generator.state
        assert rng.integers(5000, size=9).tolist() == fresh.integers(5000, size=9).tolist()

    @pytest.mark.parametrize(
        "entropy, tails, keys",
        [
            (-1, [()], [(0,)]),
            ([3, -2], [()], [(0,)]),
            (3, [(2**32,)], [(0,)]),
            (3, [(0,)], [(-1,)]),
            (3, [(0,), (1,)], [(0,)]),
            (3, [(0,), (1, 2)], [(0,), (0,)]),
        ],
        ids=["negative", "negative-word", "wide-tail", "negative-key", "row-count", "ragged"],
    )
    def test_bad_keys_rejected(self, entropy, tails, keys):
        with pytest.raises(ValueError):
            seed_tree(entropy, tails, keys)

    def test_no_rows(self):
        assert seed_tree(5, [], []) == []
        assert list(replication_states(5, [()], [(0,)], 0)) == []


class TestStreamChildren:
    """Spawn keys from a later child index on give the children that a fresh
    ``spawn`` gives from that index on."""

    @pytest.mark.parametrize(
        "make",
        [lambda: [20260815, 3, 1], lambda: np.random.SeedSequence([1, 2], spawn_key=(5, 0))],
        ids=["int-list", "spawned-seed-sequence"],
    )
    def test_start_gives_the_later_children_of_a_fresh_spawn(self, make):
        parent = make()
        if not isinstance(parent, np.random.SeedSequence):
            parent = np.random.SeedSequence(parent)
        keys = [(*parent.spawn_key, j) for j in (3, 4)]
        got = seed_tree(parent.entropy, [()] * 2, keys)
        want = parent.spawn(5)[3:]
        assert got == [np.random.PCG64(child).state for child in want]
