"""Tests for the halting-cascade engine."""
from __future__ import annotations

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
    ic_reference,
    run_batch,
    run_cascade,
)
from halting_cascade.graph import Network, generate_er, generate_star


def _complete(n: int) -> Network:
    return Network(n, list(itertools.combinations(range(n), 2)))


def _directed_path(n: int) -> Network:
    return Network(n, [(i, i + 1) for i in range(n - 1)], directed=True)


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
        result = run_cascade(_directed_path(4), IHCParams(1.0, 0.0, 1.0), (0,), 9)
        assert not result.success
        assert result.chain_length == 4
        assert result.steps == 4

    def test_max_steps_caps_run(self):
        params = IHCParams(1.0, 0.0, 1.0, max_steps=3)
        result = run_cascade(_directed_path(10), params, (0,), 9)
        assert result.steps == 3
        assert result.chain_length == 4
        assert not result.success

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
        with pytest.raises(ValueError, match="max_steps"):
            IHCParams(0.5, 0.5, 0.5, max_steps=0)
        with pytest.raises(ValueError, match="length-3"):
            run_cascade(_complete(3), IHCParams(0.5, [0.1, 0.2], 0.5), (0,), 0)


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
