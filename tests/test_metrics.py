"""Tests for regime classification and batch aggregation."""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halting_cascade.cascade import CascadeResult, IHCParams, run_batch
from halting_cascade.graph import Network, generate_er
from halting_cascade.metrics import (
    BatchSummary,
    Regime,
    RegimeReport,
    classify_regime,
    degree_bin,
    summarize,
)


def bin_by_seed_degree(
    results: Iterable[CascadeResult], network: Network
) -> dict[tuple[int, int], BatchSummary]:
    """Group runs by the out-degree bin of their first seed node.

    Bins are power-of-two intervals; bins with no runs are omitted. Returned
    in ascending bin order. A reference for one fixed network; the CLI's
    ``ba-vs-er`` bins each replication's own network by hand.
    """
    degrees = network.out_degrees
    grouped: dict[tuple[int, int], list[CascadeResult]] = {}
    for result in results:
        key = degree_bin(int(degrees[result.seeds[0]]))
        grouped.setdefault(key, []).append(result)
    return {key: summarize(batch) for key, batch in sorted(grouped.items())}


def _result(success: bool, chain_length: int, applicants: int = 0, seed: int = 0):
    return CascadeResult(
        success=success,
        chain_length=chain_length,
        applicants=applicants,
        halters=int(success),
        steps=1,
        seeds=(seed,),
    )


class TestClassifyRegime:
    def test_known_points(self):
        report = classify_regime(50, 0.5, 0.5, 0.5)
        assert report == RegimeReport(12.5, 6.25, Regime.ABOVE_BOTH)

        low = classify_regime(50, 0.01, 0.1, 0.5)
        assert low.diffusion_value == pytest.approx(0.45)
        assert low.halting_value == pytest.approx(0.025)
        assert low.regime is Regime.BELOW_BOTH

        idle = classify_regime(50, 0.0, 0.5, 0.5)
        assert (idle.diffusion_value, idle.halting_value) == (0.0, 0.0)
        assert idle.regime is Regime.BELOW_BOTH

    def test_one_sided_regimes(self):
        assert classify_regime(10, 0.5, 0.2, 0.1).regime is Regime.DIFFUSION_ONLY
        assert classify_regime(10, 0.5, 0.9, 1.0).regime is Regime.HALTING_ONLY

    def test_boundary_value_counts_as_above(self):
        report = classify_regime(2, 1.0, 0.5, 1.0)
        assert report.diffusion_value == 1.0
        assert report.halting_value == 1.0
        assert report.regime is Regime.ABOVE_BOTH

    @settings(max_examples=100)
    @given(
        mean_degree=st.floats(min_value=0.0, max_value=500.0),
        p_r=st.floats(min_value=0.0, max_value=1.0),
        p_a=st.floats(min_value=0.0, max_value=1.0),
        p_h=st.floats(min_value=0.0, max_value=1.0),
        scale=st.floats(min_value=0.25, max_value=1.0),
    )
    def test_scaling_p_r_against_degree_is_neutral(
        self, mean_degree, p_r, p_a, p_h, scale
    ):
        base = classify_regime(mean_degree, p_r * scale, p_a, p_h)
        moved = classify_regime(mean_degree * scale, p_r, p_a, p_h)
        assert base.diffusion_value == pytest.approx(moved.diffusion_value, abs=1e-12)
        assert base.halting_value == pytest.approx(moved.halting_value, abs=1e-12)
        assert base.regime is moved.regime

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="p_r"):
            classify_regime(10, 1.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="mean_degree"):
            classify_regime(-1, 0.5, 0.5, 0.5)
        # NaN fails every comparison, and inf times p_r = 0 is NaN
        for mean_degree, p_r in ((math.nan, 0.5), (math.inf, 0.0), (math.inf, 0.5)):
            with pytest.raises(ValueError, match="mean_degree must be finite"):
                classify_regime(mean_degree, p_r, 0.5, 0.5)


class TestSummarize:
    def test_all_failures(self):
        summary = summarize([_result(False, 1) for _ in range(100)])
        assert summary.n_runs == 100
        assert summary.success_rate == 0.0
        assert summary.median_chain_length == 1
        assert math.isnan(summary.mean_chain_depth)
        assert summary.mean_applicants == 0.0

    def test_small_known_batch(self):
        summary = summarize(
            [_result(True, 2, 1), _result(True, 2, 3), _result(False, 3, 2)]
        )
        assert summary.median_chain_length == 2
        assert summary.success_rate == pytest.approx(2 / 3)
        assert summary.mean_chain_depth == 2.0
        assert summary.mean_applicants == 2.0

    def test_even_count_uses_lower_median(self):
        runs = [_result(False, c) for c in (4, 1, 3, 2)]
        assert summarize(runs).median_chain_length == 2

    def test_permutation_invariant(self):
        runs = [_result(i % 3 == 0, 1 + i % 4, i % 5) for i in range(20)]
        expected = summarize(runs)
        for permuted in (runs[::-1], runs[7:] + runs[:7]):
            assert summarize(permuted) == expected

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])

    def test_no_applications_when_p_a_zero(self):
        results = run_batch(
            generate_er(40, 6, seed=3), IHCParams(0.4, 0.0, 1.0), 50, 12
        )
        summary = summarize(results)
        assert summary.mean_applicants == 0.0
        assert summary.success_rate == 0.0

    def test_as_dict(self):
        summary = summarize([_result(True, 2, 1)])
        assert summary.as_dict() == {
            "n_runs": 1,
            "success_rate": 1.0,
            "median_chain_length": 2,
            "mean_chain_depth": 2.0,
            "mean_applicants": 1.0,
        }
        # the CLI's header is the rows' first-seen key order
        assert list(summary.as_dict()) == [
            "n_runs",
            "success_rate",
            "median_chain_length",
            "mean_chain_depth",
            "mean_applicants",
        ]


class TestDegreeBin:
    def test_edges(self):
        assert degree_bin(0) == (0, 1)
        assert degree_bin(1) == (1, 2)
        assert degree_bin(2) == (2, 4)
        assert degree_bin(3) == (2, 4)
        assert degree_bin(4) == (4, 8)
        assert degree_bin(63) == (32, 64)
        assert degree_bin(64) == (64, 128)

    @settings(max_examples=100)
    @given(degree=st.integers(min_value=0, max_value=10**6))
    def test_bin_contains_degree(self, degree):
        lo, hi = degree_bin(degree)
        assert lo <= degree < hi
        if degree:
            assert lo == 2 ** (lo.bit_length() - 1)
            assert hi == 2 * lo

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="degree"):
            degree_bin(-1)


class TestBinBySeedDegree:
    def test_uniform_degree_collapses_to_one_bin(self):
        network = Network(5, list(itertools.combinations(range(5), 2)))
        runs = [_result(False, 1, seed=i) for i in range(5)]
        binned = bin_by_seed_degree(runs, network)
        assert list(binned) == [(4, 8)]
        assert binned[(4, 8)].n_runs == 5

    def test_empty_bins_omitted_and_keys_sorted(self):
        star = Network(10, [(0, leaf) for leaf in range(1, 10)], directed=True)
        runs = [_result(False, 1, seed=s) for s in (0, 3, 0, 7, 0)]
        binned = bin_by_seed_degree(runs, star)
        assert list(binned) == [(0, 1), (8, 16)]
        assert binned[(0, 1)].n_runs == 2
        assert binned[(8, 16)].n_runs == 3

    def test_er_seed_degrees_concentrate(self):
        network = generate_er(2000, 50, seed=17)
        results = run_batch(network, IHCParams(0.01, 0.5, 0.5), 400, 23)
        binned = bin_by_seed_degree(results, network)
        covering = {(16, 32), (32, 64), (64, 128)}
        inside = sum(s.n_runs for b, s in binned.items() if b in covering)
        assert inside >= 0.95 * 400
