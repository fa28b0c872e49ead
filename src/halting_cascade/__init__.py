"""Simulation of incentivized job-posting diffusion on social networks.

Messages spread as a cascade: recommended agents may pass the posting on or
apply for it, and a successful application halts the whole process. The
package bundles the cascade engine, network generators, skill-based agent
heterogeneity, the geometric reward split, a closed-form direct-posting
baseline, and batch statistics, plus a sweep-oriented CLI.
"""

from .cascade import (
    CascadeResult,
    IHCParams,
    StateCounts,
    run_batch,
    run_cascade,
)
from .graph import (
    DegreeSummary,
    EdgeListError,
    ErdosRenyi,
    Network,
    degree_stats,
    generate_ba,
    generate_er,
    load_edge_list,
)
from .incentives import PayoutSchedule, compute_payouts, surplus_to_length
from .metrics import (
    BatchSummary,
    Regime,
    RegimeReport,
    classify_regime,
    degree_bin,
    summarize,
)
from .oracle import (
    OracleSpec,
    TruncationBounds,
    binomial_pmf,
    oracle_success_probability,
    p_lambda,
    p_success_trial,
    poisson_pmf,
    post_vacancy,
    simulate_oracle,
    truncation_bounds,
)
from .skills import (
    CoverageLaw,
    SkillWorld,
    bind_params,
    sample_coverage_counts,
    sample_skill_world,
)

__version__ = "0.1.0"

__all__ = [
    "BatchSummary",
    "CascadeResult",
    "CoverageLaw",
    "DegreeSummary",
    "EdgeListError",
    "ErdosRenyi",
    "IHCParams",
    "Network",
    "OracleSpec",
    "PayoutSchedule",
    "Regime",
    "RegimeReport",
    "SkillWorld",
    "StateCounts",
    "TruncationBounds",
    "bind_params",
    "binomial_pmf",
    "classify_regime",
    "compute_payouts",
    "degree_bin",
    "degree_stats",
    "generate_ba",
    "generate_er",
    "load_edge_list",
    "oracle_success_probability",
    "p_lambda",
    "p_success_trial",
    "poisson_pmf",
    "post_vacancy",
    "run_batch",
    "run_cascade",
    "sample_coverage_counts",
    "sample_skill_world",
    "simulate_oracle",
    "summarize",
    "surplus_to_length",
    "truncation_bounds",
]
