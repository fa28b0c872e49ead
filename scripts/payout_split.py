#!/usr/bin/env python3
"""Trace how the referral budget splits as recommendation chains lengthen.

The hired applicant always takes half the budget; every hop the chain grows
halves each earlier referrer's cut and the poster's leftover alike. Sweeping
the recommendation probability in a slow-spread regime shows the poster's
expected retained fraction falling geometrically with depth, and checks the
ledger round trip: the surplus alone pins down how long the chain was. The
``p_r`` cells are one group of ``replicate`` on G(n, p): they share each
replication's seed agent and its neighbours, so the contrasts between them
are paired, and each cascade samples the rest of the graph as it goes.
"""
from collections import Counter
from fractions import Fraction

from halting_cascade import ErdosRenyi, IHCParams, compute_payouts, surplus_to_length
from halting_cascade.cascade import replicate

N_AGENTS = 1000
MEAN_DEGREE = 20.0
P_APPLY = 0.1
P_HIRE = 0.5
P_RECOMMEND = (0.08, 0.12, 0.2, 0.4)
BUDGET = 1
REPS = 400
MASTER_SEED = 20260815


def depth_distributions() -> list[Counter[int]]:
    """Per ``p_r`` cell, how many runs hired at each chain depth."""
    er = ErdosRenyi(N_AGENTS, MEAN_DEGREE)
    params = [IHCParams(p_r, P_APPLY, P_HIRE) for p_r in P_RECOMMEND]
    paths = [(cell,) for cell in range(len(params))]
    depths: list[Counter[int]] = [Counter() for _ in params]
    for _, _, outcomes in replicate(MASTER_SEED, paths, REPS, er, params):
        for cell_depths, (result, _) in zip(depths, outcomes):
            if result.success:
                cell_depths[result.chain_length] += 1
    return depths


def main() -> None:
    print(
        f"n={N_AGENTS} mean_degree={MEAN_DEGREE} p_a={P_APPLY} p_h={P_HIRE} "
        f"budget={BUDGET} reps={REPS}"
    )
    print(
        f"{'p_r':>6} {'hires':>6} {'mean_depth':>10} {'poster_keeps':>12} "
        f"{'worker_take':>11} {'depth_range':>11}"
    )
    for p_r, depths in zip(P_RECOMMEND, depth_distributions()):
        hires = sum(depths.values())
        if hires == 0:
            print(f"{p_r:>6.2f} {0:>6}")
            continue
        retained = Fraction(0)
        worker = Fraction(0)
        for depth, count in depths.items():
            schedule = compute_payouts(depth, BUDGET)
            assert surplus_to_length(schedule.surplus, BUDGET) == depth
            retained += schedule.surplus * count
            worker += schedule.payouts[0] * count
        mean_depth = sum(d * c for d, c in depths.items()) / hires
        print(
            f"{p_r:>6.2f} {hires:>6} {mean_depth:>10.2f} "
            f"{float(retained / hires):>12.4f} {float(worker / hires):>11.4f} "
            f"{min(depths):>5}-{max(depths):<5}"
        )


if __name__ == "__main__":
    main()
