"""Search over assumed loads instead of raw allocations.

Each compact-space action is the pre-optimized allocation for one assumed
load (n_h, n_l).  The bandit then doubles as a load estimator: whichever
cell it plays most is its guess of the true load, and the mean absolute
error of that guess can be traced pull by pull.
"""

import numpy as np

from rachopt.actionspace import build_compact, exact_throughputs
from rachopt.mab import MabConfig, estimate_load, mae_trace, run
from rachopt.model import NetworkConfig


def main() -> None:
    gamma = 0.4
    n_l_max = 5
    space = build_compact(m=4, n_h_max=5, n_l_max=n_l_max, gamma=gamma)
    print(f"compact space at M=4: {len(space)} load cells, "
          f"each pre-optimized for mu_l >= {gamma}")

    true_cfg = NetworkConfig(n_h=2, n_l=1, m=4)
    print(f"true (hidden) load: ({true_cfg.n_h}, {true_cfg.n_l})")
    print()

    mab_cfg = MabConfig(gamma=gamma, rho=0.1, t=100, runs=2000,
                        batch_size=200, elite_fraction=0.1, alpha=0.1, seed=1)
    result = run(space, true_cfg, mab_cfg)

    est = estimate_load(space, result)
    mu = exact_throughputs(space, true_cfg)
    # the table lists its cells row-major: (n_h, n_l) sits at n_h * (n_l_max + 1) + n_l
    got = mu[est[0] * (n_l_max + 1) + est[1]]
    match = true_cfg.n_h * (n_l_max + 1) + true_cfg.n_l
    exact_best = mu[match]
    print(f"bandit's load estimate after {mab_cfg.runs} pulls: {est}")
    print(f"  its allocation earns mu=({got[0]:.4f}, {got[1]:.4f}) on the true load")
    print(f"  the true-load cell earns   ({exact_best[0]:.4f}, {exact_best[1]:.4f})")
    print()

    mae = mae_trace(space, result, true_cfg)
    marks = [100, 500, 1000, 1500, len(mae)]
    print("mean absolute load-estimation error along the run:")
    for p in marks:
        print(f"  after {p:>5} pulls: {mae[p - 1]:.3f}")
    print()

    # atol absorbs the numerical polish wobble in stored cell allocations
    ties = [
        (e.n_h, e.n_l)
        for i, e in enumerate(space.entries)
        if np.allclose(mu[i], mu[match], atol=1e-3)
    ]
    print(f"cells earning exactly mu=({mu[match, 0]:.4f}, {mu[match, 1]:.4f}) "
          f"on the true load: {ties}")
    print("those cells are indistinguishable from reward alone, so the label")
    print("error can plateau above zero even while the chosen allocation is")
    print("exactly optimal -- the light-load corner of the table is degenerate.")


if __name__ == "__main__":
    main()
