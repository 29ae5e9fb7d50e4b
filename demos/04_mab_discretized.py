"""Let the cross-entropy bandit find a good allocation from reward alone.

The bandit never sees the throughput formula: each pull samples an action
from its distribution, runs a batch of slots, and banks the empirical
high-class rate -- discounted to rho * rate if the measured low-class rate
misses the floor.  Batch by batch the sampling distribution is re-fit
toward the elite pulls.

Two runs over the same coarse grid: an unconstrained one, which converges
on the true grid optimum, and a floored one, which deliberately does not --
an allocation sitting exactly on the floor fails the noisy per-pull check
about half the time, so the bandit correctly prefers allocations with
feasibility margin over the knife-edge optimum.
"""

import numpy as np

from rachopt.actionspace import GridSpec, exact_throughputs, generate_discretized
from rachopt.mab import MabConfig, run
from rachopt.model import NetworkConfig


def grid_optimum(mu: np.ndarray, gamma: float) -> int:
    feasible = mu[:, 1] >= gamma
    return int(np.argmax(np.where(feasible, mu[:, 0], -np.inf)))


def main() -> None:
    cfg = NetworkConfig(n_h=4, n_l=5, m=4)
    space = generate_discretized(GridSpec(m=4, d=0.25), reduced=True)
    mu = exact_throughputs(space, cfg)
    print(f"action space: {len(space)} rotation-reduced grid allocations at M=4")

    for gamma in (0.0, 0.4):
        best = grid_optimum(mu, gamma)
        mab_cfg = MabConfig(gamma=gamma, rho=0.0, t=1000, runs=4000,
                            batch_size=200, elite_fraction=0.1, alpha=0.2, seed=3)
        result = run(space, cfg, mab_cfg)
        got = mu[result.best_index]
        print()
        print(f"floor gamma={gamma}:")
        print(f"  exact grid optimum: mu=({mu[best, 0]:.4f}, {mu[best, 1]:.4f})")
        print(f"  bandit's pick after {mab_cfg.runs} pulls: "
              f"mu=({got[0]:.4f}, {got[1]:.4f})")

    print()
    print("with gamma=0.4 the grid optimum sits exactly on the floor, so its")
    print("1000-slot feasibility check is a coin flip and its average shaped")
    print("reward drops below that of safer allocations -- the bandit's pick")
    print("is the optimum of the reward it was actually given.")


if __name__ == "__main__":
    main()
