"""Watch the bandit cope when the load changes under it mid-run.

The true load switches partway through while the bandit's value estimates,
pull counts, and sampling distribution all carry over untouched.  Value
estimates are lifetime running means, so rewards earned under the old load
keep steering choices after the switch and re-discovery takes far longer
than learning from scratch -- visible here in the trailing windows.

What makes re-discovery possible on the grid is the small uniform share
(``rachopt.mab.UNIFORM_SHARE``) blended into the sampling distribution after
every refit.  The second part runs the grid bandit through the same switch.
Without the share, the pre-switch favourites would soak up every pull, and
the refit, which ranks only the pulls of its own batch, would keep choosing
them however far their value falls.
"""

import numpy as np

from rachopt.actionspace import (
    GridSpec,
    build_compact,
    exact_throughputs,
    generate_discretized,
)
from rachopt.mab import MabConfig, run, run_nonstationary
from rachopt.model import NetworkConfig


def window_mean(values: np.ndarray, lo: int, hi: int) -> float:
    return float(np.mean(values[lo:hi]))


def compact_switch(cfg_a: NetworkConfig, cfg_b: NetworkConfig, gamma: float) -> None:
    n_l_max = 6
    space = build_compact(m=5, n_h_max=6, n_l_max=n_l_max, gamma=gamma)
    switch, total = 2000, 12000
    print(f"compact space at M=5: {len(space)} load cells")
    print(f"load starts at ({cfg_a.n_h}, {cfg_a.n_l}), switches to "
          f"({cfg_b.n_h}, {cfg_b.n_l}) at pull {switch} of {total}")

    mab_cfg = MabConfig(gamma=gamma, rho=0.1, t=100, runs=total,
                        batch_size=200, elite_fraction=0.1, alpha=0.1, seed=5)
    result = run_nonstationary(space, [(0, cfg_a), (switch, cfg_b)], mab_cfg)

    chosen = result.trace.action_index
    mu_b = exact_throughputs(space, cfg_b)
    print()
    print("exact (mu_h, mu_l) of the chosen action, scored against the "
          "post-switch load:")
    windows = [(0, switch), (switch, 4000), (4000, 8000), (total - 2000, total)]
    for lo, hi in windows:
        h = window_mean(mu_b[chosen, 0], lo, hi)
        l = window_mean(mu_b[chosen, 1], lo, hi)
        print(f"  pulls {lo:>5}-{hi:>5}: mean ({h:.4f}, {l:.4f})")
    # the table lists its cells row-major: (n_h, n_l) sits at n_h * (n_l_max + 1) + n_l
    opt = mu_b[cfg_b.n_h * (n_l_max + 1) + cfg_b.n_l]
    print(f"  post-switch optimum: ({opt[0]:.4f}, {opt[1]:.4f})")

    final = mu_b[result.best_index]
    print()
    print("the favorites learned in the first phase keep a deceptively high")
    print("mu_h on the new load but park the low class where it self-collides,")
    print("so their mu_l collapses and the floor check fails; the shaped reward")
    print("punishes that and play drifts back toward the constrained optimum,")
    print("thousands of pulls late because lifetime running means dilute new")
    print("evidence with the stale past.")
    print()
    print(f"the lifetime leaderboard lags even further: its final argmax-Q cell "
          f"earns only ({final[0]:.4f}, {final[1]:.4f})")
    print("on the new load -- what the bandit plays recovers long before what")
    print("its leaderboard says, which is why adaptation is judged on trailing")
    print("play windows.")


def grid_switch(cfg_a: NetworkConfig, cfg_b: NetworkConfig, gamma: float) -> None:
    space = generate_discretized(GridSpec(m=5, d=0.2), reduced=True)
    switch, total = 15000, 30000
    print(f"grid space at M=5, d=0.2: {len(space)} actions, same switch at "
          f"pull {switch} of {total}")
    params = dict(gamma=gamma, rho=0.0, t=1000, batch_size=500,
                  elite_fraction=0.1, alpha=0.2, seed=0)
    # a run that stops at the switch draws the same pulls, so its final
    # state is the state the switch finds
    before = run(space, cfg_a, MabConfig(runs=switch, **params))
    result = run_nonstationary(
        space, [(0, cfg_a), (switch, cfg_b)], MabConfig(runs=total, **params)
    )
    mu_b = exact_throughputs(space, cfg_b)
    fav = int(np.argmax(before.p_as))
    print(f"  at the switch the favourite holds p_as {before.p_as[fav]:.3f}; "
          f"on the new load it is exact ({mu_b[fav, 0]:.4f}, {mu_b[fav, 1]:.4f})")

    chosen = result.trace.action_index
    print("  exact (mu_h, mu_l) of the chosen action on the new load:")
    for lo, hi in [(switch, 20000), (20000, 25000), (25000, total)]:
        h = window_mean(mu_b[chosen, 0], lo, hi)
        l = window_mean(mu_b[chosen, 1], lo, hi)
        print(f"  pulls {lo:>5}-{hi:>5}: mean ({h:.4f}, {l:.4f})")
    top = int(np.argmax(result.p_as))
    print(f"  final favourite: p_as {result.p_as[top]:.3f}, exact "
          f"({mu_b[top, 0]:.4f}, {mu_b[top, 1]:.4f})")
    print()
    print("the first-phase favourites starve the low class under the new load,")
    print("so their pulls miss the floor and earn nothing while their lifetime")
    print("means sink slowly.  The uniform share keeps some pulls in every batch")
    print("off them; the first whose value beats theirs enters the elite, and")
    print("play moves to an allocation with a safe margin on mu_l.  With the")
    print("share at zero, 11 of seeds 0-19 of this run still play the stale")
    print("favourites (exact mu_l < 0.1) in the last 1000 pulls; with it, none do.")


def main() -> None:
    gamma = 0.4
    cfg_a = NetworkConfig(n_h=2, n_l=1, m=5)
    cfg_b = NetworkConfig(n_h=4, n_l=5, m=5)
    compact_switch(cfg_a, cfg_b, gamma)
    print()
    grid_switch(cfg_a, cfg_b, gamma)


if __name__ == "__main__":
    main()
