"""Solve the constrained allocation problem across network sizes.

For a fixed load of 4 high-priority and 5 low-priority devices, maximize
high-class throughput with and without a low-class floor, and set the
results against the access-class-barring baseline, which can only gate
whole classes rather than shape per-block probabilities.
"""

from rachopt.baselines import acb_throughput
from rachopt.bench import REFERENCE_CONSTRAINED, REFERENCE_UNCONSTRAINED
from rachopt.model import NetworkConfig
from rachopt.optimize import solve_batch


def main() -> None:
    print("load: n_h=4, n_l=5; published reference values in brackets")
    print()
    header = f"{'M':>2} | {'mu_h (gamma=0)':>16} | {'mu_h (gamma=0.4)':>17} | {'ACB (mu_h, mu_l)':>18}"
    print(header)
    print("-" * len(header))
    sizes = (3, 4, 5, 6)
    cfgs = [NetworkConfig(n_h=4, n_l=5, m=m) for m in sizes]
    # one solver batch per floor: the four M share one array, each on its own clock
    free_all = solve_batch(cfgs, gamma=0.0)
    floored_all = solve_batch(cfgs, gamma=0.4)
    for m, cfg, free, floored in zip(sizes, cfgs, free_all, floored_all):
        acb = acb_throughput(cfg)
        ref_free = REFERENCE_UNCONSTRAINED[m][0]
        ref_floor = REFERENCE_CONSTRAINED[m][0]
        print(f"{m:>2} | {free.mu.mu_h:.4f} [{ref_free:.2f}]"
              f"{'':>3} | {floored.mu.mu_h:.4f} [{ref_floor:.2f}]{'':>4} | "
              f"({acb.mu_h:.3f}, {acb.mu_l:.3f})")

    print()
    floored = floored_all[sizes.index(5)]
    print(f"constrained solution at M=5 (floor 0.4):")
    print(f"  p_h = {tuple(round(x, 4) for x in floored.pair.p_h)}")
    print(f"  p_l = {tuple(round(x, 4) for x in floored.pair.p_l)}")
    print(f"  mu  = ({floored.mu.mu_h:.4f}, {floored.mu.mu_l:.4f}), "
          f"feasible={floored.feasible}")
    print()
    print("the floor costs high-class throughput; ACB pays even more because")
    print("it cannot concentrate the low class onto dedicated blocks.")


if __name__ == "__main__":
    main()
