"""Reference access policies the optimized allocations are judged against.

Two baselines: both classes spreading uniformly with no admission control,
and a class-proportional access-barring scheme that deterministically limits
how many devices of each class may contend when the load exceeds the number
of resource blocks.
"""

from __future__ import annotations

from .exact import throughput_closed_form
from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair

__all__ = ["acb_admission", "acb_throughput"]


def acb_admission(cfg: NetworkConfig) -> NetworkConfig:
    """The load that deterministic class-proportional admission lets contend,
    on the same m.

    With n <= m everyone contends, so the load is ``cfg`` itself.  Otherwise
    exactly m devices are admitted, split by class share: floor(m * n_h / n)
    high devices, the rest low.
    """
    if cfg.n <= cfg.m:
        return cfg
    n_h = (cfg.m * cfg.n_h) // cfg.n
    return NetworkConfig(n_h, cfg.m - n_h, cfg.m)


def acb_throughput(cfg: NetworkConfig) -> ThroughputPair:
    """Exact throughput of the barring baseline: admitted devices of both
    classes contend uniformly over all m RBs."""
    return throughput_closed_form(acb_admission(cfg), AccessProbabilityPair.uniform(cfg.m))
