"""Reference access policies the optimized allocations are judged against.

Two baselines: both classes spreading uniformly with no admission control,
and a class-proportional access-barring scheme that deterministically limits
how many devices of each class may contend when the load exceeds the number
of resource blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import throughput_closed_form
from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair

__all__ = ["AcbAdmission", "acb_admission", "acb_throughput"]


@dataclass(frozen=True)
class AcbAdmission:
    """How many devices of each class the barring scheme admits per slot."""

    admitted_h: int
    admitted_l: int


def acb_admission(cfg: NetworkConfig) -> AcbAdmission:
    """Deterministic class-proportional admission.

    With n <= m everyone contends.  Otherwise exactly m devices are admitted,
    split by class share: floor(m * n_h / n) high devices, the rest low.
    """
    if cfg.n <= cfg.m:
        return AcbAdmission(cfg.n_h, cfg.n_l)
    admitted_h = (cfg.m * cfg.n_h) // cfg.n
    return AcbAdmission(admitted_h, cfg.m - admitted_h)


def acb_throughput(cfg: NetworkConfig) -> ThroughputPair:
    """Exact throughput of the barring baseline: admitted devices of both
    classes contend uniformly over all m RBs."""
    adm = acb_admission(cfg)
    reduced = NetworkConfig(adm.admitted_h, adm.admitted_l, cfg.m)
    return throughput_closed_form(reduced, AccessProbabilityPair.uniform(cfg.m))
