"""Constrained maximization of high-class throughput.

The problem: choose the two access-probability vectors to maximize mu_h
subject to mu_l >= gamma, with each vector on the probability simplex.  The
objective is smooth with many symmetric local optima (any RB relabeling of a
solution is a solution), so the solver runs a batch of starts in parallel:

* the simplex equalities and the mu_l floor enter an augmented Lagrangian,
* box bounds are enforced by projection,
* each start follows projected gradient ascent with a per-start adaptive
  step, all starts advancing in lock-step as rows of one array.

Analytic gradients throughout; the reported objective is always a fresh
closed-form evaluation of the polished, exactly renormalized pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exact import throughput_closed_form, throughput_terms
from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair

__all__ = [
    "SolverOptions",
    "OptResult",
    "structural_unconstrained",
    "canonical_permutation",
    "solve",
]

# Feasibility slack on the mu_l floor for reported solutions.
FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class SolverOptions:
    """Multistart and augmented-Lagrangian controls."""

    random_starts: int = 20
    seed: int = 0
    max_inner: int = 500  # projected-gradient iterations per outer round
    max_outer: int = 40  # multiplier updates
    obj_tol: float = 1e-9
    viol_tol: float = 1e-8
    rho0: float = 10.0
    rho_growth: float = 5.0
    rho_max: float = 1e8
    step0: float = 0.1


@dataclass(frozen=True)
class OptResult:
    """Best allocation found, its exact throughput, and solve diagnostics.

    ``feasible`` is False when no start met the mu_l floor; the pair then
    carries the best-attained mu_l."""

    pair: AccessProbabilityPair
    mu: ThroughputPair
    feasible: bool
    gamma: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def objective(self) -> float:
        return self.mu.mu_h


def structural_unconstrained(cfg: NetworkConfig) -> AccessProbabilityPair:
    """Closed-form allocation that is optimal for gamma = 0.

    The low class parks on the last RB.  If the high class fits (n_h <= m-1)
    it spreads uniformly over the remaining RBs; otherwise each of those RBs
    gets 1/n_h (the load that maximizes a slotted-contention RB) and the
    excess probability spills onto the low class's RB.
    """
    m = cfg.m
    if m == 1:
        return AccessProbabilityPair((1.0,), (1.0,))
    if cfg.n_h <= m - 1:
        p_h = (1.0 / (m - 1),) * (m - 1) + (0.0,)
    else:
        share = 1.0 / cfg.n_h
        p_h = (share,) * (m - 1) + (1.0 - (m - 1) * share,)
    p_l = (0.0,) * (m - 1) + (1.0,)
    return AccessProbabilityPair(p_h, p_l)


def canonical_permutation(pair: AccessProbabilityPair) -> AccessProbabilityPair:
    """Jointly permute RBs so per-RB tuples (p_h[i], p_l[i]) sort ascending.

    Full-permutation normal form for comparing solver outputs; throughput is
    invariant under any joint permutation.
    """
    order = sorted(range(pair.m), key=lambda i: (pair.p_h[i], pair.p_l[i]))
    return AccessProbabilityPair(
        tuple(pair.p_h[i] for i in order), tuple(pair.p_l[i] for i in order)
    )


def _phi(cfg, gamma, x, lam, nu1, nu2, rho):
    """Augmented Lagrangian value and gradient, vectorized over rows."""
    m = cfg.m
    t_h, t_l, dh_a, dh_b, dl_a, dl_b = throughput_terms(
        cfg.n_h, cfg.n_l, x[:, :m], x[:, m:], grad=True
    )
    mu_h, mu_l = t_h.sum(axis=1), t_l.sum(axis=1)
    c = mu_l - gamma
    active = np.maximum(0.0, lam - rho * c)
    h1 = x[:, :m].sum(axis=1) - 1.0
    h2 = x[:, m:].sum(axis=1) - 1.0
    phi = (
        mu_h
        - (active**2 - lam**2) / (2.0 * rho)
        - nu1 * h1
        - 0.5 * rho * h1**2
        - nu2 * h2
        - 0.5 * rho * h2**2
    )
    grad = np.concatenate(
        [dh_a + active[:, None] * dl_a, dh_b + active[:, None] * dl_b], axis=1
    )
    grad[:, :m] -= (nu1 + rho * h1)[:, None]
    grad[:, m:] -= (nu2 + rho * h2)[:, None]
    return phi, grad, mu_h, mu_l, h1, h2


def _inner_ascent(cfg, gamma, x, lam, nu1, nu2, rho, step, opts):
    phi, grad, *_ = _phi(cfg, gamma, x, lam, nu1, nu2, rho)
    for _ in range(opts.max_inner):
        cand = np.clip(x + step[:, None] * grad, 0.0, 1.0)
        phi_c, grad_c, *_ = _phi(cfg, gamma, cand, lam, nu1, nu2, rho)
        better = phi_c > phi
        if np.any(better):
            x[better] = cand[better]
            grad[better] = grad_c[better]
            gain = np.max(phi_c[better] - phi[better])
            phi[better] = phi_c[better]
        else:
            gain = 0.0
        step = np.where(better, np.minimum(step * 1.3, 1e3), step * 0.4)
        if gain < 1e-12 and np.all(step < 1e-13):
            break
    return x, step


def _violation(gamma, mu_l, h1, h2):
    return np.maximum.reduce(
        [np.abs(h1), np.abs(h2), np.maximum(0.0, gamma - mu_l)]
    )


def _polish(row: np.ndarray, m: int) -> AccessProbabilityPair:
    a = np.clip(row[:m], 0.0, 1.0)
    b = np.clip(row[m:], 0.0, 1.0)
    a = a / a.sum() if a.sum() > 0 else np.full(m, 1.0 / m)
    b = b / b.sum() if b.sum() > 0 else np.full(m, 1.0 / m)
    return AccessProbabilityPair(tuple(a), tuple(b))


def solve(
    cfg: NetworkConfig, gamma: float = 0.0, options: Optional[SolverOptions] = None
) -> OptResult:
    """Maximize mu_h over both probability vectors subject to mu_l >= gamma.

    Runs random simplex starts alongside the structural allocation and the
    uniform pair, picks the best feasible polished result (ties broken by
    the canonical permutation's lexicographic order), and falls back to the
    best-attained mu_l when nothing is feasible.
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    opts = options or SolverOptions()
    m = cfg.m
    rng = np.random.default_rng(opts.seed)

    structural = structural_unconstrained(cfg)
    starts = [np.asarray(structural.p_h + structural.p_l), np.full(2 * m, 1.0 / m)]
    for _ in range(opts.random_starts):
        starts.append(
            np.concatenate([rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))])
        )
    x = np.clip(np.stack(starts), 0.0, 1.0)
    k = x.shape[0]

    lam = np.zeros(k)
    nu1 = np.zeros(k)
    nu2 = np.zeros(k)
    rho = np.full(k, opts.rho0)
    step = np.full(k, opts.step0)
    prev_obj = np.full(k, -np.inf)
    prev_viol = np.full(k, np.inf)
    rounds = 0

    for outer in range(opts.max_outer):
        rounds = outer + 1
        x, step = _inner_ascent(cfg, gamma, x, lam, nu1, nu2, rho, step, opts)
        _, _, mu_h, mu_l, h1, h2 = _phi(cfg, gamma, x, lam, nu1, nu2, rho)
        viol = _violation(gamma, mu_l, h1, h2)
        if np.all(viol <= opts.viol_tol) and np.all(
            np.abs(mu_h - prev_obj) < opts.obj_tol
        ):
            break
        lam = np.maximum(0.0, lam - rho * (mu_l - gamma))
        nu1 = nu1 + rho * h1
        nu2 = nu2 + rho * h2
        stalled = viol > 0.5 * prev_viol
        rho = np.where(stalled, np.minimum(rho * opts.rho_growth, opts.rho_max), rho)
        prev_obj = mu_h
        prev_viol = np.maximum(viol, 1e-300)
        step = np.maximum(step, 1e-6)  # re-arm after multiplier change

    candidates = []
    for row in range(k):
        pair = _polish(x[row], m)
        mu = throughput_closed_form(cfg, pair)
        feasible = mu.mu_l >= gamma - FEASIBILITY_TOL
        canon = canonical_permutation(pair)
        candidates.append(
            (feasible, mu.mu_h, mu.mu_l, canon.p_h + canon.p_l, pair, mu)
        )

    feasible_rows = [c for c in candidates if c[0]]
    if feasible_rows:
        # highest objective, ties toward the lexicographically smaller pair
        best = max(feasible_rows, key=lambda c: (c[1], tuple(-v for v in c[3])))
        pair, mu = best[4], best[5]
        return OptResult(
            pair=pair,
            mu=mu,
            feasible=True,
            gamma=gamma,
            diagnostics={
                "starts": k,
                "feasible_starts": len(feasible_rows),
                "outer_rounds": rounds,
            },
        )
    best = max(candidates, key=lambda c: c[2])  # best-attained mu_l
    return OptResult(
        pair=best[4],
        mu=best[5],
        feasible=False,
        gamma=gamma,
        diagnostics={
            "starts": k,
            "feasible_starts": 0,
            "outer_rounds": rounds,
            "best_attained_mu_l": best[2],
        },
    )
