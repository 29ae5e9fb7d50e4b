"""Constrained maximization of high-class throughput.

The problem: choose the two access-probability vectors to maximize mu_h
subject to mu_l >= gamma, with each vector on the probability simplex.  The
objective is smooth with many symmetric local optima (any RB relabeling of a
solution is a solution), so the solver runs a batch of starts in parallel:

* the simplex equalities and the mu_l floor enter an augmented Lagrangian,
* box bounds are enforced by projection,
* each start follows projected gradient ascent with a per-start adaptive
  step, all starts advancing in lock-step as rows of one array.

:func:`solve_batch` runs many loads (n_h, n_l) with the same m at once, as
one (loads, starts, 2m) array scored by the per-row loads of
:func:`rachopt.exact.throughput_terms`.  Every load keeps its own stopping
rules -- the inner ascent stops a load on its own gain and steps, and the
outer convergence test and multiplier updates are per load -- and a load
that has finished leaves the working arrays, so each result is bit for bit
what solving that load alone gives.  :func:`solve` is the batch of one;
:func:`rachopt.actionspace.build_compact` sends a whole compact table
through one batch.

Analytic gradients throughout; the reported objective is always a fresh
closed-form evaluation of the polished, exactly renormalized pair.

:class:`SolverOptions` sets only the multistart (``random_starts``,
``seed``) and the cap on outer rounds (``max_outer``).  The rest are module
constants:

* ``_MAX_INNER`` -- projected-gradient iterations per outer round;
* ``_OBJ_TOL`` and ``_VIOL_TOL`` -- a load stops when every start's mu_h
  moved less than ``_OBJ_TOL`` over the round and every start's largest
  constraint residual is at most ``_VIOL_TOL``;
* ``_RHO0``, ``_RHO_GROWTH``, ``_RHO_MAX`` -- the penalty weight starts at
  ``_RHO0`` and grows by the factor ``_RHO_GROWTH``, up to ``_RHO_MAX``, on
  every round that fails to halve the residual;
* ``_STEP0`` -- every start's initial ascent step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exact import throughput_closed_form, throughput_terms
from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair

__all__ = [
    "SolverOptions",
    "OptResult",
    "structural_unconstrained",
    "canonical_permutation",
    "solve",
    "solve_batch",
]

# Feasibility slack on the mu_l floor for reported solutions.
FEASIBILITY_TOL = 1e-6

# Augmented-Lagrangian constants (see the module docstring).
_MAX_INNER = 500
_OBJ_TOL = 1e-9
_VIOL_TOL = 1e-8
_RHO0 = 10.0
_RHO_GROWTH = 5.0
_RHO_MAX = 1e8
_STEP0 = 0.1


@dataclass(frozen=True)
class SolverOptions:
    """Multistart controls and the cap on multiplier updates."""

    random_starts: int = 20
    seed: int = 0
    max_outer: int = 40  # multiplier updates

    def __post_init__(self) -> None:
        # written as `not x >= low`, so NaN fails too
        for name, low in (("random_starts", 0), ("max_outer", 1)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


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


def _phi(n_h, n_l, gamma, x, lam, nu1, nu2, rho):
    """Augmented Lagrangian value and gradient over a (loads, starts, 2m)
    array.  A single load goes to the kernel as scalars, which skips the
    per-row power fix-up."""
    m = x.shape[-1] // 2
    if len(n_h) == 1:
        n_h, n_l = int(n_h[0]), int(n_l[0])
    t_h, t_l, dh_a, dh_b, dl_a, dl_b = throughput_terms(
        n_h, n_l, x[..., :m], x[..., m:], grad=True
    )
    mu_h, mu_l = t_h.sum(axis=-1), t_l.sum(axis=-1)
    c = mu_l - gamma
    active = np.maximum(0.0, lam - rho * c)
    h1 = x[..., :m].sum(axis=-1) - 1.0
    h2 = x[..., m:].sum(axis=-1) - 1.0
    phi = (
        mu_h
        - (active**2 - lam**2) / (2.0 * rho)
        - nu1 * h1
        - 0.5 * rho * h1**2
        - nu2 * h2
        - 0.5 * rho * h2**2
    )
    grad = np.concatenate(
        [dh_a + active[..., None] * dl_a, dh_b + active[..., None] * dl_b], axis=-1
    )
    grad[..., :m] -= (nu1 + rho * h1)[..., None]
    grad[..., m:] -= (nu2 + rho * h2)[..., None]
    return phi, grad, mu_h, mu_l, h1, h2


def _inner_ascent(n_h, n_l, gamma, x, mult, step):
    """Projected gradient ascent for one outer round, every load at once.

    A load stops when none of its starts gains 1e-12 and all its steps are
    below 1e-13.  Stopped loads leave the working arrays, which are
    compacted only on the iterations where some load stops.  Returns the new
    ``x`` and ``step`` of every load."""
    x_out, step_out = np.empty_like(x), np.empty_like(step)
    rows = np.arange(len(x))
    phi, grad, *_ = _phi(n_h, n_l, gamma, x, *mult)
    for _ in range(_MAX_INNER):
        cand = np.clip(x + step[..., None] * grad, 0.0, 1.0)
        phi_c, grad_c, *_ = _phi(n_h, n_l, gamma, cand, *mult)
        better = phi_c > phi
        gained = (phi_c - phi >= 1e-12).any(axis=1)  # implies ``better``
        np.copyto(x, cand, where=better[..., None])
        np.copyto(grad, grad_c, where=better[..., None])
        np.copyto(phi, phi_c, where=better)
        step = np.where(better, np.minimum(step * 1.3, 1e3), step * 0.4)
        if gained.all():
            continue
        stop = ~gained & (step < 1e-13).all(axis=1)
        if stop.any():
            x_out[rows[stop]], step_out[rows[stop]] = x[stop], step[stop]
            go = ~stop
            if not go.any():
                return x_out, step_out
            rows, x, grad, phi, step = rows[go], x[go], grad[go], phi[go], step[go]
            n_h, n_l, mult = n_h[go], n_l[go], tuple(v[go] for v in mult)
    x_out[rows], step_out[rows] = x, step
    return x_out, step_out


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


def solve_batch(
    cfgs: Sequence[NetworkConfig],
    gamma: float = 0.0,
    options: Optional[SolverOptions] = None,
) -> list[OptResult]:
    """Maximize mu_h subject to mu_l >= gamma for every load in ``cfgs``.

    All loads share m and run in lock-step as one (loads, starts, 2m) array.
    Each load keeps its own stopping rules: its inner ascent ends on its own
    gain and steps, and its outer rounds end on its own convergence test, at
    which point it leaves the working arrays.  The result for each load is
    bit for bit the result of solving it alone.

    Each load runs its structural allocation and the uniform pair alongside
    the random simplex starts, which every load shares (they come from one
    ``default_rng(options.seed)``).  It picks the best feasible polished
    result (ties broken by the canonical permutation's lexicographic order),
    and falls back to the best-attained mu_l when nothing is feasible.
    ``diagnostics`` reports the starts, the feasible starts, the outer
    rounds, whether they hit ``max_outer`` (``cap_hit``) and the largest
    constraint residual of the chosen start's final iterate
    (``max_violation``).
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if not cfgs:
        return []
    m = cfgs[0].m
    if any(cfg.m != m for cfg in cfgs):
        raise ValueError("every load in one batch must have the same m")
    opts = options or SolverOptions()
    rng = np.random.default_rng(opts.seed)

    shared = [np.full(2 * m, 1.0 / m)]
    for _ in range(opts.random_starts):
        shared.append(
            np.concatenate([rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))])
        )
    x = np.stack(
        [
            np.stack([np.asarray(s.p_h + s.p_l), *shared])
            for s in map(structural_unconstrained, cfgs)
        ]
    )
    x = np.clip(x, 0.0, 1.0)
    n_h = np.array([cfg.n_h for cfg in cfgs])
    n_l = np.array([cfg.n_l for cfg in cfgs])
    shape = x.shape[:2]

    # working arrays of the loads still iterating, in ``live`` order
    live = np.arange(len(cfgs))
    x_final = x.copy()
    viol_final = np.full(shape, np.nan)
    rounds = np.zeros(len(cfgs), dtype=int)
    lam, nu1, nu2 = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    rho = np.full(shape, _RHO0)
    step = np.full(shape, _STEP0)
    prev_obj = np.full(shape, -np.inf)
    prev_viol = np.full(shape, np.inf)

    for outer in range(opts.max_outer):
        mult = (lam, nu1, nu2, rho)
        x, step = _inner_ascent(n_h, n_l, gamma, x, mult, step)
        _, _, mu_h, mu_l, h1, h2 = _phi(n_h, n_l, gamma, x, *mult)
        viol = _violation(gamma, mu_l, h1, h2)
        rounds[live], x_final[live], viol_final[live] = outer + 1, x, viol
        done = np.all(viol <= _VIOL_TOL, axis=1) & np.all(
            np.abs(mu_h - prev_obj) < _OBJ_TOL, axis=1
        )
        if done.all():
            break
        if done.any():
            go = ~done
            live, x, step, n_h, n_l = live[go], x[go], step[go], n_h[go], n_l[go]
            lam, nu1, nu2, rho = lam[go], nu1[go], nu2[go], rho[go]
            mu_h, mu_l, h1, h2, viol = mu_h[go], mu_l[go], h1[go], h2[go], viol[go]
            prev_viol = prev_viol[go]
        lam = np.maximum(0.0, lam - rho * (mu_l - gamma))
        nu1 = nu1 + rho * h1
        nu2 = nu2 + rho * h2
        stalled = viol > 0.5 * prev_viol
        rho = np.where(stalled, np.minimum(rho * _RHO_GROWTH, _RHO_MAX), rho)
        prev_obj = mu_h
        prev_viol = np.maximum(viol, 1e-300)
        step = np.maximum(step, 1e-6)  # re-arm after multiplier change

    return [
        _pick(cfg, gamma, x_final[i], viol_final[i], int(rounds[i]), opts)
        for i, cfg in enumerate(cfgs)
    ]


def _pick(cfg, gamma, x, viol, rounds, opts) -> OptResult:
    """Polish every start of one load and choose its result."""
    candidates = []
    for row in range(len(x)):
        pair = _polish(x[row], cfg.m)
        mu = throughput_closed_form(cfg, pair)
        feasible = mu.mu_l >= gamma - FEASIBILITY_TOL
        canon = canonical_permutation(pair)
        candidates.append(
            (feasible, mu.mu_h, mu.mu_l, canon.p_h + canon.p_l, pair, mu, row)
        )
    diagnostics = {
        "starts": len(x),
        "feasible_starts": sum(c[0] for c in candidates),
        "outer_rounds": rounds,
        "cap_hit": rounds == opts.max_outer,
    }
    feasible_rows = [c for c in candidates if c[0]]
    if feasible_rows:
        # highest objective, ties toward the lexicographically smaller pair
        best = max(feasible_rows, key=lambda c: (c[1], tuple(-v for v in c[3])))
    else:
        best = max(candidates, key=lambda c: c[2])  # best-attained mu_l
        diagnostics["best_attained_mu_l"] = best[2]
    diagnostics["max_violation"] = float(viol[best[6]])
    return OptResult(
        pair=best[4],
        mu=best[5],
        feasible=bool(feasible_rows),
        gamma=gamma,
        diagnostics=diagnostics,
    )


def solve(
    cfg: NetworkConfig, gamma: float = 0.0, options: Optional[SolverOptions] = None
) -> OptResult:
    """Maximize mu_h over both probability vectors subject to mu_l >= gamma:
    :func:`solve_batch` on a batch of one load."""
    return solve_batch([cfg], gamma, options)[0]
