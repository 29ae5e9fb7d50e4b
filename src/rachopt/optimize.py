"""Constrained maximization of high-class throughput.

The problem: choose the two access-probability vectors to maximize mu_h
subject to mu_l >= gamma, with each vector on the probability simplex.  The
objective is smooth with many symmetric local optima (any RB relabeling of a
solution is a solution), so the solver runs a batch of starts in parallel:

* the simplex equalities and the mu_l floor enter an augmented Lagrangian,
* box bounds are enforced by projection,
* each start follows projected gradient ascent with a per-start adaptive
  step, all starts advancing in lock-step as rows of one array.

:func:`solve_batch` runs many loads (n_h, n_l) at once.  The iterate is one
contiguous RB-major (2, m, loads, starts) array, ``x[0]`` = p_h and ``x[1]``
= p_l, so one numpy call covers both classes; ``nu`` and ``h``, the simplex
multipliers and residuals, are (2, loads, starts), and they and the steps
broadcast over the RB axis.  Loads of different m share the array padded to
the widest, with RBs held at 0 by a box of [0, 0], which leave the bits of
:func:`_rb_sum`, every sum over RBs, alone.  A step of the inner ascent
works in arrays made once per batch shape, and made again only when a load
leaves: one (5, 2, m, loads, starts) buffer holds the stacked terms and the
gradients of mu_h and mu_l that :func:`rachopt.exact.gradient_kernel`
writes, then the candidate and its Lagrangian gradient.  So one sum covers
the terms and the candidate (mu and the simplex sums), each gradient is a
contiguous block, and no numpy call writes over its own input.  Each element
gets the float operations, in the order, of the reference loop in
``tests/support.py``, so every result is bit for bit that loop's.  Every
load keeps its own stopping rules -- the inner ascent stops a load on its
own gain and steps, and the outer convergence test and multiplier updates
are per load -- and a load that has finished leaves the working arrays, so
each result is bit for bit what solving that load alone gives.
:func:`solve` is the batch of one; :func:`rachopt.actionspace.build_compact`
sends a whole compact table through one batch.

Analytic gradients throughout.  The pick scores every polished start in
one :func:`rachopt.exact.throughput_rows` call, so a result's mu is bit for
bit :func:`rachopt.exact.throughput_closed_form` of its pair, and takes the
feasible start with the highest mu_h, then the smaller pair sorted jointly
by RB, then the first (see :func:`solve_batch`).

:class:`SolverOptions` sets only the number of random starts, which come
from one fixed stream (``random_starts``), and the cap on outer rounds
(``max_outer``).  The rest are module constants:

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

from .exact import gradient_kernel, load_table, stacked_terms, throughput_rows
from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair, check_gamma

__all__ = [
    "SolverOptions",
    "OptResult",
    "structural_unconstrained",
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
    diagnostics: dict = field(default_factory=dict)


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


def _rb_sum(a, out=None):
    """``a`` summed over its RB axis, third from last, which numpy reduces
    one (loads, starts) plane at a time in a contiguous array (not pairwise,
    as over the innermost axis): the RBs added left to right from +0.0, so
    trailing zeros leave every sum's bits alone at any number of RBs."""
    return np.add.reduce(a, axis=-3, out=out, initial=0.0)


def _lagrangian(table, gamma, mult, shape):
    """The augmented Lagrangian over (2, m, loads, starts) iterates of
    ``shape``, bound to preallocated arrays; ``mult`` is the round's ``(lam,
    nu, rho, lam2, two_rho, half_rho)``.

    Returns ``scored``, shape (2,) + ``shape``, and a function that scores
    the candidate in ``scored[0]``: it writes the Lagrangian's gradient at
    the candidate, stacked like it, to ``scored[1]`` and returns the
    Lagrangian's value there.  ``scored`` is rows 3 and 4 of one buffer
    whose first three rows take the stacked terms and gradients from
    :func:`rachopt.exact.gradient_kernel`."""
    lam, nu, rho, lam2, two_rho, half_rho = mult
    # per class, so that the products with the (2, loads, starts) residuals
    # need no broadcast
    rho2, half_rho2 = np.stack([rho, rho]), np.stack([half_rho, half_rho])
    buf = np.empty((5,) + shape)
    terms = gradient_kernel(buf[3], table, buf[:3])
    # the terms and the iterate summed in one call: mu, then the simplex
    # sums, which become the residuals h in place
    summed, sums = buf[::3], np.empty((2, 2) + shape[2:])
    (mu_h, mu_l), h = sums
    grad_h, grad_l, grad = buf[1], buf[2], buf[4]

    def phi():
        terms()
        _rb_sum(summed, out=sums)
        np.subtract(h, 1.0, out=h)
        active = np.maximum(0.0, lam - rho * (mu_l - gamma))
        nu_h, pen = nu * h, half_rho2 * (h * h)
        value = mu_h - (active * active - lam2) / two_rho - nu_h[0] - pen[0] - nu_h[1] - pen[1]
        # d mu_h / dx + active * d mu_l / dx - (nu + rho * h)
        np.subtract(grad_h + active * grad_l, (nu + rho2 * h)[:, None], out=grad)
        return value

    return buf[3:], phi


def _inner_ascent(table, gamma, x, mult, step, upper):
    """Projected gradient ascent for one outer round, every load at once,
    each candidate clipped to the box [0, ``upper``]: 1.0, or an array
    stacked like ``x`` that is 0 on the RBs that pad a load to the batch's
    width.

    A load stops when none of its starts gains 1e-12 and all its steps are
    below 1e-13.  Stopped loads leave the working arrays, which are
    compacted, and the buffers rebuilt, only on the iterations where some
    load stops.  Returns the new ``x`` and ``step`` of every load and the
    steps each load took."""
    x_out, step_out = np.empty_like(x), np.empty_like(step)
    taken = np.full(x.shape[2], _MAX_INNER)
    rows = np.arange(x.shape[2])
    # ``scored`` is the candidate and its gradient (see _lagrangian), ``now``
    # the iterate and its gradient, which a better candidate replaces
    scored, phi_at = _lagrangian(table, gamma, mult, x.shape)
    cand = scored[0]
    cand[...] = x
    phi = phi_at()
    now = scored.copy()
    for it in range(_MAX_INNER):
        np.minimum(np.maximum(step * now[1] + now[0], 0.0), upper, out=cand)
        phi_c = phi_at()
        better = phi_c > phi
        gained = (phi_c - phi >= 1e-12).any(axis=1)  # implies ``better``
        np.copyto(now, scored, where=better)
        np.copyto(phi, phi_c, where=better)
        # steps stay at most 1e3, so the cap never binds on a shrinking step
        step = np.minimum(step * np.where(better, 1.3, 0.4), 1e3)
        if gained.all():
            continue
        stop = ~gained & (step < 1e-13).all(axis=1)
        if stop.any():
            done = rows[stop]
            x_out[:, :, done], step_out[done], taken[done] = now[0][:, :, stop], step[stop], it + 1
            go = ~stop
            if not go.any():
                return x_out, step_out, taken
            rows, now, phi, step = rows[go], now[:, :, :, go], phi[go], step[go]
            table = tuple(t[..., go, :] for t in table)
            mult = tuple(v[..., go, :] for v in mult)
            upper = _keep(upper, go)
            scored, phi_at = _lagrangian(table, gamma, mult, now.shape[1:])
            cand = scored[0]
    x_out[:, :, rows], step_out[rows] = now[0], step
    return x_out, step_out, taken


def _keep(upper, go):
    """The box bound of the loads ``go``: a scalar bound is every load's."""
    return upper if np.ndim(upper) == 0 else upper[..., go, :]


def solve_batch(
    cfgs: Sequence[NetworkConfig],
    gamma: float = 0.0,
    options: Optional[SolverOptions] = None,
) -> list[OptResult]:
    """Maximize mu_h subject to mu_l >= gamma for every load in ``cfgs``.

    The loads run in lock-step as one (2, m, loads, starts) array, m being
    the widest load's.  A narrower load is padded with trailing RBs whose
    box is [0, 0], so they stay 0 and add nothing: the projection clips to
    an upper bound of 0 on the pads and 1 elsewhere (1.0 throughout when
    every load has the same m).  RBs are summed by :func:`_rb_sum`, left to
    right, so the pads change no sum's bits.

    Each load keeps its own stopping rules: its inner ascent ends on its own
    gain and steps, and its outer rounds end on its own convergence test, at
    which point it leaves the working arrays.  The result for each load is
    bit for bit the result of solving it alone.

    Each load runs its structural allocation (start 0) and the uniform pair
    (start 1) alongside the random simplex starts (2 on), which every load
    of one m shares (they come from one fixed stream, ``default_rng(0)``,
    one per m).  Every final iterate is polished -- clipped to [0, 1], each
    vector divided by its sum, or uniform over the load's m where that is
    0 -- and all are scored in one :func:`rachopt.exact.throughput_rows`
    call.  Each load picks, among its feasible starts, the highest mu_h,
    then the lexicographically smaller (p_h, p_l) once both are sorted
    jointly by RB, then the first start; with none feasible, the first
    start with the highest mu_l.
    ``diagnostics`` reports the starts, the feasible starts, the outer
    rounds, whether they hit ``max_outer`` (``cap_hit``), the projected
    gradient steps its inner ascents took over all rounds (``inner_steps``),
    the largest constraint residual of the chosen start's final iterate
    (``max_violation``) and the start that won (``winning_start``).
    """
    check_gamma(gamma)
    opts = options or SolverOptions()
    if not cfgs:
        return []
    ms = [cfg.m for cfg in cfgs]
    starts = {
        m: np.random.default_rng(0).dirichlet(np.ones(m), (opts.random_starts, 2))
        for m in set(ms)
    }
    # one contiguous RB-major (2, m, loads, starts) array: x[0] = p_h, x[1] = p_l
    x = np.zeros((2, max(ms), len(cfgs), opts.random_starts + 2))
    for i, cfg in enumerate(cfgs):
        structural, m = structural_unconstrained(cfg), cfg.m
        x[:, :m, i, 0] = structural.p_h, structural.p_l
        x[:, :m, i, 1] = 1.0 / m
        x[:, :m, i, 2:] = starts[m].transpose(1, 2, 0)
    upper = 1.0
    if len(starts) > 1:
        real = np.arange(x.shape[1])[:, None, None] < np.array(ms)[:, None]
        upper = np.ascontiguousarray(np.broadcast_to(real, x.shape), dtype=float)
    # each load's constants spread over its RB-major slots: numpy runs equal shapes faster
    table = tuple(
        np.ascontiguousarray(np.broadcast_to(t[:, :, None], t.shape[:1] + x.shape))
        for t in load_table(tuple(c.n_h for c in cfgs), tuple(c.n_l for c in cfgs), 3)
    )
    shape = x.shape[2:]

    # working arrays of the loads still iterating, in ``live`` order
    live = np.arange(len(cfgs))
    x_final = x.copy()
    viol_final = np.full(shape, np.nan)
    rounds = np.zeros(len(cfgs), dtype=int)
    inner_steps = np.zeros(len(cfgs), dtype=int)
    lam, nu = np.zeros(shape), np.zeros((2,) + shape)
    rho = np.full(shape, _RHO0)
    step = np.full(shape, _STEP0)
    prev_obj = np.full(shape, -np.inf)
    prev_viol = np.full(shape, np.inf)

    for outer in range(opts.max_outer):
        mult = (lam, nu, rho, lam * lam, 2.0 * rho, 0.5 * rho)
        x, step, taken = _inner_ascent(table, gamma, x, mult, step, upper)
        inner_steps[live] += taken
        mu_h, mu_l = _rb_sum(stacked_terms(x, table))
        h = _rb_sum(x) - 1.0
        viol = np.maximum(np.abs(h).max(axis=0), np.maximum(0.0, gamma - mu_l))
        rounds[live], x_final[:, :, live], viol_final[live] = outer + 1, x, viol
        done = np.all(viol <= _VIOL_TOL, axis=1) & np.all(
            np.abs(mu_h - prev_obj) < _OBJ_TOL, axis=1
        )
        if done.all():
            break
        if done.any():
            go = ~done
            live, x, step = live[go], x[:, :, go], step[go]
            lam, nu, rho = lam[go], nu[:, go], rho[go]
            mu_h, mu_l, h, viol, prev_viol = mu_h[go], mu_l[go], h[:, go], viol[go], prev_viol[go]
            table = tuple(t[..., go, :] for t in table)
            upper = _keep(upper, go)
        lam = np.maximum(0.0, lam - rho * (mu_l - gamma))
        nu = nu + rho * h
        stalled = viol > 0.5 * prev_viol
        rho = np.where(stalled, np.minimum(rho * _RHO_GROWTH, _RHO_MAX), rho)
        prev_obj = mu_h
        prev_viol = np.maximum(viol, 1e-300)
        step = np.maximum(step, 1e-6)  # re-arm after multiplier change

    return _pick(cfgs, gamma, x_final, viol_final, rounds, inner_steps, opts)


def _pick(cfgs, gamma, x, viol, rounds, inner_steps, opts) -> list[OptResult]:
    """Polish and score every start of every load, and pick each load's
    result by :func:`solve_batch`'s rule, from the final (2, m, loads,
    starts) iterate ``x`` and its (loads, starts) residuals ``viol``; a
    load's RBs past its own m are pads, which the ascent keeps at 0."""
    x = np.clip(x, 0.0, 1.0)
    sums = _rb_sum(x)[:, None]
    ms = np.array([c.m for c in cfgs])[:, None]
    uniform = np.where(np.arange(x.shape[1])[:, None, None] < ms, 1.0 / ms, 0.0)
    x = np.divide(x, sums, out=np.broadcast_to(uniform, x.shape).copy(), where=sums > 0)
    x = np.moveaxis(x, 1, -1)  # RB-last from here, as the scores and pairs read it
    mu = throughput_rows(x, tuple(c.n_h for c in cfgs), tuple(c.n_l for c in cfgs))
    feasible = mu[1] >= gamma - FEASIBILITY_TOL
    # lexsort's last key leads, and ties keep the start order: each start's
    # RBs by (p_h, p_l), then the starts by (infeasible, -mu_h, sorted p_h,
    # sorted p_l); with no feasible start, the first with the highest mu_l.
    # Pads sort first and alike in every start of a load, so they tie
    canon = np.take_along_axis(x, np.lexsort(x[::-1])[None], axis=-1)
    keys = np.moveaxis(canon, -1, 1).reshape((-1,) + feasible.shape)[::-1]
    ranked = np.lexsort(np.concatenate([keys, [-mu[0], ~feasible]]))[:, 0]
    any_ok = feasible.any(axis=1)
    best = np.where(any_ok, ranked, mu[1].argmax(axis=1)).tolist()
    results = []
    for i, (w, ok, cfg) in enumerate(zip(best, any_ok.tolist(), cfgs)):
        diagnostics = {
            "starts": x.shape[2],
            "feasible_starts": int(feasible[i].sum()),
            "outer_rounds": int(rounds[i]),
            "cap_hit": int(rounds[i]) == opts.max_outer,
            "inner_steps": int(inner_steps[i]),
        }
        if not ok:
            diagnostics["best_attained_mu_l"] = float(mu[1, i, w])
        diagnostics.update(max_violation=float(viol[i, w]), winning_start=w)
        pair = AccessProbabilityPair(x[0, i, w, : cfg.m], x[1, i, w, : cfg.m])
        results.append(OptResult(pair, ThroughputPair(*mu[:, i, w].tolist()), ok, diagnostics))
    return results


def solve(
    cfg: NetworkConfig, gamma: float = 0.0, options: Optional[SolverOptions] = None
) -> OptResult:
    """Maximize mu_h over both probability vectors subject to mu_l >= gamma:
    :func:`solve_batch` on a batch of one load."""
    return solve_batch([cfg], gamma, options)[0]
