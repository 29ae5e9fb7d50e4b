"""Shared test oracles, written independently of the library internals.

Everything here recomputes quantities from first principles (stars-and-bars
enumeration, factorial-based pmfs, brute-force rotation scans) so the tests
exercise genuinely separate routes to the same numbers.  The one exception
is :func:`shaped_reward_oracle`, which builds on the library's per-slot pmf
tables; ``test_exact`` checks those against the pattern probabilities.
:func:`loop_pattern_probability` is the library's former per-pattern loop,
kept as the reference its one-pass pattern table is tested against, and
:func:`feasible_patterns` its former walk over all 4^m pattern strings.
:func:`reference_occupancy_counts` is the slot simulator drawn in one shot,
the reference the block-wise library simulator must match bit for bit;
:func:`sim_codes` reads that simulator's pattern classes off its private
block generator, as no public function returns them, and turns them into
pattern bytes.
:func:`reference_save_mab_trace` is the former row-at-a-time trace writer,
the reference the column-wise one must match byte for byte.
:func:`reference_solve_batch` is the solver's former driver, which runs the
loads' outer rounds side by side, with its projected-gradient loop
:func:`reference_inner_ascent`, :func:`reference_phi` and
:func:`reference_stacked_grad`: the reference the solver's one loop, each
load on its own clock, must match bit for bit.  :func:`reference_pick` is
its former per-start pick, the reference the array pick must match bit for
bit.
:func:`load_plot_data` reads a plot CSV back as named columns.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math

import numpy as np

from rachopt.exact import load_table, slot_success_pmf, throughput_closed_form
from rachopt.model import _RB_CHAR, AccessProbabilityPair
from rachopt.optimize import (
    _MAX_INNER,
    _OBJ_TOL,
    _RHO0,
    _RHO_GROWTH,
    _RHO_MAX,
    _STEP0,
    _VIOL_TOL,
    FEASIBILITY_TOL,
    OptResult,
    SolverOptions,
    structural_unconstrained,
)
from rachopt.simulate import _run_blocks


def stars_and_bars(total: int, parts: int) -> list[tuple[int, ...]]:
    """All count vectors of length ``parts`` summing to ``total``."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:  # no bars to place, and total may exceed a range's size
        return [(total,)]
    out = []
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        counts = []
        prev = -1
        for b in bars + (total + parts - 1,):
            counts.append(b - prev - 1)
            prev = b
        out.append(tuple(counts))
    return out


def factorial_pmf(n: int, counts, probs) -> float:
    """Multinomial pmf via explicit factorials."""
    coef = math.factorial(n)
    for c in counts:
        coef //= math.factorial(c)
    val = float(coef)
    for c, p in zip(counts, probs):
        val *= p**c
    return val


def loop_pattern_probability(cfg, pair, pattern: str) -> float:
    """P(slot produces ``pattern``), one pattern at a time.

    Sums the joint multinomial probability over every occupancy consistent
    with the pattern: success RBs pin their counts, empty RBs pin zero, and
    the leftover devices of both classes spread over the collision RBs with
    at least two transmitters per collision.  The multinomial coefficients
    are exact integers at any n, not the log-gamma route.
    """
    coll = [i for i, c in enumerate(pattern) if c == "x"]
    base_h = [int(c == "h") for c in pattern]
    base_l = [int(c == "l") for c in pattern]
    r_h = cfg.n_h - sum(base_h)
    r_l = cfg.n_l - sum(base_l)
    if r_h < 0 or r_l < 0:
        return 0.0

    total = 0.0
    k = len(coll)
    for spread_h in stars_and_bars(r_h, k):
        c_h = list(base_h)
        for i, extra in zip(coll, spread_h):
            c_h[i] = extra
        pmf_h = factorial_pmf(cfg.n_h, c_h, pair.p_h)
        if pmf_h == 0.0:
            continue
        for spread_l in stars_and_bars(r_l, k):
            if any(a + b < 2 for a, b in zip(spread_h, spread_l)):
                continue
            c_l = list(base_l)
            for i, extra in zip(coll, spread_l):
                c_l[i] = extra
            total += pmf_h * factorial_pmf(cfg.n_l, c_l, pair.p_l)
    return total


def pattern_feasible(n_h: int, n_l: int, pattern: str) -> bool:
    """Whether some occupancy of the devices produces ``pattern``: the
    devices that are not singleton successes fill the collision RBs, at
    least two per collision, and there are none left over only if there is
    no collision."""
    h, l, x = pattern.count("h"), pattern.count("l"), pattern.count("x")
    if h > n_h or l > n_l:
        return False
    rest = n_h + n_l - h - l
    return rest >= 2 * x and (rest == 0) == (x == 0)


def feasible_patterns(n_h: int, n_l: int, m: int) -> tuple[str, ...]:
    """Every feasible pattern over ``m`` RBs in lexicographic order, by
    walking all 4^m strings."""
    strings = map("".join, itertools.product("hlox", repeat=m))
    return tuple(s for s in strings if pattern_feasible(n_h, n_l, s))


def feasible_pattern_count(n_h: int, n_l: int, m: int) -> int:
    """How many patterns over ``m`` RBs are feasible, counted by their
    numbers of ``h``, ``l`` and ``x`` RBs: one multinomial coefficient each."""
    total = 0
    for h in range(m + 1):
        for l in range(m + 1 - h):
            for x in range(m + 1 - h - l):
                if pattern_feasible(n_h, n_l, "h" * h + "l" * l + "x" * x):
                    total += math.factorial(m) // (
                        math.factorial(h) * math.factorial(l) * math.factorial(x)
                        * math.factorial(m - h - l - x)
                    )
    return total


def brute_force_throughput(n_h: int, n_l: int, p_h, p_l) -> tuple[float, float]:
    """Expected per-slot successes by summing over every occupancy pair."""
    m = len(p_h)
    mu_h = 0.0
    mu_l = 0.0
    for c_h in stars_and_bars(n_h, m):
        w_h = factorial_pmf(n_h, c_h, p_h)
        if w_h == 0.0:
            continue
        for c_l in stars_and_bars(n_l, m):
            w = w_h * factorial_pmf(n_l, c_l, p_l)
            if w == 0.0:
                continue
            mu_h += w * sum(1 for a, b in zip(c_h, c_l) if a == 1 and b == 0)
            mu_l += w * sum(1 for a, b in zip(c_h, c_l) if b == 1 and a == 0)
    return mu_h, mu_l


def reference_occupancy_counts(cfg, pair, t: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot per-RB transmitter counts, shape (t, m) for each class.

    The whole ``PCG64(seed mod 2**128)`` stream of ``t`` slots is drawn at
    once and split into 32-bit halves, low half of each word first: ``n``
    halves per slot, one per device, high-priority devices first.  A
    device's RB is the number of its class's cumulative levels ``L`` with
    ``L < (w + 1) * 2**-32``, compared in float64.
    """
    n, m = cfg.n, cfg.m
    if n == 0:
        z = np.zeros((t, m), dtype=np.int64)
        return z, z.copy()
    words = np.random.PCG64(seed % (1 << 128)).random_raw(-(-t * n // 2))
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()[: t * n]
    u = ((halves + 1) * 2.0**-32).reshape(t, n)
    rows = m * np.arange(t, dtype=np.int64)[:, None]

    def count(block: np.ndarray, probs) -> np.ndarray:
        if block.shape[1] == 0:
            return np.zeros((t, m), dtype=np.int64)
        levels = np.cumsum(np.asarray(probs, dtype=float))[:-1]
        idx = np.searchsorted(levels, block, side="left")  # levels below u
        return np.bincount((idx + rows).ravel(), minlength=t * m).reshape(t, m)

    return count(u[:, : cfg.n_h], pair.p_h), count(u[:, cfg.n_h :], pair.p_l)


def reference_sim_throughput(cfg, pair, t: int, seed: int) -> tuple[float, float]:
    """Success rates of :func:`reference_occupancy_counts`, multiples of 1/t."""
    c_h, c_l = reference_occupancy_counts(cfg, pair, t, seed)
    h = int(((c_h == 1) & (c_l == 0)).sum())
    l = int(((c_l == 1) & (c_h == 0)).sum())
    return h / t, l / t


def reference_event_codes(cfg, pair, t: int, seed: int) -> np.ndarray:
    """The (t, m) uint8 pattern-string bytes of :func:`reference_occupancy_counts`."""
    c_h, c_l = reference_occupancy_counts(cfg, pair, t, seed)
    total = c_h + c_l
    chars = np.frombuffer(b"ohlx", dtype=np.uint8)
    return chars[np.where(total == 0, 0, np.where(total >= 2, 3, np.where(c_h == 1, 1, 2)))]


def sim_codes(cfg, pair, t: int, seed: int) -> np.ndarray:
    """The simulator's (t, m) uint8 pattern bytes: the pattern classes of
    the blocks of ``simulate._run_blocks``, kept and joined in slot order,
    as their characters."""
    return _RB_CHAR.take(np.concatenate(list(_run_blocks(cfg, pair, t, seed)), axis=1).T)


def reference_save_mab_trace(result, path) -> None:
    """A pull trace written one ``csv.writer`` row per pull, with a
    ``# batch k`` comment line before each batch.

    ``tolist()`` hands csv Python scalars, whose str is the shortest repr.
    """
    rows = result.trace.tolist()
    size = result.batch_size
    with open(path, "w", newline="") as fh:
        fh.write("pull,action_index,mu_h_T,mu_l_T,reward\n")
        writer = csv.writer(fh)
        for first in range(0, len(rows), size):
            fh.write(f"# batch {first // size}\n")
            writer.writerows(rows[first : first + size])


def reference_stacked_grad(x: np.ndarray, table) -> np.ndarray:
    """The terms and derivatives that ``gradient_kernel(x, table, out)``
    writes, in the former layout, shape (3, 2, ..., m): the terms, the cross
    derivatives (d mu_h / d p_l, d mu_l / d p_h) and the own ones
    (d mu_h / d p_h, d mu_l / d p_l), each from fresh temporaries.  The
    powers of ``1 - x`` are the kernel's chain of multiplies: square and
    multiply over the digits of ``max(n - 2, 0)``, then one factor more
    where ``n >= 2`` and where ``n >= 1``."""
    bits, c = table
    one = 1.0 - x
    p2, base = np.ones(x.shape), one
    for k, digit in enumerate(bits[:-2]):
        if k:
            base = base * base
        p2 = np.where(digit, p2 * base, p2)
    p1 = np.where(bits[-2], p2 * one, p2)
    p = np.stack([np.where(bits[-1], p1 * one, p1), p1, p2])
    out = np.empty((3,) + x.shape)
    np.multiply(c[:2] * x * p[1], p[:2, ::-1], out=out[:2])
    np.multiply(c[2] * (p[1] - c[3] * x * p[2]), p[0, ::-1], out=out[2])
    return out


def _left_to_right(a: np.ndarray) -> np.ndarray:
    """``a`` summed over its last axis in index order, starting from +0.0."""
    return functools.reduce(np.add, np.moveaxis(a, -1, 0), 0.0)


def reference_phi(table, gamma, x, lam, nu, rho, lam2, two_rho, half_rho):
    """The former augmented Lagrangian value and gradient over a
    (2, loads, starts, m) array, each sum over RBs added left to right from
    +0.0."""
    t = reference_stacked_grad(x, table)
    mu_h, mu_l = _left_to_right(t[0])
    h = _left_to_right(x) - 1.0
    active = np.maximum(0.0, lam - rho * (mu_l - gamma))
    nu_h, pen = nu * h, half_rho * (h * h)
    phi = mu_h - (active * active - lam2) / two_rho - nu_h[0] - pen[0] - nu_h[1] - pen[1]
    grad = t[2:0:-1, 0] + active[..., None] * t[1:, 1]
    grad -= (nu + rho * h)[..., None]
    return phi, grad


def reference_solve_batch(cfgs, gamma=0.0, options=None) -> list[OptResult]:
    """The solver's former driver, with the signature and results of
    ``rachopt.optimize.solve_batch``: the live loads run every outer round
    side by side, one :func:`reference_inner_ascent` over all of them, then
    each takes its convergence test and multiplier update, and the loads
    that converged leave the working arrays.  It runs in the former RB-last
    layout, (2, loads, starts, m), and hands :func:`reference_pick` its
    final iterate RB-major."""
    opts = options or SolverOptions()
    ms = np.array([cfg.m for cfg in cfgs])
    x = np.zeros((2, len(cfgs), opts.random_starts + 2, ms.max()))
    for i, cfg in enumerate(cfgs):
        pair, m = structural_unconstrained(cfg), cfg.m
        x[:, i, 0, :m] = pair.p_h, pair.p_l
        x[:, i, 1, :m] = 1.0 / m
        starts = np.random.default_rng(0).dirichlet(np.ones(m), (opts.random_starts, 2))
        x[:, i, 2:, :m] = starts.transpose(1, 0, 2)
    # a box of [0, 0] on the RBs that pad a load to the widest m
    upper = np.broadcast_to(np.arange(x.shape[-1]) < ms[:, None, None], x.shape).astype(float)
    table = load_table(tuple(c.n_h for c in cfgs), tuple(c.n_l for c in cfgs), 4)
    shape = x.shape[1:3]

    live = np.arange(len(cfgs))
    x_final, viol_final = x.copy(), np.full(shape, np.nan)
    rounds, inner_steps = np.zeros(len(cfgs), dtype=int), np.zeros(len(cfgs), dtype=int)
    lam, nu, rho = np.zeros(shape), np.zeros((2,) + shape), np.full(shape, _RHO0)
    step = np.full(shape, _STEP0)
    prev_obj, prev_viol = np.full(shape, -np.inf), np.full(shape, np.inf)
    for outer in range(opts.max_outer):
        mult = (lam, nu, rho, lam * lam, 2.0 * rho, 0.5 * rho)
        x, step, taken = reference_inner_ascent(table, gamma, x, mult, step, upper)
        inner_steps[live] += taken
        mu_h, mu_l = _left_to_right(reference_stacked_grad(x, table)[0])
        h = _left_to_right(x) - 1.0
        viol = np.maximum(np.abs(h).max(axis=0), np.maximum(0.0, gamma - mu_l))
        rounds[live], x_final[:, live], viol_final[live] = outer + 1, x, viol
        done = np.all(viol <= _VIOL_TOL, axis=1) & np.all(
            np.abs(mu_h - prev_obj) < _OBJ_TOL, axis=1
        )
        if done.all():
            break
        if done.any():
            go = ~done
            live, x, step = live[go], x[:, go], step[go]
            lam, nu, rho = lam[go], nu[:, go], rho[go]
            mu_h, mu_l, h, viol, prev_viol = mu_h[go], mu_l[go], h[:, go], viol[go], prev_viol[go]
            table = tuple(t[:, :, go] for t in table)
            upper = upper[:, go]
        lam = np.maximum(0.0, lam - rho * (mu_l - gamma))
        nu = nu + rho * h
        stalled = viol > 0.5 * prev_viol
        rho = np.where(stalled, np.minimum(rho * _RHO_GROWTH, _RHO_MAX), rho)
        prev_obj = mu_h
        prev_viol = np.maximum(viol, 1e-300)
        step = np.maximum(step, 1e-6)
    x_final = np.moveaxis(x_final, -1, 1)
    return reference_pick(cfgs, gamma, x_final, viol_final, rounds, inner_steps, opts)


def reference_inner_ascent(table, gamma, x, mult, step, upper):
    """The former projected gradient ascent of one outer round over the
    live loads, RB-last: a load stops when none of its starts gains 1e-12
    and all its steps are below 1e-13, or after ``_MAX_INNER`` steps.
    Returns the new ``x`` and ``step`` of every load and the steps each
    took."""
    x_out, step_out = np.empty_like(x), np.empty_like(step)
    taken = np.full(x.shape[1], _MAX_INNER)
    rows = np.arange(x.shape[1])
    phi, grad = reference_phi(table, gamma, x, *mult)
    cand = np.empty_like(x)
    for it in range(_MAX_INNER):
        np.multiply(step[..., None], grad, out=cand)
        cand += x
        np.maximum(cand, 0.0, out=cand)
        np.minimum(cand, upper, out=cand)
        phi_c, grad_c = reference_phi(table, gamma, cand, *mult)
        better = phi_c > phi
        gained = (phi_c - phi >= 1e-12).any(axis=1)
        np.copyto(x, cand, where=better[..., None])
        np.copyto(grad, grad_c, where=better[..., None])
        np.copyto(phi, phi_c, where=better)
        step = np.minimum(step * np.where(better, 1.3, 0.4), 1e3)
        if gained.all():
            continue
        stop = ~gained & (step < 1e-13).all(axis=1)
        if stop.any():
            done = rows[stop]
            x_out[:, done], step_out[done], taken[done] = x[:, stop], step[stop], it + 1
            go = ~stop
            if not go.any():
                return x_out, step_out, taken
            rows, x, grad, phi, step = rows[go], x[:, go], grad[:, go], phi[go], step[go]
            cand = np.empty_like(x)
            table = tuple(t[..., go, :, :] for t in table)
            mult = tuple(v[..., go, :] for v in mult)
            upper = upper if np.ndim(upper) == 0 else upper[:, go]
    x_out[:, rows], step_out[rows] = x, step
    return x_out, step_out, taken


def _reference_polish(row: np.ndarray, m: int) -> AccessProbabilityPair:
    """The pair of one start's (p_h, p_l) ``row``, each half padded past
    ``m``, clipped and divided by its sum, added left to right."""
    width = len(row) // 2
    a = np.clip(row[:m], 0.0, 1.0)
    b = np.clip(row[width : width + m], 0.0, 1.0)
    a = a / _left_to_right(a) if _left_to_right(a) > 0 else np.full(m, 1.0 / m)
    b = b / _left_to_right(b) if _left_to_right(b) > 0 else np.full(m, 1.0 / m)
    return AccessProbabilityPair(tuple(a), tuple(b))


def _reference_pick_load(cfg, gamma, x, viol, rounds, inner_steps, opts) -> OptResult:
    """Polish every start of one load, score each with
    ``throughput_closed_form`` and choose its result."""
    candidates = []
    for row in range(len(x)):
        pair = _reference_polish(x[row], cfg.m)
        mu = throughput_closed_form(cfg, pair)
        feasible = mu.mu_l >= gamma - FEASIBILITY_TOL
        # the RBs sorted jointly by (p_h[i], p_l[i])
        order = sorted(range(pair.m), key=lambda i: (pair.p_h[i], pair.p_l[i]))
        canon = tuple(pair.p_h[i] for i in order) + tuple(pair.p_l[i] for i in order)
        candidates.append((feasible, mu.mu_h, mu.mu_l, canon, pair, mu, row))
    diagnostics = {
        "starts": len(x),
        "feasible_starts": sum(c[0] for c in candidates),
        "outer_rounds": rounds,
        "cap_hit": rounds == opts.max_outer,
        "inner_steps": inner_steps,
    }
    feasible_rows = [c for c in candidates if c[0]]
    if feasible_rows:
        # highest objective, ties toward the lexicographically smaller pair
        best = max(feasible_rows, key=lambda c: (c[1], tuple(-v for v in c[3])))
    else:
        best = max(candidates, key=lambda c: c[2])  # best-attained mu_l
        diagnostics["best_attained_mu_l"] = best[2]
    diagnostics["max_violation"] = float(viol[best[6]])
    diagnostics["winning_start"] = best[6]
    return OptResult(best[4], best[5], bool(feasible_rows), diagnostics)


def reference_pick(cfgs, gamma, x, viol, rounds, inner_steps, opts) -> list[OptResult]:
    """The solver's former pick, one start at a time, with the signature
    and results of ``rachopt.optimize._pick``: ``x`` is the RB-major
    (2, m, loads, starts) iterate, m the widest load's."""
    rows = x.transpose(2, 3, 0, 1).reshape(len(cfgs), -1, 2 * x.shape[1])
    return [
        _reference_pick_load(cfg, gamma, rows[i], viol[i], int(rounds[i]), int(steps), opts)
        for i, (cfg, steps) in enumerate(zip(cfgs, inner_steps))
    ]


def load_plot_data(path) -> dict[str, np.ndarray]:
    """Read back a plot CSV as named columns."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"column count mismatch in {path}")
    return {name: data[:, i] for i, name in enumerate(names)}


def random_simplex(rng: np.random.Generator, m: int, sparse: bool = False):
    """A random probability vector, optionally with some exact zeros."""
    v = rng.dirichlet(np.ones(m))
    if sparse and m > 1:
        kill = rng.integers(0, m, size=rng.integers(1, m))
        v[np.unique(kill)[: m - 1]] = 0.0
        if v.sum() == 0.0:
            v[rng.integers(0, m)] = 1.0
        v = v / v.sum()
    return tuple(float(x) for x in v)


def scaling_allocation(m: int) -> AccessProbabilityPair:
    """The reference allocation behind ``exact.scaling_reference``: the high
    class spreads uniformly over the first m-1 RBs, the low class occupies
    the last RB alone."""
    share = 1.0 / (m - 1)
    p_h = (share,) * (m - 1) + (0.0,)
    p_l = (0.0,) * (m - 1) + (1.0,)
    return AccessProbabilityPair(p_h, p_l)


def grid_numerators(space, q: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each grid action's integer numerators over the denominator ``q``, in
    action order, read back from ``space.allocations`` as ``round(x * q)``.

    Exact for every grid the action cap admits: m >= 2 keeps q <= 999, and
    m = 1 has the one pair ((1.0,), (1.0,)).
    """
    return [
        (tuple(round(x * q) for x in p_h), tuple(round(x * q) for x in p_l))
        for p_h, p_l in zip(*space.allocations.tolist())
    ]


def min_joint_rotation(p_h, p_l) -> tuple[tuple, tuple]:
    """Brute-force lexicographically smallest joint rotation."""
    m = len(p_h)

    def rot(seq, s):
        return tuple(seq[(i + s) % m] for i in range(m))

    best = min(rot(p_h, s) + rot(p_l, s) for s in range(m))
    return best[:m], best[m:]


def fixed_compositions_under_rotation(q: int, m: int, r: int) -> int:
    """Number of compositions of q into m parts invariant under rotation by r."""
    g = math.gcd(r, m)
    if (q * g) % m != 0:
        return 0
    block = q * g // m
    return math.comb(block + g - 1, g - 1)


def burnside_orbit_count(q: int, m: int) -> int:
    """Joint-rotation orbit count of composition pairs, by Burnside's lemma."""
    total = sum(fixed_compositions_under_rotation(q, m, r) ** 2 for r in range(m))
    return total // m


def shaped_reward_oracle(
    n_h: int, n_l: int, p_h, p_l, t: int, gamma: float, rho: float, scale: float
) -> dict[str, np.ndarray]:
    """Exact expectation of the bandit's per-pull reward, per action.

    A pull runs ``t`` i.i.d. slots with totals H_T and L_T and earns
    H_T / t / scale when L_T / t >= gamma, else rho times that.  Slots are
    independent, so E[H_T 1{L_T >= c}] = t * sum_{h,l} pmf(h,l) h
    P(L_{t-1} >= c - l), where L_{t-1} sums the low successes of the other
    t - 1 slots; its law is the (t-1)-fold convolution of the per-slot L
    marginal, taken as a power of the marginal's discrete Fourier transform
    on a grid long enough to avoid wrap-around.

    Returns per-action arrays ``reward`` (expected shaped reward),
    ``feasible`` (P(L_T / t >= gamma)), ``mu_h`` and ``mu_l``.
    """
    pmf = slot_success_pmf(n_h, n_l, p_h, p_l)
    m = pmf.shape[1] - 1
    counts = np.arange(m + 1)
    mu_h = pmf.sum(axis=2) @ counts
    marg_l = pmf.sum(axis=1)
    mu_l = marg_l @ counts
    # the smallest total that passes the program's float check L / t >= gamma
    c = next((k for k in range(t * m + 1) if k / t >= gamma), t * m + 1)
    length = (t - 1) * m + 1
    n_fft = 1 << (length - 1).bit_length()
    spectrum = np.fft.rfft(marg_l, n_fft)
    # the power in polar form: complex ** is several times slower
    spectrum = np.abs(spectrum) ** (t - 1) * np.exp(1j * (t - 1) * np.angle(spectrum))
    rest = np.fft.irfft(spectrum, n_fft)[:, :length]
    rest = np.clip(rest, 0.0, None)
    # at_least[a, k] = P(L_{t-1} >= k) for k = 0..length, zero beyond
    at_least = np.zeros((rest.shape[0], length + 1))
    at_least[:, :length] = np.cumsum(rest[:, ::-1], axis=1)[:, ::-1]
    at_least /= at_least[:, :1]
    need = np.clip(c - counts, 0, length)
    pass_given_l = at_least[:, need]  # [a, l] -> P(L_{t-1} >= c - l)
    feasible_h = np.einsum("ahl,h,al->a", pmf, counts.astype(float), pass_given_l)
    feasible = np.einsum("al,al->a", marg_l, pass_given_l)
    expected = (rho * mu_h + (1.0 - rho) * feasible_h) / scale
    return {"reward": expected, "feasible": feasible, "mu_h": mu_h, "mu_l": mu_l}


# Registry the acceptance tests feed and conftest prints as one line per
# criterion in the terminal summary.
CRITERION_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(label: str, passed: bool, detail: str) -> bool:
    """Log one acceptance-criterion outcome; returns ``passed`` for chaining."""
    CRITERION_RESULTS.append((label, passed, detail))
    return passed
