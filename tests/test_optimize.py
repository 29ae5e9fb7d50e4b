import numpy as np
import pytest

from rachopt import optimize
from rachopt.actionspace import GridSpec, exact_throughputs, generate_discretized
from rachopt.exact import (
    gradient_kernel,
    load_table,
    scaling_reference,
    stacked_terms,
    throughput_closed_form,
)
from rachopt.model import NetworkConfig
from rachopt.optimize import (
    FEASIBILITY_TOL,
    _MAX_INNER,
    _VIOL_TOL,
    OptResult,
    SolverOptions,
    _lagrangian,
    solve,
    solve_batch,
    structural_unconstrained,
)

from support import reference_inner_ascent, reference_pick

FAST = SolverOptions(random_starts=8, max_outer=25)


def test_structural_unconstrained_examples():
    pair = structural_unconstrained(NetworkConfig(4, 5, 5))
    assert pair.p_h == (0.25, 0.25, 0.25, 0.25, 0.0)
    assert pair.p_l == (0.0, 0.0, 0.0, 0.0, 1.0)
    # overloaded: every contended RB still targets load 1, excess spills over
    pair = structural_unconstrained(NetworkConfig(4, 5, 4))
    assert pair.p_h == (0.25, 0.25, 0.25, 0.25)
    pair = structural_unconstrained(NetworkConfig(4, 5, 3))
    assert pair.p_h == (0.25, 0.25, 0.5)
    pair = structural_unconstrained(NetworkConfig(1, 1, 2))
    assert pair.p_h == (1.0, 0.0) and pair.p_l == (0.0, 1.0)
    pair = structural_unconstrained(NetworkConfig(3, 1, 1))
    assert pair.p_h == (1.0,) and pair.p_l == (1.0,)


def test_structural_matches_scaling_reference():
    for m in (3, 4, 5, 6):
        for n_h in range(1, m):
            cfg = NetworkConfig(n_h, 2, m)
            mu = throughput_closed_form(cfg, structural_unconstrained(cfg))
            assert mu.mu_h == pytest.approx(scaling_reference(cfg), abs=1e-12)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(101)
    step = 1e-6
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 7))
        cfg = NetworkConfig(int(rng.integers(0, 11)), int(rng.integers(0, 11)), m)
        # interior points away from the box boundary
        a = 0.05 + 0.9 * rng.random(m)
        b = 0.05 + 0.9 * rng.random(m)
        a, b = a / a.sum(), b / b.sum()
        if min(a.min(), b.min()) < 2 * step:
            continue
        x = np.array([a, b])
        t = np.empty((3,) + x.shape)
        gradient_kernel(x, load_table(cfg.n_h, cfg.n_l, x.ndim), t)()
        # each gradient stacked like x, as the solver reads them
        grad_h = t[1].ravel()
        grad_l = t[2].ravel()

        x0 = np.concatenate([a, b])

        def mu_at(x):
            # raw formula off the simplex: perturbed points need no validation
            aa, bb = x[:m], x[m:]
            mu_h = sum(
                cfg.n_h * aa[i] * (1 - aa[i]) ** (cfg.n_h - 1) * (1 - bb[i]) ** cfg.n_l
                for i in range(m)
            ) if cfg.n_h else 0.0
            mu_l = sum(
                cfg.n_l * bb[i] * (1 - bb[i]) ** (cfg.n_l - 1) * (1 - aa[i]) ** cfg.n_h
                for i in range(m)
            ) if cfg.n_l else 0.0
            return mu_h, mu_l

        for j in range(2 * m):
            hi = x0.copy()
            lo = x0.copy()
            hi[j] += step
            lo[j] -= step
            fd_h = (mu_at(hi)[0] - mu_at(lo)[0]) / (2 * step)
            fd_l = (mu_at(hi)[1] - mu_at(lo)[1]) / (2 * step)
            assert grad_h[j] == pytest.approx(fd_h, rel=1e-5, abs=1e-7)
            assert grad_l[j] == pytest.approx(fd_l, rel=1e-5, abs=1e-7)
        checked += 1


def test_lagrangian_gradient_matches_central_differences():
    # the augmented Lagrangian the ascent climbs, at points off the simplex
    # (nonzero residuals) with nonzero simplex multipliers; a floor far above
    # every mu_l keeps it active, a zero floor and multiplier leave it off
    rng = np.random.default_rng(59)
    loads = [(4, 5), (3, 2), (0, 3), (5, 0), (1, 1)]
    n_h, n_l = tuple(h for h, _ in loads), tuple(l for _, l in loads)
    m, starts, step = 4, 6, 1e-6
    x = 0.05 + 0.9 * rng.random((2, len(loads), starts, m))
    table = load_table(n_h, n_l, x.ndim)
    nu = rng.uniform(-1.0, 1.0, (2, len(loads), starts))
    rho = rng.uniform(1.0, 20.0, (len(loads), starts))
    for gamma, lam in ((2.5, rng.uniform(0.1, 2.0, rho.shape)), (0.0, np.zeros(rho.shape))):
        mult = (lam, nu, rho, lam * lam, 2.0 * rho, 0.5 * rho)
        scored, phi = _lagrangian(table, gamma, mult, x.shape)

        def phi_at(point):
            scored[0] = point
            return phi()

        phi_at(x)
        grad = scored[1].copy()
        mu_l = stacked_terms(x, table)[1].sum(axis=-1)
        active = lam - rho * (mu_l - gamma) > 0
        assert active.all() if gamma else not active.any()
        for c in range(2):
            for i in range(m):
                hi, lo = x.copy(), x.copy()
                hi[c, ..., i] += step
                lo[c, ..., i] -= step
                diff = phi_at(hi) - phi_at(lo)
                np.testing.assert_allclose(grad[c, ..., i], diff / (2 * step), rtol=1e-5, atol=1e-6)


def test_solve_unconstrained_small():
    res = solve(NetworkConfig(1, 1, 2), 0.0, FAST)
    assert res.feasible
    assert res.mu.mu_h == pytest.approx(1.0, abs=1e-6)


def test_solve_unconstrained_matches_structural_optimum():
    cfg = NetworkConfig(4, 5, 3)
    res = solve(cfg, 0.0, FAST)
    assert res.mu.mu_h == pytest.approx(0.84375, abs=1e-6)
    assert res.mu.mu_l <= 1e-8


def test_solve_constrained_small():
    cfg = NetworkConfig(4, 5, 3)
    res = solve(cfg, 0.4)
    assert res.feasible
    assert res.mu.mu_h >= 0.42
    assert 0.4 - FEASIBILITY_TOL <= res.mu.mu_l <= 0.41


def test_solve_respects_simplex_invariants():
    for gamma in (0.0, 0.3):
        res = solve(NetworkConfig(3, 2, 4), gamma, FAST)
        for vec in (res.pair.p_h, res.pair.p_l):
            assert abs(sum(vec) - 1.0) <= 1e-9
            assert all(0.0 <= x <= 1.0 for x in vec)
        assert res.mu == throughput_closed_form(NetworkConfig(3, 2, 4), res.pair)


def test_solve_is_deterministic():
    cfg = NetworkConfig(4, 5, 4)
    a = solve(cfg, 0.4, FAST)
    b = solve(cfg, 0.4, FAST)
    assert a.pair == b.pair
    assert a.mu == b.mu


def test_solve_reports_infeasible_with_best_attained():
    # no low devices: mu_l is identically zero
    res = solve(NetworkConfig(3, 0, 3), 0.4, FAST)
    assert not res.feasible
    assert res.mu.mu_l == 0.0
    assert res.diagnostics["best_attained_mu_l"] == 0.0
    # objective still gets maximized along the way: with no low devices the
    # high class spreads uniformly over all 3 RBs for 3 * (2/3)^2
    assert res.mu.mu_h == pytest.approx(4.0 / 3.0, abs=1e-4)

    # two low devices top out at mu_l = 1.0 (half each on two clean RBs)
    res = solve(NetworkConfig(1, 2, 3), 1.2, FAST)
    assert not res.feasible
    assert res.mu.mu_l == pytest.approx(1.0, abs=1e-3)


def test_solve_zero_high_class():
    res = solve(NetworkConfig(0, 3, 3), 0.4, FAST)
    assert res.feasible
    assert res.mu.mu_h == 0.0
    assert res.mu.mu_l >= 0.4 - FEASIBILITY_TOL


def test_solve_rejects_negative_gamma():
    with pytest.raises(ValueError):
        solve(NetworkConfig(1, 1, 2), -0.1)
    # written as `not gamma >= 0`, so NaN fails too
    with pytest.raises(ValueError, match="gamma must be >= 0, got nan"):
        solve(NetworkConfig(1, 1, 2), float("nan"))
    # before any start runs: an infinite floor turns the multipliers to NaN
    with pytest.raises(ValueError, match="gamma must be finite, got inf"):
        solve(NetworkConfig(1, 1, 2), float("inf"))


def _same_result(a: OptResult, b: OptResult) -> bool:
    return (a.pair, a.mu, a.feasible, a.diagnostics) == (b.pair, b.mu, b.feasible, b.diagnostics)


@pytest.mark.parametrize("m", range(1, 8))
def test_rb_sum_matches_numpy_below_8_rbs(m):
    # numpy adds 7 or fewer RBs in order, so its bits are the reference;
    # mixed signs and magnitudes 1e-8..1e8 make every rounding show, and a
    # row of -0.0 sums to +0.0 in both
    rng = np.random.default_rng(m)
    rows = rng.choice([-1.0, 1.0], (2000, m)) * 10.0 ** rng.uniform(-8, 8, (2000, m))
    rows = np.concatenate([rows, np.full((1, m), -0.0)])
    want = np.add.reduce(rows, axis=-1)
    assert np.array_equal(optimize._rb_sum(rows).view(np.uint64), want.view(np.uint64))
    out = np.full(len(rows), np.nan)
    assert optimize._rb_sum(rows, out=out) is out
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("m, width", [(8, 9), (9, 17), (17, 24)])
def test_rb_sum_ignores_trailing_zero_pads(m, width):
    # widths where numpy's own pairwise sum moves bits when padded
    rng = np.random.default_rng(m)
    rows = rng.choice([-1.0, 1.0], (2000, m)) * 10.0 ** rng.uniform(-8, 8, (2000, m))
    padded = np.concatenate([rows, np.zeros((len(rows), width - m))], axis=1)
    want = optimize._rb_sum(rows).view(np.uint64)
    assert np.array_equal(optimize._rb_sum(padded).view(np.uint64), want)
    assert not np.array_equal(np.add.reduce(padded, axis=-1).view(np.uint64), want)


@pytest.mark.parametrize("options", [FAST, SolverOptions(random_starts=4, max_outer=3)])
def test_solve_batch_matches_per_load_solves(options):
    # includes an unreachable floor (n_l = 0), a zero high class and loads
    # that stop on different outer rounds
    cfgs = [NetworkConfig(n_h, n_l, 3) for n_h, n_l in
            [(2, 0), (0, 2), (1, 1), (4, 5), (2, 2), (3, 1), (1, 4)]]
    batch = solve_batch(cfgs, 0.4, options)
    singles = [solve(cfg, 0.4, options) for cfg in cfgs]
    assert all(_same_result(a, b) for a, b in zip(batch, singles))
    assert not batch[0].feasible and "best_attained_mu_l" in batch[0].diagnostics
    rounds = {r.diagnostics["outer_rounds"] for r in batch}
    caps = [r.diagnostics["cap_hit"] for r in batch]
    assert caps == [r.diagnostics["outer_rounds"] == options.max_outer for r in batch]
    if options.max_outer == 3:
        assert any(caps)
    else:
        assert len(rounds) > 1  # loads leave the batch at different rounds


def test_solve_batch_stops_each_inner_ascent_on_its_own():
    # (5, 1) runs long inner ascents; (6, 10) must stop its own meanwhile,
    # or its last bits drift from a lone solve
    slow, cell = NetworkConfig(5, 1, 5), NetworkConfig(6, 10, 5)
    assert _same_result(solve_batch([slow, cell], 0.4, FAST)[1], solve(cell, 0.4, FAST))


def _bits(res: OptResult) -> tuple:
    """Every float of a result as its hex string, so -0.0 and 0.0 differ."""
    def exact(v):
        return v.hex() if isinstance(v, float) else v

    return (
        [exact(v) for v in res.pair.p_h + res.pair.p_l + (res.mu.mu_h, res.mu.mu_l)],
        res.feasible,
        {k: exact(v) for k, v in res.diagnostics.items()},
    )


@pytest.mark.parametrize(
    "loads",
    [
        # n = 0, 1, 2 and 3, 4 in both classes: every squared-power mask of the
        # table, over loads that stop their ascents on different steps
        [(n_h, n_l, 3) for n_h in range(5) for n_l in range(5)],
        # (5, 1) keeps its uniform start stuck; (6, 10) stops beside it
        [(5, 1, 5), (6, 10, 5), (2, 2, 5)],
        # an RB axis of 8 or more, which numpy's own sum would add pairwise
        [(3, 4, 9), (10, 2, 9)],
        # loads of m = 1..6 padded to 6 RBs, whose box bound is an array
        [(5, 1, 5), (3, 4, 3), (2, 2, 4), (6, 10, 6), (1, 1, 1), (0, 3, 2)],
        # and padded across m = 8, to 12 RBs
        [(2, 2, 5), (3, 4, 9), (1, 3, 12)],
    ],
    ids=["m3-every-mask", "m5-stuck-start", "m9", "m1-6-padded", "m5-12-padded"],
)
def test_solve_batch_matches_reference_ascent_bit_for_bit(monkeypatch, loads):
    # the in-place ascent against the former one on every result field; run
    # once more in CI with AVX-512 off, where numpy picks other ufunc loops
    cfgs = [NetworkConfig(*load) for load in loads]
    options = SolverOptions(random_starts=4, max_outer=3)
    got = solve_batch(cfgs, 0.4, options)
    monkeypatch.setattr(optimize, "_inner_ascent", reference_inner_ascent)
    want = solve_batch(cfgs, 0.4, options)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    # loads left the batch mid-round, so the compacted buffers were used
    assert len({r.diagnostics["inner_steps"] for r in got}) > 1


@pytest.mark.parametrize("gamma", [0.0, 0.4])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_solve_batch_pick_matches_reference_pick_bit_for_bit(monkeypatch, m, gamma):
    # the array pick against the former per-start one on every result field,
    # winning_start included; ties are exact: at gamma 0.4 every feasible
    # start of an n_h = 0 cell has mu_h = 0, and the n_l = 0 row is
    # infeasible, so the first start with the best mu_l wins; at m = 1
    # every start polishes to the same pair, and (0, 2) is infeasible too
    cfgs = [NetworkConfig(n_h, n_l, m) for n_h in range(3) for n_l in range(3)]
    cfgs.append(NetworkConfig(4, 5, m))
    options = SolverOptions(random_starts=4, max_outer=3)
    got = solve_batch(cfgs, gamma, options)
    monkeypatch.setattr(optimize, "_pick", reference_pick)
    want = solve_batch(cfgs, gamma, options)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    for cfg, r in zip(cfgs, got):
        assert 0 <= r.diagnostics["winning_start"] < options.random_starts + 2
        if gamma > 0 and cfg.n_l == 0:
            assert not r.feasible
        elif gamma > 0 and cfg.n_h == 0 and m > 1:
            assert r.diagnostics["feasible_starts"] > 1 and r.mu.mu_h == 0.0


def test_pick_matches_reference_pick_on_crafted_ties():
    # final iterates the ascent rarely leaves: n_h = 0 loads, where every
    # start ties on mu_h = 0 and the smaller RB-sorted pair wins wherever it
    # sits, a start that relabels another (a full tie, so the first wins),
    # a p_h that sums to 0 and entries outside [0, 1]
    rng = np.random.default_rng(5)
    m, starts = 4, 8
    cfgs = [NetworkConfig(n_h, n_l, m) for n_h, n_l in [(0, 2), (0, 3), (3, 0), (2, 2), (0, 0)]]
    x = rng.dirichlet(np.ones(m), size=(2, len(cfgs), starts))
    # load (0, 2): the smallest sorted p_h, and sums that no order rounds
    x[:, 0, 2] = [[0.0, 0.0, 0.0, 1.0], [0.5, 0.25, 0.125, 0.125]]
    x[:, :, 5] = x[:, :, 2][..., [2, 0, 3, 1]]
    x[0, :, 6] = 0.0
    x[:, :, 7] = 3.0 * x[:, :, 7] - 0.5
    viol = rng.random((len(cfgs), starts))
    rounds, inner_steps = np.array([1, 2, 3, 3, 2]), np.array([10, 20, 30, 40, 50])
    options = SolverOptions(random_starts=starts - 2, max_outer=3)
    for gamma in (0.0, 0.4):
        args = (cfgs, gamma, x, viol, rounds, inner_steps, options)
        got = optimize._pick(*args)
        assert [_bits(r) for r in got] == [_bits(r) for r in reference_pick(*args)]
    # start 5 relabels start 2 and ties it on every key; load (0, 3) is won
    # by a start after both
    assert [r.diagnostics["winning_start"] for r in got[:2]] == [2, 7]


def test_solve_reports_cap_hit_and_violation():
    res = solve(NetworkConfig(4, 5, 3), 0.4, SolverOptions(random_starts=4, max_outer=2))
    assert res.diagnostics["cap_hit"] and res.diagnostics["outer_rounds"] == 2
    res = solve(NetworkConfig(2, 1, 3), 0.4, FAST)
    assert not res.diagnostics["cap_hit"] and res.diagnostics["outer_rounds"] < 25
    assert 0.0 <= res.diagnostics["max_violation"] <= _VIOL_TOL


def test_solve_reports_inner_steps():
    # (5, 1) at m = 5 runs every inner ascent to its last step; (2, 1) at
    # m = 3 settles within a fraction of them
    slow = solve(NetworkConfig(5, 1, 5), 0.4, SolverOptions(random_starts=4, max_outer=3))
    assert slow.diagnostics["cap_hit"]
    assert 3 <= slow.diagnostics["inner_steps"] <= 3 * _MAX_INNER
    quick = solve(NetworkConfig(2, 1, 3), 0.4, FAST).diagnostics
    assert not quick["cap_hit"]
    assert quick["outer_rounds"] <= quick["inner_steps"] < quick["outer_rounds"] * _MAX_INNER // 4


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("random_starts", -3, "random_starts must be >= 0, got -3"),
        ("max_outer", 0, "max_outer must be >= 1, got 0"),
    ],
)
def test_solver_options_validation(field, bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverOptions(**{field: bad})
    # the boundary values are accepted
    SolverOptions(random_starts=0, max_outer=1)


def _random_loads(seed: int, count: int, ms) -> list[NetworkConfig]:
    rng = np.random.default_rng(seed)
    return [
        NetworkConfig(int(rng.integers(0, 8)), int(rng.integers(0, 8)), int(rng.choice(ms)))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "cfgs, gamma, options",
    [
        # the published Table IV and V loads, each table one batch
        ([NetworkConfig(4, 5, m) for m in (3, 4, 5, 6)], 0.0, None),
        ([NetworkConfig(4, 5, m) for m in (3, 4, 5, 6)], 0.4, None),
        (_random_loads(17, 12, range(1, 8)), 0.4, FAST),
        (_random_loads(18, 12, range(1, 8)), 0.0, FAST),
        # widths of 8 or more, where numpy's own sum would add pairwise and a
        # pad would move an RB into another partial sum: padded 5 -> 9,
        # 7 -> 8 and 9 -> 17, all in one array
        ([NetworkConfig(3, 4, 5), NetworkConfig(3, 4, 9)], 0.4, FAST),
        ([NetworkConfig(2, 3, 7), NetworkConfig(2, 3, 8), NetworkConfig(4, 1, 7)], 0.4, FAST),
        ([NetworkConfig(2, 2, 9), NetworkConfig(2, 2, 17)], 0.4, SolverOptions(4, 3)),
        ([NetworkConfig(2, 2, 5), NetworkConfig(2, 2, 9), NetworkConfig(2, 2, 17)], 0.4,
         SolverOptions(4, 3)),
    ],
    ids=["table-IV", "table-V", "random-m1-7-floor", "random-m1-7-free", "m5-m9", "m7-m8",
         "m9-m17", "m5-m9-m17"],
)
def test_solve_batch_of_mixed_m_matches_lone_solves(monkeypatch, cfgs, gamma, options):
    # every float's bits, feasible and diagnostics, against solving each alone
    ascents, inner_ascent = [], optimize._inner_ascent

    def counted(*args):
        ascents.append(args[2].shape)
        return inner_ascent(*args)

    monkeypatch.setattr(optimize, "_inner_ascent", counted)
    got = solve_batch(cfgs, gamma, options)
    # one array: one ascent per outer round, the first over every load at
    # the widest m
    assert len(ascents) == max(r.diagnostics["outer_rounds"] for r in got)
    assert ascents[0][1] == len(cfgs) and ascents[0][-1] == max(cfg.m for cfg in cfgs)
    monkeypatch.undo()
    assert [_bits(r) for r in got] == [_bits(solve(cfg, gamma, options)) for cfg in cfgs]
    assert [r.pair.m for r in got] == [cfg.m for cfg in cfgs]
    assert solve_batch([], 0.4) == []


def test_solver_beats_fine_grid():
    # exhaustive search on a d=0.05 grid lower-bounds the continuous optimum
    cases = [
        (NetworkConfig(4, 5, 3), 0.0),
        (NetworkConfig(4, 5, 3), 0.4),
        (NetworkConfig(2, 2, 2), 0.0),
        (NetworkConfig(2, 2, 2), 0.3),
        (NetworkConfig(6, 1, 3), 0.2),
    ]
    for cfg, gamma in cases:
        space = generate_discretized(GridSpec(cfg.m, 0.05))
        table = exact_throughputs(space, cfg)
        feasible = table[:, 1] >= gamma
        assert feasible.any()
        grid_best = table[feasible, 0].max()
        res = solve(cfg, gamma)
        assert res.feasible
        assert res.mu.mu_h >= grid_best - 1e-3
