import numpy as np
import pytest

from rachopt.actionspace import GridSpec, exact_throughputs, generate_discretized
from rachopt.exact import scaling_reference, throughput_closed_form, throughput_terms
from rachopt.model import AccessProbabilityPair, NetworkConfig
from rachopt.optimize import (
    FEASIBILITY_TOL,
    _VIOL_TOL,
    OptResult,
    SolverOptions,
    canonical_permutation,
    solve,
    solve_batch,
    structural_unconstrained,
)

from support import random_simplex

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


def test_canonical_permutation_sorts_jointly():
    pair = AccessProbabilityPair([0.744, 0.006, 0.25], [0.805, 0.195, 0.0])
    canon = canonical_permutation(pair)
    assert canon.p_h == (0.006, 0.25, 0.744)
    assert canon.p_l == (0.195, 0.0, 0.805)
    # ties on p_h resolved by p_l
    pair = AccessProbabilityPair([0.5, 0.5], [0.9, 0.1])
    canon = canonical_permutation(pair)
    assert canon.p_l == (0.1, 0.9)


def test_canonical_permutation_preserves_throughput():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        cfg = NetworkConfig(int(rng.integers(1, 6)), int(rng.integers(1, 6)), m)
        pair = AccessProbabilityPair(random_simplex(rng, m), random_simplex(rng, m))
        canon = canonical_permutation(pair)
        assert throughput_closed_form(cfg, canon) == throughput_closed_form(cfg, pair)


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
        _, _, dh_a, dh_b, dl_a, dl_b = throughput_terms(cfg.n_h, cfg.n_l, a, b, grad=True)
        grad_h = np.concatenate([dh_a, dh_b])
        grad_l = np.concatenate([dl_a, dl_b])

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


def test_solve_reports_cap_hit_and_violation():
    res = solve(NetworkConfig(4, 5, 3), 0.4, SolverOptions(random_starts=4, max_outer=2))
    assert res.diagnostics["cap_hit"] and res.diagnostics["outer_rounds"] == 2
    res = solve(NetworkConfig(2, 1, 3), 0.4, FAST)
    assert not res.diagnostics["cap_hit"] and res.diagnostics["outer_rounds"] < 25
    assert 0.0 <= res.diagnostics["max_violation"] <= _VIOL_TOL


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


def test_solve_batch_rejects_mixed_m():
    assert solve_batch([], 0.4) == []
    with pytest.raises(ValueError, match="same m"):
        solve_batch([NetworkConfig(1, 1, 2), NetworkConfig(1, 1, 3)], 0.4)


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
