"""Tests for the cross-entropy bandit: reward shaping, running means, elite
refits, seeding, load estimation and the pull-trace format."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rachopt import mab
from rachopt.actionspace import (
    Action,
    ActionSpace,
    GridSpec,
    build_compact,
    generate_discretized,
)
from rachopt.exact import scaling_reference, slot_success_pmf, throughput_closed_form
from rachopt.mab import (
    UNIFORM_SHARE,
    MabConfig,
    MabResult,
    _empty_trace,
    _fold,
    ce_update,
    estimate_load,
    load_mab_trace,
    mae_trace,
    reward,
    run,
    run_nonstationary,
    save_mab_trace,
    smooth,
)
from rachopt.model import AccessProbabilityPair, NetworkConfig, ThroughputPair
from rachopt.simulate import sim_throughput


def exact_fn(cfg, pair, t, seed):
    return throughput_closed_form(cfg, pair)


@pytest.fixture(scope="module")
def small_space():
    return generate_discretized(GridSpec(3, 0.5), reduced=True)


@pytest.fixture(scope="module")
def compact_3x3():
    return build_compact(m=3, n_h_max=2, n_l_max=2, gamma=0.0)


def test_reward_examples():
    assert reward(1.0, 0.5, 0.4, 0.1, 1.6875) == pytest.approx(1 / 1.6875)
    assert reward(1.0, 0.3, 0.4, 0.0, 1.0) == 0.0
    assert reward(1.2, 0.3, 0.4, 0.1, 1.0) == pytest.approx(0.12)
    # floor met exactly counts as feasible
    assert reward(0.7, 0.4, 0.4, 0.0, 1.0) == pytest.approx(0.7)


def test_reward_is_never_clamped():
    assert reward(2.3, 1.0, 0.0, 0.0, 1.0) == pytest.approx(2.3)
    assert reward(2.3, 1.0, 0.0, 0.0, 2.0) == pytest.approx(1.15)


def test_reward_takes_arrays_of_pulls():
    # one call per phase equals the per-pull rule, bit for bit, with pulls
    # exactly on the floor among them
    rng = np.random.default_rng(3)
    mu_h, mu_l = rng.integers(0, 40, (2, 200)) / 20
    gamma, rho, scale = 0.4, 0.1, 1.6875
    expected = [
        (h if l >= gamma else rho * h) / scale for h, l in zip(mu_h.tolist(), mu_l.tolist())
    ]
    assert np.count_nonzero(mu_l == gamma) > 0
    assert np.array_equal(reward(mu_h, mu_l, gamma, rho, scale), expected)


def test_ce_update_matches_sorted_vote():
    # the stable argsort ranks like a stable sort of (action, snapshot)
    # records, so ties keep pull order
    rng = np.random.default_rng(5)
    for _ in range(20):
        actions = rng.integers(0, 6, 50).tolist()
        snapshots = (rng.integers(0, 4, 50) / 4).tolist()  # many exact ties
        ranked = sorted(zip(actions, snapshots), key=lambda rec: -rec[1])
        expected = np.zeros(6)
        for idx, _ in ranked[:7]:
            expected[idx] += 1.0
        assert np.array_equal(ce_update(6, 7, actions, snapshots), expected / 7)


def test_fold_is_running_mean():
    q, v = [0.0] * 3, [0] * 3
    rewards = [1.0, 0.0, 0.5, 0.25]
    for i, r in enumerate(rewards, start=1):
        (snap,) = _fold(q, v, [1], [r])
        assert v[1] == i
        assert snap == pytest.approx(np.mean(rewards[:i]))
    assert q[0] == 0.0 and v[0] == 0


def test_fold_random_sequences_match_mean():
    rng = np.random.default_rng(7)
    q, v = [0.0] * 2, [0] * 2
    rewards = rng.random(50).tolist()
    snapshots = _fold(q, v, [0] * 50, rewards)
    assert q[0] == pytest.approx(np.mean(rewards), abs=1e-12)
    # one snapshot per pull, each the mean of the rewards so far
    assert snapshots == pytest.approx(np.cumsum(rewards) / np.arange(1, 51), abs=1e-12)


def test_ce_update_frozen_examples():
    # both elites are the two pulls of action 0
    p = ce_update(3, 2, [0, 1, 0], [0.9, 0.2, 0.8])
    assert np.allclose(p, [1.0, 0.0, 0.0])
    p = ce_update(3, 2, [2, 1, 0], [0.9, 0.8, 0.1])
    assert np.allclose(p, [0.0, 0.5, 0.5])


def test_ce_update_tie_prefers_earlier_record():
    # all snapshots equal: elite = first two records
    p = ce_update(4, 2, [3, 1, 0], [0.5, 0.5, 0.5])
    assert np.allclose(p, [0.0, 0.5, 0.0, 0.5])


def test_ce_update_rejects_bad_elite():
    with pytest.raises(ValueError):
        ce_update(3, 0, [0], [0.5])
    with pytest.raises(ValueError):
        ce_update(3, 2, [0], [0.5])


def test_smooth_blends_and_preserves_mass():
    p = np.array([0.5, 0.5, 0.0])
    p_new = np.array([0.0, 0.0, 1.0])
    assert np.allclose(smooth(p, p_new, 0.0), p)
    assert np.allclose(smooth(p, p_new, 1.0), p_new)
    blended = smooth(p, p_new, 0.2)
    assert np.allclose(blended, [0.4, 0.4, 0.2])
    assert blended.sum() == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        MabConfig(runs=10, batch_size=20)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        MabConfig(seed=-1)
    with pytest.raises(ValueError):
        MabConfig(elite_fraction=0.0)
    with pytest.raises(ValueError):
        MabConfig(elite_fraction=0.1, batch_size=5, runs=50)  # elite_size 0
    with pytest.raises(ValueError):
        MabConfig(alpha=1.5)
    with pytest.raises(ValueError):
        MabConfig(t=0)
    with pytest.raises(ValueError):
        MabConfig(rho=-0.1)
    # written as `not x >= 0`, so NaN fails too
    with pytest.raises(ValueError, match="rho must be >= 0, got nan"):
        MabConfig(rho=float("nan"))
    with pytest.raises(ValueError, match="gamma must be >= 0, got nan"):
        MabConfig(gamma=float("nan"))
    with pytest.raises(ValueError, match="gamma must be finite, got inf"):
        MabConfig(gamma=math.inf)
    cfg = MabConfig(runs=1030, batch_size=100, elite_fraction=0.1)
    assert cfg.n_batches == 10 and cfg.elite_size == 10


def test_single_action_space():
    spec = GridSpec(1, 1.0)
    space = generate_discretized(spec)
    assert len(space) == 1
    cfg = NetworkConfig(1, 1, 1)
    mcfg = MabConfig(gamma=0.0, rho=0.0, t=5, runs=40, batch_size=10,
                     elite_fraction=0.2, alpha=0.3, seed=1)
    res = run(space, cfg, mcfg, throughput_fn=exact_fn)
    assert res.best_index == 0
    assert res.p_as[0] == pytest.approx(1.0)
    assert res.q[0] == pytest.approx(np.mean(res.trace.reward))


def test_determinism_and_seed_sensitivity(small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.4, rho=0.1, t=40, runs=200, batch_size=40,
                     elite_fraction=0.1, alpha=0.2, seed=5)
    a = run(small_space, cfg, mcfg)
    b = run(small_space, cfg, mcfg)
    assert np.array_equal(a.trace, b.trace) and a.best_index == b.best_index
    assert np.array_equal(a.q, b.q)
    c = run(small_space, cfg, MabConfig(gamma=0.4, rho=0.1, t=40, runs=200,
                                        batch_size=40, elite_fraction=0.1,
                                        alpha=0.2, seed=6))
    assert not np.array_equal(c.trace, a.trace)


def test_p_as_stays_distribution_and_indices_in_range(small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.0, rho=0.0, t=20, runs=300, batch_size=30,
                     elite_fraction=0.1, alpha=0.2, seed=9)
    res = run(small_space, cfg, mcfg)
    assert np.all(res.p_as >= 0)
    assert res.p_as.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all((0 <= res.trace.action_index) & (res.trace.action_index < len(small_space)))
    assert res.v.sum() == mcfg.n_batches * mcfg.batch_size


def test_rho_zero_never_feasible_gives_zero_q(small_space):
    # gamma above any reachable mu_l_T: every reward is zero
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=2.0, rho=0.0, t=20, runs=120, batch_size=30,
                     elite_fraction=0.1, alpha=0.2, seed=2)
    res = run(small_space, cfg, mcfg)
    assert np.all(res.q == 0.0)
    assert res.best_index == 0


def test_leftover_pulls_dropped(small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.0, rho=0.0, t=10, runs=130, batch_size=50,
                     elite_fraction=0.1, alpha=0.2, seed=3)
    res = run(small_space, cfg, mcfg, throughput_fn=exact_fn)
    assert len(res.trace) == 100
    assert res.v.sum() == 100


def _three_action_space():
    """Tiny bandit problem: three actions whose exact rewards are fixed and
    separated by at least 0.1."""
    full = generate_discretized(GridSpec(2, 0.5))
    picks = (0, 4, 8)
    keys = list(full.index)
    chosen = tuple(full.actions[k] for k in picks)
    space = ActionSpace(
        actions=chosen,
        index={keys[k]: i for i, k in enumerate(picks)},
    )
    values = {chosen[0].pair: 0.9, chosen[1].pair: 0.5, chosen[2].pair: 0.1}

    def fn(cfg, pair, t, seed):
        return ThroughputPair(values[pair], 1.0)

    return space, fn


def test_concentration_on_three_action_space():
    # exact rewards separated by 0.1: within 20 batches p_as should put at
    # least 0.9 mass on the best action for at least 9 of 10 seeds
    space, fn = _three_action_space()
    cfg = NetworkConfig(1, 1, 2)
    assert scaling_reference(cfg) == pytest.approx(1.0)
    hits = 0
    for seed in range(10):
        mcfg = MabConfig(gamma=0.0, rho=0.0, t=1, runs=600, batch_size=30,
                         elite_fraction=0.1, alpha=0.2, seed=seed)
        res = run(space, cfg, mcfg, throughput_fn=fn)
        if res.best_index == 0 and res.p_as[0] >= 0.9:
            hits += 1
    assert hits >= 9


def test_concentration_on_grid_space_exact_rewards(small_space):
    # with exact rewards the bandit should find the grid optimum and
    # concentrate sampling mass on it
    cfg = NetworkConfig(2, 1, 3)
    mus = np.array(
        [throughput_closed_form(cfg, a.pair).mu_h for a in small_space.actions]
    )
    opt = mus.max()
    hits = 0
    for seed in range(10):
        mcfg = MabConfig(gamma=0.0, rho=0.0, t=1, runs=600, batch_size=30,
                         elite_fraction=0.1, alpha=0.2, seed=seed)
        res = run(small_space, cfg, mcfg, throughput_fn=exact_fn)
        ok = (
            mus[res.best_index] == pytest.approx(opt, abs=1e-12)
            and res.p_as[res.best_index] >= 0.9
        )
        hits += ok
    assert hits >= 9


def test_single_entry_schedule_equals_run(small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.4, rho=0.1, t=30, runs=200, batch_size=40,
                     elite_fraction=0.1, alpha=0.2, seed=3)
    a = run(small_space, cfg, mcfg)
    b = run_nonstationary(small_space, [(0, cfg)], mcfg)
    assert np.array_equal(a.trace, b.trace)
    assert a.best_index == b.best_index


def test_schedule_validation(small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(runs=100, batch_size=50)
    with pytest.raises(ValueError):
        run_nonstationary(small_space, [], mcfg)
    with pytest.raises(ValueError):
        run_nonstationary(small_space, [(5, cfg)], mcfg)
    with pytest.raises(ValueError):
        run_nonstationary(small_space, [(0, cfg), (50, cfg), (50, cfg)], mcfg)
    with pytest.raises(ValueError):
        run_nonstationary(small_space, [(0, NetworkConfig(2, 1, 4))], mcfg)


def test_nonstationary_prefix_matches_stationary_and_state_carries(small_space):
    cfg_a = NetworkConfig(2, 1, 3)
    cfg_b = NetworkConfig(1, 2, 3)
    mcfg_full = MabConfig(gamma=0.0, rho=0.0, t=1, runs=160, batch_size=40,
                          elite_fraction=0.1, alpha=0.2, seed=11)
    mcfg_half = MabConfig(gamma=0.0, rho=0.0, t=1, runs=80, batch_size=40,
                          elite_fraction=0.1, alpha=0.2, seed=11)
    full = run_nonstationary(
        small_space, [(0, cfg_a), (80, cfg_b)], mcfg_full, throughput_fn=exact_fn
    )
    half = run(small_space, cfg_a, mcfg_half, throughput_fn=exact_fn)
    # identical action stream and rewards before the switch
    assert np.array_equal(full.trace[:80], half.trace)
    # pull counts keep accumulating across the switch
    assert full.v.sum() == 160
    # post-switch rewards are computed under the new load and its own scale
    post = full.trace[80]
    pair = small_space.actions[post.action_index].pair
    mu = throughput_closed_form(cfg_b, pair)
    assert post.mu_h_t == pytest.approx(mu.mu_h)
    assert post.reward == pytest.approx(mu.mu_h / scaling_reference(cfg_b))


def test_unscaled_fallback_warns(small_space, caplog):
    # n_h = 0 has no defined reference allocation: rewards stay unscaled
    cfg = NetworkConfig(0, 2, 3)
    mcfg = MabConfig(gamma=0.0, rho=0.0, t=1, runs=40, batch_size=40,
                     elite_fraction=0.1, alpha=0.2, seed=0)
    with caplog.at_level("WARNING", logger="rachopt.mab"):
        res = run(small_space, cfg, mcfg, throughput_fn=exact_fn)
    assert any("unscaled" in rec.message for rec in caplog.records)
    rec = res.trace[0]
    assert rec.reward == pytest.approx(rec.mu_h_t)


def test_estimate_load_with_exact_rewards(compact_3x3):
    true_cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.0, rho=0.0, t=1, runs=600, batch_size=60,
                     elite_fraction=0.1, alpha=0.2, seed=11)
    res = run(compact_3x3, true_cfg, mcfg, throughput_fn=exact_fn)
    assert estimate_load(compact_3x3, res) == (2, 1)


def test_estimate_load_is_most_played_pooled_allocation(compact_3x3):
    # (2, 1) and (2, 2) hold the same allocation at gamma = 0, so their
    # pulls pool and the arm is labelled by its first cell
    assert compact_3x3.actions[7].pair == compact_3x3.actions[8].pair
    n = len(compact_3x3)
    res = MabResult(trace=_empty_trace(0), q=np.zeros(n), v=np.zeros(n, dtype=np.int64),
                    p_as=np.full(n, 1 / n), best_index=3, batch_size=1)
    res.v[[3, 7, 8]] = [5, 3, 3]
    res.q[3] = 1.0
    assert estimate_load(compact_3x3, res) == (2, 1)
    res.v[3] = 7
    assert estimate_load(compact_3x3, res) == (1, 0)


def test_estimate_load_rejects_discretized(small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(runs=40, batch_size=40, t=5)
    res = run(small_space, cfg, mcfg, throughput_fn=exact_fn)
    with pytest.raises(TypeError):
        estimate_load(small_space, res)


def test_mae_trace_replays_trace(compact_3x3):
    true_cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.0, rho=0.0, t=1, runs=600, batch_size=60,
                     elite_fraction=0.1, alpha=0.2, seed=11)
    res = run(compact_3x3, true_cfg, mcfg, throughput_fn=exact_fn)
    mae = mae_trace(compact_3x3, res, true_cfg)
    assert len(mae) == len(res.trace)
    # errors are half-integer by construction
    assert all(2 * v == int(round(2 * v)) for v in mae)
    # with exact rewards the estimate settles on the true cell
    assert mae[-1] == 0.0
    # final entry agrees with estimate_load on the full trace
    n_h, n_l = estimate_load(compact_3x3, res)
    assert 0.5 * (abs(n_h - 2) + abs(n_l - 1)) == mae[-1]
    # every entry agrees with a brute-force argmax over the pooled counts,
    # ties toward the lowest index, replayed pull by pull
    first: dict = {}
    arms = [first.setdefault(a.pair, i) for i, a in enumerate(compact_3x3.actions)]
    counts = np.zeros(len(arms))
    expected = []
    for i in res.trace.action_index:
        counts[arms[i]] += 1
        entry = compact_3x3.entries[int(np.argmax(counts))]
        expected.append(0.5 * (abs(entry.n_h - 2) + abs(entry.n_l - 1)))
    assert np.array_equal(mae, expected)


def test_mae_trace_rejects_discretized(small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(runs=40, batch_size=40, t=5)
    res = run(small_space, cfg, mcfg, throughput_fn=exact_fn)
    with pytest.raises(TypeError):
        mae_trace(small_space, res, cfg)


def test_trace_csv_round_trip(tmp_path, small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.4, rho=0.1, t=50, runs=120, batch_size=40,
                     elite_fraction=0.1, alpha=0.2, seed=3)
    res = run(small_space, cfg, mcfg)
    path = tmp_path / "trace.csv"
    save_mab_trace(res, path)
    text = path.read_text().splitlines()
    assert text[0] == "pull,action_index,mu_h_T,mu_l_T,reward"
    assert text.count("# batch 0") == 1 and "# batch 2" in text
    assert np.array_equal(load_mab_trace(path), res.trace)


def test_trace_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("pull,index\n0,1\n")
    with pytest.raises(ValueError):
        load_mab_trace(path)


_HEADER = "pull,action_index,mu_h_T,mu_l_T,reward\n"


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("0,1\n", "line 2: ['0', '1'] (2 fields, expected 5)"),
        ("# batch 0\n0,1,0.5,0.5,0.1\n\n1,x,0.5,0.5,0.1\n", "line 5: ['1', 'x',"),
        ("0,1,0.5,0.5,0.1,7\n", "line 2: ['0', '1', '0.5', '0.5', '0.1', '7'] (6 fields"),
    ],
    ids=["short", "non-numeric", "extra-field"],
)
def test_trace_rejects_bad_row_naming_line(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(_HEADER + body)
    with pytest.raises(ValueError, match="bad trace row") as err:
        load_mab_trace(path)
    assert fragment in str(err.value)


def test_trace_rewards_consistent_with_reward_fn(small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.4, rho=0.1, t=50, runs=80, batch_size=40,
                     elite_fraction=0.1, alpha=0.2, seed=8)
    res = run(small_space, cfg, mcfg)
    scale = scaling_reference(cfg)
    for rec in res.trace:
        expected = reward(rec.mu_h_t, rec.mu_l_t, mcfg.gamma, mcfg.rho, scale)
        assert rec.reward == expected


def test_q_means_match_trace(small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.0, rho=0.0, t=20, runs=300, batch_size=30,
                     elite_fraction=0.1, alpha=0.2, seed=17)
    res = run(small_space, cfg, mcfg)
    by_action: dict[int, list[float]] = {}
    for rec in res.trace:
        by_action.setdefault(rec.action_index, []).append(rec.reward)
    for idx, rewards in by_action.items():
        assert res.q[idx] == pytest.approx(np.mean(rewards), abs=1e-12)
    assert res.best_index == int(np.argmax(res.q))


def test_switch_does_not_lock_onto_stale_favourite():
    # Deterministic rewards: action 0 is the favourite under the first load
    # and earns nothing after the switch, where action 1 becomes best.  By
    # the switch the refit has left action 1 almost no sampling mass, so
    # only pulls drawn off the favourite set let it back into the elite.
    space, _ = _three_action_space()
    pairs = [a.pair for a in space.actions]
    # both loads have scaling reference 1, so rewards equal these values
    cfg_a, cfg_b = NetworkConfig(1, 1, 2), NetworkConfig(1, 2, 2)
    values = {
        cfg_a: dict(zip(pairs, (0.9, 0.5, 0.1))),
        cfg_b: dict(zip(pairs, (0.0, 1.0, 0.1))),
    }

    def fn(cfg, pair, t, seed):
        return ThroughputPair(values[cfg][pair], 1.0)

    for seed in range(5):
        mcfg = MabConfig(gamma=0.0, rho=0.0, t=1, runs=2400, batch_size=30,
                         elite_fraction=0.1, alpha=0.2, seed=seed)
        res = run_nonstationary(space, [(0, cfg_a), (1200, cfg_b)], mcfg,
                                throughput_fn=fn)
        last_batch = [rec.action_index for rec in res.trace[-30:]]
        assert res.p_as[1] >= 0.5, (seed, res.p_as)
        assert last_batch.count(1) > 15, (seed, last_batch)
        # state carried across the switch: counts and means are lifetime
        assert res.v.sum() == 2400
        stale = [rec.reward for rec in res.trace if rec.action_index == 0]
        assert res.q[0] == pytest.approx(np.mean(stale), abs=1e-12)


def test_uniform_share_steady_state_off_the_favourite():
    # once the favourite fills every elite, the mass off it settles where
    # x = (1 - s)(1 - alpha) x + s (1 - 1/size), s the uniform share
    space, fn = _three_action_space()
    cfg = NetworkConfig(1, 1, 2)
    s = UNIFORM_SHARE
    for alpha in (0.1, 0.2, 0.5):
        mcfg = MabConfig(gamma=0.0, rho=0.0, t=1, runs=6000, batch_size=30,
                         elite_fraction=0.1, alpha=alpha, seed=0)
        res = run(space, cfg, mcfg, throughput_fn=fn)
        off = 1.0 - res.p_as[0]
        expected = s * (1 - 1 / 3) / (1 - (1 - s) * (1 - alpha))
        assert off == pytest.approx(expected, abs=1e-9)


# ------------------------------------------------------- pull-sampler backends


def _space_of(*pairs):
    """An action space holding exactly the given pairs, in order."""
    actions = tuple(Action(pair) for pair in pairs)
    return ActionSpace(
        actions=actions,
        index={(p.p_h, p.p_l): i for i, p in enumerate(pairs)},
    )


def _law_of_total(marginal: np.ndarray, t: int) -> np.ndarray:
    """Law of the sum of ``t`` i.i.d. draws from a pmf on 0..len-1."""
    out = np.array([1.0])
    for _ in range(t):
        out = np.convolve(out, marginal)
    return out


def _chi2_critical(dof: int, z: float) -> float:
    """Upper chi-square quantile at normal quantile ``z`` (Wilson-Hilferty)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


def _chi2_statistic(observed: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom, with neighbouring cells
    pooled until every bin expects at least 5."""
    bins_o, bins_e = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            bins_o.append(acc_o)
            bins_e.append(acc_e)
            acc_o = acc_e = 0.0
    bins_o[-1] += acc_o
    bins_e[-1] += acc_e
    o, e = np.array(bins_o), np.array(bins_e)
    return float(((o - e) ** 2 / e).sum()), len(o) - 1


def test_default_sampler_and_slot_simulator_agree_in_distribution():
    # criterion 9 in miniature: on one-action spaces every pull hits the same
    # action, so the trace is an i.i.d. sample of that action's pull totals
    # under each backend; both must match the exact law
    grid = generate_discretized(GridSpec(4, 0.2), reduced=True)
    cfg = NetworkConfig(4, 5, 4)
    t, pulls = 20, 2000
    counts = np.arange(5)
    # actions where both classes sometimes succeed; 357 is the feasible
    # optimum criterion 7 aims at
    for k in (150, 357, 600, 700):
        pair = grid.actions[k].pair
        pmf = slot_success_pmf(cfg.n_h, cfg.n_l, [pair.p_h], [pair.p_l])[0]
        marg_h, marg_l = pmf.sum(axis=1), pmf.sum(axis=0)
        law_l = _law_of_total(marg_l, t)
        for fn in (None, sim_throughput):
            mcfg = MabConfig(gamma=0.0, rho=0.0, t=t, runs=pulls, batch_size=400,
                             elite_fraction=0.1, alpha=0.2, seed=k)
            res = run(_space_of(pair), cfg, mcfg, throughput_fn=fn)
            h_tot = np.array([round(r.mu_h_t * t) for r in res.trace])
            l_tot = np.array([round(r.mu_l_t * t) for r in res.trace])
            for tot, marg in ((h_tot, marg_h), (l_tot, marg_l)):
                mean = marg @ counts
                var = marg @ counts**2 - mean**2
                se = math.sqrt(t * var / pulls)
                assert abs(tot.mean() - t * mean) <= 3 * se + 1e-12, (k, fn)
            observed = np.bincount(l_tot, minlength=len(law_l))
            stat, dof = _chi2_statistic(observed, pulls * law_l)
            # alpha = 0.001
            assert stat <= _chi2_critical(dof, 3.0902), (k, fn, stat, dof)


def test_default_sampler_is_unbiased_per_pull(small_space):
    # every pull's totals are centred on its own action's exact means: the
    # summed deviations over a whole run stay within a few standard errors
    cfg = NetworkConfig(2, 2, 3)
    mcfg = MabConfig(gamma=0.3, rho=0.0, t=50, runs=3000, batch_size=100,
                     elite_fraction=0.1, alpha=0.2, seed=4)
    res = run(small_space, cfg, mcfg)
    p_h, p_l = small_space.allocations
    pmf = slot_success_pmf(cfg.n_h, cfg.n_l, p_h, p_l)
    counts = np.arange(4)
    pulled = np.array([rec.action_index for rec in res.trace])
    assert len(set(pulled.tolist())) > 10
    for axis, attr in ((2, "mu_h_t"), (1, "mu_l_t")):
        marg = pmf.sum(axis=axis)[pulled]
        mean = marg @ counts
        var = marg @ counts**2 - mean**2
        dev = sum(getattr(rec, attr) for rec in res.trace) - mean.sum()
        assert abs(dev) <= 4 * math.sqrt(var.sum() / mcfg.t), attr


def test_load_switch_inside_a_batch_uses_each_phases_table():
    # the high class owns RB 0 alone: one high device always succeeds there,
    # two always collide, so H_T is t before the switch and 0 after it; the
    # low pair shares RBs 1-2 and succeeds twice in half the slots either way
    space = _space_of(AccessProbabilityPair((1.0, 0.0, 0.0), (0.0, 0.5, 0.5)))
    cfg_a, cfg_b = NetworkConfig(1, 2, 3), NetworkConfig(2, 2, 3)
    switch = 130  # inside the third batch of 50
    for fn in (None, sim_throughput):
        mcfg = MabConfig(gamma=0.0, rho=0.0, t=10, runs=300, batch_size=50,
                         elite_fraction=0.1, alpha=0.2, seed=2)
        res = run_nonstationary(space, [(0, cfg_a), (switch, cfg_b)], mcfg,
                                throughput_fn=fn)
        assert [rec.mu_h_t for rec in res.trace] == [1.0] * switch + [0.0] * 170
        assert all(rec.mu_l_t * 10 % 2 == 0 for rec in res.trace)
        for rec in res.trace:
            cfg = cfg_a if rec.pull < switch else cfg_b
            assert rec.reward == rec.mu_h_t / scaling_reference(cfg)


# ------------------------------------------------------ per-space pull tables


def _count_pmf_builds(monkeypatch) -> list:
    """Record the load of every ``slot_success_pmf`` call the bandit makes."""
    calls = []

    def counting(n_h, n_l, p_h, p_l):
        calls.append((n_h, n_l))
        return slot_success_pmf(n_h, n_l, p_h, p_l)

    monkeypatch.setattr(mab, "slot_success_pmf", counting)
    return calls


def _fresh_space():
    return generate_discretized(GridSpec(3, 0.5), reduced=True)


def test_pull_tables_built_once_per_space_and_load(monkeypatch):
    calls = _count_pmf_builds(monkeypatch)
    space = _fresh_space()
    cfg = NetworkConfig(2, 1, 3)
    for seed in (0, 1):
        run(space, cfg, MabConfig(t=10, runs=80, batch_size=40, seed=seed))
    assert calls == [(2, 1)]
    calls.clear()
    cfg_b = NetworkConfig(1, 2, 3)
    schedule = [(0, cfg), (40, cfg_b), (80, cfg)]
    run_nonstationary(_fresh_space(), schedule, MabConfig(t=10, runs=120, batch_size=40))
    assert calls == [(2, 1), (1, 2)]


def test_pull_tables_not_shared_between_spaces(monkeypatch):
    calls = _count_pmf_builds(monkeypatch)
    cfg = NetworkConfig(2, 1, 3)
    a = _space_of(AccessProbabilityPair((1.0, 0.0, 0.0), (0.0, 0.5, 0.5)))
    b = _space_of(AccessProbabilityPair((0.0, 0.5, 0.5), (1.0, 0.0, 0.0)))
    for space in (a, b):
        run(space, cfg, MabConfig(t=10, runs=40, batch_size=40))
    assert calls == [(2, 1), (2, 1)]
    for space in (a, b):
        pmf = slot_success_pmf(2, 1, *space.allocations).reshape(1, -1)
        assert np.array_equal(space.pull_tables[(2, 1)], pmf / pmf.sum(axis=1, keepdims=True))
    assert not np.array_equal(a.pull_tables[(2, 1)], b.pull_tables[(2, 1)])


def test_warm_run_equals_cold_run():
    space = _fresh_space()
    schedule = [(0, NetworkConfig(2, 1, 3)), (100, NetworkConfig(1, 2, 3))]
    mcfg = MabConfig(gamma=0.4, rho=0.1, t=30, runs=200, batch_size=40, seed=4)
    cold = run_nonstationary(space, schedule, mcfg)
    assert set(space.pull_tables) == {(2, 1), (1, 2)}
    warm = run_nonstationary(space, schedule, mcfg)
    assert np.array_equal(cold.trace, warm.trace)
    for attr in ("q", "v", "p_as"):
        assert np.array_equal(getattr(cold, attr), getattr(warm, attr)), attr


def test_filled_pull_tables_leave_equality_and_repr():
    filled, empty = _fresh_space(), _fresh_space()
    before = repr(filled)
    run(filled, NetworkConfig(2, 1, 3), MabConfig(t=10, runs=40, batch_size=40))
    assert filled.pull_tables and not empty.pull_tables
    assert filled == empty
    assert repr(filled) == before == repr(empty)


# The exact bytes save_mab_trace writes for two small runs, including the
# ``\r\n`` row ends of csv.writer and the shortest-repr Python floats (a
# numpy scalar would print as ``np.float64(...)``).
DATA = Path(__file__).parent / "data"


def test_trace_csv_matches_golden_default_sampler(tmp_path, small_space):
    cfg = NetworkConfig(2, 1, 3)
    mcfg = MabConfig(gamma=0.4, rho=0.1, t=30, runs=80, batch_size=40,
                     elite_fraction=0.1, alpha=0.2, seed=1)
    path = tmp_path / "trace.csv"
    save_mab_trace(run(small_space, cfg, mcfg), path)
    assert path.read_bytes() == (DATA / "mab_trace_default.csv").read_bytes()


def test_trace_csv_matches_golden_hook_with_mid_batch_switch(tmp_path, small_space):
    cfg_a, cfg_b = NetworkConfig(2, 1, 3), NetworkConfig(1, 2, 3)
    mcfg = MabConfig(gamma=0.4, rho=0.1, t=20, runs=60, batch_size=20,
                     elite_fraction=0.1, alpha=0.2, seed=2)
    res = run_nonstationary(small_space, [(0, cfg_a), (30, cfg_b)], mcfg,
                            throughput_fn=sim_throughput)
    path = tmp_path / "trace.csv"
    save_mab_trace(res, path)
    assert path.read_bytes() == (DATA / "mab_trace_hook_switch.csv").read_bytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 10**6), _finite, _finite, _finite), min_size=1, max_size=30
    ),
    batch_size=st.integers(1, 7),
)
def test_trace_csv_round_trip_property(tmp_path_factory, rows, batch_size):
    trace = _empty_trace(len(rows))
    trace[:] = [(p, *row) for p, row in enumerate(rows)]
    res = MabResult(trace=trace, q=np.zeros(1), v=np.ones(1), p_as=np.ones(1),
                    best_index=0, batch_size=batch_size)
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    save_mab_trace(res, path)
    loaded = load_mab_trace(path)
    assert loaded.dtype.names == trace.dtype.names
    assert np.array_equal(loaded, trace)
    assert path.read_text().count("# batch") == -(-len(rows) // batch_size)
