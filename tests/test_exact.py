import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rachopt import exact
from rachopt.actionspace import GridSpec, exact_throughputs, generate_discretized
from rachopt.bench import published_pair
from rachopt.exact import (
    EnumerationCapExceeded,
    compositions,
    gradient_kernel,
    load_table,
    pattern_probabilities,
    scaling_reference,
    slot_success_pmf,
    stacked_terms,
    throughput_by_pattern_sum,
    throughput_closed_form,
    throughput_rows,
)
from rachopt.model import AccessProbabilityPair, NetworkConfig

from support import (
    brute_force_throughput,
    feasible_pattern_count,
    feasible_patterns,
    loop_pattern_probability,
    pattern_feasible,
    random_simplex,
    scaling_allocation,
    shaped_reward_oracle,
    stars_and_bars,
)


def pair_of(p_h, p_l):
    return AccessProbabilityPair(p_h, p_l)


# ---------------------------------------------------------------- closed form


def test_closed_form_disjoint_single_devices():
    cfg = NetworkConfig(1, 1, 2)
    mu = throughput_closed_form(cfg, pair_of([1.0, 0.0], [0.0, 1.0]))
    assert mu.mu_h == 1.0 and mu.mu_l == 1.0


def test_closed_form_reserved_rb_allocation():
    # 4 high devices split 1/4,1/4,1/2 while the low class sits on RB 3 alone
    cfg = NetworkConfig(4, 5, 3)
    mu = throughput_closed_form(cfg, pair_of([0.25, 0.25, 0.5], [0.0, 0.0, 1.0]))
    assert mu.mu_h == pytest.approx(0.84375, abs=1e-12)
    assert mu.mu_l == 0.0


def test_closed_form_wide_channel():
    cfg = NetworkConfig(4, 5, 6)
    pair = pair_of([0.2] * 5 + [0.0], [0.0] * 5 + [1.0])
    mu = throughput_closed_form(cfg, pair)
    assert mu.mu_h == pytest.approx(2.048, abs=1e-12)
    assert mu.mu_l == pytest.approx(5.0 * 1.0 * 0.0**4, abs=0)


def test_closed_form_uniform_small():
    cfg = NetworkConfig(2, 1, 3)
    mu = throughput_closed_form(cfg, AccessProbabilityPair.uniform(3))
    assert mu.mu_h == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert mu.mu_l == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_closed_form_empty_classes():
    cfg = NetworkConfig(0, 0, 3)
    mu = throughput_closed_form(cfg, AccessProbabilityPair.uniform(3))
    assert mu.mu_h == 0.0 and mu.mu_l == 0.0


def test_closed_form_zero_power_convention():
    # single RB, both devices forced onto it: guaranteed collision
    cfg = NetworkConfig(1, 1, 1)
    mu = throughput_closed_form(cfg, pair_of([1.0], [1.0]))
    assert mu.mu_h == 0.0 and mu.mu_l == 0.0
    # alone on the only RB, a single device always succeeds
    mu = throughput_closed_form(NetworkConfig(1, 0, 1), pair_of([1.0], [1.0]))
    assert mu.mu_h == 1.0


def test_closed_form_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        cfg = NetworkConfig(int(rng.integers(0, 7)), int(rng.integers(0, 7)), m)
        pair = pair_of(
            random_simplex(rng, m, sparse=bool(rng.integers(0, 2))),
            random_simplex(rng, m, sparse=bool(rng.integers(0, 2))),
        )
        mu = throughput_closed_form(cfg, pair)
        exp_h, exp_l = brute_force_throughput(cfg.n_h, cfg.n_l, pair.p_h, pair.p_l)
        assert mu.mu_h == pytest.approx(exp_h, rel=1e-10, abs=1e-12)
        assert mu.mu_l == pytest.approx(exp_l, rel=1e-10, abs=1e-12)


def test_closed_form_permutation_invariant_exactly():
    rng = np.random.default_rng(29)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        cfg = NetworkConfig(int(rng.integers(1, 8)), int(rng.integers(1, 8)), m)
        pair = pair_of(random_simplex(rng, m), random_simplex(rng, m))
        mu = throughput_closed_form(cfg, pair)
        perm = rng.permutation(m)
        shuffled = pair_of(
            tuple(pair.p_h[i] for i in perm), tuple(pair.p_l[i] for i in perm)
        )
        mu2 = throughput_closed_form(cfg, shuffled)
        assert mu2.mu_h == mu.mu_h and mu2.mu_l == mu.mu_l


def test_closed_form_bounds():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(1, 6))
        cfg = NetworkConfig(int(rng.integers(0, 9)), int(rng.integers(0, 9)), m)
        pair = pair_of(random_simplex(rng, m), random_simplex(rng, m))
        mu = throughput_closed_form(cfg, pair)
        assert 0.0 <= mu.mu_h <= min(cfg.n_h, m) + 1e-12
        assert 0.0 <= mu.mu_l <= min(cfg.n_l, m) + 1e-12
        assert mu.mu_h + mu.mu_l <= m + 1e-12


def test_closed_form_rejects_length_mismatch():
    with pytest.raises(ValueError):
        throughput_closed_form(NetworkConfig(1, 1, 3), AccessProbabilityPair.uniform(2))
    with pytest.raises(ValueError, match="pair has m=2, config has m=3"):
        pattern_probabilities(NetworkConfig(1, 1, 3), AccessProbabilityPair.uniform(2))


def terms(n_h, n_l, a, b, grad=False):
    """:func:`stacked_terms` of ``a`` and ``b`` under one load, or one per
    row of the axis after the class axis (tuples of ints); with ``grad``,
    the terms and gradients that :func:`gradient_kernel` writes."""
    x = np.array([a, b])
    table = load_table(n_h, n_l, x.ndim)
    if not grad:
        return stacked_terms(x, table)
    out = np.empty((3,) + x.shape)
    gradient_kernel(x, table, out)()
    return out


def test_throughput_terms_per_row_loads_match_scalar_calls():
    # every (n_h, n_l) in {0..3}^2 as one row of a (loads, starts, m) batch,
    # with random rows and the 0/1 corners where the powers hit 0 ** 0
    loads = [(n_h, n_l) for n_h in range(4) for n_l in range(4)]
    rng = np.random.default_rng(7)
    a = rng.dirichlet(np.ones(3), size=(len(loads), 40))
    b = rng.dirichlet(np.ones(3), size=(len(loads), 40))
    a[:, :3], b[:, :3] = CORNER_OWN, CORNER_OTHER
    n_h = tuple(n for n, _ in loads)
    n_l = tuple(n for _, n in loads)
    batch = terms(n_h, n_l, a, b, grad=True)
    for i, (h, l) in enumerate(loads):
        single = terms(h, l, a[i], b[i], grad=True)
        assert np.array_equal(batch[:, :, i], single), (h, l)
    # loads against the leading axis of a 2-D batch, values only
    flat = terms(n_h, n_l, a[:, 0], b[:, 0])
    for i, (h, l) in enumerate(loads):
        assert np.array_equal(flat[:, i], terms(h, l, a[i, 0], b[i, 0])), (h, l)


def test_one_score_per_allocation():
    # the grid table and the scalar route are one fsum over the same terms,
    # so they agree bit for bit, zero loads included, and so does every
    # joint relabeling of the RBs
    loads = ((4, 5), (0, 3), (2, 0), (0, 0), (7, 9), (0, 2), (3, 0))
    for m in (2, 3, 4, 5):
        space = generate_discretized(GridSpec(m, 0.2), reduced=True)
        tables = []
        for n_h, n_l in loads:
            cfg = NetworkConfig(n_h, n_l, m)
            table = exact_throughputs(space, cfg)
            mus = [throughput_closed_form(cfg, a.pair) for a in space.actions]
            want = np.array([(mu.mu_h, mu.mu_l) for mu in mus])
            assert table.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (m, n_h, n_l)
            tables.append(table.T.view(np.uint64))
        for perm in itertools.permutations(range(m)):
            relabeled = space.allocations[..., perm]
            for (n_h, n_l), table in zip(loads, tables):
                got = throughput_rows(relabeled, n_h, n_l).view(np.uint64)
                assert np.array_equal(got, table), (m, n_h, n_l, perm)


def test_gradient_kernel_rejects_an_out_it_would_copy():
    x = np.array([[[0.2, 0.8]], [[0.5, 0.5]]])
    out = np.empty((2, 3, 1, 2)).transpose(1, 0, 2, 3)  # axes 0 and 1 do not merge
    with pytest.raises(ValueError, match="first two axes"):
        gradient_kernel(x, load_table(2, 1, x.ndim), out)


# ---------------------------------------------------------- pattern machinery


# Rows with exact 0.0 and 1.0 entries, where the powers of (1 - p) hit 0 ** 0.
CORNER_OWN = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5]])
CORNER_OTHER = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("high", [True, False])
@pytest.mark.parametrize("n_other", [0, 1])
@pytest.mark.parametrize("n_own", [0, 1, 2])
def test_throughput_terms_corners(n_own, n_other, high):
    own, other = CORNER_OWN, CORNER_OTHER
    # the own class's terms, and its gradient stacked like x
    if high:
        t = terms(n_own, n_other, own, other, grad=True)
        t_own, (d_own, d_other) = t[0, 0], t[1]
    else:
        t = terms(n_other, n_own, other, own, grad=True)
        t_own, (d_other, d_own) = t[0, 1], t[2]
    for arr in (t_own, d_own, d_other):
        assert arr.shape == own.shape and np.isfinite(arr).all()
    clear = (1.0 - other) ** n_other
    if n_own == 0:
        assert not t_own.any() and not d_own.any() and not d_other.any()
    elif n_own == 1:
        assert np.array_equal(t_own, own * clear)
        assert np.array_equal(d_own, clear)
        assert np.array_equal(d_other, -n_other * own)
    else:
        np.testing.assert_allclose(t_own, 2 * own * (1 - own) * clear, atol=1e-15)
        np.testing.assert_allclose(d_own, 2 * (1 - 2 * own) * clear, atol=1e-15)
        np.testing.assert_allclose(d_other, -2 * n_other * own * (1 - own), atol=1e-15)


def test_compositions_order_and_count():
    assert compositions(2, 2).tolist() == [[0, 2], [1, 1], [2, 0]]
    assert compositions(5, 3).shape == (math.comb(7, 2), 3)
    assert compositions(0, 0).tolist() == [[]]
    assert compositions(3, 0).shape == (0, 0)
    assert compositions(3, 1).tolist() == [[3]]
    # one part holds any total, past int64 too, as an exact Python int
    assert compositions(10**20, 1).tolist() == [[10**20]]
    for total, parts in ((0, 4), (1, 32), (6, 4), (9, 5), (40, 3)):
        got = compositions(total, parts)
        assert got.dtype == np.int64
        assert [tuple(u) for u in got.tolist()] == sorted(stars_and_bars(total, parts))


# Under the uniform pair every occupancy has positive probability, so the
# pattern table lists every feasible pattern.


def uniform_patterns(n_h: int, n_l: int, m: int) -> tuple[str, ...]:
    uniform = AccessProbabilityPair.uniform(m)
    return tuple(pattern_probabilities(NetworkConfig(n_h, n_l, m), uniform))


def test_enumerate_patterns_single_pair_of_devices():
    assert uniform_patterns(1, 1, 2) == ("hl", "lh", "ox", "xo")


def test_enumerate_patterns_empty_network():
    assert uniform_patterns(0, 0, 3) == ("ooo",)


def test_enumerate_patterns_two_high_devices():
    assert uniform_patterns(2, 0, 2) == ("hh", "ox", "xo")


def test_enumerate_patterns_matches_string_oracle():
    for n_h, n_l, m in [(2, 1, 2), (1, 2, 3), (3, 3, 3), (4, 5, 3), (0, 2, 2), (2, 3, 5)]:
        assert uniform_patterns(n_h, n_l, m) == feasible_patterns(n_h, n_l, m)


def test_feasible_pattern_count_matches_string_walk():
    for n_h, n_l, m in [(1, 1, 2), (0, 0, 3), (2, 0, 4), (4, 5, 3), (1, 1, 6), (2, 1, 6)]:
        assert feasible_pattern_count(n_h, n_l, m) == len(feasible_patterns(n_h, n_l, m))


def test_pattern_probability_examples():
    # a lone high device on a single RB always succeeds
    assert pattern_probabilities(NetworkConfig(1, 0, 1), pair_of([1.0], [1.0])) == {"h": 1.0}

    cfg = NetworkConfig(1, 1, 2)
    uni = AccessProbabilityPair.uniform(2)
    assert pattern_probabilities(cfg, uni).get("hl", 0.0) == pytest.approx(0.25, abs=1e-15)

    cfg = NetworkConfig(2, 0, 2)
    table = pattern_probabilities(cfg, uni)
    assert table.get("hh", 0.0) == pytest.approx(0.5, abs=1e-15)
    assert table.get("xo", 0.0) == pytest.approx(0.25, abs=1e-15)
    # infeasible patterns carry zero probability
    assert table.get("ho", 0.0) == 0.0


def test_pattern_probabilities_normalize():
    rng = np.random.default_rng(41)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        cfg = NetworkConfig(int(rng.integers(0, 6)), int(rng.integers(0, 6)), m)
        pair = pair_of(
            random_simplex(rng, m, sparse=bool(rng.integers(0, 2))),
            random_simplex(rng, m),
        )
        total = math.fsum(pattern_probabilities(cfg, pair).values())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pattern_sum_route_agrees_with_closed_form():
    rng = np.random.default_rng(43)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        cfg = NetworkConfig(int(rng.integers(0, 7)), int(rng.integers(0, 7)), m)
        pair = pair_of(
            random_simplex(rng, m, sparse=bool(rng.integers(0, 2))),
            random_simplex(rng, m, sparse=bool(rng.integers(0, 2))),
        )
        direct = throughput_closed_form(cfg, pair)
        summed = throughput_by_pattern_sum(cfg, pair)
        assert summed.mu_h == pytest.approx(direct.mu_h, rel=1e-10, abs=1e-12)
        assert summed.mu_l == pytest.approx(direct.mu_l, rel=1e-10, abs=1e-12)


def test_pattern_sum_at_reserved_allocation():
    cfg = NetworkConfig(4, 5, 3)
    mu = throughput_by_pattern_sum(cfg, pair_of([0.25, 0.25, 0.5], [0.0, 0.0, 1.0]))
    assert mu.mu_h == pytest.approx(0.84375, abs=1e-12)
    assert mu.mu_l == 0.0


def test_pattern_sum_enumeration_cap():
    cfg = NetworkConfig(80, 80, 3)  # C(82, 2)^2 = 11.0M occupancy pairs
    with pytest.raises(EnumerationCapExceeded, match="11029041 occupancy pairs"):
        throughput_by_pattern_sum(cfg, AccessProbabilityPair.uniform(3))
    big = NetworkConfig(50, 50, 10)
    with pytest.raises(EnumerationCapExceeded):
        throughput_by_pattern_sum(big, AccessProbabilityPair.uniform(10))


def test_pattern_probabilities_match_loop_reference():
    rng = np.random.default_rng(45)
    cases = []
    for _ in range(50):
        m = int(rng.integers(1, 5))
        cfg = NetworkConfig(int(rng.integers(0, 7)), int(rng.integers(0, 7)), m)
        sparse = rng.integers(0, 2, size=2).astype(bool)
        cases.append((cfg, pair_of(random_simplex(rng, m, sparse[0]), random_simplex(rng, m, sparse[1]))))
    cases += [
        (NetworkConfig(0, 0, 3), AccessProbabilityPair.uniform(3)),
        (NetworkConfig(3, 2, 4), pair_of([0.0, 0.5, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0])),
        (NetworkConfig(2, 3, 3), pair_of([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])),
        (NetworkConfig(22, 1, 2), pair_of([0.3, 0.7], [0.5, 0.5])),
    ]
    # 7 to 20 devices in one class or both, weighed in log space as past 20
    for _ in range(16):
        m = int(rng.integers(2, 4))
        n_h, n_l = (int(n) for n in rng.integers(7, 21, size=2))
        if rng.integers(0, 2):
            n_l %= 7
        sparse = bool(rng.integers(0, 2))
        cases.append((NetworkConfig(n_h, n_l, m),
                      pair_of(random_simplex(rng, m, sparse), random_simplex(rng, m))))
    for cfg, pair in cases:
        got = pattern_probabilities(cfg, pair)
        assert list(got) == sorted(got), cfg
        for pat, prob in got.items():
            assert pattern_feasible(cfg.n_h, cfg.n_l, pat), (cfg, pat)
            assert abs(prob - loop_pattern_probability(cfg, pair, pat)) <= 1e-15, (cfg, pair, pat)
        # a feasible pattern the table leaves out is one no occupancy reaches
        for pat in set(feasible_patterns(cfg.n_h, cfg.n_l, cfg.m)) - set(got):
            assert loop_pattern_probability(cfg, pair, pat) == 0.0, (cfg, pair, pat)


def test_pattern_sum_with_more_than_twenty_devices():
    # n > 20 in one class or both, where n! passes 2**63
    rng = np.random.default_rng(46)
    for cfg in (NetworkConfig(25, 3, 2), NetworkConfig(3, 24, 3), NetworkConfig(21, 22, 3)):
        for sparse in (False, True):
            pair = pair_of(random_simplex(rng, cfg.m, sparse), random_simplex(rng, cfg.m))
            direct = throughput_closed_form(cfg, pair)
            summed = throughput_by_pattern_sum(cfg, pair)
            assert abs(summed.mu_h - direct.mu_h) <= 1e-12
            assert abs(summed.mu_l - direct.mu_l) <= 1e-12
            assert math.fsum(pattern_probabilities(cfg, pair).values()) == pytest.approx(1.0, abs=1e-12)
    # 2000 devices, nearly all on one RB: the weight sits on a few devices on
    # the other two, where log-gamma terms of 1e4 would cost 1e-12
    skewed = pair_of([0.0005, 0.0005, 0.999], [0.0005, 0.0005, 0.999])
    for cfg in (NetworkConfig(2000, 0, 3), NetworkConfig(0, 2000, 3)):
        direct = throughput_closed_form(cfg, skewed)
        summed = throughput_by_pattern_sum(cfg, skewed)
        assert abs(summed.mu_h - direct.mu_h) <= 1e-12
        assert abs(summed.mu_l - direct.mu_l) <= 1e-12


def test_pattern_sum_zero_probabilities_are_exact_and_quiet():
    # zero access probabilities at n <= 20 and past it: no RuntimeWarning
    # (log(0), 0 * inf), and the patterns they rule out get exactly 0
    cases = [
        (NetworkConfig(4, 5, 3), pair_of([0.5, 0.5, 0.0], [0.0, 0.0, 1.0])),
        (NetworkConfig(25, 22, 3), pair_of([0.5, 0.5, 0.0], [0.0, 0.0, 1.0])),
        (NetworkConfig(21, 2, 3), pair_of([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg, pair in cases:
            for pat, prob in pattern_probabilities(cfg, pair).items():
                reachable = all(
                    (c != "h" or pair.p_h[i] > 0) and (c != "l" or pair.p_l[i] > 0)
                    for i, c in enumerate(pat)
                )
                if not reachable:
                    assert prob == 0.0, pat
            direct = throughput_closed_form(cfg, pair)
            summed = throughput_by_pattern_sum(cfg, pair)
            assert abs(summed.mu_h - direct.mu_h) <= 1e-12
            assert abs(summed.mu_l - direct.mu_l) <= 1e-12
    # every device of both classes on the last RB: one collision pattern
    probs = pattern_probabilities(cases[1][0], pair_of([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]))
    assert [pat for pat, prob in probs.items() if prob] == ["oox"] and probs["oox"] == 1.0


def peak_bytes(call):
    """``call()`` and the peak of the memory it allocated while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pattern_table_working_memory_is_bounded():
    # 861 occupancy vectors per class, 741321 pairs; all at once they would
    # take tens of MB, so the bound shows that the pairs go in chunks
    cfg = NetworkConfig(40, 40, 3)
    pair = AccessProbabilityPair.uniform(3)
    pattern_probabilities(cfg, pair)  # fill the occupancy cache
    summed, peak = peak_bytes(lambda: throughput_by_pattern_sum(cfg, pair))
    assert peak < 8e6, peak
    direct = throughput_closed_form(cfg, pair)
    assert abs(summed.mu_h - direct.mu_h) <= 1e-12 and abs(summed.mu_l - direct.mu_l) <= 1e-12
    # one-sided loads of 721801 pairs, measured cold: one class has all the
    # occupancy vectors, so the cache fill is where the memory goes
    for cfg in (NetworkConfig(0, 1200, 3), NetworkConfig(1200, 0, 3)):
        exact._occupancies.cache_clear()
        summed, peak = peak_bytes(lambda: throughput_by_pattern_sum(cfg, pair))
        assert peak < 120e6, (cfg, peak)
        direct = throughput_closed_form(cfg, pair)
        assert abs(summed.mu_h - direct.mu_h) <= 1e-12 and abs(summed.mu_l - direct.mu_l) <= 1e-12
    # one-sided loads of 2003001 occupancy vectors, measured warm: the low
    # rows go in chunks as the high rows do, rows that all have positive
    # probability are the cached ones, not a copy, and the log weights take
    # the cached rows in chunks; a zero entry blocks rows whose multinomial
    # coefficient alone overflows exp, and keeps 1437 rows.  Uniform keeps
    # 1475883, and their copy is most of its bound.
    zero = AccessProbabilityPair([0.3, 0.0, 0.7], [0.0, 0.3, 0.7])
    for cfg in (NetworkConfig(0, 2000, 3), NetworkConfig(2000, 0, 3)):
        for load_pair, bound in ((pair, 65e6), (zero, 24e6)):
            pattern_probabilities(cfg, load_pair)  # fill the occupancy cache
            summed, peak = peak_bytes(lambda: throughput_by_pattern_sum(cfg, load_pair))
            assert peak < bound, (cfg, load_pair, peak)
            direct = throughput_closed_form(cfg, load_pair)
            assert abs(summed.mu_h - direct.mu_h) <= 1e-12
            assert abs(summed.mu_l - direct.mu_l) <= 1e-12


def test_pattern_sum_at_large_m_with_few_devices():
    # few occupancy pairs over many RBs: the work follows the pairs, not 4^m;
    # m = 40 is past where a base-4 int64 pattern code would wrap
    rng = np.random.default_rng(47)
    for cfg in (NetworkConfig(1, 1, 10), NetworkConfig(2, 1, 12), NetworkConfig(1, 1, 40)):
        uniform = AccessProbabilityPair.uniform(cfg.m)
        # distinct feasible keys, as many as there are feasible patterns
        table = pattern_probabilities(cfg, uniform)
        assert all(pattern_feasible(cfg.n_h, cfg.n_l, pat) for pat in table)
        assert len(table) == feasible_pattern_count(cfg.n_h, cfg.n_l, cfg.m)
        randoms = [pair_of(random_simplex(rng, cfg.m, sparse), random_simplex(rng, cfg.m))
                   for sparse in (False, True)]
        for pair in (uniform, *randoms):
            direct = throughput_closed_form(cfg, pair)
            summed = throughput_by_pattern_sum(cfg, pair)
            assert abs(summed.mu_h - direct.mu_h) <= 1e-12
            assert abs(summed.mu_l - direct.mu_l) <= 1e-12


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_pattern_sum_matches_closed_form_on_published_pairs(gamma, m):
    cfg, pair = NetworkConfig(4, 5, m), published_pair(gamma, m)
    direct = throughput_closed_form(cfg, pair)
    summed = throughput_by_pattern_sum(cfg, pair)
    assert abs(summed.mu_h - direct.mu_h) <= 1e-12
    assert abs(summed.mu_l - direct.mu_l) <= 1e-12


# ------------------------------------------------------------ reward scaling


def test_scaling_reference_values():
    assert scaling_reference(NetworkConfig(4, 5, 5)) == pytest.approx(1.6875, abs=1e-12)
    assert scaling_reference(NetworkConfig(4, 5, 3)) == pytest.approx(0.5, abs=1e-12)
    assert scaling_reference(NetworkConfig(1, 3, 2)) == 1.0


def test_scaling_reference_errors():
    with pytest.raises(ValueError):
        scaling_reference(NetworkConfig(3, 0, 1))
    with pytest.raises(ValueError):
        scaling_reference(NetworkConfig(0, 5, 4))
    # m=2 leaves a single RB for the whole high class: reference degenerates
    with pytest.raises(ValueError):
        scaling_reference(NetworkConfig(2, 0, 2))


def test_scaling_reference_matches_allocation_throughput():
    for m in (2, 3, 4, 5, 6):
        for n_h in range(1, 8):
            if m == 2 and n_h >= 2:
                continue
            cfg = NetworkConfig(n_h, 5, m)
            mu = throughput_closed_form(cfg, scaling_allocation(m))
            assert scaling_reference(cfg) == pytest.approx(mu.mu_h, abs=1e-12)


def test_scaling_reference_is_grid_max_when_class_fits():
    # for n_h <= m-1 no grid allocation with the low class parked on the last
    # RB beats the uniform spread over the first m-1 RBs
    q = 12
    for m in (2, 3, 4):
        ref_pair = scaling_allocation(m)
        for n_h in range(1, m):
            cfg = NetworkConfig(n_h, 5, m)
            ref = scaling_reference(cfg)
            best = 0.0
            for comp in stars_and_bars(q, m):
                p_h = tuple(c / q for c in comp)
                mu = throughput_closed_form(cfg, pair_of(p_h, ref_pair.p_l))
                best = max(best, mu.mu_h)
            assert best == pytest.approx(ref, abs=1e-12)


# ------------------------------------------------------------ slot pmf tables


def _pattern_success_pmf(cfg: NetworkConfig, pair: AccessProbabilityPair) -> np.ndarray:
    """Pattern probabilities summed by (high, low) success counts."""
    out = np.zeros((cfg.m + 1, cfg.m + 1))
    for pattern, prob in pattern_probabilities(cfg, pair).items():
        out[pattern.count("h"), pattern.count("l")] += prob
    return out


def test_slot_pmf_means_match_closed_form():
    rng = np.random.default_rng(21)
    for m, n_h, n_l in [(2, 1, 1), (3, 2, 3), (4, 4, 5), (5, 4, 5), (5, 0, 3)]:
        p_h = [random_simplex(rng, m, sparse=k % 2 == 0) for k in range(12)]
        p_l = [random_simplex(rng, m, sparse=k % 3 == 0) for k in range(12)]
        pmf = slot_success_pmf(n_h, n_l, p_h, p_l)
        assert pmf.sum(axis=(1, 2)) == pytest.approx(np.ones(12), abs=1e-12)
        counts = np.arange(m + 1)
        for k in range(12):
            mu = throughput_closed_form(
                NetworkConfig(n_h, n_l, m), pair_of(p_h[k], p_l[k])
            )
            assert abs(pmf[k].sum(axis=1) @ counts - mu.mu_h) <= 1e-12
            assert abs(pmf[k].sum(axis=0) @ counts - mu.mu_l) <= 1e-12


def test_slot_pmf_matches_pattern_probabilities():
    rng = np.random.default_rng(22)
    for m, n_h, n_l in [(2, 1, 1), (2, 2, 1), (3, 2, 2), (3, 1, 3), (4, 2, 3)]:
        cfg = NetworkConfig(n_h, n_l, m)
        for _ in range(3):
            pair = pair_of(random_simplex(rng, m, sparse=True), random_simplex(rng, m))
            expected = _pattern_success_pmf(cfg, pair)
            pmf = slot_success_pmf(n_h, n_l, [pair.p_h], [pair.p_l])[0]
            assert np.abs(pmf - expected).max() <= 1e-12


def test_slot_pmf_means_match_exact_throughputs_on_whole_grid():
    # every action of the (M=4, d=0.2) grid the bandit benchmark runs on
    space = generate_discretized(GridSpec(4, 0.2), reduced=True)
    assert len(space) == 784
    cfg = NetworkConfig(4, 5, 4)
    p_h, p_l = space.allocations
    pmf = slot_success_pmf(cfg.n_h, cfg.n_l, p_h, p_l)
    assert pmf.shape == (784, 5, 5) and pmf.min() >= 0.0
    counts = np.arange(5)
    means = np.stack([pmf.sum(axis=2) @ counts, pmf.sum(axis=1) @ counts], axis=1)
    assert np.abs(means - exact_throughputs(space, cfg)).max() <= 1e-12


def _simplex(m: int):
    """Probability vectors with some exact zeros, drawn as integer weights."""
    return st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any).map(
        lambda w: tuple(x / sum(w) for x in w)
    )


@st.composite
def _pmf_cases(draw):
    m = draw(st.integers(1, 4))
    n_h, n_l = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return NetworkConfig(n_h, n_l, m), pair_of(draw(_simplex(m)), draw(_simplex(m)))


@settings(max_examples=60, deadline=None)
@given(_pmf_cases())
def test_slot_pmf_property_matches_patterns_and_closed_form(case):
    cfg, pair = case
    pmf = slot_success_pmf(cfg.n_h, cfg.n_l, [pair.p_h], [pair.p_l])[0]
    assert np.abs(pmf - _pattern_success_pmf(cfg, pair)).max() <= 1e-12
    counts = np.arange(cfg.m + 1)
    mu = throughput_closed_form(cfg, pair)
    assert abs(pmf.sum(axis=1) @ counts - mu.mu_h) <= 1e-12
    assert abs(pmf.sum(axis=0) @ counts - mu.mu_l) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_joint_rb_permutation_property(data):
    # relabelling the RBs, the same way for both classes, moves no success
    cfg, pair = data.draw(_pmf_cases())
    perm = data.draw(st.permutations(range(cfg.m)))
    shuffled = pair_of(tuple(pair.p_h[i] for i in perm), tuple(pair.p_l[i] for i in perm))
    mu, mu2 = throughput_closed_form(cfg, pair), throughput_closed_form(cfg, shuffled)
    assert abs(mu2.mu_h - mu.mu_h) <= 1e-15 and abs(mu2.mu_l - mu.mu_l) <= 1e-15
    pmf, pmf2 = (
        slot_success_pmf(cfg.n_h, cfg.n_l, [p.p_h], [p.p_l]) for p in (pair, shuffled)
    )
    assert np.abs(pmf2 - pmf).max() <= 1e-12


def test_slot_pmf_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        slot_success_pmf(1, 1, [[0.5, 0.5]], [[1.0, 0.0, 0.0]])


# ------------------------------------------------------ shaped-reward oracle


def test_shaped_reward_oracle_matches_slot_enumeration():
    # short pulls: enumerate every sequence of per-slot (h, l) outcomes
    import itertools

    rng = np.random.default_rng(23)
    m, n_h, n_l = 3, 2, 2
    p_h = [random_simplex(rng, m) for _ in range(4)]
    p_l = [random_simplex(rng, m) for _ in range(4)]
    pmf = slot_success_pmf(n_h, n_l, p_h, p_l)
    outcomes = [(h, l) for h in range(m + 1) for l in range(m + 1)]
    for t, gamma, rho, scale in [(1, 0.5, 0.0, 1.0), (2, 0.5, 0.1, 1.5), (3, 0.4, 0.0, 2.0)]:
        oracle = shaped_reward_oracle(n_h, n_l, p_h, p_l, t, gamma, rho, scale)
        reward = np.zeros(4)
        feasible = np.zeros(4)
        for seq in itertools.product(outcomes, repeat=t):
            weight = np.prod([pmf[:, h, l] for h, l in seq], axis=0)
            total_h = sum(h for h, _ in seq)
            ok = sum(l for _, l in seq) / t >= gamma
            reward += weight * total_h / t * (1.0 if ok else rho) / scale
            feasible += weight * ok
        assert np.abs(oracle["reward"] - reward).max() <= 1e-12
        assert np.abs(oracle["feasible"] - feasible).max() <= 1e-12


def test_shaped_reward_oracle_limits():
    # gamma = 0 makes every pull feasible: the reward is mu_h / scale
    rng = np.random.default_rng(24)
    p_h = [random_simplex(rng, 4) for _ in range(5)]
    p_l = [random_simplex(rng, 4) for _ in range(5)]
    free = shaped_reward_oracle(3, 4, p_h, p_l, 200, 0.0, 0.0, 2.0)
    assert free["feasible"] == pytest.approx(np.ones(5), abs=1e-12)
    assert np.abs(free["reward"] - free["mu_h"] / 2.0).max() <= 1e-12
    # a floor above the per-slot maximum is never met: only rho is paid
    never = shaped_reward_oracle(3, 4, p_h, p_l, 200, 5.0, 0.1, 2.0)
    assert np.abs(never["feasible"]).max() <= 1e-12
    assert np.abs(never["reward"] - 0.1 * never["mu_h"] / 2.0).max() <= 1e-12
