import math
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rachopt.simulate as simulate_module
from rachopt.bench import published_pair
from rachopt.exact import (
    pattern_probabilities,
    throughput_closed_form,
)
from rachopt.model import (
    AccessProbabilityPair,
    NetworkConfig,
    ThroughputPair,
)
from rachopt.simulate import sim_throughput

from support import random_simplex, reference_event_codes, reference_sim_throughput, sim_codes


def block_slots(cfg: NetworkConfig) -> int:
    """Slots per simulator block at this load: a fixed budget of 32-bit
    uniforms, one per device per slot, rounded down to an even count."""
    return max(2, (simulate_module._BLOCK_WORDS // max(1, cfg.n)) & ~1)


# the block of the paper's loads, n = 9
BLOCK = block_slots(NetworkConfig(4, 5, 4))

# each class crowds onto its own RB, so that with hundreds of devices the two
# middle RBs' codes still vary from slot to slot; a pair spread over all four
# RBs makes every RB collide in nearly every slot, which hides the stream
CROWDED = AccessProbabilityPair((0.994, 0.002, 0.002, 0.002), (0.002, 0.002, 0.002, 0.994))


def patterns(cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int) -> tuple[str, ...]:
    """The simulator's slots as pattern strings."""
    return tuple(row.tobytes().decode("ascii") for row in sim_codes(cfg, pair, t, seed))


def test_package_name_simulate_is_the_module():
    import rachopt
    import rachopt.simulate as m

    assert isinstance(m, types.ModuleType)
    assert rachopt.simulate is m and m.__all__ == ["sim_throughput"]


def test_degenerate_single_device():
    cfg = NetworkConfig(1, 0, 3)
    pair = AccessProbabilityPair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert patterns(cfg, pair, 20, seed=1) == ("hoo",) * 20
    assert sim_throughput(cfg, pair, 20, seed=1) == ThroughputPair(1.0, 0.0)


def test_degenerate_forced_collision():
    cfg = NetworkConfig(2, 0, 1)
    pair = AccessProbabilityPair([1.0], [1.0])
    assert patterns(cfg, pair, 10, seed=2) == ("x",) * 10


def test_empty_network():
    cfg = NetworkConfig(0, 0, 2)
    assert patterns(cfg, AccessProbabilityPair.uniform(2), 5, seed=3) == ("oo",) * 5


def test_determinism_and_seed_sensitivity():
    cfg = NetworkConfig(4, 5, 4)
    pair = AccessProbabilityPair.uniform(4)
    a = patterns(cfg, pair, 200, seed=42)
    b = patterns(cfg, pair, 200, seed=42)
    assert a == b
    c = patterns(cfg, pair, 200, seed=43)
    assert a != c


def test_slot_substreams_give_prefix_property():
    # slot s reads halves [s * n, (s + 1) * n) of the stream, so shorter runs
    # are prefixes
    cfg = NetworkConfig(3, 2, 3)
    pair = AccessProbabilityPair([0.5, 0.25, 0.25], [0.1, 0.2, 0.7])
    short = patterns(cfg, pair, 60, seed=9)
    long = patterns(cfg, pair, 200, seed=9)
    assert long[:60] == short


def test_fast_path_matches_trace_path():
    cfg = NetworkConfig(4, 5, 5)
    pair = AccessProbabilityPair([0.2] * 5, [0.1, 0.1, 0.1, 0.1, 0.6])
    for seed in (0, 7, 123456789):
        codes = sim_codes(cfg, pair, 500, seed=seed)
        h, l = (int(np.count_nonzero(codes == ord(c))) for c in "hl")
        assert sim_throughput(cfg, pair, 500, seed) == ThroughputPair(h / 500, l / 500)


def test_zero_probability_rbs_never_chosen():
    cfg = NetworkConfig(3, 1, 3)
    pair = AccessProbabilityPair([0.5, 0.0, 0.5], [0.0, 1.0, 0.0])
    for p in patterns(cfg, pair, 300, seed=11):
        # RB 1 hosts only the low device; RBs 0 and 2 never see it
        assert p[1] in ("l", "o")
        assert p[0] in ("h", "o", "x")
        assert p[2] in ("h", "o", "x")
    # the single low device always transmits alone on RB 1
    assert sim_throughput(cfg, pair, 300, seed=11).mu_l == 1.0


def test_throughputs_are_multiples_of_inverse_t():
    cfg = NetworkConfig(4, 5, 4)
    mu = sim_throughput(cfg, AccessProbabilityPair.uniform(4), 997, seed=5)
    assert (mu.mu_h * 997) == pytest.approx(round(mu.mu_h * 997), abs=1e-9)
    assert (mu.mu_l * 997) == pytest.approx(round(mu.mu_l * 997), abs=1e-9)


def test_rejects_bad_inputs():
    cfg = NetworkConfig(1, 1, 2)
    with pytest.raises(ValueError):
        sim_throughput(cfg, AccessProbabilityPair.uniform(2), 0, seed=1)
    with pytest.raises(ValueError):
        sim_throughput(cfg, AccessProbabilityPair.uniform(3), 10, seed=1)
    for t, seed, name in ((10.0, 1, "t"), (10.5, 1, "t"), (10, 1.5, "seed"), (10, "3", "seed"),
                          (10, None, "seed")):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            sim_throughput(cfg, AccessProbabilityPair.uniform(2), t, seed)


def test_numpy_integer_seed_is_its_value():
    cfg, pair = NetworkConfig(2, 3, 3), AccessProbabilityPair.uniform(3)
    for seed in (np.int64(-3), np.uint64(2**64 - 1)):
        assert np.array_equal(sim_codes(cfg, pair, 50, seed), sim_codes(cfg, pair, 50, int(seed)))
        assert sim_throughput(cfg, pair, 50, seed) == sim_throughput(cfg, pair, 50, int(seed))


def test_long_run_matches_exact_reserved_allocation():
    # high class on 1/4 each, low class parked on the last RB
    cfg = NetworkConfig(4, 5, 4)
    pair = AccessProbabilityPair([0.25] * 4, [0.0, 0.0, 0.0, 1.0])
    exact = throughput_closed_form(cfg, pair)
    mu = sim_throughput(cfg, pair, 100_000, seed=2024)
    assert exact.mu_h == pytest.approx(1.265625, abs=1e-9)
    assert mu.mu_h == pytest.approx(exact.mu_h, abs=0.02)
    assert mu.mu_l == pytest.approx(exact.mu_l, abs=0.02)


def test_per_rb_event_frequencies_match_exact():
    cfg = NetworkConfig(4, 5, 4)
    pair = AccessProbabilityPair([0.25] * 4, [0.0, 0.0, 0.0, 1.0])
    t = 100_000
    codes = sim_codes(cfg, pair, t, seed=77)
    n_h, n_l = cfg.n_h, cfg.n_l
    for i in range(cfg.m):
        p_exact = (
            n_h
            * pair.p_h[i]
            * (1 - pair.p_h[i]) ** (n_h - 1)
            * (1 - pair.p_l[i]) ** n_l
        )
        freq = np.count_nonzero(codes[:, i] == ord("h")) / t
        se = math.sqrt(max(p_exact * (1 - p_exact), 1e-12) / t)
        assert abs(freq - p_exact) <= 3 * se + 1e-9


def test_slot_mean_within_standard_errors():
    # per-slot success-count variance from the exact pattern distribution
    cfg = NetworkConfig(4, 5, 3)
    pair = AccessProbabilityPair.uniform(3)
    exact = throughput_closed_form(cfg, pair)
    second = 0.0
    for pat, prob in pattern_probabilities(cfg, pair).items():
        second += pat.count("h") ** 2 * prob
    var = second - exact.mu_h**2
    t = 20_000
    hits = 0
    for seed in range(5):
        mu = sim_throughput(cfg, pair, t, seed=seed)
        if abs(mu.mu_h - exact.mu_h) <= 3 * math.sqrt(var / t):
            hits += 1
    assert hits >= 4


# loads with both classes, none at all, no high and no low devices
BLOCK_LOADS = [
    (NetworkConfig(4, 5, 4), AccessProbabilityPair([0.1, 0.2, 0.3, 0.4], [0.45, 0.0, 0.35, 0.2])),
    (NetworkConfig(0, 0, 3), AccessProbabilityPair.uniform(3)),
    (NetworkConfig(0, 6, 3), AccessProbabilityPair([1.0, 0.0, 0.0], [0.2, 0.3, 0.5])),
    (NetworkConfig(7, 0, 2), AccessProbabilityPair([0.6, 0.4], [1.0, 0.0])),
]


@pytest.mark.parametrize("seed", [0, 2**64 + 7, 2**128 + 5])
@pytest.mark.parametrize("t", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 100_000])
def test_block_driver_matches_one_shot_reference(t, seed):
    for cfg, pair in BLOCK_LOADS:
        mu = sim_throughput(cfg, pair, t, seed)
        assert (mu.mu_h, mu.mu_l) == reference_sim_throughput(cfg, pair, t, seed)
        codes = sim_codes(cfg, pair, t, seed)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, reference_event_codes(cfg, pair, t, seed))


@pytest.mark.parametrize("n_h,n_l", [(0, 0), (3, 3), (4, 5), (7, 6), (150, 151), (400, 200)])
def test_block_boundaries_follow_the_load(n_h, n_l):
    # each load's own slots per block, around one block and a few
    rng = np.random.default_rng(n_h * 1000 + n_l)
    cfg = NetworkConfig(n_h, n_l, 4)
    pair = CROWDED if cfg.n > 100 else AccessProbabilityPair(
        random_simplex(rng, 4), random_simplex(rng, 4, sparse=True)
    )
    slots = block_slots(cfg)
    for t in (slots - 1, slots, slots + 1, 3 * slots + 5):
        mu = sim_throughput(cfg, pair, t, 11)
        assert (mu.mu_h, mu.mu_l) == reference_sim_throughput(cfg, pair, t, 11)
        assert np.array_equal(sim_codes(cfg, pair, t, 11), reference_event_codes(cfg, pair, t, 11))


@pytest.mark.parametrize(
    "cfg,p",
    [
        (NetworkConfig(1, 0, 4), (0.1, 0.2, 0.3, 0.4)),
        (NetworkConfig(4, 5, 4), (0.1, 0.2, 0.3, 0.4)),
        (NetworkConfig(150, 150, 4), (0.994, 0.002, 0.002, 0.002)),
    ],
    ids=["n1", "n9", "n300"],
)
def test_codes_do_not_depend_on_the_block_size(monkeypatch, cfg, p):
    # slot s reads halves [s * n, (s + 1) * n) of one stream, however many
    # slots a block holds; at n = 300 each class crowds onto its own RB, so
    # that the two middle RBs' codes vary from slot to slot
    pair = AccessProbabilityPair(p, p[::-1])
    t = min(2 * block_slots(cfg) + 3, 1000)
    default, default_words, n = sim_codes(cfg, pair, t, 13), simulate_module._BLOCK_WORDS, cfg.n
    for words in (1, n - 1, n, n + 1, 7 * n + 3, default_words):
        monkeypatch.setattr(simulate_module, "_BLOCK_WORDS", words)
        assert t > block_slots(cfg) or words == default_words
        assert np.array_equal(sim_codes(cfg, pair, t, 13), default), words


def first_half(seed: int) -> int:
    """The first 32-bit half of the stream of ``seed``, the low half of its
    first word: device 0 of slot 0."""
    return int(np.random.PCG64(seed).random_raw()) & 0xFFFFFFFF


@pytest.mark.parametrize("seed", [5, 2**100 + 3])
def test_draw_on_a_level_picks_the_rb_above(seed):
    # a half w stands for the uniform (w + 1) * 2**-32, and a level below it
    # sends the device to the RB above: every level in [w, w + 1) * 2**-32
    # does, and a level at (w + 1) * 2**-32 does not (the floor mark's edges)
    w = first_half(seed)
    lo, hi = w * 2.0**-32, (w + 1) * 2.0**-32
    cfg = NetworkConfig(1, 0, 2)
    cases = ((lo, "oh"), (np.nextafter(lo, 0.0), "oh"), (np.nextafter(hi, 0.0), "oh"), (hi, "ho"))
    for level, first in cases:
        pair = AccessProbabilityPair([level, 1.0 - level], [0.5, 0.5])
        codes = sim_codes(cfg, pair, 500, seed)
        assert codes[0].tobytes() == first.encode(), level
        assert np.array_equal(codes, reference_event_codes(cfg, pair, 500, seed))
    # levels of exactly 0 and 1.0, a running sum that ends a little above
    # 1 and a draw on a level's mark, with both classes and several devices
    cases = [
        ([0.0, 0.5, 0.5], [0.5, 0.5, 0.0]),
        ([0.25, 0.75 + 4e-10, 0.0], [0.0, 1.0, 0.0]),
        ([lo, 1.0 - lo, 0.0], [0.0, lo, 1.0 - lo]),
        ([hi, 1.0 - hi, 0.0], [0.0, hi, 1.0 - hi]),
    ]
    for p_h, p_l in cases:
        pair = AccessProbabilityPair(p_h, p_l)
        for cfg in (NetworkConfig(1, 0, 3), NetworkConfig(3, 4, 3)):
            codes = sim_codes(cfg, pair, 2000, seed)
            assert np.array_equal(codes, reference_event_codes(cfg, pair, 2000, seed)), (p_h, p_l)
    codes = sim_codes(NetworkConfig(3, 4, 3), AccessProbabilityPair(*cases[0]), 2000, seed)
    # no high device on RB 0, no low device on RB 2, and both get used
    assert ord("h") not in codes[:, 0] and ord("l") not in codes[:, 2]
    assert ord("h") in codes[:, 2] and ord("l") in codes[:, 0]


def test_levels_at_or_above_one_are_never_reached():
    # odd n and odd t over several blocks, so the run ends on the low half of
    # a word; the high class's levels reach 1.0 two RBs early and the low
    # class's running sum ends 4e-10 above 1 one RB early, so no device may
    # ever land past them (a mark cast past 2**32 - 1 would wrap to 0 and send
    # every device there)
    cfg = NetworkConfig(4, 3, 4)
    t = 3 * block_slots(cfg) + 5
    assert cfg.n * t % 2 == 1
    pair = AccessProbabilityPair([0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.5 + 4e-10, 0.0])
    codes = sim_codes(cfg, pair, t, 21)
    assert np.array_equal(codes, reference_event_codes(cfg, pair, t, 21))
    assert np.all(codes[:, 3] == ord("o"))
    assert ord("h") not in codes[:, 2] and ord("l") in codes[:, 2]
    mu = sim_throughput(cfg, pair, t, 21)
    assert (mu.mu_h, mu.mu_l) == reference_sim_throughput(cfg, pair, t, 21)


def test_block_memory_does_not_grow_with_the_population():
    # 1000 devices: the 2000 slots as one block would hold 2 million uniforms
    # and peak near 18 MB; blocks of 73728 uniforms stay near 1.4 MB
    cfg = NetworkConfig(500, 500, 4)
    pair = CROWDED
    tracemalloc.start()
    try:
        mu = sim_throughput(cfg, pair, 2000, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak
    assert (mu.mu_h, mu.mu_l) == reference_sim_throughput(cfg, pair, 2000, 8)
    assert np.array_equal(sim_codes(cfg, pair, 2000, 8), reference_event_codes(cfg, pair, 2000, 8))


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 6),
    n_h=st.integers(0, 300),
    n_l=st.integers(0, 300),
    seed=st.integers(0, 2**130),
    draw=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
    data=st.data(),
)
def test_block_driver_matches_reference_property(m, n_h, n_l, seed, draw, sparse, data):
    # past 255 devices the per-RB counts no longer fit in one byte
    rng = np.random.default_rng(draw)
    cfg = NetworkConfig(n_h, n_l, m)
    t = data.draw(st.integers(1, 2 * block_slots(cfg) + 3), label="t")
    pair = AccessProbabilityPair(random_simplex(rng, m, sparse), random_simplex(rng, m, sparse))
    mu = sim_throughput(cfg, pair, t, seed)
    assert (mu.mu_h, mu.mu_l) == reference_sim_throughput(cfg, pair, t, seed)
    assert np.array_equal(sim_codes(cfg, pair, t, seed), reference_event_codes(cfg, pair, t, seed))


# (gamma, m, high successes, low successes) of the published pairs at
# t = 100000, seed 0, recorded from the one-shot PCG64 reference
CRITERION_9_SEED_0 = [
    (0.0, 3, 84574, 0),
    (0.0, 4, 126797, 0),
    (0.0, 5, 168716, 0),
    (0.0, 6, 204808, 0),
    (0.4, 3, 42979, 40122),
    (0.4, 4, 84782, 40119),
    (0.4, 5, 127646, 40193),
    (0.4, 6, 170105, 40158),
]


@pytest.mark.parametrize(
    "gamma,m,h,l", CRITERION_9_SEED_0, ids=[f"{g}-{m}" for g, m, _, _ in CRITERION_9_SEED_0]
)
def test_published_pairs_keep_recorded_successes(gamma, m, h, l):
    cfg = NetworkConfig(4, 5, m)
    pair = published_pair(gamma, m)
    t = 100_000
    assert sim_throughput(cfg, pair, t, 0) == ThroughputPair(h / t, l / t)
    assert reference_sim_throughput(cfg, pair, t, 0) == (h / t, l / t)


def test_simulator_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError(f"the simulator started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    pair = AccessProbabilityPair.uniform(4)
    # more than one block at the paper's loads, and as the population grows
    for cfg, t in ((NetworkConfig(4, 5, 4), 3 * BLOCK + 5), (NetworkConfig(250, 250, 4), 197)):
        assert t > block_slots(cfg)
        mu = sim_throughput(cfg, pair, t, 3)
        codes = sim_codes(cfg, pair, t, 3)
        assert (mu.mu_h, mu.mu_l) == reference_sim_throughput(cfg, pair, t, 3)
        assert np.array_equal(codes, reference_event_codes(cfg, pair, t, 3))
