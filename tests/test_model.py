import numpy as np
import pytest

from rachopt.model import (
    AccessPattern,
    AccessProbabilityPair,
    NetworkConfig,
    OccupancyPair,
    SlotEvent,
    canonical_rotation,
    count_successes,
    min_rotation_shift,
    pattern_from_string,
    pattern_of_occupancy,
    pattern_to_string,
)

from support import min_joint_rotation, random_simplex


def test_network_config_validation():
    cfg = NetworkConfig(4, 5, 3)
    assert cfg.n == 9
    with pytest.raises(ValueError):
        NetworkConfig(-1, 0, 3)
    with pytest.raises(ValueError):
        NetworkConfig(0, 0, 0)
    with pytest.raises(TypeError, match="n_h must be an integer, got 2.5"):
        NetworkConfig(2.5, 1, 3)
    with pytest.raises(TypeError, match="m must be an integer"):
        NetworkConfig(1, 1, 3.0)
    assert NetworkConfig(np.int64(2), 1, 3) == NetworkConfig(2, 1, 3)


def test_pair_validation_rejects_bad_sums():
    AccessProbabilityPair([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        AccessProbabilityPair([0.5, 0.5 + 3e-9], [1.0, 0.0])
    with pytest.raises(ValueError):
        AccessProbabilityPair([1.2, -0.2], [1.0, 0.0])
    with pytest.raises(ValueError):
        AccessProbabilityPair([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        AccessProbabilityPair([], [])


def test_uniform_pair():
    pair = AccessProbabilityPair.uniform(4)
    assert pair.p_h == pair.p_l == (0.25,) * 4


def test_pattern_of_occupancy_examples():
    occ = OccupancyPair((1, 0, 2), (0, 1, 1))
    assert pattern_to_string(pattern_of_occupancy(occ)) == "hlx"

    occ = OccupancyPair((0, 0), (0, 2))
    assert pattern_to_string(pattern_of_occupancy(occ)) == "ox"

    # one device of each class on the same RB collides
    occ = OccupancyPair((1,), (1,))
    assert pattern_to_string(pattern_of_occupancy(occ)) == "x"


def test_pattern_index_sets_partition_rbs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        c_h = rng.integers(0, 3, size=m)
        c_l = rng.integers(0, 3, size=m)
        pat = pattern_of_occupancy(OccupancyPair(c_h.tolist(), c_l.tolist()))
        merged = sorted(pat.high_rbs + pat.low_rbs + pat.empty_rbs + pat.collision_rbs)
        assert merged == list(range(m))


def test_count_successes():
    pat = pattern_from_string("hlxh")
    assert count_successes(pat) == (2, 1)
    assert count_successes(pattern_from_string("oooo")) == (0, 0)


def test_serialization_roundtrip():
    for s in ("h", "hlox", "xxoo", "l"):
        assert pattern_to_string(pattern_from_string(s)) == s
    with pytest.raises(ValueError):
        pattern_from_string("hqz")
    pat = AccessPattern([SlotEvent.COLLISION, SlotEvent.EMPTY])
    assert pattern_to_string(pat) == "xo"


def test_canonical_rotation_example():
    pair = AccessProbabilityPair([0.4, 0.3, 0.3], [0.5, 0.3, 0.2])
    canon = canonical_rotation(pair)
    assert canon.p_h == (0.3, 0.3, 0.4)
    assert canon.p_l == (0.3, 0.2, 0.5)


def test_canonical_rotation_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        pair = AccessProbabilityPair(
            random_simplex(rng, m, sparse=bool(rng.integers(0, 2))),
            random_simplex(rng, m, sparse=bool(rng.integers(0, 2))),
        )
        canon = canonical_rotation(pair)
        exp_h, exp_l = min_joint_rotation(pair.p_h, pair.p_l)
        assert canon.p_h == exp_h
        assert canon.p_l == exp_l


def test_canonical_rotation_idempotent_and_orbit_constant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        pair = AccessProbabilityPair(
            random_simplex(rng, m), random_simplex(rng, m)
        )
        canon = canonical_rotation(pair)
        assert canonical_rotation(canon) == canon
        # every joint rotation of the pair canonicalizes identically
        for s in range(m):
            rot = AccessProbabilityPair(
                tuple(pair.p_h[(i + s) % m] for i in range(m)),
                tuple(pair.p_l[(i + s) % m] for i in range(m)),
            )
            assert canonical_rotation(rot) == canon


def test_min_rotation_shift_tie_breaks_low():
    # fully symmetric vectors: every shift ties, smallest wins
    assert min_rotation_shift((0.5, 0.5), (0.5, 0.5)) == 0
    # period-2 vectors: shifts 0 and 2 tie at the minimum
    assert min_rotation_shift((1, 2, 1, 2), (3, 4, 3, 4)) == 0
    # here shifts 1 and 3 tie; 1 wins
    assert min_rotation_shift((2, 1, 2, 1), (4, 3, 4, 3)) == 1
