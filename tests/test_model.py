import numpy as np
import pytest

from rachopt.model import (
    AccessPattern,
    AccessProbabilityPair,
    NetworkConfig,
    SlotEvent,
    pattern_from_string,
    pattern_to_string,
)


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


def test_pattern_index_sets_partition_rbs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        pat = AccessPattern(list(SlotEvent)[k] for k in rng.integers(0, 4, size=m))
        merged = sorted(pat.high_rbs + pat.low_rbs + pat.empty_rbs + pat.collision_rbs)
        assert merged == list(range(m))


def test_serialization_roundtrip():
    for s in ("h", "hlox", "xxoo", "l"):
        assert pattern_to_string(pattern_from_string(s)) == s
    with pytest.raises(ValueError):
        pattern_from_string("hqz")
    pat = AccessPattern([SlotEvent.COLLISION, SlotEvent.EMPTY])
    assert pattern_to_string(pat) == "xo"
