import math

import numpy as np
import pytest

from rachopt.model import PATTERN_CHARS, AccessProbabilityPair, NetworkConfig, check_gamma, pattern_bytes


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


def test_check_gamma_accepts_only_finite_floors():
    for gamma in (0.0, 0.4, 7):
        check_gamma(gamma)
    for gamma in (-0.1, float("nan"), -math.inf):
        with pytest.raises(ValueError, match=f"^gamma must be >= 0, got {gamma}$"):
            check_gamma(gamma)
    with pytest.raises(ValueError, match="^gamma must be finite, got inf$"):
        check_gamma(math.inf)


def test_pattern_bytes_follow_the_rb_rule():
    c_h, c_l = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    got = pattern_bytes(c_h, c_l)
    assert got.dtype == np.uint8 and got.shape == (6, 6)
    for h in range(6):
        for l in range(6):
            if h + l == 0:
                expected = "o"
            elif h + l >= 2:
                expected = "x"
            else:
                expected = "h" if h else "l"
            assert chr(got[h, l]) == expected, (h, l)
    assert set(got.tobytes().decode()) == set(PATTERN_CHARS)
    # lexicographic order of pattern strings is their byte order
    assert list(PATTERN_CHARS) == sorted(PATTERN_CHARS)
