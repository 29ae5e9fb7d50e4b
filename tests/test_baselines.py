import pytest

from rachopt.baselines import acb_admission, acb_throughput
from rachopt.exact import throughput_closed_form
from rachopt.model import AccessProbabilityPair, NetworkConfig

from support import brute_force_throughput

# Published reference throughputs for the barring baseline at load (4, 5).
REFERENCE_ACB = {
    3: (0.44, 0.89),
    4: (0.42, 1.27),
    5: (0.82, 1.23),
    6: (0.80, 1.60),
}


def test_admission_examples():
    assert acb_admission(NetworkConfig(4, 5, 3)) == NetworkConfig(1, 2, 3)
    assert acb_admission(NetworkConfig(4, 5, 4)) == NetworkConfig(1, 3, 4)
    assert acb_admission(NetworkConfig(4, 5, 5)) == NetworkConfig(2, 3, 5)
    assert acb_admission(NetworkConfig(4, 5, 6)) == NetworkConfig(2, 4, 6)
    # light load: no barring, the load itself
    light = NetworkConfig(2, 1, 5)
    assert acb_admission(light) is light
    assert acb_admission(NetworkConfig(0, 0, 3)) == NetworkConfig(0, 0, 3)


def test_admission_invariants():
    for n_h in range(0, 8):
        for n_l in range(0, 8):
            for m in range(1, 7):
                cfg = NetworkConfig(n_h, n_l, m)
                admitted = acb_admission(cfg)
                assert admitted.m == m
                assert 0 <= admitted.n_h <= n_h
                assert 0 <= admitted.n_l <= n_l
                assert admitted.n == min(cfg.n, m)


def test_acb_matches_reference_values():
    for m, (mu_h, mu_l) in REFERENCE_ACB.items():
        got = acb_throughput(NetworkConfig(4, 5, m))
        assert got.mu_h == pytest.approx(mu_h, abs=0.01)
        assert got.mu_l == pytest.approx(mu_l, abs=0.01)


def test_acb_exact_values_small():
    # admitted (1, 2) on 3 RBs: mu_h = (2/3)^2, mu_l = 2 (2/3)^2
    got = acb_throughput(NetworkConfig(4, 5, 3))
    assert got.mu_h == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert got.mu_l == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_acb_light_load_equals_plain_uniform():
    cfg = NetworkConfig(2, 1, 5)
    assert acb_throughput(cfg) == throughput_closed_form(cfg, AccessProbabilityPair.uniform(5))


def test_acb_against_brute_force():
    cfg = NetworkConfig(4, 5, 4)
    admitted = acb_admission(cfg)
    pair = AccessProbabilityPair.uniform(4)
    exp = brute_force_throughput(admitted.n_h, admitted.n_l, pair.p_h, pair.p_l)
    got = acb_throughput(cfg)
    assert got.mu_h == pytest.approx(exp[0], rel=1e-10)
    assert got.mu_l == pytest.approx(exp[1], rel=1e-10)
