"""Independent oracles for the benchmark's correctness gates.

Throughputs here come from enumerating every per-RB occupancy vector of
each class (stars and bars) with factorial multinomial weights.  That route
shares no code and no formula with rachopt's closed form, its pattern sum
or its simulator, so agreement with any of them is evidence, not an echo.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def compositions(total: int, parts: int) -> np.ndarray:
    """Every count vector of length ``parts`` summing to ``total``."""
    rows = []
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        rows.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    return np.array(rows, dtype=np.int64).reshape(-1, parts)


def _occupancy_weights(n: int, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Occupancy vectors of ``n`` devices over the RBs and, per row of
    ``probs`` (shape (k, m)), the probability of each vector, shape (c, k)."""
    counts = compositions(n, probs.shape[1])
    coef = np.array(
        [math.factorial(n) // math.prod(math.factorial(int(c)) for c in row) for row in counts],
        dtype=float,
    )
    weights = coef[:, None] * np.prod(probs[None, :, :] ** counts[:, None, :], axis=2)
    return counts, weights


def throughput_moments(p_h, p_l, n_h: int, n_l: int) -> np.ndarray:
    """Exact per-slot mean and variance of the high and low success counts
    for every row of the (k, m) allocation arrays, as rows
    (mu_h, mu_l, var_h, var_l) of a (4, k) array."""
    a = np.atleast_2d(np.asarray(p_h, dtype=float))
    b = np.atleast_2d(np.asarray(p_l, dtype=float))
    c_h, w_h = _occupancy_weights(n_h, a)
    c_l, w_l = _occupancy_weights(n_l, b)
    # successes of every (high occupancy, low occupancy) combination
    high = ((c_h[:, None, :] == 1) & (c_l[None, :, :] == 0)).sum(axis=2)
    low = ((c_l[None, :, :] == 1) & (c_h[:, None, :] == 0)).sum(axis=2)
    mu_h = np.einsum("ak,ab,bk->k", w_h, high, w_l)
    mu_l = np.einsum("ak,ab,bk->k", w_h, low, w_l)
    second_h = np.einsum("ak,ab,bk->k", w_h, high * high, w_l)
    second_l = np.einsum("ak,ab,bk->k", w_h, low * low, w_l)
    return np.stack([mu_h, mu_l, second_h - mu_h * mu_h, second_l - mu_l * mu_l])
