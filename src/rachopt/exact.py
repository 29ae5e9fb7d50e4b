"""Exact throughput computation for the two-priority random-access channel.

Two independent routes to the same quantity:

* :func:`gradient_kernel` -- the closed form: per-RB success probabilities
  of both classes, stacked in one (2, ..., m) array, with their gradients,
  written into fixed arrays, for any batch of allocations and a
  :func:`load_table`.  It is the one place the formula is written and the
  one way into it: :func:`stacked_terms` returns its terms row.  Their
  fsum over RBs, :func:`throughput_rows`, is the one scoring rule, so
  relabeled RBs score the same, and :func:`throughput_closed_form`, the
  grid tables and the solver's pick, its cases, agree bit for bit.
* :func:`throughput_by_pattern_sum` -- bin every pair of the two classes'
  occupancy vectors by the access pattern it produces (a string over
  :data:`~rachopt.model.PATTERN_CHARS`, one character per RB, by the rule
  of :func:`~rachopt.model.pattern_class` that the simulator also applies
  to its slots) and weight each pattern's success counts by its
  probability.  The patterns are those the pairs produce, so none is
  listed that no occupancy reaches.  It sums the joint law of all RBs and
  never forms a per-RB success probability, so it shares the model with
  the closed form but no formula.  Each class's occupancies are weighed in
  log space, one route for every population.  Its work is one step per
  occupancy pair, which ``ENUMERATION_CAP`` bounds; kept as a cross-check.

:func:`slot_success_pmf` goes one step further than the means: the exact
per-slot joint law of the high and low success counts, which the bandit
samples pull totals from.  It and the closed form build their integer
powers by multiplies alone, so their bits are the same on every CPU.

Both treat ``0 ** 0`` as 1 (an RB with zero access probability is simply
never chosen).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair, pattern_bytes

__all__ = [
    "ENUMERATION_CAP",
    "EnumerationCapExceeded",
    "compositions",
    "load_table",
    "stacked_terms",
    "gradient_kernel",
    "throughput_rows",
    "throughput_closed_form",
    "pattern_probabilities",
    "throughput_by_pattern_sum",
    "slot_success_pmf",
    "scaling_reference",
]

# Hard ceiling on occupancy-pair enumeration work for the pattern-sum route.
ENUMERATION_CAP = 10_000_000


class EnumerationCapExceeded(RuntimeError):
    """Pattern-sum enumeration would exceed ``ENUMERATION_CAP``."""


def compositions(total: int, parts: int) -> np.ndarray:
    """Every tuple of ``parts`` non-negative ints summing to ``total``, one
    row each in lexicographic order: shape (C(total + parts - 1, parts - 1),
    parts).  Built by splitting the last part in two, ``parts - 1`` times.
    The rows are int64, but one part holds any ``total``: past int64 numpy
    keeps it as an exact Python int (dtype object)."""
    if parts == 0:
        return np.zeros((int(total == 0), 0), dtype=np.int64)
    rows = np.array([[total]])
    for _ in range(parts - 1):
        # row r becomes last[r] + 1 rows, its last part split as (head, rest)
        last = rows[:, -1]
        reps = last + 1
        head = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([np.repeat(rows[:, :-1], reps, axis=0), head,
                                np.repeat(last, reps) - head])
    return rows


@functools.lru_cache(maxsize=256)
def load_table(n_h, n_l, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The load's constants in :func:`gradient_kernel` for an array of
    ``ndim`` axes: ``(bits, c)``, each with one more leading axis,
    read-only as the cache shares them.  ``n_h`` and ``n_l`` are ints or
    tuples of ints, one load per index of the axis after the class axis.

    ``bits`` holds the binary digits of ``max(n - 2, 0)``, lowest first, as
    many as the largest of them has, then the masks ``n >= 2`` and
    ``n >= 1``: the multiplies that build the powers of ``1 - x``.  ``c`` is
    ``n``, ``(-n) * n[::-1]``, ``n`` and ``n - 1``: the coefficients of the
    terms and the cross derivatives, then of the own derivatives."""
    n = np.array([n_h, n_l])
    n = n.reshape(n.shape + (1,) * (ndim - n.ndim))
    e = np.maximum(n - 2, 0)
    digits = [(e >> k) & 1 == 1 for k in range(int(e.max()).bit_length())]
    bits = np.stack([*digits, n >= 2, n >= 1])
    # integer products, so a zero load gives +0.0; float, so no ufunc casts
    c = np.stack([n, -n * n[::-1], n, n - 1]).astype(float)
    bits.flags.writeable = c.flags.writeable = False
    return bits, c


def stacked_terms(x: np.ndarray, table) -> np.ndarray:
    """The per-RB terms of (mu_h, mu_l) over a stacked ``x`` of shape
    (2, ..., m) under a :func:`load_table`: row 0 of what
    :func:`gradient_kernel` writes, shape (2, ..., m)."""
    out = np.empty((3,) + x.shape)
    gradient_kernel(x, table, out)()
    return out[0]


def gradient_kernel(x: np.ndarray, table, out: np.ndarray):
    """The per-RB terms of (mu_h, mu_l) over a stacked ``x`` of shape
    (2, ..., m), ``x[0]`` = p_h and ``x[1]`` = p_l, with their gradients,
    under a :func:`load_table`, bound to fixed arrays: a function of no
    arguments that rewrites ``out`` from what ``x`` holds when it is called.
    This is the one place the closed form is written.

    RB ``i`` carries a high success iff exactly one of the n_h devices picks
    it and no low-priority device does:
    ``n_h a_i (1-a_i)**(n_h-1) (1-b_i)**n_l``, and symmetrically for the low
    class, with ``a = p_h`` and ``b = p_l``.  Summing the terms over the
    last axis gives the slot expectations.  A table of per-row loads scores
    each row under its own load, bit for bit as a table of that load alone.
    The powers ``p[k]`` = ``(1 - x)**max(n - k, 0)`` are correctly rounded
    multiplies in a fixed order, the same bits on every CPU: ``p[2]`` by
    square-and-multiply, then ``p[1]`` and ``p[0]`` one factor more each.
    Exponents are floored at 0 so that n = 0 and n = 1 need no branches:
    wherever a floor takes effect, the power it touches has a zero
    coefficient, and no power is infinite at p = 1.

    ``out`` has shape (3,) + ``x.shape``: the terms, then the gradient of
    mu_h (d / d p_h, d / d p_l) and that of mu_l, so ``out[1]`` and
    ``out[2]`` are contiguous blocks stacked like ``x``; term ``i`` depends
    on RB ``i`` alone.  Its first two axes must merge without a copy, and it
    must not overlap ``x``.  The views and scratch arrays are made here,
    once, so a call is a few numpy calls over whole blocks: a caller
    scoring many iterates of one shape keeps the kernel and rewrites ``x``."""
    bits, c = table
    # an all-True mask goes in as True, which numpy runs as a plain multiply
    *digits, above_1, above_0 = (True if b.all() else b for b in bits)
    # the class-rows of out as (2, 3, ...): [:, :2] holds the terms, then the
    # cross derivatives (d mu_h / d p_l, d mu_l / d p_h); [:, 2] the own ones
    rows = out.reshape((2, 3) + x.shape[1:])
    if not np.may_share_memory(rows, out):
        raise ValueError("out must merge its first two axes without a copy")
    terms_cross, own = rows[:, :2], rows[:, 2]
    c_x, c_own = c[[0, 1, 3]], c[2]  # the coefficients that multiply x
    # a power stays 1 wherever its masked multiplies never write
    one, p, cx = np.empty(x.shape), np.ones((3,) + x.shape), np.empty((3,) + x.shape)
    p0, p1, p2 = p
    other = p[:2, ::-1]  # other[k] is p[k] of the other class
    other0 = other[0]
    cx_pair, cx_inner = cx[:2], cx[2]
    pair, single, single_b = np.empty((2,) + x.shape), np.empty(x.shape), np.empty(x.shape)

    def kernel() -> None:
        np.subtract(1.0, x, out=one)
        p2.fill(1.0)  # times one**(2**k) where digit k is set; squares in single
        for k, digit in enumerate(digits):
            base = np.multiply(base, base, out=single) if k else one
            np.multiply(p2, base, out=p2, where=digit)
        np.multiply(p2, one, out=p1, where=above_1)
        np.multiply(p1, one, out=p0, where=above_0)
        np.multiply(c_x, x, out=cx)
        # c[k] x p[1] other[k] for k = 0, 1: the terms and cross derivatives
        np.multiply(cx_pair, p1, out=pair)
        np.multiply(pair, other, out=terms_cross)
        # c[2] (p[1] - c[3] x p[2]) other[0]: the own derivatives
        np.multiply(cx_inner, p2, out=single)
        np.subtract(p1, single, out=single_b)
        np.multiply(c_own, single_b, out=single)
        np.multiply(single, other0, out=own)

    return kernel


def throughput_rows(x: np.ndarray, n_h, n_l) -> np.ndarray:
    """(mu_h, mu_l), shape (2, ...), of every row of a stacked ``x`` of
    shape (2, ..., m) under one load or one per row (as :func:`load_table`
    takes them): the exactly rounded ``math.fsum`` of its
    :func:`stacked_terms`, the same bits under any joint RB permutation."""
    terms = stacked_terms(x, load_table(n_h, n_l, x.ndim))
    sums = map(math.fsum, terms.reshape(-1, x.shape[-1]).tolist())
    return np.fromiter(sums, float, terms.size // x.shape[-1]).reshape(terms.shape[:-1])


def throughput_closed_form(
    cfg: NetworkConfig, pair: AccessProbabilityPair
) -> ThroughputPair:
    """Expected successes per slot for each class: :func:`throughput_rows`
    of the one pair."""
    if pair.m != cfg.m:
        raise ValueError(f"pair has m={pair.m}, config has m={cfg.m}")
    mu = throughput_rows(np.array([pair.p_h, pair.p_l]), cfg.n_h, cfg.n_l)
    return ThroughputPair(*mu.tolist())


# Occupancy pairs, or vectors of the log weights, per pass; bounds the memory.
_PAIR_CHUNK = 1 << 16


@functools.lru_cache(maxsize=32)
def _occupancies(n: int, m: int) -> np.ndarray:
    """Every occupancy vector of ``n`` devices over ``m`` RBs, shape (c, m),
    read-only, as the cache shares them."""
    counts = compositions(n, m)
    counts.flags.writeable = False
    return counts


def _log_terms(n: int, p: np.ndarray) -> np.ndarray:
    """``log(p[i]**c / c!) + c * log(n)`` for each RB ``i`` and count ``c``
    in 0..n, shape (m, n + 1), less its value at the count ``r`` nearest
    ``n * p[i]``: running sums of the steps ``log(n p[i] / j)`` outward from
    ``r``, which are small near the mode, so the sums that carry the weight
    round as little as their terms.  A positive count on a zero ``p[i]``
    gives ``-inf``."""
    out = np.full((p.size, n + 1), -np.inf)
    out[:, 0] = 0.0
    j = np.arange(1, n + 1)
    for i in np.flatnonzero(p > 0.0):
        steps = np.log(n * p[i] / j)
        r = min(n, round(n * p[i]))
        out[i, r] = 0.0
        out[i, r + 1 :] = np.cumsum(steps[r:])
        out[i, :r] = -np.cumsum(steps[:r][::-1])[::-1]
    return out


def _occupancy_weights(n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The occupancy vectors of ``n`` devices that access vector ``p`` gives
    a positive probability, and those probabilities.  A positive count on a
    zero probability gives 0 exactly, without a ``log(0)`` or ``0 * inf``.

    The weights are ``exp`` of sums of :func:`_log_terms`, each off from the
    log probability by one offset common to all rows, and are scaled to
    their known total ``(sum p)**n``; the offset never has to be formed, so
    no ``lgamma(n + 1)`` of 1e4 cancels against the rest."""
    counts = _occupancies(n, p.size)
    terms = _log_terms(n, p)
    w = np.empty(len(counts))
    # in row chunks, as each gather takes a float per row
    for lo in range(0, len(counts), _PAIR_CHUNK):
        rows, hi = counts[lo : lo + _PAIR_CHUNK], lo + _PAIR_CHUNK
        terms[0].take(rows[:, 0], out=w[lo:hi])
        for i in range(1, p.size):
            w[lo:hi] += terms[i].take(rows[:, i])
    np.exp(w, out=w)
    w *= math.exp(n * math.log1p(math.fsum([*p.tolist(), -1.0]))) / w.sum()
    keep = w > 0.0
    if keep.all():
        return counts, w  # the cached rows, not a copy
    w = w[keep]  # frees the full weights before the rows are copied
    return counts[keep], w


def pattern_probabilities(cfg: NetworkConfig, pair: AccessProbabilityPair) -> dict[str, float]:
    """P(slot produces the pattern), keyed by every pattern that an
    occupancy of positive probability produces, in lexicographic order; any
    other pattern has probability 0.

    Each class's occupancy vectors are enumerated once with their
    multinomial probabilities, and each (high, low) pair of them adds its
    probability to the pattern it produces, so the work is the number of
    occupancy pairs, C(n_h + m - 1, m - 1) * C(n_l + m - 1, m - 1).
    Refuses configurations with more than ``ENUMERATION_CAP`` of them.
    """
    if pair.m != cfg.m:
        raise ValueError(f"pair has m={pair.m}, config has m={cfg.m}")
    work = math.comb(cfg.n_h + cfg.m - 1, cfg.m - 1) * math.comb(cfg.n_l + cfg.m - 1, cfg.m - 1)
    if work > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{work} occupancy pairs exceeds cap {ENUMERATION_CAP} for cfg {cfg}"
        )
    c_h, w_h = _occupancy_weights(cfg.n_h, np.asarray(pair.p_h, dtype=float))
    c_l, w_l = _occupancy_weights(cfg.n_l, np.asarray(pair.p_l, dtype=float))
    seen, sums = [], []
    # chunks of high rows against all low rows, or of low rows where one row's
    # pairs exceed _PAIR_CHUNK; a pattern's bytes sort as its string does
    rows, cols = max(1, _PAIR_CHUNK // len(w_l)), min(len(w_l), _PAIR_CHUNK)
    for lo in range(0, len(w_h), rows):
        for left in range(0, len(w_l), cols):
            high, low = slice(lo, lo + rows), slice(left, left + cols)
            chars = pattern_bytes(c_h[high, None], c_l[low]).view(f"S{cfg.m}").ravel()
            patterns, pattern_of = np.unique(chars, return_inverse=True)
            seen.append(patterns)
            sums.append(np.bincount(pattern_of, (w_h[high, None] * w_l[low]).ravel()))
    # each pattern's total adds its chunk sums in chunk order
    patterns, pattern_of = np.unique(np.concatenate(seen), return_inverse=True)
    probs = np.bincount(pattern_of, np.concatenate(sums))
    return dict(zip(patterns.astype(str).tolist(), probs.tolist()))


def throughput_by_pattern_sum(
    cfg: NetworkConfig, pair: AccessProbabilityPair
) -> ThroughputPair:
    """Throughput as sum over patterns of success count times probability.

    The work is that of :func:`pattern_probabilities`, one step per
    occupancy pair; refuses configurations with more than
    ``ENUMERATION_CAP`` pairs.
    """
    table = pattern_probabilities(cfg, pair)
    return ThroughputPair(
        math.fsum(pattern.count("h") * prob for pattern, prob in table.items()),
        math.fsum(pattern.count("l") * prob for pattern, prob in table.items()),
    )


# Actions per DP pass in :func:`slot_success_pmf`; bounds its working memory.
_PMF_CHUNK = 32


@functools.lru_cache(maxsize=64)
def _split_constants(n: int) -> tuple[np.ndarray, ...]:
    """The share-free factors of :func:`_rb_split` for ``n`` devices, each
    over (r, r'): the count ``c`` picked, the ``r - c`` left, the binomial
    coefficient and the masks c = 0, c = 1, c >= 2.  Read-only, as the
    cache hands the same arrays to every call."""
    rem = np.arange(n + 1)[:, None]
    picked = np.maximum(rem - rem.T, 0)  # c = r - r', 0 where r' > r
    coef = np.array(
        [[math.comb(r, r - k) if k <= r else 0 for k in range(n + 1)] for r in range(n + 1)],
        dtype=float,
    )
    out = (picked, rem - picked, coef, picked == 0, picked == 1, picked >= 2)
    for a in out:
        a.setflags(write=False)
    return out


def _rb_split(p: np.ndarray, i: int, n: int) -> tuple[np.ndarray, ...]:
    """Transition matrices of the unplaced devices of one class at RB ``i``.

    Each of the ``r`` devices still unplaced picks RB ``i`` with probability
    p[i] / (mass of RBs i..m-1), all of them at the last RB.  Returns
    ``T[c][a, r, r']``, the probability that ``c`` of them do, leaving
    ``r'`` = r - c, for c = 0, c = 1 and c >= 2, from the powers of the
    share ``s`` and of ``1 - s`` as running products, one multiply per k.
    """
    n_act, m = p.shape
    if i == m - 1:
        share = np.ones(n_act)
    else:
        mass = p[:, i:].sum(axis=1)
        share = np.divide(p[:, i], mass, out=np.zeros(n_act), where=mass > 0)
        share = np.minimum(share, 1.0)
    picked, left, coef, *masks = _split_constants(n)
    factors = np.stack([share, 1.0 - share])[..., None].repeat(n, axis=-1)
    s_k, rest_k = np.insert(factors, 0, 1.0, axis=-1).cumprod(axis=-1)  # [a, k]
    full = coef * s_k[:, picked] * rest_k[:, left]
    return tuple(np.where(sel, full, 0.0) for sel in masks)


def _pmf_chunk(n_h: int, n_l: int, p_h: np.ndarray, p_l: np.ndarray) -> np.ndarray:
    n_act, m = p_h.shape
    # state[a, unplaced high, unplaced low, high successes, low successes]
    state = np.zeros((n_act, n_h + 1, n_l + 1, m + 1, m + 1))
    state[:, n_h, n_l, 0, 0] = 1.0

    def move(t: np.ndarray, src: np.ndarray, axis: str) -> np.ndarray:
        """Apply t[a, r, r'] to the unplaced-device axis of class ``axis``."""
        t = t.transpose(0, 2, 1)
        if axis == "h":
            return (t @ src.reshape(n_act, n_h + 1, -1)).reshape(src.shape)
        flat = src.reshape(n_act, n_h + 1, n_l + 1, -1)
        return (t[:, None] @ flat).reshape(src.shape)

    for i in range(m):
        h0, h1, h2 = _rb_split(p_h, i, n_h)
        l0, l1, l2 = _rb_split(p_l, i, n_l)
        # RB i carries a high success iff it holds one high device and no
        # low one, a low success iff the converse; every other split of
        # devices (empty or a collision) leaves both counts unchanged
        no_high, one_high = move(h0, state, "h"), move(h1, state, "h")
        nxt = move(l0 + l2, no_high, "l") + move(l1 + l2, one_high, "l")
        nxt += move(l0 + l1 + l2, move(h2, state, "h"), "l")
        nxt[..., 1:, :] += move(l0, one_high, "l")[..., :-1, :]
        nxt[..., :, 1:] += move(l1, no_high, "l")[..., :, :-1]
        state = nxt
    return state[:, 0, 0]


def slot_success_pmf(n_h: int, n_l: int, p_h, p_l) -> np.ndarray:
    """Exact per-slot joint pmf of (high successes, low successes).

    ``p_h`` and ``p_l`` hold one access vector per action, shape
    (actions, m).  A DP walks the RBs in order: at RB ``i`` the devices not
    yet placed split binomially between it and the RBs after it,
    independently per class, and the RB scores a success when it holds
    exactly one device.  Returns shape (actions, m + 1, m + 1), indexed
    [action, h, l].  Actions are processed ``_PMF_CHUNK`` at a time.
    """
    p_h = np.atleast_2d(np.asarray(p_h, dtype=float))
    p_l = np.atleast_2d(np.asarray(p_l, dtype=float))
    if p_h.shape != p_l.shape:
        raise ValueError(f"p_h has shape {p_h.shape}, p_l {p_l.shape}")
    m = p_h.shape[1]
    out = np.empty((p_h.shape[0], m + 1, m + 1))
    for lo in range(0, p_h.shape[0], _PMF_CHUNK):
        hi = lo + _PMF_CHUNK
        out[lo:hi] = _pmf_chunk(n_h, n_l, p_h[lo:hi], p_l[lo:hi])
    return out


def scaling_reference(cfg: NetworkConfig) -> float:
    """High-class throughput of the reference allocation used for reward
    normalization, in closed form: ``n_h * (1 - 1/(m-1)) ** (n_h - 1)``.
    In that allocation the high class spreads uniformly over the first m-1
    RBs and the low class occupies the last RB alone.

    Raises when undefined (m < 2, n_h = 0) or degenerate (value 0, which
    happens for m = 2 with n_h >= 2); callers that scale by this value must
    fall back to unscaled rewards in those cases.
    """
    if cfg.m < 2:
        raise ValueError(f"scaling reference undefined for m={cfg.m}")
    if cfg.n_h == 0:
        raise ValueError("scaling reference undefined for n_h=0")
    ref = cfg.n_h * (1.0 - 1.0 / (cfg.m - 1)) ** (cfg.n_h - 1)
    if ref <= 0.0:
        raise ValueError(
            f"scaling reference degenerates to 0 for n_h={cfg.n_h}, m={cfg.m}"
        )
    return ref
