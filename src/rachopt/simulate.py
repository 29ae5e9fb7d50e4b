"""Slot-level Monte Carlo simulator for the two-priority channel.

Slots are i.i.d.: every device re-picks an RB each slot, with no backoff or
retransmission state.  Randomness comes from one stream of
``PCG64(seed mod 2**128)`` (O'Neill, HMC-CS-2014-0905), read as 32-bit
halves, low half of each word first: slot ``s`` reads halves
``[s * n, (s + 1) * n)``, one per device, high-priority devices first.
Results are therefore bit-reproducible for a given (cfg, pair, t, seed) and
independent of how the slots are split.

A device's half ``w`` stands for the uniform ``(w + 1) * 2**-32`` in
(0, 1], and its RB is the number of its class's cumulative access
probabilities below that uniform.  As a level ``L`` is below it exactly
when ``w >= floor(L * 2**32)``, the kernel compares each half with a uint32
mark; a level at or above 1 is never below it, so its count is 0 with no
compare, and no mark past ``2**32 - 1`` is ever cast (it would wrap to 0).
The price is resolution: each RB's per-device probability becomes a
multiple of ``2**-32``, off by less than 2.3e-10, far below the sampling
error of any run the package makes (about 2e-3 in mu_h over 1e5 slots).

The slots run in blocks of ``_BLOCK_WORDS`` uniforms (8192 slots at
n = 9), so a block's passes stay in cache and do not grow with the
population.  A block holds an even number of slots, so it ends on a whole
word; the blocks run in order on one generator, each drawing its own slots'
words and no more, so block ``[lo, hi)`` reads halves ``[lo * n, hi * n)``
and only the last block can leave a half unused.  Philox's counter (Salmon
et al., SC 2011) can seek to any block, which only a pool of block workers
needed; PCG64 draws a word in about half Philox's time, and one word serves
two devices.

A call makes its block's arrays once, and the passes from the draw to the
per-RB counts write into them, so only the draw's words and the pattern
classes are new per block.  A class's cumulative levels do not decrease, so
the levels its halves can reach are a prefix, compared in one broadcast
call into one (m - 1, n, slots) bool buffer and counted in one reduce, in
the narrowest unsigned type that holds n.  The one outcome rule,
:func:`~rachopt.model.pattern_class`, gives each RB its class from the
counts, and :func:`sim_throughput` counts the classes written ``h`` and
``l``, block by block, without keeping them.
"""

from __future__ import annotations

import numbers
from typing import Iterator

import numpy as np

from .model import _RB_CHAR, AccessProbabilityPair, NetworkConfig, ThroughputPair, pattern_class

__all__ = ["sim_throughput"]

# uniforms (32-bit halves) per block, 8192 slots at n = 9: its passes stay
# in cache at any n
_BLOCK_WORDS = 8192 * 9

_H_CLASS, _L_CLASS = (_RB_CHAR.tobytes().index(char) for char in b"hl")  # an RB's successes


def _run_blocks(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> Iterator[np.ndarray]:
    """Draw slots ``[0, t)`` in blocks of at most ``_BLOCK_WORDS`` uniforms
    and yield each block's pattern classes, shape (m, slots), in slot order,
    each in an array of its own."""
    n, m = cfg.n, cfg.m
    bits = np.random.PCG64(int(seed) % (1 << 128))
    # an even number of slots, so that every block but the last ends on a word
    slots = min(t, max(2, (_BLOCK_WORDS // max(n, 1)) & ~1))
    marks = np.floor(np.array([pair.p_h, pair.p_l]).cumsum(axis=1)[:, :-1] * 2.0**32)
    # (rows, marks) of each class's levels that a half can reach: the marks do
    # not decrease, so these are a prefix, compared in one broadcast call
    classes = [
        (rows, marks[c, marks[c] < 2**32].astype(np.uint32)[:, None, None])
        for c, rows in enumerate((slice(0, cfg.n_h), slice(cfg.n_h, n)))
    ]
    count = np.min_scalar_type(n)

    def arrays(size: int) -> tuple[np.ndarray, ...]:
        """The arrays that a block of ``size`` slots writes its passes to."""
        # row r: a class's devices above level r, so all of them in row 0 and
        # none in row m or past a level at or above 1; RB r holds the drop
        # from row r to row r + 1
        above = np.zeros((2, m + 1, size), count)
        above[:, 0] = [[cfg.n_h], [cfg.n_l]]
        halves, hit = np.empty((n, size), np.uint32), np.empty((m - 1, n, size), bool)
        return halves, hit, hit.view(np.uint8), above, np.empty((2, m, size), count)

    halves, hit, tally, above, rb = arrays(slots)
    for lo in range(0, t, slots):
        size = min(slots, t - lo)
        if size < slots:  # the last block
            halves, hit, tally, above, rb = arrays(size)
        # low half first on any host; device-major, so that every pass below
        # is contiguous; the raw words are freed at once, so the next block's
        # draw reuses their heap
        raw = bits.random_raw((size * n + 1) // 2).astype("<u8", copy=False)
        np.copyto(halves, raw.view("<u4")[: size * n].reshape(size, n).T)
        del raw
        for c, (rows, levels) in enumerate(classes):
            reach = len(levels)
            np.greater_equal(halves[rows], levels, out=hit[:reach, rows])
            np.add.reduce(tally[:reach, rows], axis=1, out=above[c, 1 : reach + 1], dtype=count)
        np.subtract(above[:, :-1], above[:, 1:], out=rb)
        yield pattern_class(*rb)


def sim_throughput(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> ThroughputPair:
    """Empirical per-slot success rates over ``t`` slots, multiples of 1/t:
    the RBs of the slots' patterns in the ``h`` and ``l`` classes, counted
    block by block without keeping them.
    """
    for name, value in (("t", t), ("seed", seed)):
        if not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if t < 1:
        raise ValueError(f"need at least one slot, got t={t}")
    if pair.m != cfg.m:
        raise ValueError(f"pair has m={pair.m}, config has m={cfg.m}")
    h = l = 0
    for classes in _run_blocks(cfg, pair, t, seed):
        h += int(np.count_nonzero(classes == _H_CLASS))
        l += int(np.count_nonzero(classes == _L_CLASS))
    return ThroughputPair(h / t, l / t)
