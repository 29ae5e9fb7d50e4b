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
bytes are new per block: a few MB of fresh arrays per block went back to
the OS and faulted in again, or not, depending on what earlier code had
left on the heap.  Each class's cumulative levels are compared, then
counted, one at a time, in one (n, slots) bool buffer.

Each block counts each class's devices per RB in the narrowest unsigned type
that holds n; :func:`~rachopt.model.pattern_bytes`, the one outcome rule,
turns the counts into the bytes of the per-slot pattern strings over
:data:`~rachopt.model.PATTERN_CHARS`, in which :func:`sim_throughput` counts
``h`` and ``l`` block by block without keeping them.
"""

from __future__ import annotations

import numbers
from typing import Iterator

import numpy as np

from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair, pattern_bytes

__all__ = ["sim_throughput"]

# uniforms (32-bit halves) per block, 8192 slots at n = 9: its passes stay
# in cache at any n
_BLOCK_WORDS = 8192 * 9


def _run_blocks(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> Iterator[np.ndarray]:
    """Draw slots ``[0, t)`` in blocks of at most ``_BLOCK_WORDS`` uniforms
    and yield each block's pattern bytes, shape (slots, m), in slot order."""
    n, m = cfg.n, cfg.m
    bits = np.random.PCG64(int(seed) % (1 << 128))
    # an even number of slots, so that every block but the last ends on a word
    slots = min(t, max(2, (_BLOCK_WORDS // max(n, 1)) & ~1))
    marks = np.floor(np.array([pair.p_h, pair.p_l]).cumsum(axis=1)[:, :-1] * 2.0**32)
    classes = (slice(0, cfg.n_h), slice(cfg.n_h, n))
    # (class, level r, its rows, its mark) of every level a half can reach
    levels = [
        (c, r, classes[c], np.uint32(marks[c, r - 1]))
        for r in range(1, m)
        for c in (0, 1)
        if marks[c, r - 1] < 2**32
    ]
    count = np.min_scalar_type(n)

    def arrays(size: int) -> tuple[np.ndarray, ...]:
        """The arrays that a block of ``size`` slots writes its passes to."""
        # row r: a class's devices above level r, so all of them in row 0 and
        # none in row m or past a level at or above 1; RB r holds the drop
        # from row r to row r + 1
        above = np.zeros((2, m + 1, size), count)
        above[:, 0] = [[cfg.n_h], [cfg.n_l]]
        halves, hit = np.empty((n, size), np.uint32), np.empty((n, size), bool)
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
        for c, r, rows, mark in levels:
            np.greater_equal(halves[rows], mark, out=hit[rows])
            np.add.reduce(tally[rows], axis=0, out=above[c, r], dtype=count)
        np.subtract(above[:, :-1], above[:, 1:], out=rb)
        yield pattern_bytes(*rb).T


def sim_throughput(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> ThroughputPair:
    """Empirical per-slot success rates over ``t`` slots, multiples of 1/t:
    the ``h`` and ``l`` bytes of the slots' patterns, counted block by block
    without keeping them.
    """
    for name, value in (("t", t), ("seed", seed)):
        if not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if t < 1:
        raise ValueError(f"need at least one slot, got t={t}")
    if pair.m != cfg.m:
        raise ValueError(f"pair has m={pair.m}, config has m={cfg.m}")
    h = l = 0
    for codes in _run_blocks(cfg, pair, t, seed):
        h += int(np.count_nonzero(codes == ord("h")))
        l += int(np.count_nonzero(codes == ord("l")))
    return ThroughputPair(h / t, l / t)
