"""Slot-level Monte Carlo simulator for the two-priority channel.

Slots are i.i.d.: every device re-picks an RB each slot, with no backoff or
retransmission state.  Randomness comes from one stream of
``PCG64(seed mod 2**128)`` (O'Neill, HMC-CS-2014-0905): slot ``s`` reads
words ``[s * n, (s + 1) * n)``, one per device, high-priority devices first.
Results are therefore bit-reproducible for a given (cfg, pair, t, seed) and
independent of how the slots are split.

A device's RB is the number of its class's cumulative access probabilities
at or below its uniform ``(w >> 11) * 2**-53`` (``Generator.random`` of its
word ``w``).  As a level ``L`` is at or below it exactly when
``w >> 11 >= ceil(L * 2**53)``, the kernel compares integers.

The slots run in blocks of ``_BLOCK_WORDS`` words (8192 slots at n = 9),
so a block's passes stay in cache and do not grow with the population.  The
blocks run in order on one generator, each drawing its own slots' words and
no more, so block ``[lo, hi)`` reads words ``[lo * n, hi * n)``.  Philox's
counter (Salmon et al., SC 2011) can seek to any block, which only a pool of
block workers needed; PCG64 draws a word in about half Philox's time.

A call makes its block's arrays once, and the passes from the draw to the
per-RB counts write into them, so only the draw's words and the pattern
bytes are new per block: a few MB of fresh arrays per block went back to
the OS and faulted in again, or not, depending on what earlier code had
left on the heap.  Each cumulative level is compared, then counted, one at
a time, in one (n, slots) bool buffer.

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

# PCG64 words per block, 8192 slots at n = 9: its passes stay in cache at any n
_BLOCK_WORDS = 8192 * 9


def _run_blocks(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> Iterator[np.ndarray]:
    """Draw slots ``[0, t)`` in blocks of ``_BLOCK_WORDS`` PCG64 words and
    yield each block's pattern bytes, shape (slots, m), in slot order."""
    n, m = cfg.n, cfg.m
    bits = np.random.PCG64(int(seed) % (1 << 128))
    slots = min(t, max(1, _BLOCK_WORDS // max(n, 1)))
    marks = np.ceil(np.array([pair.p_h, pair.p_l]).cumsum(axis=1)[:, :-1] * 2.0**53)
    marks = np.repeat(marks.astype(np.uint64), (cfg.n_h, cfg.n_l), axis=0).T[:, :, None]
    count = np.min_scalar_type(n)

    def arrays(size: int) -> tuple[np.ndarray, ...]:
        """The arrays that a block of ``size`` slots writes its passes to."""
        # row r: a class's devices at or above level r, so all of them in row
        # 0 and none in row m; RB r holds the drop from row r to row r + 1
        above = np.empty((2, m + 1, size), count)
        above[:, 0], above[:, m] = [[cfg.n_h], [cfg.n_l]], 0
        words, hit = np.empty((n, size), np.uint64), np.empty((n, size), bool)
        return words, hit, hit.view(np.uint8), above, np.empty((2, m, size), count)

    words, hit, tally, above, rb = arrays(slots)
    for lo in range(0, t, slots):
        size = min(slots, t - lo)
        if size < slots:  # the last block
            words, hit, tally, above, rb = arrays(size)
        # device-major, so that every pass below is contiguous; the raw words
        # are freed at once, so the next block's draw reuses their heap
        raw = bits.random_raw(size * n).reshape(size, n).T
        np.right_shift(raw, 11, out=words)
        del raw
        for r in range(1, m):
            np.greater_equal(words, marks[r - 1], out=hit)
            np.add.reduce(tally[: cfg.n_h], axis=0, out=above[0, r], dtype=count)
            np.add.reduce(tally[cfg.n_h :], axis=0, out=above[1, r], dtype=count)
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
