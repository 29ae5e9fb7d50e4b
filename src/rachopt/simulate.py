"""Slot-level Monte Carlo simulator for the two-priority channel.

Slots are i.i.d.: every device re-picks an RB each slot, with no backoff or
retransmission state.  Randomness comes from counter-based Philox streams:
slot ``s`` consumes exactly the words at counter offsets
``[s * k, (s + 1) * k)`` of ``Philox(key=seed mod 2**128)``, where ``k`` is
the number of 4-word counter steps holding one word per device.  Results
are therefore bit-reproducible for a given (cfg, pair, t, seed) and
independent of how the slots are split.

A device's RB is the number of its class's cumulative access probabilities
at or below its uniform ``(w >> 11) * 2**-53`` (``Generator.random`` of its
word ``w``), high-priority devices first.  As a level ``L`` is at or below
it exactly when ``w >> 11 >= ceil(L * 2**53)``, the kernel compares integers.

The slots run in blocks of ``_BLOCK_WORDS`` words (8192 slots at n = 9..12),
so a block's passes stay in cache and do not grow with the population.  The
blocks run in order on one Philox generator (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), each drawing whole counter steps, so
block ``[lo, hi)`` reads counter steps ``[lo * k, hi * k)`` and the output
does not depend on the block size.

Each block counts each class's devices per RB in the narrowest unsigned type
that holds n; :func:`~rachopt.model.pattern_bytes`, the one outcome rule,
turns the counts into the bytes of the per-slot pattern strings over
:data:`~rachopt.model.PATTERN_CHARS`, in which :func:`sim_throughput` counts
``h`` and ``l`` block by block without keeping them.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair, pattern_bytes

__all__ = ["sim_throughput"]

# Philox words per block: its passes (a few MB) stay in cache at any population
_BLOCK_WORDS = 8192 * 12


def _run_blocks(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> Iterator[np.ndarray]:
    """Draw slots ``[0, t)`` in blocks of ``_BLOCK_WORDS`` Philox words and
    yield each block's pattern bytes, shape (slots, m), in slot order."""
    n, m = cfg.n, cfg.m
    # one word per device per slot, padded to whole Philox counter steps
    k = math.ceil(n / 4)
    bits = np.random.Philox(key=seed % (1 << 128))
    slots = max(1, _BLOCK_WORDS // (4 * max(k, 1)))
    marks = np.ceil(np.array([pair.p_h, pair.p_l]).cumsum(axis=1)[:, :-1] * 2.0**53)
    marks = np.repeat(marks.astype(np.uint64), (cfg.n_h, cfg.n_l), axis=0).T[:, :, None]
    for lo in range(0, t, slots):
        size = min(slots, t - lo)
        draws = bits.random_raw(size * 4 * k)
        # device-major, so that every pass below is contiguous; rebinding frees
        # the raw words at once, so a block's heap is reused, not refaulted
        draws = np.right_shift(draws.reshape(size, 4 * k)[:, :n].T, 11, order="C")
        # row r: a class's devices at or above level r, so all of them in row
        # 0 and none in row m; RB r holds the drop from row r to row r + 1
        above = np.empty((2, m + 1, size), dtype=np.min_scalar_type(n))
        above[:, 0], above[:, m] = [[cfg.n_h], [cfg.n_l]], 0
        hit = draws >= marks
        hit[:, : cfg.n_h].sum(axis=1, out=above[0, 1:m])
        hit[:, cfg.n_h :].sum(axis=1, out=above[1, 1:m])
        codes = pattern_bytes(*(above[:, :-1] - above[:, 1:])).T
        # while suspended, a block holds only its pattern bytes
        del draws, above, hit
        yield codes


def sim_throughput(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> ThroughputPair:
    """Empirical per-slot success rates over ``t`` slots, multiples of 1/t:
    the ``h`` and ``l`` bytes of the slots' patterns, counted block by block
    without keeping them.
    """
    if t < 1:
        raise ValueError(f"need at least one slot, got t={t}")
    if pair.m != cfg.m:
        raise ValueError(f"pair has m={pair.m}, config has m={cfg.m}")
    h = l = 0
    for codes in _run_blocks(cfg, pair, t, seed):
        h += int(np.count_nonzero(codes == ord("h")))
        l += int(np.count_nonzero(codes == ord("l")))
    return ThroughputPair(h / t, l / t)
