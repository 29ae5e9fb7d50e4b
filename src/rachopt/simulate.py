"""Slot-level Monte Carlo simulator for the two-priority channel.

Slots are i.i.d.: every device re-picks an RB each slot, with no backoff or
retransmission state.  Randomness comes from counter-based Philox streams:
slot ``s`` consumes exactly the words at counter offsets
``[s * k, (s + 1) * k)`` of ``Philox(key=seed mod 2**128)``, where ``k`` is
the number of 4-word counter steps holding one word per device.  Traces
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
:data:`~rachopt.model.PATTERN_CHARS`, which a :class:`SimTrace` keeps as a
``(t, m)`` uint8 array and :func:`sim_throughput` counts ``h`` and ``l`` in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .model import (PATTERN_CHARS, AccessProbabilityPair, NetworkConfig, ThroughputPair,
                    pattern_bytes)

__all__ = [
    "SimTrace",
    "simulate",
    "sim_throughput",
    "empirical_throughput",
    "save_trace",
    "load_trace",
]

# Philox words per block: its passes (a few MB) stay in cache at any population
_BLOCK_WORDS = 8192 * 12


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-slot event codes, shape (t, m), and the seed that drew them:
    what a trace file stores."""

    seed: int
    codes: np.ndarray

    @property
    def t(self) -> int:
        return self.codes.shape[0]

    @property
    def m(self) -> int:
        return self.codes.shape[1]

    @property
    def patterns(self) -> tuple[str, ...]:
        """The slots as pattern strings."""
        return tuple(row.tobytes().decode("ascii") for row in self.codes)


def _check(cfg: NetworkConfig, pair: AccessProbabilityPair, t: int) -> None:
    if t < 1:
        raise ValueError(f"need at least one slot, got t={t}")
    if pair.m != cfg.m:
        raise ValueError(f"pair has m={pair.m}, config has m={cfg.m}")


def _run_blocks(
    cfg: NetworkConfig,
    pair: AccessProbabilityPair,
    t: int,
    seed: int,
    consume: Callable[[int, np.ndarray], object],
) -> list:
    """Draw slots ``[0, t)`` in blocks of ``_BLOCK_WORDS`` Philox words and
    hand each block's pattern bytes, shape (hi - lo, m), to
    ``consume(lo, codes)``; returns its results in block order.
    """
    n, m = cfg.n, cfg.m
    # one word per device per slot, padded to whole Philox counter steps
    k = math.ceil(n / 4)
    bits = np.random.Philox(key=seed % (1 << 128))
    slots = max(1, _BLOCK_WORDS // (4 * max(k, 1)))
    marks = np.ceil(np.array([pair.p_h, pair.p_l]).cumsum(axis=1)[:, :-1] * 2.0**53)
    marks = np.repeat(marks.astype(np.uint64), (cfg.n_h, cfg.n_l), axis=0).T[:, :, None]

    def block(lo: int):
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
        return consume(lo, pattern_bytes(*(above[:, :-1] - above[:, 1:])).T)

    return [block(lo) for lo in range(0, t, slots)]


def _successes(codes: np.ndarray) -> tuple[int, int]:
    """The high and the low successes among pattern bytes."""
    return int(np.count_nonzero(codes == ord("h"))), int(np.count_nonzero(codes == ord("l")))


def sim_throughput(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> ThroughputPair:
    """Empirical per-slot success rates over ``t`` slots: the ``h`` and
    ``l`` bytes of the trace :func:`simulate` would keep, counted block by
    block without keeping it; both return multiples of 1/t.
    """
    _check(cfg, pair, t)
    counts = _run_blocks(cfg, pair, t, seed, lambda lo, codes: _successes(codes))
    return ThroughputPair(sum(h for h, _ in counts) / t, sum(l for _, l in counts) / t)


def simulate(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> SimTrace:
    """Run ``t`` slots and keep the full per-slot event trace."""
    _check(cfg, pair, t)
    codes = np.empty((t, cfg.m), dtype=np.uint8)

    def events(lo: int, block: np.ndarray) -> None:
        codes[lo : lo + len(block)] = block

    _run_blocks(cfg, pair, t, seed, events)
    return SimTrace(seed=seed, codes=codes)


def empirical_throughput(trace: SimTrace) -> ThroughputPair:
    """Success rates of an existing trace, multiples of 1/t."""
    if trace.t == 0:
        raise ValueError("empty trace")
    h, l = _successes(trace.codes)
    return ThroughputPair(h / trace.t, l / trace.t)


def save_trace(trace: SimTrace, path: Union[str, Path]) -> None:
    """Write ``m,t,seed`` then one pattern string per slot."""
    with open(path, "wb") as fh:
        fh.write(f"{trace.m},{trace.t},{trace.seed}\n".encode("ascii"))
        newline = np.full((trace.t, 1), ord("\n"), dtype=np.uint8)
        fh.write(np.hstack([trace.codes, newline]).tobytes())


def load_trace(path: Union[str, Path]) -> SimTrace:
    """Read a trace file back."""
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            m, t, seed = (int(x) for x in header.split(","))
        except ValueError as exc:
            raise ValueError(f"bad trace header {header!r}") from exc
        lines = [line for line in (raw.strip() for raw in fh) if line]
    for line in lines:
        if len(line) != m:
            raise ValueError(f"pattern {line!r} does not have m={m} RBs")
    if len(lines) != t:
        raise ValueError(f"expected {t} slots, found {len(lines)}")
    raw = "".join(lines).encode("ascii", "replace")
    codes = np.frombuffer(raw, dtype=np.uint8).reshape(t, m)
    bad = ~np.isin(codes, list(PATTERN_CHARS.encode())).all(axis=1)
    if bad.any():
        raise ValueError(f"invalid pattern string {lines[int(np.argmax(bad))]!r}")
    return SimTrace(seed=seed, codes=codes)
