"""Slot-level Monte Carlo simulator for the two-priority channel.

Slots are i.i.d.: every device re-picks an RB each slot, with no backoff or
retransmission state.  Randomness comes from counter-based Philox streams:
slot ``s`` consumes exactly the words at counter offsets
``[s * k, (s + 1) * k)`` of ``Philox(key=seed mod 2**128)``, where ``k`` is
the number of 4-word counter steps holding one uniform per device.  Traces
are therefore bit-reproducible for a given (cfg, pair, t, seed) and
independent of how the slots are split.

The slots run in blocks of ``_BLOCK`` (8192) slots, small enough that a
block's draws stay in cache.  Block ``[lo, hi)`` builds its own Philox
stream started ``lo * k`` counter steps in, the position the one long
stream would have reached (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011), so the output does not depend on the block size.  A
call with more than one block runs them on a ``ThreadPoolExecutor`` created
for that call, one worker per usable CPU; numpy's Philox fill and its array
passes release the GIL.  A single block, such as the bandit's per-pull hook
at t <= 1000, or a single usable CPU runs inline, without threads.

Within a slot, device draws map to RBs by inverse CDF over the cumulative
access probabilities in index order, high-priority devices first.

Each block's per-RB transmitter counts become pattern bytes through
:func:`~rachopt.model.pattern_bytes`, the one outcome rule: a
:class:`SimTrace` keeps them as a ``(t, m)`` uint8 array of event codes,
the bytes of the per-slot pattern strings over
:data:`~rachopt.model.PATTERN_CHARS`, and :func:`sim_throughput` counts
their ``h`` and ``l`` bytes instead.
"""

from __future__ import annotations

import math
import os
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

# slots per block: a block's draws and counts (a few MB at n = 9) stay in
# cache, where one pass over a whole t = 100000 run would not
_BLOCK = 8192


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    """Draw slots ``[0, t)`` in blocks of ``_BLOCK`` and hand each block's
    pattern bytes, shape (hi - lo, m), to ``consume(lo, codes)``; returns
    its results in block order.

    Each block starts its own Philox stream at its first slot's counter, so
    blocks are independent: with more than one block and more than one
    usable CPU they run on a thread pool that lives for this call only.
    """
    n, m = cfg.n, cfg.m
    # one uniform per device per slot, padded to whole Philox counter steps
    k = math.ceil(n / 4)
    key = seed % (1 << 128)
    low = np.arange(n) >= cfg.n_h
    # device d of slot s on RB r counts in bin (2 s + low[d]) m + r; draws
    # are laid out device-major so that every pass below is contiguous
    bins = (2 * np.arange(min(t, _BLOCK)) + low[:, None]) * m
    # a draw's RB is the number of its class's cumulative probabilities at
    # or below it: searchsorted(cum, u, "right") clipped to m - 1
    levels = np.cumsum([pair.p_h, pair.p_l], axis=1)[low.astype(np.intp), :-1]
    levels = levels.T[:, :, None]
    small = np.min_scalar_type(m - 1)

    def block(lo: int):
        size = min(_BLOCK, t - lo)
        gen = np.random.Generator(np.random.Philox(key=key, counter=lo * k))
        draws = gen.random(size * 4 * k).reshape(size, 4 * k)[:, :n].T.copy()
        rb = (draws >= levels).sum(axis=0, dtype=small)
        counts = np.bincount((rb + bins[:, :size]).ravel(), minlength=2 * m * size)
        counts = counts.reshape(size, 2, m)
        return consume(lo, pattern_bytes(counts[:, 0], counts[:, 1]))

    starts = range(0, t, _BLOCK)
    workers = min(len(starts), _usable_cpus())
    if workers == 1:
        return [block(lo) for lo in starts]
    # imported only here: at module level it adds ~0.2 MB of memory to
    # processes that never start a thread
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(block, starts))


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
