"""Slot-level Monte Carlo simulator for the two-priority channel.

Slots are i.i.d.: every device re-picks an RB each slot, with no backoff or
retransmission state.  Randomness comes from counter-based Philox streams:
slot ``s`` consumes exactly the words at counter offsets
``[s * k, (s + 1) * k)`` of ``Philox(key=seed)``, where ``k`` is the number
of 4-word counter steps holding one uniform per device.  Traces are
therefore bit-reproducible for a given (cfg, pair, t, seed) and independent
of how slot ranges might be split across workers.

Within a slot, device draws map to RBs by inverse CDF over the cumulative
access probabilities in index order, high-priority devices first.

A :class:`SimTrace` stores a ``(t, m)`` uint8 array of event codes, the
bytes of the per-slot pattern strings (``h``, ``l``, ``o``, ``x``); its
:class:`~rachopt.model.AccessPattern` objects are built only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .model import (
    AccessPattern,
    AccessProbabilityPair,
    NetworkConfig,
    SlotEvent,
    ThroughputPair,
    pattern_from_string,
)

__all__ = [
    "SimTrace",
    "simulate",
    "sim_throughput",
    "empirical_throughput",
    "save_trace",
    "load_trace",
]

_EVENT_CODES = np.array(
    [ord(SlotEvent.EMPTY.value), ord(SlotEvent.HIGH_SUCCESS.value),
     ord(SlotEvent.LOW_SUCCESS.value), ord(SlotEvent.COLLISION.value)],
    dtype=np.uint8,
)


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-slot event codes, shape (t, m), plus the inputs that produced
    them.  Traces loaded from disk carry only what the file stores (m, t,
    seed and the codes), so ``cfg`` and ``pair`` may be None.
    """

    seed: int
    codes: np.ndarray
    cfg: Optional[NetworkConfig] = None
    pair: Optional[AccessProbabilityPair] = None

    @property
    def t(self) -> int:
        return self.codes.shape[0]

    @property
    def m(self) -> int:
        return self.codes.shape[1]

    @property
    def patterns(self) -> tuple[AccessPattern, ...]:
        """The slots as :class:`~rachopt.model.AccessPattern` objects."""
        return tuple(pattern_from_string(row.tobytes().decode("ascii")) for row in self.codes)


def _cumulative(probs) -> np.ndarray:
    cum = np.cumsum(np.asarray(probs, dtype=float))
    cum[-1] = 1.0  # guard against accumulated rounding at the top end
    return cum


def _occupancy_counts(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot per-RB transmitter counts, shape (t, m) for each class."""
    if t < 1:
        raise ValueError(f"need at least one slot, got t={t}")
    if pair.m != cfg.m:
        raise ValueError(f"pair has m={pair.m}, config has m={cfg.m}")
    n = cfg.n
    m = cfg.m
    if n == 0:
        z = np.zeros((t, m), dtype=np.int64)
        return z, z.copy()
    # one uniform per device per slot, padded to whole Philox counter steps
    k = math.ceil(n / 4)
    gen = np.random.Generator(np.random.Philox(key=seed % (1 << 128)))
    u = gen.random(t * 4 * k).reshape(t, 4 * k)[:, :n]
    rows = m * np.arange(t, dtype=np.int64)[:, None]

    def count(block: np.ndarray, cum: np.ndarray) -> np.ndarray:
        if block.shape[1] == 0:
            return np.zeros((t, m), dtype=np.int64)
        idx = np.searchsorted(cum, block, side="right")
        np.clip(idx, 0, m - 1, out=idx)
        flat = (idx + rows).ravel()
        return np.bincount(flat, minlength=t * m).reshape(t, m)

    c_h = count(u[:, : cfg.n_h], _cumulative(pair.p_h))
    c_l = count(u[:, cfg.n_h :], _cumulative(pair.p_l))
    return c_h, c_l


def sim_throughput(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> ThroughputPair:
    """Empirical per-slot success rates over ``t`` slots.

    Identical sampling to :func:`simulate`, skipping the event codes; both
    return multiples of 1/t.
    """
    c_h, c_l = _occupancy_counts(cfg, pair, t, seed)
    h = int(((c_h == 1) & (c_l == 0)).sum())
    l = int(((c_l == 1) & (c_h == 0)).sum())
    return ThroughputPair(h / t, l / t)


def simulate(
    cfg: NetworkConfig, pair: AccessProbabilityPair, t: int, seed: int
) -> SimTrace:
    """Run ``t`` slots and keep the full per-slot event trace."""
    c_h, c_l = _occupancy_counts(cfg, pair, t, seed)
    total = c_h + c_l
    # event code per RB: empty 0, high success 1, low success 2, collision 3
    codes = np.where(
        total == 0, 0, np.where(total >= 2, 3, np.where(c_h == 1, 1, 2))
    )
    return SimTrace(seed=seed, codes=_EVENT_CODES[codes], cfg=cfg, pair=pair)


def empirical_throughput(trace: SimTrace) -> ThroughputPair:
    """Success rates of an existing trace, multiples of 1/t."""
    if trace.t == 0:
        raise ValueError("empty trace")
    h = np.count_nonzero(trace.codes == ord(SlotEvent.HIGH_SUCCESS.value))
    l = np.count_nonzero(trace.codes == ord(SlotEvent.LOW_SUCCESS.value))
    return ThroughputPair(int(h) / trace.t, int(l) / trace.t)


def save_trace(trace: SimTrace, path: Union[str, Path]) -> None:
    """Write ``m,t,seed`` then one pattern string per slot."""
    with open(path, "wb") as fh:
        fh.write(f"{trace.m},{trace.t},{trace.seed}\n".encode("ascii"))
        newline = np.full((trace.t, 1), ord("\n"), dtype=np.uint8)
        fh.write(np.hstack([trace.codes, newline]).tobytes())


def load_trace(path: Union[str, Path]) -> SimTrace:
    """Read a trace file back; cfg and pair are not stored in the format."""
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
    bad = ~np.isin(codes, _EVENT_CODES).all(axis=1)
    if bad.any():
        raise ValueError(f"invalid pattern string {lines[int(np.argmax(bad))]!r}")
    return SimTrace(seed=seed, codes=codes)
