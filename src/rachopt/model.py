"""Core domain types for a two-priority random-access channel.

A slot offers ``m`` resource blocks (RBs).  Every one of ``n_h`` high-priority
and ``n_l`` low-priority devices transmits in every slot, choosing RB ``i``
with probability ``p_h[i]`` or ``p_l[i]`` respectively.  An RB carries a
successful transmission iff exactly one device picked it.  Everything else in
the package is built on the vocabulary defined here:

* :class:`NetworkConfig` -- population sizes and RB count,
* :class:`AccessProbabilityPair` -- the two access-probability vectors,
* :class:`AccessPattern` -- the per-RB event outcome of one slot,
* :class:`ThroughputPair` -- expected successes per slot and class.

Patterns serialize to compact strings, one character per RB:
``h`` high success, ``l`` low success, ``o`` empty, ``x`` collision.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SUM_TOL",
    "SlotEvent",
    "NetworkConfig",
    "AccessProbabilityPair",
    "AccessPattern",
    "ThroughputPair",
    "pattern_to_string",
    "pattern_from_string",
]

# Absolute tolerance on probability-vector sums.
SUM_TOL = 1e-9


class SlotEvent(Enum):
    """Outcome of a single resource block in a single slot."""

    HIGH_SUCCESS = "h"
    LOW_SUCCESS = "l"
    EMPTY = "o"
    COLLISION = "x"


@dataclass(frozen=True)
class NetworkConfig:
    """Load and channel geometry: ``n_h`` H-devices, ``n_l`` L-devices, ``m`` RBs."""

    n_h: int
    n_l: int
    m: int

    def __post_init__(self) -> None:
        for name in ("n_h", "n_l", "m"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.n_h < 0 or self.n_l < 0:
            raise ValueError(f"device counts must be >= 0, got ({self.n_h}, {self.n_l})")
        if self.m < 1:
            raise ValueError(f"need at least one resource block, got m={self.m}")

    @property
    def n(self) -> int:
        """Total transmitting devices per slot."""
        return self.n_h + self.n_l


@dataclass(frozen=True)
class AccessProbabilityPair:
    """One access-probability vector per class, each a distribution over RBs.

    Entries must lie in [0, 1] and each vector must sum to 1 within
    :data:`SUM_TOL`.  Instances are immutable and hashable; use
    :meth:`as_arrays` for numeric work.
    """

    p_h: tuple[float, ...]
    p_l: tuple[float, ...]

    def __init__(self, p_h: Sequence[float], p_l: Sequence[float]) -> None:
        object.__setattr__(self, "p_h", tuple(float(x) for x in p_h))
        object.__setattr__(self, "p_l", tuple(float(x) for x in p_l))
        self._validate()

    def _validate(self) -> None:
        if len(self.p_h) != len(self.p_l):
            raise ValueError(
                f"vector lengths differ: {len(self.p_h)} vs {len(self.p_l)}"
            )
        if len(self.p_h) == 0:
            raise ValueError("empty probability vectors")
        for name, vec in (("p_h", self.p_h), ("p_l", self.p_l)):
            for x in vec:
                if not (0.0 <= x <= 1.0):
                    raise ValueError(f"{name} entry {x!r} outside [0, 1]")
            if abs(sum(vec) - 1.0) > SUM_TOL:
                raise ValueError(f"{name} sums to {sum(vec)!r}, expected 1")

    @property
    def m(self) -> int:
        return len(self.p_h)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.p_h, dtype=float), np.asarray(self.p_l, dtype=float)

    @staticmethod
    def uniform(m: int) -> "AccessProbabilityPair":
        """Both classes uniform over ``m`` RBs."""
        u = (1.0 / m,) * m
        return AccessProbabilityPair(u, u)


@dataclass(frozen=True)
class AccessPattern:
    """Per-RB slot outcome; the four index sets partition the RBs."""

    events: tuple[SlotEvent, ...]

    def __init__(self, events: Iterable[SlotEvent]) -> None:
        object.__setattr__(self, "events", tuple(events))
        if not all(isinstance(e, SlotEvent) for e in self.events):
            raise TypeError("events must be SlotEvent members")

    @property
    def m(self) -> int:
        return len(self.events)

    def _where(self, ev: SlotEvent) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.events) if e is ev)

    @property
    def high_rbs(self) -> tuple[int, ...]:
        return self._where(SlotEvent.HIGH_SUCCESS)

    @property
    def low_rbs(self) -> tuple[int, ...]:
        return self._where(SlotEvent.LOW_SUCCESS)

    @property
    def empty_rbs(self) -> tuple[int, ...]:
        return self._where(SlotEvent.EMPTY)

    @property
    def collision_rbs(self) -> tuple[int, ...]:
        return self._where(SlotEvent.COLLISION)


@dataclass(frozen=True)
class ThroughputPair:
    """Expected (or empirical) successful transmissions per slot, by class."""

    mu_h: float
    mu_l: float


def pattern_to_string(pattern: AccessPattern) -> str:
    """Serialize to one character per RB (``h``/``l``/``o``/``x``)."""
    return "".join(e.value for e in pattern.events)


def pattern_from_string(s: str) -> AccessPattern:
    """Inverse of :func:`pattern_to_string`; rejects unknown characters."""
    try:
        return AccessPattern(SlotEvent(c) for c in s)
    except ValueError as exc:
        raise ValueError(f"invalid pattern string {s!r}") from exc
