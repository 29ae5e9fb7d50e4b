"""Core domain types for a two-priority random-access channel.

A slot offers ``m`` resource blocks (RBs).  Every one of ``n_h`` high-priority
and ``n_l`` low-priority devices transmits in every slot, choosing RB ``i``
with probability ``p_h[i]`` or ``p_l[i]`` respectively.  An RB carries a
successful transmission iff exactly one device picked it.  Everything else in
the package is built on the vocabulary defined here:

* :class:`NetworkConfig` -- population sizes and RB count,
* :class:`AccessProbabilityPair` -- the two access-probability vectors,
* :class:`ThroughputPair` -- expected successes per slot and class.

An access pattern, the per-RB outcome of one slot, is a plain ``str`` with
one character of :data:`PATTERN_CHARS` per RB; :func:`pattern_bytes` is the
rule that gives an RB its character.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SUM_TOL",
    "PATTERN_CHARS",
    "pattern_bytes",
    "check_gamma",
    "NetworkConfig",
    "AccessProbabilityPair",
    "ThroughputPair",
]

# Absolute tolerance on probability-vector sums.
SUM_TOL = 1e-9

# The per-RB outcomes of a slot, one character each: ``h`` high success,
# ``l`` low success, ``o`` empty, ``x`` collision.  Their order here is the
# lexicographic order of pattern strings.
PATTERN_CHARS = "hlox"

# The character of an RB, as its ASCII byte, at 3 * min(high devices, 2) +
# min(low devices, 2) on it; read-only, as bytes buffers are.
_RB_CHAR = np.frombuffer(b"olxhxxxxx", dtype=np.uint8)


def pattern_bytes(c_h, c_l) -> np.ndarray:
    """The pattern characters, as uint8 ASCII bytes, of RBs on which ``c_h``
    high and ``c_l`` low devices transmit (integer arrays that broadcast):
    one device alone is its class's success, none leaves the RB empty and
    two or more collide."""
    # min(c, 2) in numpy's SIMD loops, which np.minimum against a scalar skips
    h, l = ((c >= 1).view(np.uint8) + (c >= 2).view(np.uint8) for c in (c_h, c_l))
    return _RB_CHAR.take(3 * h + l)


def check_gamma(gamma: float) -> None:
    """Raise ``ValueError`` unless ``gamma`` is a usable low-class floor:
    a finite number >= 0."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == math.inf:
        raise ValueError(f"gamma must be finite, got {gamma}")


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
    :data:`SUM_TOL`.  Instances are immutable and hashable.
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

    @staticmethod
    def uniform(m: int) -> "AccessProbabilityPair":
        """Both classes uniform over ``m`` RBs."""
        u = (1.0 / m,) * m
        return AccessProbabilityPair(u, u)


@dataclass(frozen=True)
class ThroughputPair:
    """Expected (or empirical) successful transmissions per slot, by class."""

    mu_h: float
    mu_l: float
