"""Action spaces for bandit-based access-probability selection.

Two families:

* discretized -- every pair of probability vectors on the grid
  {0, 1/q, ..., 1} with exact unit sum, optionally reduced to one
  representative per joint-rotation orbit (rotating both vectors by the same
  offset relabels RBs without changing any throughput);
* compact -- a lookup table of optimizer solutions indexed by candidate load
  (n_h, n_l), so the bandit searches over loads instead of raw vectors.

A grid pair's exact integer numerators over the common denominator q are its
key in the space's index.  Deduplication compares integer codes of those
numerators, never floats.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .exact import compositions, throughput_closed_form, throughput_terms
from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair, check_gamma
from .optimize import FEASIBILITY_TOL, SolverOptions, solve_batch

__all__ = [
    "DEFAULT_ACTION_CAP",
    "GridSpec",
    "Action",
    "CompactEntry",
    "ActionSpace",
    "full_space_size",
    "generate_discretized",
    "build_compact",
    "save_compact",
    "load_compact",
    "exact_throughputs",
]

# Refuse to materialize more grid actions than this.
DEFAULT_ACTION_CAP = 1_000_000

# Stored throughputs must match a fresh exact evaluation this tightly.
_TABLE_MU_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Probability grid with step d = 1/q over m RBs."""

    m: int
    d: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not self.d > 0:
            raise ValueError(f"grid step must be > 0, got {self.d}")
        q = round(1.0 / self.d)
        if q < 1 or abs(1.0 / self.d - q) > 1e-9:
            raise ValueError(f"grid step {self.d} is not the inverse of an integer")

    @property
    def q(self) -> int:
        return round(1.0 / self.d)


@dataclass(frozen=True)
class Action:
    """One selectable access-probability pair."""

    pair: AccessProbabilityPair


@dataclass(frozen=True)
class CompactEntry:
    """One compact-table cell: the stored allocation for a candidate load."""

    n_h: int
    n_l: int
    pair: AccessProbabilityPair
    mu_h: float
    mu_l: float


@dataclass
class ActionSpace:
    """Ordered collection of actions plus a key -> position map.

    Discretized spaces key actions by their exact numerators (canonical
    numerators when reduced); compact spaces key by the (n_h, n_l) cell and
    carry their cells in ``entries`` and the low-class floor they were
    solved for in ``gamma``.
    """

    actions: tuple[Action, ...]
    index: dict
    entries: Optional[tuple[CompactEntry, ...]] = None
    gamma: Optional[float] = None
    # Exact per-load pull tables, keyed by (n_h, n_l) and filled by
    # rachopt.mab on first use.  A cache, not part of the space: equality
    # and repr ignore it.
    pull_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def allocations(self) -> tuple[np.ndarray, np.ndarray]:
        """``(p_h, p_l)`` with one row per action, shape (size, m).  Built
        once per space and read-only."""
        p_h = np.array([a.pair.p_h for a in self.actions], dtype=float)
        p_l = np.array([a.pair.p_l for a in self.actions], dtype=float)
        p_h.setflags(write=False)
        p_l.setflags(write=False)
        return p_h, p_l

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def m(self) -> int:
        """Number of RBs, read off the first action."""
        return self.actions[0].pair.m

    @property
    def is_compact(self) -> bool:
        """Whether this is a compact table, one action per cell."""
        return self.entries is not None

    def infeasible_cells(self) -> frozenset[tuple[int, int]]:
        """Compact cells whose stored allocation misses the low-class floor."""
        if not self.is_compact:
            return frozenset()
        return frozenset(
            (e.n_h, e.n_l) for e in self.entries if e.mu_l < self.gamma - FEASIBILITY_TOL
        )


def full_space_size(spec: GridSpec) -> int:
    """Number of grid pairs before any reduction."""
    per_vector = math.comb(spec.q + spec.m - 1, spec.m - 1)
    return per_vector * per_vector


def generate_discretized(spec: GridSpec, reduced: bool = False) -> ActionSpace:
    """Materialize the grid space in lexicographic numerator order.

    With ``reduced`` each joint-rotation orbit keeps only its
    lexicographically smallest member, which preserves the overall ordering
    and makes the result independent of generation order.  Refuses grids of
    more than ``DEFAULT_ACTION_CAP`` pairs.
    """
    total = full_space_size(spec)
    if total > DEFAULT_ACTION_CAP:
        raise ValueError(
            f"{total} grid actions exceeds cap {DEFAULT_ACTION_CAP} (m={spec.m}, d={spec.d})"
        )
    comps = list(compositions(spec.q, spec.m))
    c = len(comps)
    keep = np.ones((c, c), dtype=bool)
    if reduced:
        # The pair (comps[i], comps[j]) has the integer code i * c + j, its
        # rank in the lexicographic order of the 2m numerators.  Codes stay
        # below the action cap, so they fit int64 whatever m and q are.  A
        # pair is kept when no joint rotation has a smaller code; a periodic
        # pair ties with some of its rotations and is kept once.
        rank = {u: i for i, u in enumerate(comps)}
        code = np.arange(c * c).reshape(c, c)
        for s in range(1, spec.m):
            r = np.array([rank[u[s:] + u[:s]] for u in comps])
            keep &= code <= r[:, None] * c + r[None, :]
    probs = [tuple(n / spec.q for n in u) for u in comps]
    # row-major order of the kept (i, j) is lexicographic numerator order
    pairs = list(zip(*(x.tolist() for x in np.nonzero(keep))))
    actions = tuple(Action(AccessProbabilityPair(probs[i], probs[j])) for i, j in pairs)
    index = {(comps[i], comps[j]): pos for pos, (i, j) in enumerate(pairs)}
    return ActionSpace(actions, index)


# ------------------------------------------------------------- compact table


def _compact_space(gamma: float, entries: list[CompactEntry]) -> ActionSpace:
    """The compact space solved for the floor ``gamma`` and holding
    ``entries`` in order, one per cell of the full load rectangle
    [0, n_h_max] x [0, n_l_max] they span."""
    check_gamma(gamma)
    index: dict = {}
    for i, e in enumerate(entries):
        if (e.n_h, e.n_l) in index:
            raise ValueError(f"duplicate cell ({e.n_h}, {e.n_l})")
        index[(e.n_h, e.n_l)] = i
    n_h_max = max(e.n_h for e in entries)
    n_l_max = max(e.n_l for e in entries)
    if len(entries) != (n_h_max + 1) * (n_l_max + 1):
        raise ValueError("compact table does not cover a full load rectangle")
    return ActionSpace(
        actions=tuple(Action(e.pair) for e in entries),
        index=index,
        entries=tuple(entries),
        gamma=gamma,
    )


def build_compact(
    m: int,
    n_h_max: int,
    n_l_max: int,
    gamma: float,
    opt: Optional[Callable[[NetworkConfig, float], "object"]] = None,
    options: Optional[SolverOptions] = None,
) -> ActionSpace:
    """Solve the constrained allocation problem for every candidate load in
    [0, n_h_max] x [0, n_l_max] and store the solutions as a lookup table.

    By default every cell that needs a solve goes through one
    :func:`rachopt.optimize.solve_batch` call under ``options``: all cells
    advance in lock-step, each with its own stopping rules, and each stores
    bit for bit what a per-cell :func:`rachopt.optimize.solve` would.  The
    ``opt`` hook replaces the batch with a per-cell call: it maps (cfg,
    gamma) to an optimizer result carrying a ``pair`` attribute, for custom
    solvers and for timing each solve on its own.

    Cells with n_h = 0 have identically zero objective, so any feasible
    vector works and p_h is stored uniform by convention.  Cells where the
    constraint cannot be met (n_l = 0 with gamma > 0) keep the best-attained
    allocation and are reported by :meth:`ActionSpace.infeasible_cells`.
    """
    if opt is not None and options is not None:
        raise ValueError("options apply to the batched solver; pass opt or options")
    cfgs = [
        NetworkConfig(n_h, n_l, m)
        for n_h in range(n_h_max + 1)
        for n_l in range(n_l_max + 1)
    ]
    pending = [c for c in cfgs if c.n_h > 0 or (c.n_l > 0 and gamma != 0.0)]
    if opt is None:
        results = solve_batch(pending, gamma, options)
    else:
        results = [opt(cfg, gamma) for cfg in pending]
    solved = {cfg: res.pair for cfg, res in zip(pending, results)}

    entries: list[CompactEntry] = []
    uniform = AccessProbabilityPair.uniform(m)
    for cfg in cfgs:
        pair = solved.get(cfg, uniform)
        if cfg.n_h == 0:
            # objective is identically zero and p_h does not touch mu_l, so
            # normalize the stored vector
            pair = AccessProbabilityPair(uniform.p_h, pair.p_l)
        mu = throughput_closed_form(cfg, pair)
        entries.append(CompactEntry(cfg.n_h, cfg.n_l, pair, mu.mu_h, mu.mu_l))
    return _compact_space(gamma, entries)


def _compact_header(m: int) -> list[str]:
    return (
        ["m", "n_h", "n_l", "gamma"]
        + [f"p_h_{i + 1}" for i in range(m)]
        + [f"p_l_{i + 1}" for i in range(m)]
        + ["mu_h", "mu_l"]
    )


def save_compact(space: ActionSpace, path: Union[str, Path]) -> None:
    """Write a compact table as CSV with 12-significant-digit values."""
    if not space.is_compact:
        raise TypeError("save_compact expects a compact space")
    m = space.m
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_compact_header(m))
        for e in space.entries:
            row = [m, e.n_h, e.n_l, f"{space.gamma:.12g}"]
            row += [f"{x:.12g}" for x in e.pair.p_h]
            row += [f"{x:.12g}" for x in e.pair.p_l]
            row += [f"{e.mu_h:.12g}", f"{e.mu_l:.12g}"]
            writer.writerow(row)


def load_compact(path: Union[str, Path]) -> ActionSpace:
    """Read a compact table, revalidating every stored throughput against a
    fresh exact evaluation.  Raises ``ValueError`` naming the file, and the
    line of a row that does not parse or fails a check."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [(reader.line_num, r) for r in reader if r]
    m = (len(header) - 6) // 2
    if m < 1 or header != _compact_header(m):
        raise ValueError(f"unrecognized compact-table header in {path}")
    if not rows:
        raise ValueError(f"empty compact table in {path}")

    entries: list[CompactEntry] = []
    gamma = None
    for line, r in rows:
        try:
            if len(r) != len(header):
                raise ValueError(f"{len(r)} fields, expected {len(header)}")
            if int(r[0]) != m:
                raise ValueError(f"row m={r[0]} disagrees with header m={m}")
            n_h, n_l, row_gamma = int(r[1]), int(r[2]), float(r[3])
            check_gamma(row_gamma)
            if gamma is not None and row_gamma != gamma:
                raise ValueError("rows disagree on gamma")
            gamma = row_gamma
            pair = AccessProbabilityPair(
                tuple(map(float, r[4 : 4 + m])), tuple(map(float, r[4 + m : 4 + 2 * m]))
            )
            mu_h, mu_l = float(r[4 + 2 * m]), float(r[5 + 2 * m])
            mu = throughput_closed_form(NetworkConfig(n_h, n_l, m), pair)
            if abs(mu.mu_h - mu_h) > _TABLE_MU_TOL or abs(mu.mu_l - mu_l) > _TABLE_MU_TOL:
                raise ValueError(f"stored throughput for cell ({n_h}, {n_l}) fails revalidation")
        except ValueError as exc:
            raise ValueError(f"{path}: bad compact-table row at line {line}: {exc}") from None
        entries.append(CompactEntry(n_h, n_l, pair, mu_h, mu_l))
    try:
        return _compact_space(gamma, entries)
    except ValueError as exc:  # a repeated cell or a cell missing
        raise ValueError(f"{path}: {exc}") from None


def exact_throughputs(space: ActionSpace, cfg: NetworkConfig) -> np.ndarray:
    """Exact (mu_h, mu_l) for every action under ``cfg``, vectorized.

    Returns an array of shape (size, 2) in action order.
    """
    terms = throughput_terms(cfg.n_h, cfg.n_l, *space.allocations)
    return np.stack([t.sum(axis=1) for t in terms], axis=1)
