"""Action spaces for bandit-based access-probability selection.

Two families:

* discretized -- every pair of probability vectors on the grid
  {0, 1/q, ..., 1} with exact unit sum, optionally reduced to one
  representative per joint-rotation orbit (rotating both vectors by the same
  offset relabels RBs without changing any throughput);
* compact -- a lookup table of optimizer solutions, one per candidate load
  (n_h, n_l), so the bandit searches over loads instead of raw vectors.

Every action is addressed by its position.  A grid lists its pairs in the
lexicographic order of their integer numerators over the common denominator
q (``round(x * q)`` of an ``allocations`` row) and deduplicates by integer
codes of those numerators, never floats.  A compact table lists the cells of
[0, n_h_max] x [0, n_l_max] row-major: (n_h, n_l) at ``n_h * (n_l_max + 1) + n_l``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .exact import compositions, throughput_rows
from .model import AccessProbabilityPair, NetworkConfig, check_gamma
from .optimize import FEASIBILITY_TOL, solve_batch

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
    """Ordered collection of actions, each addressed by its position (see the
    module docstring).  A compact table also carries its row-major cells in
    ``entries`` and the low-class floor they were solved for in ``gamma``."""

    actions: tuple[Action, ...]
    entries: Optional[tuple[CompactEntry, ...]] = None
    gamma: Optional[float] = None
    # Exact per-load pull tables, keyed by (n_h, n_l) and filled by
    # rachopt.mab on first use.  A cache, not part of the space: equality
    # and repr ignore it.
    pull_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def allocations(self) -> np.ndarray:
        """Every action's ``(p_h, p_l)`` stacked as the closed-form kernel
        takes them, shape (2, size, m): ``p_h, p_l = space.allocations``
        gives one row per action for each class.  Built once per space and
        read-only."""
        x = np.array([[a.pair.p_h for a in self.actions], [a.pair.p_l for a in self.actions]])
        x.setflags(write=False)
        return x

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
    comps = [tuple(u) for u in compositions(spec.q, spec.m).tolist()]
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
    kept = zip(*(x.tolist() for x in np.nonzero(keep)))
    return ActionSpace(tuple(Action(AccessProbabilityPair(probs[i], probs[j])) for i, j in kept))


# ------------------------------------------------------------- compact table


def _compact_space(gamma: float, cells: list, pairs: list[AccessProbabilityPair]) -> ActionSpace:
    """The compact space of ``pairs`` at the row-major ``cells`` (n_h, n_l),
    solved for ``gamma``; the one place a table is made.  It scores every
    cell in one :func:`rachopt.exact.throughput_rows` call, one load per
    row: bit for bit :func:`rachopt.exact.throughput_closed_form`."""
    check_gamma(gamma)
    x = np.array([[p.p_h for p in pairs], [p.p_l for p in pairs]])
    mu = throughput_rows(x, *zip(*cells)).T.tolist()
    entries = tuple(CompactEntry(*c, p, *mu_c) for c, p, mu_c in zip(cells, pairs, mu))
    return ActionSpace(tuple(map(Action, pairs)), entries, float(gamma))


def build_compact(
    m: int,
    n_h_max: int,
    n_l_max: int,
    gamma: float,
    opt: Optional[Callable[[NetworkConfig, float], "object"]] = None,
) -> ActionSpace:
    """Solve the constrained allocation problem for every candidate load in
    [0, n_h_max] x [0, n_l_max] and store the solutions as a lookup table.

    By default every cell that needs a solve goes through one default
    :func:`rachopt.optimize.solve_batch` call: all cells share one array,
    each running its outer rounds on its own clock and stopping by its own
    rules, and each stores bit for bit what a per-cell
    :func:`rachopt.optimize.solve` would.  The ``opt`` hook
    replaces the batch with a per-cell call: it maps (cfg, gamma) to an
    optimizer result carrying a ``pair`` attribute, for custom solvers and
    for timing each solve on its own.

    Cells with n_h = 0 have identically zero objective, so any feasible
    vector works and p_h is stored uniform by convention.  Cells where the
    constraint cannot be met (n_l = 0 with gamma > 0) keep the best-attained
    allocation and are reported by :meth:`ActionSpace.infeasible_cells`.
    The table is made, and its cells scored, by :func:`_compact_space`, as
    a loaded table is.
    """
    for name, bound in (("n_h_max", n_h_max), ("n_l_max", n_l_max)):
        if bound < 0:
            raise ValueError(f"{name} must be >= 0, got {bound}")
    cells = [(n_h, n_l) for n_h in range(n_h_max + 1) for n_l in range(n_l_max + 1)]
    cfgs = [NetworkConfig(n_h, n_l, m) for n_h, n_l in cells]
    pending = [c for c in cfgs if c.n_h > 0 or (c.n_l > 0 and gamma != 0.0)]
    if opt is None:
        results = solve_batch(pending, gamma)
    else:
        results = [opt(cfg, gamma) for cfg in pending]
    solved = {cfg: res.pair for cfg, res in zip(pending, results)}

    uniform = AccessProbabilityPair.uniform(m)
    # objective is identically zero where n_h = 0 and p_h does not touch
    # mu_l, so normalize the stored vector
    pairs = [
        solved[cfg] if cfg.n_h else AccessProbabilityPair(uniform.p_h, solved.get(cfg, uniform).p_l)
        for cfg in cfgs
    ]
    return _compact_space(gamma, cells, pairs)


def _compact_header(m: int) -> list[str]:
    return (
        ["m", "n_h", "n_l", "gamma"]
        + [f"p_h_{i + 1}" for i in range(m)]
        + [f"p_l_{i + 1}" for i in range(m)]
        + ["mu_h", "mu_l"]
    )


def save_compact(space: ActionSpace, path: Union[str, Path]) -> None:
    """Write a compact table as CSV, every float as its shortest ``repr``,
    so :func:`load_compact` reads back the same table bit for bit."""
    if not space.is_compact:
        raise TypeError("save_compact expects a compact space")
    m = space.m
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # writes a float as its repr
        writer.writerow(_compact_header(m))
        for e in space.entries:
            writer.writerow([m, e.n_h, e.n_l, space.gamma, *e.pair.p_h, *e.pair.p_l,
                             e.mu_h, e.mu_l])


def load_compact(path: Union[str, Path]) -> ActionSpace:
    """Read a compact table, check its cells' row-major positions and make
    it by :func:`_compact_space`, whose scores each stored throughput must
    match within ``_TABLE_MU_TOL``; so a table :func:`save_compact` wrote
    reads back bit for bit.  A byte that is not UTF-8 reads as U+FFFD.
    Raises ``ValueError`` naming the file, and the line of a bad row."""
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            rows = [(reader.line_num, r) for r in reader if r]
        except csv.Error as exc:  # a field past csv's size limit
            raise ValueError(f"{path}: unreadable CSV at line {reader.line_num}: {exc}") from None
    m = (len(header) - 6) // 2
    if m < 1 or header != _compact_header(m):
        raise ValueError(f"unrecognized compact-table header in {path}")
    if not rows:
        raise ValueError(f"empty compact table in {path}")

    cells, pairs, stored = [], [], []
    gamma = None
    for line, r in rows:
        try:
            if len(r) != len(header):
                raise ValueError(f"{len(r)} fields, expected {len(header)}")
            if int(r[0]) != m:
                raise ValueError(f"row m={r[0]} disagrees with header m={m}")
            cfg, row_gamma = NetworkConfig(int(r[1]), int(r[2]), m), float(r[3])
            check_gamma(row_gamma)
            if gamma is not None and row_gamma != gamma:
                raise ValueError("rows disagree on gamma")
            gamma = row_gamma
            values = [float(v) for v in r[4:]]
            pairs.append(AccessProbabilityPair(values[:m], values[m : 2 * m]))
            stored.append(values[2 * m :])
        except ValueError as exc:
            raise ValueError(f"{path}: bad compact-table row at line {line}: {exc}") from None
        cells.append((cfg.n_h, cfg.n_l))
    # row-major order over [0, n_h_max] x [0, n_l_max]: cell divmod(i, n_l_max + 1) at i
    width = max(n_l for _, n_l in cells) + 1
    for i, ((line, _), cell) in enumerate(zip(rows, cells)):
        if cell != divmod(i, width):
            raise ValueError(f"{path}: bad compact-table row at line {line}: cell "
                             f"{cell} where row-major order puts {divmod(i, width)}")
    if len(cells) % width:
        raise ValueError(f"{path}: compact table does not cover a full load rectangle")
    space = _compact_space(gamma, cells, pairs)
    for (line, _), e, (mu_h, mu_l) in zip(rows, space.entries, stored):
        if not (abs(e.mu_h - mu_h) <= _TABLE_MU_TOL and abs(e.mu_l - mu_l) <= _TABLE_MU_TOL):
            raise ValueError(f"{path}: bad compact-table row at line {line}: stored "
                             f"throughput for cell {(e.n_h, e.n_l)} fails revalidation")
    return space


def exact_throughputs(space: ActionSpace, cfg: NetworkConfig) -> np.ndarray:
    """Exact (mu_h, mu_l) for every action under ``cfg``: shape (size, 2)
    in action order, each row bit for bit
    :func:`rachopt.exact.throughput_closed_form` of its action, as both are
    :func:`rachopt.exact.throughput_rows`."""
    if space.m != cfg.m:
        raise ValueError(f"space has m={space.m}, config has m={cfg.m}")
    return throughput_rows(space.allocations, cfg.n_h, cfg.n_l).T
