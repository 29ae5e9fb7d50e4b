"""Cross-entropy multi-armed bandit over access-probability action spaces.

Each pull samples an action from a distribution ``p_as``, runs ``t`` slots,
turns the empirical throughputs into a scalar reward (scaled, and penalized
by ``rho`` when the low class misses its floor), and folds the reward into a
running per-action mean Q.  After every batch the cross-entropy step re-fits
``p_as`` toward the actions holding the highest Q snapshots seen during the
batch, smoothed by ``alpha``, and then blends a small share
:data:`UNIFORM_SHARE` of uniform mass back in.

Nothing resets on a load change: Q, the pull counts and ``p_as`` carry over
and only the reward scale is re-derived per phase.  The uniform share is
what lets a running bandit track a non-stationary network.  The elite is
ranked among the batch's own pulls, so without it a batch that draws only
the old favourites refits to them however far their Q falls, and the
actions that became good after a switch are never drawn again.

Slots are i.i.d. and a reward depends only on a pull's total high and low
successes, so by default those totals are drawn exactly: a pull's counts of
each per-slot (h, l) outcome are Multinomial(t, pmf[action]), with the
tables from :func:`~rachopt.exact.slot_success_pmf` and one multinomial
call per batch and load phase.  The tables depend only on the space and the
load, so they are built once per (space, load) and kept on the space for
every later run, seed and load phase: (m + 1)**2 floats per action and
load, 784 x 25 floats (0.16 MB) per load of the m = 4, d = 0.2 grid.
``throughput_fn=sim_throughput`` instead runs the PCG64 slot simulator of
:mod:`rachopt.simulate` for every pull; the two backends agree in
distribution but draw different random streams.

A run returns a :class:`MabResult` with fields ``trace``, ``q``, ``v``,
``p_as``, ``best_index`` and ``batch_size``: the final per-action mean
reward, pull counts and sampling distribution sit next to the trace, and
``best_index`` is the argmax of ``q``.  The trace is one numpy record
array, a record per pull with fields ``pull``, ``action_index``,
``mu_h_t``, ``mu_l_t`` and ``reward``: the run fills its columns a batch
and load phase at a time, and :func:`mae_trace` and :func:`save_mab_trace`
take them whole.  The package writes the trace CSV and never reads it;
``np.genfromtxt(path, delimiter=",", names=True, comments="#", dtype=None,
ndmin=1)`` reads it back, its columns under the header's names.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .actionspace import ActionSpace
from .exact import scaling_reference, slot_success_pmf
from .model import NetworkConfig, ThroughputPair, check_gamma

__all__ = [
    "UNIFORM_SHARE",
    "MabConfig",
    "MabResult",
    "reward",
    "ce_update",
    "smooth",
    "run",
    "run_nonstationary",
    "estimate_load",
    "mae_trace",
    "save_mab_trace",
]

log = logging.getLogger(__name__)

ThroughputFn = Callable[[NetworkConfig, object, int, int], ThroughputPair]

# Share of ``p_as`` blended to uniform after every refit.
#
# Recovery from a load switch needs pulls that land off the favourite set:
# one whose Q snapshot beats the favourites' enters the elite, and from there
# its mass grows by a factor 1 - alpha + alpha / elite_fraction per batch.
# The more such pulls, the sooner one finds an action that beats the
# favourites' falling running means.  A stationary run bounds them: even if
# every one of them ranked above the favourites, the favourites should keep
# the majority of the elite.  So a converged run spends half the elite,
# f = elite_fraction / 2 of each batch, off the favourites.  Uniform mass
# blended in at one refit decays by (1 - alpha) at each later one, so that
# share settles where f = (1 - s)(1 - alpha) f + s, i.e.
# s = alpha f / (1 - f (1 - alpha)).  At the paper's grid settings
# (alpha = 0.2, elite_fraction = 0.1) that is 1.04%, taken as 1%: 24 of
# every 500 pulls.  At the compact bandit's alpha = 0.1 the same share
# settles at 9% of the pulls.
UNIFORM_SHARE = 0.01

# First line of a pull-trace CSV, one name per column of a pull record.
_TRACE_HEADER = "pull,action_index,mu_h_T,mu_l_T,reward"


@dataclass(frozen=True)
class MabConfig:
    """Bandit hyperparameters.

    ``runs`` pulls are consumed in ``runs // batch_size`` whole batches;
    leftovers are dropped.  ``elite_fraction`` of each batch feeds the
    cross-entropy refit and ``alpha`` blends it into the sampling
    distribution.
    """

    gamma: float = 0.0
    rho: float = 0.0
    t: int = 1000
    runs: int = 15000
    batch_size: int = 500
    elite_fraction: float = 0.1
    alpha: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.runs < self.batch_size:
            raise ValueError(
                f"need runs >= batch_size >= 1, got {self.runs}, {self.batch_size}"
            )
        if not 0 < self.elite_fraction <= 1:
            raise ValueError(f"elite_fraction {self.elite_fraction} outside (0, 1]")
        if self.elite_size < 1:
            raise ValueError("elite_fraction keeps no records per batch")
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if not 0 <= self.rho <= 1:
            raise ValueError(f"rho {self.rho} outside [0, 1]")
        check_gamma(self.gamma)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_batches(self) -> int:
        return self.runs // self.batch_size

    @cached_property
    def elite_size(self) -> int:
        # the fraction as written: 0.29 of 100 is 29, where the float product is 28.999...
        return int(Fraction(str(self.elite_fraction)) * self.batch_size)


def _empty_trace(pulls: int) -> np.recarray:
    """A zeroed pull trace with room for ``pulls`` records."""
    dtype = [("pull", np.int64), ("action_index", np.int64),
             ("mu_h_t", float), ("mu_l_t", float), ("reward", float)]
    return np.zeros(pulls, dtype=dtype).view(np.recarray)


@dataclass
class MabResult:
    """One bandit run: its trace (a record array, one record per pull) and
    its final statistics, the per-action mean reward ``q``, pull counts
    ``v`` and sampling distribution ``p_as``."""

    trace: np.recarray
    q: np.ndarray
    v: np.ndarray
    p_as: np.ndarray
    best_index: int
    batch_size: int


def reward(mu_h_t, mu_l_t, gamma: float, rho: float, scale: float):
    """Scaled high-class throughput, cut to a fraction ``rho`` when the
    empirical low-class throughput misses the floor.  Takes scalars or
    arrays of pulls."""
    return np.where(mu_l_t >= gamma, mu_h_t, rho * mu_h_t) / scale


def _fold(q: list, v: list, actions: list, rewards: list) -> list:
    """Fold rewards into the running means ``q`` (pull counts ``v``) in pull
    order; returns each pull's updated mean, the snapshot the refit ranks.
    Sequential on purpose: a closed-form (cumsum) mean moves the last bits,
    which can flip exact ties in the stable elite sort."""
    snapshots = []
    for i, r in zip(actions, rewards):
        v[i] += 1
        q[i] += (r - q[i]) / v[i]
        snapshots.append(q[i])
    return snapshots


def ce_update(size: int, elite: int, actions, snapshots) -> np.ndarray:
    """Refit distribution from a batch of pulled actions and their Q
    snapshots.

    Pulls are ranked by snapshot descending -- earlier pulls win ties, which
    the stable sort provides -- and the top ``elite`` of them vote with equal
    weight.
    """
    if elite < 1 or elite > len(actions):
        raise ValueError(f"elite {elite} outside 1..{len(actions)}")
    ranked = np.argsort(-np.asarray(snapshots, dtype=float), kind="stable")
    votes = np.bincount(np.asarray(actions)[ranked[:elite]], minlength=size)
    return votes / elite


def smooth(p: np.ndarray, p_new: np.ndarray, alpha: float) -> np.ndarray:
    """Convex blend keeping some mass on previously favored actions."""
    return (1.0 - alpha) * p + alpha * p_new


def _phase_scale(cfg: NetworkConfig) -> float:
    try:
        return scaling_reference(cfg)
    except ValueError as exc:
        log.warning("rewards left unscaled for %s: %s", cfg, exc)
        return 1.0


def _sim_seed(master_seed: int, pull: int) -> int:
    words = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(1, pull)
    ).generate_state(2, dtype=np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def _pull_table(space: ActionSpace, cfg: NetworkConfig) -> np.ndarray:
    """Per action, the flattened per-slot (h, l) pmf under ``cfg``'s load,
    each row normalized to sum to 1.  Built on the first call for each
    (n_h, n_l) and kept in ``space.pull_tables``."""
    key = (cfg.n_h, cfg.n_l)
    if key not in space.pull_tables:
        p_h, p_l = space.allocations
        pmf = slot_success_pmf(cfg.n_h, cfg.n_l, p_h, p_l).reshape(len(p_h), -1)
        # rows sum to 1 up to rounding; multinomial wants them at most 1
        table = pmf / pmf.sum(axis=1, keepdims=True)
        table.setflags(write=False)
        space.pull_tables[key] = table
    return space.pull_tables[key]


def _exact_sampler(space: ActionSpace, mcfg: MabConfig):
    """Pull totals drawn exactly.  Per-slot (h, l) success counts are i.i.d.
    across slots, so a pull's counts of each (h, l) outcome are
    Multinomial(t, pmf[action]), drawn from their own child of
    ``mcfg.seed``.  The pmf tables come from :func:`_pull_table`, built
    once per (space, load) and shared by every later run on the space:
    784 x 25 floats (0.16 MB) per load of the m = 4, d = 0.2 grid."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=mcfg.seed, spawn_key=(2,)))
    k = np.arange(space.m + 1)
    h_of, l_of = np.repeat(k, len(k)), np.tile(k, len(k))  # per flattened (h, l)
    t = mcfg.t

    def sample(cfg: NetworkConfig, idx: np.ndarray, first_pull: int):
        counts = rng.multinomial(t, _pull_table(space, cfg)[idx])
        return (counts @ h_of) / t, (counts @ l_of) / t

    return sample


def _hook_sampler(space: ActionSpace, mcfg: MabConfig, throughput_fn: ThroughputFn):
    """Pull totals from ``throughput_fn``, one call per pull with its own
    seed."""

    def sample(cfg: NetworkConfig, idx: np.ndarray, first_pull: int):
        mus = [
            throughput_fn(cfg, space.actions[i].pair, mcfg.t, _sim_seed(mcfg.seed, pull))
            for pull, i in enumerate(idx.tolist(), start=first_pull)
        ]
        return [mu.mu_h for mu in mus], [mu.mu_l for mu in mus]

    return sample


def run_nonstationary(
    space: ActionSpace,
    schedule: Sequence[tuple[int, NetworkConfig]],
    mcfg: MabConfig,
    throughput_fn: Optional[ThroughputFn] = None,
) -> MabResult:
    """Run the bandit while the true load follows ``schedule``.

    ``schedule`` lists (first_pull, cfg) entries, starting at pull 0 with
    strictly increasing switch points.  State is carried across switches
    untouched; the reward scale is re-derived for each phase, and every
    refit blends :data:`UNIFORM_SHARE` of uniform mass into ``p_as``.

    Without ``throughput_fn`` each pull's totals are drawn exactly from the
    action's per-slot (H, L) pmf; with it, every pull calls
    ``throughput_fn(cfg, pair, t, seed)``, for example
    :func:`~rachopt.simulate.sim_throughput`.
    """
    if not schedule or schedule[0][0] != 0:
        raise ValueError("schedule must start at pull 0")
    switches = [s for s, _ in schedule]
    if any(b <= a for a, b in zip(switches, switches[1:])):
        raise ValueError("schedule switch points must be strictly increasing")
    for _, cfg in schedule:
        if cfg.m != space.m:
            raise ValueError(f"schedule cfg {cfg} does not match space m")

    size = len(space)
    p_as = uniform = np.full(size, 1.0 / size)
    action_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=mcfg.seed, spawn_key=(0,))
    )
    if throughput_fn is None:
        sample = _exact_sampler(space, mcfg)
    else:
        sample = _hook_sampler(space, mcfg, throughput_fn)
    scales: dict[int, float] = {}
    trace = _empty_trace(mcfg.n_batches * mcfg.batch_size)
    trace.pull = np.arange(len(trace))
    # Python lists: the fold is sequential, and scalar numpy indexing is slow
    q, v = [0.0] * size, [0] * size

    for batch in range(mcfg.n_batches):
        cum = np.cumsum(p_as)
        cum[-1] = 1.0  # and random() < 1, so every index found is below size
        uniforms = action_rng.random(mcfg.batch_size)
        batch_idx = np.searchsorted(cum, uniforms, side="right")
        first, end = batch * mcfg.batch_size, (batch + 1) * mcfg.batch_size
        trace.action_index[first:end] = batch_idx
        for phase, lo, hi in _phase_runs(switches, first, end):
            cfg = schedule[phase][1]
            if phase not in scales:
                scales[phase] = _phase_scale(cfg)
            rows = trace[lo:hi]
            rows.mu_h_t, rows.mu_l_t = sample(cfg, batch_idx[lo - first : hi - first], lo)
            rows.reward = reward(rows.mu_h_t, rows.mu_l_t, mcfg.gamma, mcfg.rho, scales[phase])
        snapshots = _fold(q, v, batch_idx.tolist(), trace.reward[first:end].tolist())
        p_new = ce_update(size, mcfg.elite_size, batch_idx, snapshots)
        p_as = smooth(smooth(p_as, p_new, mcfg.alpha), uniform, UNIFORM_SHARE)
    q = np.array(q)
    return MabResult(trace=trace, q=q, v=np.array(v, dtype=np.int64), p_as=p_as,
                     best_index=int(np.argmax(q)), batch_size=mcfg.batch_size)


def _phase_runs(switches: Sequence[int], lo: int, hi: int):
    """(phase, start, stop) for each run of pulls lo..hi-1 under one load."""
    phase = bisect.bisect_right(switches, lo) - 1
    while lo < hi:
        stop = hi if phase + 1 == len(switches) else min(hi, switches[phase + 1])
        yield phase, lo, stop
        phase, lo = phase + 1, stop


def run(
    space: ActionSpace,
    cfg: NetworkConfig,
    mcfg: MabConfig,
    throughput_fn: Optional[ThroughputFn] = None,
) -> MabResult:
    """Stationary-load bandit run."""
    return run_nonstationary(space, [(0, cfg)], mcfg, throughput_fn)


def _load_arms(space: ActionSpace) -> np.ndarray:
    """Per action, the lowest index holding the same allocation.

    Cells whose optimized allocations coincide (the light-load corner, or
    loads the floor does not bind) are one arm to the network, so their
    pulls are pooled and the arm is labelled by its first cell.
    """
    if not space.is_compact:
        raise TypeError("load estimation needs a compact space")
    first: dict = {}  # keyed by (p_h, p_l) tuples, under which -0.0 == 0.0
    rows = np.concatenate(space.allocations, axis=1).tolist()
    return np.array([first.setdefault(tuple(row), i) for i, row in enumerate(rows)])


def estimate_load(space: ActionSpace, result: MabResult) -> tuple[int, int]:
    """Read the load estimate off a compact-space run: the cell of the most
    played allocation (ties toward the lowest index).

    Not the argmax of q.  Near the optimum several cells differ by a few
    percent in expected reward, far less than the running means resolve in
    a short run, and the argmax of q drifts to whichever of them looks best
    at the moment, often a low-variance cell whose floor never binds.  The
    pull counts integrate every refit of ``p_as``, so they name the cell the
    bandit has settled on: the "most played arm" recommendation of Bubeck,
    Munos & Stoltz, "Pure exploration in multi-armed bandits problems"
    (ALT 2009).
    """
    arms = _load_arms(space)
    pulls = np.bincount(arms, weights=result.v, minlength=len(arms))
    entry = space.entries[int(np.argmax(pulls))]
    return entry.n_h, entry.n_l


def mae_trace(
    space: ActionSpace, result: MabResult, true_cfg: NetworkConfig
) -> np.ndarray:
    """Mean absolute load-estimation error after every pull.

    Replays the pull counts from the trace; the estimate at pull p is
    :func:`estimate_load`'s cell for the pulls so far.  Counts grow by one,
    so the new leader is the pulled arm if it now beats the old one.
    """
    arms = _load_arms(space)
    pulls = [0] * len(arms)
    leader = 0  # argmax of all-zero counts
    leaders = []
    for a in arms[result.trace.action_index].tolist():
        pulls[a] += 1
        if pulls[a] > pulls[leader] or (pulls[a] == pulls[leader] and a < leader):
            leader = a
        leaders.append(leader)
    n_h = np.array([e.n_h for e in space.entries])[leaders]
    n_l = np.array([e.n_l for e in space.entries])[leaders]
    return 0.5 * (np.abs(n_h - true_cfg.n_h) + np.abs(n_l - true_cfg.n_l))


def save_mab_trace(result: MabResult, path: Union[str, Path]) -> None:
    """CSV trace, one row per pull, with batch boundaries as comments.

    The bytes are fixed: the header line and each ``# batch k`` line end in
    ``\\n``; the data rows end in ``\\r\\n``, the excel dialect of the csv
    module that first wrote these files, kept for byte compatibility.
    Integers are in decimal and floats in Python's shortest repr (``nan``,
    ``inf`` and ``-0.0`` included).
    """
    trace = result.trace
    columns = []
    for name in trace.dtype.names:
        # each distinct bit pattern formatted once: pull throughputs are
        # multiples of 1/t and repeat, and as floats -0.0 == 0.0 would merge
        distinct, inverse = np.unique(trace[name].view(np.uint64), return_inverse=True)
        text = [str(v) for v in distinct.view(trace.dtype[name]).tolist()]
        columns.append(np.array(text, dtype=object)[inverse].tolist())
    size = result.batch_size
    with open(path, "w", newline="") as fh:
        fh.write(_TRACE_HEADER + "\n")
        for first in range(0, len(trace), size):
            rows = zip(*(column[first : first + size] for column in columns))
            fh.write(f"# batch {first // size}\n" + "\r\n".join(map(",".join, rows)) + "\r\n")
