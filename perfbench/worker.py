"""One benchmark workload, run in one fresh Python process.

``run.py`` starts this script with PYTHONPATH set to the checkout's ``src``
and ``--t0`` set to the monotonic clock just before the start, so set-up
time counts interpreter start and imports.  The process builds the
workload's action space, checks it, and then, unless ``--seconds`` is 0,
repeats the timed phase until ``--seconds`` have passed, at least once.
``run.py`` starts several such processes one after another and pools their
numbers.  With ``--trace 1`` each repetition runs once untraced and once
traced; the per-layer metrics come from the traced ones and the untraced
twin gives the tracing overhead.  The last line on stdout is the result as
JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from rachopt.actionspace import (
    GridSpec,
    build_compact,
    exact_throughputs,
    full_space_size,
    generate_discretized,
    load_compact,
    save_compact,
)
from rachopt.bench import published_pair, reproduce
from rachopt.exact import throughput_by_pattern_sum, throughput_closed_form
from rachopt.mab import MabConfig, mae_trace, run, run_nonstationary, save_mab_trace
from rachopt.model import NetworkConfig, ThroughputPair
from rachopt.optimize import SolverOptions, solve
from rachopt.simulate import sim_throughput

import oracles
from spans import NullTracer, Tracer

MIN_REPS = 1  # per measuring process; a run has two
# per-repetition numbers that run.py pools into the end-to-end metrics
E2E_FACTS = ("run_s", "pull_s", "pulls", "mu_h_best_exact", "mu_h_tail")
# (rows of 8 draws, blocks) of the calibration loop; about 0.3 s in all
CALIBRATION_BLOCKS = ((100, 1700), (1000, 290), (5000, 58))
GAMMA = 0.4
TAIL = 1000  # trailing pulls averaged into mu_h_tail
# A bandit run's summed empirical throughputs may stray this many standard
# errors from the exact means of the actions it pulled; a false alarm has
# odds of about 6e-7.
BIAS_Z = 5.0


class Gates:
    """Correctness gates of one process.

    A hard gate checks an output that must always be right.  A statistical
    gate checks one seed's outcome against a published criterion that
    itself allows some seeds to miss (criteria 7, 9 and 11); misses are
    counted, but do not make the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.missed = 0
        self.messages: list[str] = []

    def hard(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note("FAIL " + what)

    def statistical(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.missed += 1
            self._note("miss " + what)

    def _note(self, text: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(text)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "missed": self.missed,
            "messages": self.messages,
        }


def rep_seeds(key: tuple[int, int, int], count: int) -> list[int]:
    """Seeds of one repetition, derived only from its key: the workload
    seed, the process index and the repetition index."""
    words = np.random.SeedSequence(list(key)).generate_state(count, dtype=np.uint64)
    return [int(w) for w in words]


def swap_classes(fn):
    """A deliberately wrong throughput function: high and low swapped."""

    def wrong(cfg, pair, t, seed):
        mu = fn(cfg, pair, t, seed)
        return ThroughputPair(mu.mu_l, mu.mu_h)

    return wrong


def sim_hook(tr, fault: bool):
    """The ``throughput_fn`` handed to the bandit: None (the library default)
    unless tracing or a fault needs a wrapper."""
    fn = swap_classes(sim_throughput) if fault else sim_throughput
    if tr.enabled:
        return tr.wrap("simulate.sim_throughput", fn)
    return fn if fault else None


def pair_arrays(space):
    p_h = np.array([a.pair.p_h for a in space.actions])
    p_l = np.array([a.pair.p_l for a in space.actions])
    return p_h, p_l


def tail_means(result) -> tuple[float, float]:
    recs = result.trace[-TAIL:]
    return (
        float(np.mean([r.mu_h_t for r in recs])),
        float(np.mean([r.mu_l_t for r in recs])),
    )


def pull_bias(result, moments: np.ndarray, t: int) -> float:
    """Largest |z| over both classes of the summed empirical-minus-exact
    throughput of every pull; ``moments`` holds the exact (mu_h, mu_l,
    var_h, var_l) of each pull's action, shape (4, pulls)."""
    emp = np.array([(r.mu_h_t, r.mu_l_t) for r in result.trace]).T
    dev = (emp - moments[:2]).sum(axis=1)
    sd = np.maximum(np.sqrt(moments[2:].sum(axis=1) / t), 1e-300)
    return float(np.max(np.abs(dev) / sd))


def pull_counts(result) -> dict:
    """Useful-work counts of one bandit run, for the per-layer ratios."""
    return {
        "mab_pulls": len(result.trace),
        "infeasible": sum(rec.mu_l_t < GAMMA for rec in result.trace),
        "on_best": sum(rec.action_index == result.best_index for rec in result.trace),
    }


class Workload:
    """Defaults of the per-layer facts a workload may not produce."""

    t_slots = 0  # slots per simulated pull
    solver = None  # SolverOptions for build_compact; None keeps the library default

    def __init__(self) -> None:
        self.facts: dict[str, float] = {}
        self.solves: list[dict] = []


class GridBandit(Workload):
    """Stationary bandit over the rotation-reduced grid M=4, d=0.2."""

    cfg = NetworkConfig(4, 5, 4)
    t_slots = 1000

    def __init__(self, toy: bool, fault: bool, work_dir: Path) -> None:
        super().__init__()
        self.mab = dict(
            gamma=GAMMA, rho=0.0, t=self.t_slots, runs=15000,
            batch_size=500, elite_fraction=0.1, alpha=0.2,
        )
        if toy:
            self.t_slots = 100
            self.mab.update(t=100, runs=1000, batch_size=100)
        self.fault = fault

    def setup(self, tr) -> None:
        self.space = tr.call(
            "actionspace.generate_discretized",
            generate_discretized, GridSpec(4, 0.2), reduced=True,
        )

    def check_setup(self, tr, gates: Gates) -> None:
        full = full_space_size(GridSpec(4, 0.2))
        gates.hard(
            len(self.space) == 784 and full == 3136,
            f"grid sizes {len(self.space)}/{full}, published 784/3136",
        )
        self.facts = {
            "actionspace.generate_discretized.actions": len(self.space),
            "actionspace.orbit_reduction": len(self.space) / full,
        }
        self.mus = tr.call(
            "actionspace.exact_throughputs", exact_throughputs, self.space, self.cfg
        )
        self.moments = oracles.throughput_moments(*pair_arrays(self.space), 4, 5)
        mu_h, mu_l = self.moments[:2]
        err = float(np.max(np.abs(self.mus - self.moments[:2].T)))
        gates.hard(err <= 1e-12, f"exact_throughputs differs from enumeration by {err:.2e}")
        feasible = mu_l >= GAMMA - 1e-9
        self.optimum = float(mu_h[feasible].max())

    def rep(self, key: tuple, tr) -> dict:
        mcfg = MabConfig(seed=rep_seeds(key, 1)[0], **self.mab)
        hook = sim_hook(tr, self.fault)
        start = perf_counter()
        res = tr.call("mab.run", run, self.space, self.cfg, mcfg, hook)
        elapsed = perf_counter() - start
        return {"run_s": elapsed, "pull_s": elapsed, "pulls": len(res.trace), "result": res}

    def check_rep(self, out: dict, gates: Gates) -> dict:
        res = out["result"]
        gates.hard(
            len(res.trace) == self.mab["runs"] and res.best_index == int(np.argmax(res.q)),
            "bandit trace length or best index",
        )
        pulled = [rec.action_index for rec in res.trace]
        z = pull_bias(res, self.moments[:, pulled], self.mab["t"])
        gates.hard(z <= BIAS_Z, f"pulled throughputs off the exact means by {z:.1f} sigma")
        mu_h, mu_l = (float(v) for v in self.mus[res.best_index])
        gates.statistical(
            mu_l >= GAMMA - 1e-9 and mu_h >= 0.95 * self.optimum,
            f"criterion 7: best action exact ({mu_h:.4f}, {mu_l:.4f}), "
            f"feasible optimum {self.optimum:.4f}",
        )
        return {"mu_h_best_exact": mu_h, "mu_h_tail": tail_means(res)[0], **pull_counts(res)}


class CompactSwitch(Workload):
    """Compact table for m=5, loads up to (5, 5); bandit with a load switch."""

    cfg_a = NetworkConfig(2, 1, 5)
    cfg_b = NetworkConfig(4, 5, 5)
    t_slots = 100

    def __init__(self, toy: bool, fault: bool, work_dir: Path) -> None:
        super().__init__()
        self.mab = dict(
            gamma=GAMMA, rho=0.1, t=self.t_slots, runs=12000,
            batch_size=200, elite_fraction=0.1, alpha=0.1,
        )
        self.switch = 2000
        if toy:
            self.mab.update(runs=2000)
            self.switch = 400
            self.solver = SolverOptions(random_starts=2, max_outer=5)
        self.fault = fault
        self.work_dir = work_dir

    def _opt_hook(self, tr):
        if not tr.enabled and self.solver is None:
            return None

        def opt(cfg, gamma):
            res = tr.call("optimize.solve", solve, cfg, gamma, self.solver)
            self.solves.append(res.diagnostics)
            return res

        return opt

    def setup(self, tr) -> None:
        self.built = tr.call(
            "actionspace.build_compact",
            build_compact, 5, 5, 5, GAMMA, opt=self._opt_hook(tr),
        )
        path = self.work_dir / "compact.csv"
        tr.call("actionspace.save_compact", save_compact, self.built, path)
        try:
            self.space = tr.call("actionspace.load_compact", load_compact, path)
            self.reload_error = None
        except ValueError as exc:
            self.space = self.built
            self.reload_error = str(exc)

    def check_setup(self, tr, gates: Gates) -> None:
        gates.hard(self.reload_error is None, f"load_compact revalidation: {self.reload_error}")
        entries = self.space.entries
        same = len(entries) == len(self.built.entries) == 36 and all(
            (a.n_h, a.n_l) == (b.n_h, b.n_l)
            and max(abs(x - y) for x, y in zip(a.pair.p_h + a.pair.p_l, b.pair.p_h + b.pair.p_l)) <= 1e-11
            for a, b in zip(entries, self.built.entries)
        )
        gates.hard(same, "reloaded compact table differs from the built one")
        worst = 0.0
        for e in entries:
            mu_h, mu_l = oracles.throughput_moments(e.pair.p_h, e.pair.p_l, e.n_h, e.n_l)[:2, 0]
            worst = max(worst, abs(mu_h - e.mu_h), abs(mu_l - e.mu_l))
        gates.hard(worst <= 1e-9, f"stored cell throughput off enumeration by {worst:.2e}")
        expected = {(n_h, 0) for n_h in range(6)}
        gates.hard(
            self.space.infeasible_cells() == expected,
            f"infeasible cells {sorted(self.space.infeasible_cells())}, expected the n_l=0 row",
        )
        self.mus = tr.call(
            "actionspace.exact_throughputs", exact_throughputs, self.space, self.cfg_b
        )
        pairs = pair_arrays(self.space)
        self.moments = [
            oracles.throughput_moments(*pairs, cfg.n_h, cfg.n_l) for cfg in (self.cfg_a, self.cfg_b)
        ]
        err = float(np.max(np.abs(self.mus - self.moments[1][:2].T)))
        # stored vectors keep 12 significant digits, so their sums miss 1 by
        # up to ~1e-12 and the two routes may differ by a few times that
        gates.hard(err <= 1e-9, f"exact_throughputs differs from enumeration by {err:.2e}")
        self.facts = {"actionspace.build_compact.cells": len(entries)}

    def rep(self, key: tuple, tr) -> dict:
        mcfg = MabConfig(seed=rep_seeds(key, 1)[0], **self.mab)
        schedule = [(0, self.cfg_a), (self.switch, self.cfg_b)]
        hook = sim_hook(tr, self.fault)
        path = self.work_dir / f"pulls-{key[1]}-{key[2]}-{tr.enabled:d}.csv"
        start = perf_counter()
        res = tr.call("mab.run_nonstationary", run_nonstationary, self.space, schedule, mcfg, hook)
        mid = perf_counter()
        mae = tr.call("mab.mae_trace", mae_trace, self.space, res, self.cfg_b)
        tr.call("mab.save_mab_trace", save_mab_trace, res, path)
        end = perf_counter()
        with open(path) as fh:
            rows = sum(1 for line in fh if not line.startswith("#")) - 1
        size = path.stat().st_size
        path.unlink()
        return {
            "run_s": end - start, "pull_s": mid - start, "pulls": len(res.trace), "result": res,
            "mae": mae, "rows": rows, "bytes": size,
        }

    def check_rep(self, out: dict, gates: Gates) -> dict:
        res, mae, runs = out["result"], out["mae"], self.mab["runs"]
        gates.hard(
            len(res.trace) == runs and out["rows"] == runs
            and mae.shape == (runs,) and bool(np.all(np.isfinite(mae) & (mae >= 0))),
            "trace, saved trace or error trace has the wrong length",
        )
        phase = [int(rec.pull >= self.switch) for rec in res.trace]
        pulled = [rec.action_index for rec in res.trace]
        moments = np.stack(self.moments)[phase, :, pulled].T
        z = pull_bias(res, moments, self.mab["t"])
        gates.hard(z <= BIAS_Z, f"pulled throughputs off the exact means by {z:.1f} sigma")
        mu_h, mu_l = tail_means(res)
        target = 0.9 * 1.2282
        gates.statistical(
            mu_h >= target and mu_l >= 0.38,
            f"criterion 11 (compact): trailing means ({mu_h:.4f}, {mu_l:.4f}) "
            f"below ({target:.4f}, 0.38)",
        )
        # argmax q carries pre-switch values and flips between cells from
        # seed to seed, so the settled choice is read off the trailing pulls
        settled = [rec.action_index for rec in res.trace[-TAIL:]]
        return {
            "mu_h_best_exact": float(self.mus[settled, 0].mean()),
            "mu_h_tail": mu_h,
            "bytes": out["bytes"],
            **pull_counts(res),
        }


class ReproduceOracle(Workload):
    """Published tables I, III, IV and V, the criterion-9 Monte-Carlo check
    and the closed-form versus pattern-sum cross-check."""

    tables = ("I", "III", "IV", "V")

    def __init__(self, toy: bool, fault: bool, work_dir: Path) -> None:
        super().__init__()
        self.t_slots = 2000 if toy else 100_000
        self.per_pair = 2 if toy else 10
        self.fault = fault

    def setup(self, tr) -> None:
        self.pairs = [
            (NetworkConfig(4, 5, m), published_pair(gamma, m))
            for gamma in (0.0, 0.4)
            for m in (3, 4, 5, 6)
        ]

    def check_setup(self, tr, gates: Gates) -> None:
        self.exact = [
            oracles.throughput_moments(pair.p_h, pair.p_l, cfg.n_h, cfg.n_l)[:, 0]
            for cfg, pair in self.pairs
        ]

    def rep(self, key: tuple, tr) -> dict:
        sim = swap_classes(sim_throughput) if self.fault else sim_throughput
        seeds = iter(rep_seeds(key, len(self.pairs) * self.per_pair))
        start = perf_counter()
        reports = [tr.call(f"bench.reproduce.{tid}", reproduce, tid) for tid in self.tables]
        mc_start = perf_counter()
        mc = [
            [
                tr.call("simulate.sim_throughput", sim, cfg, pair, self.t_slots, next(seeds))
                for _ in range(self.per_pair)
            ]
            for cfg, pair in self.pairs
        ]
        mc_end = perf_counter()
        cross = [
            (
                tr.call("exact.throughput_closed_form", throughput_closed_form, cfg, pair),
                tr.call("exact.throughput_by_pattern_sum", throughput_by_pattern_sum, cfg, pair),
            )
            for cfg, pair in self.pairs
        ]
        end = perf_counter()
        return {
            "run_s": end - start, "pull_s": mc_end - mc_start, "pulls": len(self.pairs) * self.per_pair,
            "reports": reports, "mc": mc, "cross": cross,
        }

    def check_rep(self, out: dict, gates: Gates) -> dict:
        rows_failed = 0
        for report in out["reports"]:
            for line in report.lines:
                if line.passed is not None:
                    gates.hard(line.passed, f"Table {report.table_id} {line.label}: {line.computed}")
                    rows_failed += line.passed is False
        solved = [
            re.match(r"mu_h=([0-9.]+)", line.computed) for line in out["reports"][3].lines
        ]
        table_v = [float(m.group(1)) for m in solved if m]
        gates.hard(table_v and len(table_v) == len(solved), "Table V rows carry no mu_h")
        for (cfg, pair), (closed, summed) in zip(self.pairs, out["cross"]):
            gap = max(abs(closed.mu_h - summed.mu_h), abs(closed.mu_l - summed.mu_l))
            gates.hard(gap <= 1e-12, f"closed form vs pattern sum at {cfg}: {gap:.2e}")
        sims = []
        for (cfg, _), (mu_h, _, var_h, _), runs in zip(self.pairs, self.exact, out["mc"]):
            se = math.sqrt(var_h / self.t_slots)
            for mu in runs:
                sims.append(mu.mu_h)
                gates.statistical(
                    abs(mu.mu_h - mu_h) <= 3 * se,
                    f"criterion 9 at {cfg}: mu_h_T {mu.mu_h:.5f}, exact {mu_h:.5f} +- 3x{se:.5f}",
                )
        return {
            "mu_h_best_exact": statistics.fmean(table_v) if table_v else 0.0,
            "mu_h_tail": statistics.fmean(sims),
            "rows_failed": rows_failed,
        }


WORKLOADS = {
    "grid-bandit": GridBandit,
    "compact-switch": CompactSwitch,
    "reproduce-oracle": ReproduceOracle,
}


def layer_metrics(tr: Tracer, wl, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from the traced repetitions (per repetition) and
    the traced set-up (per set-up)."""
    n = len(traced)
    reps = {f"rep{k}" for k in range(n)}
    timed = tr.table(reps)
    setup = tr.table({"setup", "check"})

    def per_rep(name, key="busy_s"):
        return timed.get(name, {}).get(key, 0.0) / n

    def once(name, key="busy_s"):
        return setup.get(name, {}).get(key, 0.0)

    def mean(key):
        return statistics.fmean(r.get(key, 0) for r in traced)

    sim_calls = per_rep("simulate.sim_throughput", "calls")
    sim_busy = per_rep("simulate.sim_throughput")
    sim_us = tr.durations("simulate.sim_throughput", reps)
    closed_us = tr.durations("exact.throughput_closed_form", reps)
    bandit = ("mab.run", "mab.run_nonstationary")
    mab_busy = sum(per_rep(name) for name in bandit)
    mab_self = sum(per_rep(name, "self_s") for name in bandit)
    pulls = mean("mab_pulls")
    solve_s = tr.durations("optimize.solve", {"setup"})
    starts = sum(d["starts"] for d in wl.solves)
    max_outer = (wl.solver or SolverOptions()).max_outer
    metrics = {
        "simulate.sim_throughput.calls": sim_calls,
        "simulate.sim_throughput.busy_s": sim_busy,
        "simulate.sim_throughput.us_per_call": 1e6 * statistics.median(sim_us) if sim_us else 0.0,
        "simulate.slots_per_s": sim_calls * wl.t_slots / sim_busy if sim_busy else 0.0,
        "mab.run.busy_s": mab_busy,
        "mab.pulls": pulls,
        "mab.self_s": mab_self,
        "mab.self_us_per_pull": 1e6 * mab_self / pulls if pulls else 0.0,
        "mab.infeasible_pull_frac": mean("infeasible") / pulls if pulls else 0.0,
        "mab.best_action_pull_frac": mean("on_best") / pulls if pulls else 0.0,
        "mab.mae_trace.busy_s": per_rep("mab.mae_trace"),
        "mab.save_mab_trace.busy_s": per_rep("mab.save_mab_trace"),
        "mab.save_mab_trace.bytes": mean("bytes"),
        "optimize.solve.calls": len(solve_s),
        "optimize.solve.busy_s": sum(solve_s),
        "optimize.solve.s_per_call_median": statistics.median(solve_s) if solve_s else 0.0,
        "optimize.solve.s_per_call_max": max(solve_s, default=0.0),
        "optimize.solve.outer_rounds_mean": statistics.fmean(
            d["outer_rounds"] for d in wl.solves) if wl.solves else 0.0,
        "optimize.solve.cap_hits": sum(d["outer_rounds"] == max_outer for d in wl.solves),
        "optimize.solve.feasible_start_frac": sum(
            d["feasible_starts"] for d in wl.solves) / starts if starts else 0.0,
        "actionspace.generate_discretized.busy_s": once("actionspace.generate_discretized"),
        "actionspace.generate_discretized.actions": 0,
        "actionspace.orbit_reduction": 0.0,
        "actionspace.build_compact.busy_s": once("actionspace.build_compact"),
        "actionspace.build_compact.self_s": once("actionspace.build_compact", "self_s"),
        "actionspace.build_compact.cells": 0,
        "actionspace.save_compact.busy_s": once("actionspace.save_compact"),
        "actionspace.load_compact.busy_s": once("actionspace.load_compact"),
        "actionspace.exact_throughputs.busy_s": once("actionspace.exact_throughputs"),
        "exact.throughput_closed_form.us_per_call": 1e6 * statistics.median(closed_us) if closed_us else 0.0,
        "exact.throughput_by_pattern_sum.busy_s": per_rep("exact.throughput_by_pattern_sum"),
        "bench.reproduce.rows_failed": mean("rows_failed"),
        "trace.overhead_frac": (
            statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in untraced) - 1.0
        ),
    }
    for tid in ReproduceOracle.tables:
        metrics[f"bench.reproduce.{tid}.busy_s"] = per_rep(f"bench.reproduce.{tid}")
    metrics.update(wl.facts)
    return metrics


def selftime_table(tr: Tracer, n_reps: int) -> str:
    """Per span name: calls, busy and self seconds, per traced repetition
    for the timed phase and per set-up for the rest."""
    lines = [f"{'span':40s} {'phase':6s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s} {'self%':>6s}"]
    for phase, ids, div in (
        ("setup", {"setup", "check"}, 1),
        ("rep", {f"rep{k}" for k in range(n_reps)}, n_reps),
    ):
        table = tr.table(ids)
        total = sum(row["self_s"] for row in table.values()) or 1.0
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(
                f"{name:40s} {phase:6s} {row['calls'] / div:9.1f} {row['busy_s'] / div:10.4f} "
                f"{row['self_s'] / div:10.4f} {100 * row['self_s'] / total:6.1f}"
            )
    return "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--proc", type=int, required=True, help="index of this process in the run")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--fault", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True, help="scratch directory for table and trace files")
    args = ap.parse_args()

    tr = Tracer() if args.trace else NullTracer()
    gates = Gates()
    wl = WORKLOADS[args.workload](args.size == "toy", args.fault, args.work)
    imported = time.monotonic()
    ref_before = calibrate()  # not part of the set-up time
    build_start = time.monotonic()
    wl.setup(tr)
    setup_s = (imported - args.t0) + (time.monotonic() - build_start)
    tr.run_id = "check"
    wl.check_setup(tr, gates)
    calibration = [ref_before, calibrate()]
    result = {"setup_s": setup_s, "calibration_s": calibration, "reps": []}
    if args.seconds > 0:
        result.update(measure(wl, tr, args, gates, calibration))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["gates"] = gates.as_dict()
    print(json.dumps(result))
    return 0


def calibrate() -> float:
    """Seconds taken by a fixed loop of benchmark-owned work.

    The loop mixes what the program spends its time on: NumPy draws,
    searches and counts on blocks of 800, 8000 and 40000 numbers (a pull at
    t=100, a pull at t=1000, and a slice of a long Monte-Carlo run, kept
    small so that the loop does not raise the peak memory), each with
    Python dict and generator work around it.  It uses no rachopt code, so
    a change to the program cannot move it; its time tracks only how fast
    the machine runs at the moment.
    """
    gen = np.random.Generator(np.random.Philox(key=20250418))
    cum = np.cumsum(np.full(5, 0.2))
    cum[-1] = 1.0
    acc = 0
    start = perf_counter()
    for rows, blocks in CALIBRATION_BLOCKS:
        offsets = 5 * np.arange(rows)[:, None]
        for _ in range(blocks):
            u = gen.random(8 * rows).reshape(rows, 8)
            idx = np.searchsorted(cum, u, side="right")
            acc += int(np.bincount((idx + offsets).ravel(), minlength=5 * rows + 5)[1])
            table = {j: (j * 0.5, j % 7) for j in range(40)}
            acc += sum(a for a, b in table.values() if b) > 0
    elapsed = perf_counter() - start
    if acc <= 0:
        raise RuntimeError("calibration loop computed nothing")
    return elapsed


def measured(wl, key: tuple, tr, gates: Gates) -> dict:
    """One repetition, checked, reduced to its numbers so that memory does
    not grow with the number of repetitions."""
    out = wl.rep(key, tr)
    facts = {name: out[name] for name in ("run_s", "pull_s", "pulls")}
    facts.update(wl.check_rep(out, gates))
    return facts


def measure(wl, tr, args, gates: Gates, calibration: list[float]) -> dict:
    """Repeat the timed phase for ``--seconds``, at least MIN_REPS times;
    toy size runs exactly MIN_REPS, so its outcome depends on the seed only.
    Returns the end-to-end numbers of every untraced repetition, for
    ``run.py`` to pool with the other processes of the run.

    The calibration loop has run before and after the set-up; it runs again
    after every untraced repetition, and its times are appended to
    ``calibration``.  ``run.py`` scales the run's timings by their median."""
    plain = NullTracer()
    untraced: list[dict] = []
    traced: list[dict] = []
    budget = 0.0 if args.size == "toy" else args.seconds
    start = perf_counter()
    k = 0
    while k < MIN_REPS or perf_counter() - start < budget:
        key = (args.seed, args.proc, k)
        untraced.append(measured(wl, key, plain, gates))
        calibration.append(calibrate())
        if tr.enabled:
            tr.run_id = f"rep{k}"
            traced.append(measured(wl, key, tr, Gates()))
        k += 1
    result = {"reps": [{name: r[name] for name in E2E_FACTS} for r in untraced]}
    if tr.enabled:
        result["layers"] = layer_metrics(tr, wl, traced, untraced)
        stem = f"{args.workload}-seed{args.seed}" + ("-toy" if args.size == "toy" else "")
        tr.dump(args.out / f"{stem}-spans.json")
        table = selftime_table(tr, len(traced))
        (args.out / f"{stem}-selftime.txt").write_text(table)
        result["selftime"] = table
    return result


if __name__ == "__main__":
    sys.exit(main())
