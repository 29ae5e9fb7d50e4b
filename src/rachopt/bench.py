"""Reproduction harness: published reference tables and experiment runner.

``reproduce`` reruns the pipeline behind each published reference table and
reports computed-versus-published values with pass/fail per the documented
tolerances.  ``run_experiment`` executes a configured experiment (baseline,
exact optimizer, or bandit) and writes result records, pull traces, and
plot-ready CSV files.

The paper's bandit settings live in :data:`MAB_PRESETS`, one
:class:`~rachopt.mab.MabConfig` per bandit method (the grid's is
``MabConfig()``), next to :data:`GRID_STEP`, the grid's step.  A bandit
experiment replaces the preset's ``gamma`` and ``seed`` and any field its
parameters name; Tables VI and VII run the grid preset.
"""

from __future__ import annotations

import configparser
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .actionspace import (
    ActionSpace,
    GridSpec,
    build_compact,
    exact_throughputs,
    full_space_size,
    generate_discretized,
    load_compact,
)
from .baselines import acb_admission, acb_throughput
from .exact import throughput_closed_form
from .mab import (
    MabConfig,
    MabResult,
    estimate_load,
    mae_trace,
    run,
    run_nonstationary,
    save_mab_trace,
)
from .model import AccessProbabilityPair, NetworkConfig, check_gamma
from .optimize import FEASIBILITY_TOL, SolverOptions, solve

__all__ = [
    "ReportLine",
    "TableReport",
    "reproduce",
    "ExperimentSpec",
    "load_experiment",
    "run_experiment",
    "load_plot_data",
    "REFERENCE_SPACE_SIZES",
    "REFERENCE_ACB",
    "REFERENCE_UNCONSTRAINED",
    "REFERENCE_CONSTRAINED",
    "REFERENCE_SOLVER_SECONDS",
    "REFERENCE_UNCONSTRAINED_PAIRS",
    "REFERENCE_CONSTRAINED_PAIRS",
    "published_pair",
    "REFERENCE_MAB_UNCONSTRAINED",
    "REFERENCE_MAB_CONSTRAINED",
    "MAB_PRESETS",
    "GRID_STEP",
]

# published reference values, keyed by (m, d) or m; throughputs as printed
REFERENCE_SPACE_SIZES: dict[tuple[int, float], tuple[int, int]] = {
    (2, 0.5): (9, 5),
    (2, 0.2): (36, 18),
    (2, 0.1): (121, 61),
    (3, 0.5): (36, 12),
    (3, 0.2): (441, 147),
    (3, 0.1): (3844, 1452),
    (4, 0.5): (100, 26),
    (4, 0.2): (3136, 784),
    (5, 0.5): (225, 45),
    (5, 0.2): (15876, 3176),
}
# the printed full size for (3, 0.1) disagrees with the combinatorial count
SPACE_SIZE_DISCREPANCY = (3, 0.1)

REFERENCE_ACB: dict[int, tuple[float, float]] = {
    3: (0.44, 0.89),
    4: (0.42, 1.27),
    5: (0.82, 1.23),
    6: (0.80, 1.60),
}

REFERENCE_UNCONSTRAINED: dict[int, tuple[float, float]] = {
    3: (0.84, 0.0),
    4: (1.27, 0.0),
    5: (1.68, 0.0),
    6: (2.05, 0.0),
}

REFERENCE_CONSTRAINED: dict[int, tuple[float, float]] = {
    3: (0.43, 0.4),
    4: (0.85, 0.4),
    5: (1.28, 0.4),
    6: (1.7, 0.4),
}

# Published wall-clock seconds for the exhaustive-search runs behind the
# optimizer tables, keyed by mu_l floor then M.  Absolute values are
# hardware-bound and never asserted against; the recorded growth-in-M trend
# is what the acceptance suite checks.
REFERENCE_SOLVER_SECONDS: dict[float, dict[int, float]] = {
    0.0: {3: 4.59, 4: 43.85, 5: 337.42, 6: 664.51},
    0.4: {3: 13.06, 4: 75.12, 5: 375.25, 6: 1281.3},
}

# published solution vectors for the optimizer tables (as printed; two of the
# high-class vectors sum to 0.999/0.998 and need renormalizing before use)
REFERENCE_UNCONSTRAINED_PAIRS: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {
    3: ((0.25, 0.25, 0.5), (0.0, 0.0, 1.0)),
    4: ((0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.0, 1.0)),
    5: ((0.25, 0.25, 0.25, 0.25, 0.0), (0.0, 0.0, 0.0, 0.0, 1.0)),
    6: ((0.2, 0.2, 0.2, 0.2, 0.2, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)),
}

REFERENCE_CONSTRAINED_PAIRS: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {
    3: ((0.006, 0.25, 0.744), (0.195, 0.0, 0.805)),
    4: ((0.25, 0.006, 0.493, 0.25), (0.0, 0.196, 0.804, 0.0)),
    5: ((0.007, 0.24, 0.251, 0.251, 0.251), (0.198, 0.802, 0.0, 0.0, 0.0)),
    6: ((0.01, 0.247, 0.247, 0.247, 0.247, 0.0), (0.201, 0.0, 0.0, 0.0, 0.0, 0.799)),
}

REFERENCE_MAB_UNCONSTRAINED: dict[int, tuple[float, float]] = {
    3: (0.82, 0.0),
    4: (1.23, 0.0),
    5: (1.57, 0.0),
    6: (2.05, 0.0),
}

REFERENCE_MAB_CONSTRAINED: dict[int, tuple[float, float]] = {
    3: (0.41, 0.41),
    4: (0.82, 0.41),
    5: (1.23, 0.41),
    6: (1.64, 0.41),
}

def published_pair(gamma: float, m: int) -> AccessProbabilityPair:
    """Published optimizer solution for one table row, renormalized.

    Two of the printed high-class vectors sum to 0.999/0.998 (rounded
    entries); scaling each vector by its own sum restores valid
    distributions.
    """
    table = REFERENCE_CONSTRAINED_PAIRS if gamma > 0 else REFERENCE_UNCONSTRAINED_PAIRS
    p_h, p_l = table[m]
    return AccessProbabilityPair(
        tuple(x / sum(p_h) for x in p_h), tuple(x / sum(p_l) for x in p_l)
    )


# The paper's bandit settings for each bandit method; an experiment's gamma,
# seed and [mab] values replace fields of its method's preset.
MAB_PRESETS: dict[str, MabConfig] = {
    "mab-discretized": MabConfig(),
    "mab-compact": MabConfig(rho=0.1, t=100, runs=2000, batch_size=200, alpha=0.1),
}
# The paper's grid step for the discretized space.
GRID_STEP = 0.2

TABLE_II_NOTE = (
    "Table II (uniform access probabilities) is not reproduced: its printed "
    "throughput values are inconsistent with the access model used everywhere "
    "else, so the uniform baseline is validated directly against the exact "
    "engine instead (see the baselines module and its tests)."
)


@dataclass(frozen=True)
class ReportLine:
    label: str
    computed: str
    published: str
    passed: Optional[bool]  # None marks an informational line
    note: str = ""

    def render(self) -> str:
        status = {True: "PASS", False: "FAIL", None: "info"}[self.passed]
        text = f"{self.label}: computed {self.computed} | published {self.published} [{status}]"
        if self.note:
            text += f"  ({self.note})"
        return text


@dataclass
class TableReport:
    table_id: str
    title: str
    lines: list[ReportLine] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(line.passed is not False for line in self.lines)

    def render(self) -> str:
        out = [f"Table {self.table_id}: {self.title}"]
        out += ["  " + line.render() for line in self.lines]
        out += ["  note: " + n for n in self.notes]
        out.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


def _base_cfg(m: int) -> NetworkConfig:
    return NetworkConfig(n_h=4, n_l=5, m=m)


def _reproduce_space_sizes() -> TableReport:
    report = TableReport("I", "action space sizes before and after rotation dedup")
    for (m, d), (full_pub, reduced_pub) in REFERENCE_SPACE_SIZES.items():
        spec = GridSpec(m, d)
        full = full_space_size(spec)
        reduced = len(generate_discretized(spec, reduced=True))
        if (m, d) == SPACE_SIZE_DISCREPANCY:
            report.lines.append(
                ReportLine(
                    f"M={m} d={d} full",
                    str(full),
                    str(full_pub),
                    True,
                    "documented discrepancy: the combinatorial count is "
                    f"C(1/d+M-1, M-1)^2 = {full}, not {full_pub}",
                )
            )
        else:
            report.lines.append(
                ReportLine(f"M={m} d={d} full", str(full), str(full_pub), full == full_pub)
            )
        report.lines.append(
            ReportLine(
                f"M={m} d={d} reduced", str(reduced), str(reduced_pub), reduced == reduced_pub
            )
        )
    return report


def _reproduce_acb() -> TableReport:
    report = TableReport("III", "access class barring baseline, n_h=4 n_l=5")
    for m, (mu_h_pub, mu_l_pub) in REFERENCE_ACB.items():
        cfg = _base_cfg(m)
        mu = acb_throughput(cfg)
        admitted = acb_admission(cfg)
        ok = abs(mu.mu_h - mu_h_pub) <= 0.01 and abs(mu.mu_l - mu_l_pub) <= 0.01
        report.lines.append(
            ReportLine(
                f"M={m}",
                f"mu_h={mu.mu_h:.4f} mu_l={mu.mu_l:.4f}",
                f"mu_h={mu_h_pub} mu_l={mu_l_pub}",
                ok,
                f"admitted {admitted.n_h}H/{admitted.n_l}L",
            )
        )
    return report


def _reproduce_optimizer(gamma: float, seed: int) -> TableReport:
    constrained = gamma > 0
    table_id = "V" if constrained else "IV"
    published = REFERENCE_CONSTRAINED if constrained else REFERENCE_UNCONSTRAINED
    report = TableReport(
        table_id,
        f"optimal access probability allocation, gamma={gamma}",
    )
    for m, (mu_h_pub, mu_l_pub) in published.items():
        cfg = _base_cfg(m)
        res = solve(cfg, gamma=gamma, options=SolverOptions(seed=seed))
        if constrained:
            ok = (
                res.feasible
                and res.mu.mu_h >= mu_h_pub - 0.01
                and 0.4 - FEASIBILITY_TOL <= res.mu.mu_l <= 0.41
            )
        else:
            ok = abs(res.mu.mu_h - mu_h_pub) <= 0.01 and abs(res.mu.mu_l) <= 1e-6
        report.lines.append(
            ReportLine(
                f"M={m}",
                f"mu_h={res.mu.mu_h:.4f} mu_l={res.mu.mu_l:.4f}",
                f"mu_h={mu_h_pub} mu_l={mu_l_pub}",
                ok,
                f"p_h={np.round(res.pair.p_h, 3).tolist()} p_l={np.round(res.pair.p_l, 3).tolist()}",
            )
        )
    return report


def _reproduce_mab(gamma: float, seed: int) -> TableReport:
    constrained = gamma > 0
    table_id = "VII" if constrained else "VI"
    published = REFERENCE_MAB_CONSTRAINED if constrained else REFERENCE_MAB_UNCONSTRAINED
    report = TableReport(
        table_id,
        f"bandit over the discretized space (d={GRID_STEP}), gamma={gamma}",
    )
    mcfg = replace(MAB_PRESETS["mab-discretized"], gamma=gamma, seed=seed)
    for m, (mu_h_pub, mu_l_pub) in published.items():
        cfg = _base_cfg(m)
        space = generate_discretized(GridSpec(m, GRID_STEP), reduced=True)
        mus = exact_throughputs(space, cfg)
        feasible = mus[:, 1] >= gamma - FEASIBILITY_TOL
        optimum = float(mus[feasible, 0].max())
        res = run(space, cfg, mcfg)
        mu_h, mu_l = (float(v) for v in mus[res.best_index])
        within = mu_h >= 0.95 * optimum and (not constrained or mu_l >= gamma - FEASIBILITY_TOL)
        gated = m in (3, 4)
        report.lines.append(
            ReportLine(
                f"M={m}",
                f"exact mu_h={mu_h:.4f} mu_l={mu_l:.4f}",
                f"mu_h_T={mu_h_pub} mu_l_T={mu_l_pub}",
                within if gated else None,
                f"discrete optimum {optimum:.4f}"
                + ("" if gated else "; outside the documented tolerance scope"),
            )
        )
    report.notes.append(
        "pass/fail gate: best action's exact throughput within 5% of the "
        "reduced-space optimum (M=3 and M=4); larger M reported for reference"
    )
    return report


# How to recompute each published table, by table id, given the seed.
_TABLES: dict[str, Callable[[int], TableReport]] = {
    "I": lambda seed: _reproduce_space_sizes(),
    "II": lambda seed: TableReport(
        "II", "uniform access probabilities (not reproduced)", notes=[TABLE_II_NOTE]
    ),
    "III": lambda seed: _reproduce_acb(),
    "IV": lambda seed: _reproduce_optimizer(0.0, seed),
    "V": lambda seed: _reproduce_optimizer(0.4, seed),
    "VI": lambda seed: _reproduce_mab(0.0, seed),
    "VII": lambda seed: _reproduce_mab(0.4, seed),
}
TABLE_IDS = tuple(_TABLES)


def reproduce(table_id: str, *, seed: int = 0) -> TableReport:
    """Recompute one published reference table and report pass/fail."""
    tid = str(table_id).strip().upper()
    if tid not in _TABLES:
        raise ValueError(f"unknown table id {table_id!r}, expected one of {TABLE_IDS}")
    return _TABLES[tid](seed)


METHODS = ("uniform", "acb", "exact-opt", "mab-discretized", "mab-compact")


@dataclass
class ExperimentSpec:
    """One configured experiment: a network, a method, and output layout."""

    name: str
    cfg: NetworkConfig
    gamma: float
    method: str
    params: dict
    seeds: tuple[int, ...]
    out_dir: Path

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        check_gamma(self.gamma)
        for seed in self.seeds:
            if seed < 0:
                raise ValueError(f"seed must be >= 0, got {seed}")
        if self.method == "mab-compact" and not (
            "table" in self.params or "n_h_max" in self.params
        ):
            raise ValueError("mab-compact needs a 'table' path or 'n_h_max'/'n_l_max' bounds")
        schedule = self.params.get("schedule")
        if schedule is not None and schedule[0] < 1:
            raise ValueError(f"schedule switch must be >= 1, got {schedule[0]}")
        if self.method.startswith("mab-"):
            for seed in self.seeds:
                _mab_config(self, seed)  # raises on bad bandit parameters


def _seed_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split())


# Every section and key load_experiment reads, with the parser of its value;
# anything else is an error.
_INI_KEYS = {
    "experiment": {"name": str, "method": str, "out": str},
    "network": {"m": int, "n_h": int, "n_l": int, "gamma": float},
    "seeds": {"list": _seed_list},
    "mab": {
        "alpha": float, "elite_fraction": float, "rho": float, "d": float,
        "batch_size": int, "t": int, "runs": int,
    },
    "schedule": {"switch": int, "n_h": int, "n_l": int},
    "compact": {"table": str, "n_h_max": int, "n_l_max": int},
}
_REQUIRED = object()  # marks a key load_experiment has no default for
# The optional sections each method does not read; mab-compact reads all of
# them but the grid step d in [mab].
_UNREAD_SECTIONS = {
    **dict.fromkeys(("uniform", "acb", "exact-opt"), ("mab", "schedule", "compact")),
    "mab-discretized": ("compact",),
}


def load_experiment(path: Union[str, Path]) -> ExperimentSpec:
    """Parse an experiment description from a key-value config file.

    Raises ``ValueError`` naming the section (and key) for a missing
    required section or key, for a value that does not parse, and for any
    section or key it does not read, either at all or for the file's
    method."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # duplicate, unheaded or unparsable lines
        raise ValueError(f"{path}: {exc}") from None
    if not read:
        raise FileNotFoundError(path)
    for section in ("experiment", "network"):
        if not parser.has_section(section):
            raise ValueError(f"{path}: missing required [{section}] section")
    for section in parser.sections():
        if section not in _INI_KEYS:
            raise ValueError(f"{path}: unknown section [{section}]")
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if key not in _INI_KEYS.get(section, ()):
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")

    def value(section: str, key: str, default=_REQUIRED):
        if key not in parser[section]:
            if default is _REQUIRED:
                raise ValueError(f"{path}: missing key {key!r} in [{section}]")
            return default
        raw = parser[section][key]
        try:
            return _INI_KEYS[section][key](raw)
        except ValueError:
            raise ValueError(f"{path}: bad value {raw!r} for {key!r} in [{section}]") from None

    cfg = NetworkConfig(
        n_h=value("network", "n_h"), n_l=value("network", "n_l"), m=value("network", "m")
    )
    gamma = value("network", "gamma", 0.0)
    seeds: tuple[int, ...] = (0,)
    if parser.has_section("seeds"):
        seeds = value("seeds", "list", seeds)
    params: dict = {}
    for section in ("mab", "compact"):
        if parser.has_section(section):
            params.update((key, value(section, key)) for key in parser[section])
    if parser.has_section("schedule"):
        params["schedule"] = tuple(value("schedule", key) for key in ("switch", "n_h", "n_l"))
    method = value("experiment", "method")
    for section in _UNREAD_SECTIONS.get(method, ()):
        if parser.has_section(section):
            raise ValueError(f"{path}: method {method!r} does not read [{section}]")
    if method == "mab-compact" and parser.has_option("mab", "d"):
        raise ValueError(f"{path}: method 'mab-compact' does not read 'd' in [mab]")
    return ExperimentSpec(
        name=value("experiment", "name"),
        cfg=cfg,
        gamma=gamma,
        method=method,
        params=params,
        seeds=seeds,
        out_dir=Path(value("experiment", "out", ".")),
    )


def _running_mean(values: np.ndarray) -> np.ndarray:
    return np.cumsum(values) / np.arange(1, len(values) + 1)


def _write_plot_csv(path: Path, result: MabResult, mae: Optional[np.ndarray]) -> None:
    mu_h = _running_mean(result.trace.mu_h_t)
    mu_l = _running_mean(result.trace.mu_l_t)
    header = "pull,mu_h_running,mu_l_running" + (",mae" if mae is not None else "")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(len(mu_h)):
            row = f"{i},{mu_h[i]:.9g},{mu_l[i]:.9g}"
            if mae is not None:
                row += f",{mae[i]:.9g}"
            fh.write(row + "\n")


def load_plot_data(path: Union[str, Path]) -> dict[str, np.ndarray]:
    """Read back a plot CSV as named columns."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"column count mismatch in {path}")
    return {name: data[:, i] for i, name in enumerate(names)}


def _mab_config(spec: ExperimentSpec, seed: int) -> MabConfig:
    tuned = {f.name: spec.params[f.name] for f in fields(MabConfig) if f.name in spec.params}
    return replace(MAB_PRESETS[spec.method], **{**tuned, "gamma": spec.gamma, "seed": seed})


def _experiment_space(spec: ExperimentSpec) -> ActionSpace:
    if spec.method == "mab-discretized":
        return generate_discretized(
            GridSpec(spec.cfg.m, spec.params.get("d", GRID_STEP)), reduced=True
        )
    if "table" in spec.params:
        path = spec.params["table"]
        space = load_compact(path)
        if space.m != spec.cfg.m:
            raise ValueError(
                f"compact table {path} is for m={space.m}, the network has m={spec.cfg.m}"
            )
        # tables store gamma to 12 significant digits
        if f"{space.gamma:.12g}" != f"{spec.gamma:.12g}":
            raise ValueError(
                f"compact table {path} is for gamma={space.gamma}, "
                f"the network has gamma={spec.gamma}"
            )
        return space
    return build_compact(
        m=spec.cfg.m,
        n_h_max=spec.params["n_h_max"],
        n_l_max=spec.params.get("n_l_max", spec.params["n_h_max"]),
        gamma=spec.gamma,
    )


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    """Run one experiment and write its artifacts; returns the paths."""
    # the space first: a run it rejects leaves no output directory behind
    space = _experiment_space(spec) if spec.method.startswith("mab-") else None
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    record: dict = {
        "name": spec.name,
        "method": spec.method,
        "m": spec.cfg.m,
        "n_h": spec.cfg.n_h,
        "n_l": spec.cfg.n_l,
        "gamma": spec.gamma,
    }

    if spec.method in ("uniform", "acb"):
        if spec.method == "uniform":
            mu = throughput_closed_form(spec.cfg, AccessProbabilityPair.uniform(spec.cfg.m))
        else:
            mu = acb_throughput(spec.cfg)
            admitted = acb_admission(spec.cfg)
            record["admitted_h"] = admitted.n_h
            record["admitted_l"] = admitted.n_l
        record.update(mu_h=mu.mu_h, mu_l=mu.mu_l)
    elif spec.method == "exact-opt":
        res = solve(spec.cfg, gamma=spec.gamma, options=SolverOptions(seed=spec.seeds[0]))
        record.update(
            mu_h=res.mu.mu_h,
            mu_l=res.mu.mu_l,
            feasible=res.feasible,
            p_h=list(res.pair.p_h),
            p_l=list(res.pair.p_l),
        )
    else:
        compact = space.is_compact
        schedule = spec.params.get("schedule")
        final_cfg = spec.cfg
        if schedule is not None:
            final_cfg = NetworkConfig(schedule[1], schedule[2], spec.cfg.m)
        per_seed = []
        for seed in spec.seeds:
            mcfg = _mab_config(spec, seed)
            start = time.perf_counter()
            if schedule is None:
                result = run(space, spec.cfg, mcfg)
            else:
                loads = [(0, spec.cfg), (schedule[0], final_cfg)]
                result = run_nonstationary(space, loads, mcfg)
            elapsed = time.perf_counter() - start
            best = space.actions[result.best_index]
            mu = throughput_closed_form(final_cfg, best.pair)
            seed_record = {
                "seed": seed,
                "best_index": result.best_index,
                "exact_mu_h": mu.mu_h,
                "exact_mu_l": mu.mu_l,
                "p_h": list(best.pair.p_h),
                "p_l": list(best.pair.p_l),
                "seconds": round(elapsed, 3),
            }
            mae = None
            if compact:
                seed_record["estimated_load"] = list(estimate_load(space, result))
                mae = mae_trace(space, result, final_cfg)
            trace_path = spec.out_dir / f"{spec.name}_seed{seed}_trace.csv"
            save_mab_trace(result, trace_path)
            written.append(trace_path)
            plot_path = spec.out_dir / f"{spec.name}_seed{seed}_plot.csv"
            _write_plot_csv(plot_path, result, mae)
            written.append(plot_path)
            per_seed.append(seed_record)
        record["seeds"] = per_seed
        record["space_size"] = len(space)

    result_path = spec.out_dir / f"{spec.name}_result.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")
    written.append(result_path)
    return written
