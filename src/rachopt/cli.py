"""Command-line interface.

Thin wrappers over the library: exact throughput, simulation, optimization,
action-space statistics, compact-table construction, bandit runs, reference
table reproduction, and the non-stationary load-switch scenario.
"""

from __future__ import annotations

import json
from pathlib import Path

import click
import numpy as np

from . import __version__
from .actionspace import (GridSpec, build_compact, full_space_size, generate_discretized,
                          save_compact)
from .bench import (COMPACT_BOUND, GRID_STEP, MAB_PRESETS, MAB_SEEDS, TABLE_IDS, ExperimentSpec,
                    load_experiment, reproduce, run_experiment)
from .exact import throughput_closed_form
from .model import AccessProbabilityPair, NetworkConfig, check_gamma
from .optimize import solve
from .simulate import sim_throughput

# Seeds feed numpy's SeedSequence, which takes non-negative integers only.
SEED = click.IntRange(min=0)
COUNT = click.IntRange(min=0)
RBS = click.IntRange(min=1)
SPACES = ("discretized", "compact")


def preset(name: str) -> dict:
    """Each space's preset value of the bandit setting ``name``."""
    return {kind: getattr(MAB_PRESETS[f"mab-{kind}"], name) for kind in SPACES}


# Pulls per `scenario` run, longer than the presets': see its help.
SCENARIO_RUNS = {"discretized": 45000, "compact": 12000}


def checked(check):
    """A click callback that runs ``check`` on a given value and turns its
    ``ValueError`` into a usage error with the check's message."""

    def callback(ctx, param, value):
        if value is not None:
            try:
                check(value)
            except ValueError as exc:
                raise click.BadParameter(str(exc)) from None
        return value

    return callback


def _options(*opts):
    """One decorator that applies ``opts`` in the order listed."""

    def decorate(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return decorate


cfg_options = _options(
    click.option("--m", type=RBS, required=True, help="Number of resource blocks."),
    click.option("--n-h", type=COUNT, required=True, help="Number of high-priority devices."),
    click.option("--n-l", type=COUNT, required=True, help="Number of low-priority devices."),
)

pair_options = _options(
    click.option("--p-h", type=str, default=None,
                 help="High-class probabilities (comma separated)."),
    click.option("--p-l", type=str, default=None,
                 help="Low-class probabilities (comma separated)."),
)


def parse_probabilities(text: str, m: int, name: str) -> tuple[float, ...]:
    tokens = text.replace(",", " ").split()
    try:
        values = tuple(float(tok) for tok in tokens)
    except ValueError:
        raise click.BadParameter(
            f"entries must be numbers, got {text!r}", param_hint=name
        ) from None
    if len(values) != m:
        raise click.BadParameter(f"{name} needs {m} entries, got {len(values)}")
    return values


def resolve_pair(p_h: str | None, p_l: str | None, m: int) -> AccessProbabilityPair:
    if (p_h is None) != (p_l is None):
        raise click.BadParameter("--p-h and --p-l must be given together")
    if p_h is None:
        return AccessProbabilityPair.uniform(m)
    values = parse_probabilities(p_h, m, "--p-h"), parse_probabilities(p_l, m, "--p-l")
    try:
        return AccessProbabilityPair(*values)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--p-h/--p-l") from None


def unusable_path(exc: OSError) -> click.UsageError:
    """A file the run cannot open or create, as a usage error that names it."""
    return click.UsageError(f"cannot open or create {exc.filename!r}: {exc.strerror}")


def write_json(out: str | None, record: dict) -> None:
    if out:
        try:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(json.dumps(record, indent=2) + "\n")
        except OSError as exc:
            raise unusable_path(exc) from None
        click.echo(f"wrote {out}")


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Two-priority random-access throughput tools."""


@main.command("exact")
@cfg_options
@pair_options
@click.option("--out", type=click.Path(), default=None, help="Write the result as JSON.")
def exact_cmd(m: int, n_h: int, n_l: int, p_h: str | None, p_l: str | None, out: str | None):
    """Exact expected throughput of an access-probability pair (default uniform)."""
    cfg = NetworkConfig(n_h=n_h, n_l=n_l, m=m)
    pair = resolve_pair(p_h, p_l, m)
    mu = throughput_closed_form(cfg, pair)
    click.echo(f"mu_h = {mu.mu_h:.6f}")
    click.echo(f"mu_l = {mu.mu_l:.6f}")
    write_json(out, {"m": m, "n_h": n_h, "n_l": n_l, "mu_h": mu.mu_h, "mu_l": mu.mu_l})


@main.command("simulate")
@cfg_options
@pair_options
@click.option("--t", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Number of slots.")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write the result as JSON.")
def simulate_cmd(m, n_h, n_l, p_h, p_l, t, seed, out):
    """Monte-Carlo throughput estimate next to the exact value."""
    cfg = NetworkConfig(n_h=n_h, n_l=n_l, m=m)
    pair = resolve_pair(p_h, p_l, m)
    empirical = sim_throughput(cfg, pair, t=t, seed=seed)
    mu = throughput_closed_form(cfg, pair)
    click.echo(f"mu_h_T = {empirical.mu_h:.6f}  (exact {mu.mu_h:.6f})")
    click.echo(f"mu_l_T = {empirical.mu_l:.6f}  (exact {mu.mu_l:.6f})")
    write_json(
        out,
        {
            "m": m, "n_h": n_h, "n_l": n_l, "t": t, "seed": seed,
            "mu_h_T": empirical.mu_h, "mu_l_T": empirical.mu_l,
            "mu_h_exact": mu.mu_h, "mu_l_exact": mu.mu_l,
        },
    )


@main.command("optimize")
@cfg_options
@click.option("--gamma", type=float, default=0.0, show_default=True,
              callback=checked(check_gamma), help="Low-class throughput floor.")
@click.option("--out", type=click.Path(), default=None, help="Write the result as JSON.")
def optimize_cmd(m, n_h, n_l, gamma, out):
    """Maximize high-class throughput subject to the low-class floor."""
    res = solve(NetworkConfig(n_h=n_h, n_l=n_l, m=m), gamma=gamma)
    click.echo(f"p_h = {np.round(res.pair.p_h, 6).tolist()}")
    click.echo(f"p_l = {np.round(res.pair.p_l, 6).tolist()}")
    click.echo(f"mu_h = {res.mu.mu_h:.6f}")
    click.echo(f"mu_l = {res.mu.mu_l:.6f}")
    click.echo(f"feasible = {res.feasible}")
    keys = ("outer_rounds", "inner_steps", "cap_hit", "max_violation")
    telemetry = {key: res.diagnostics[key] for key in keys}
    for key, value in telemetry.items():
        click.echo(f"{key} = {value}")
    write_json(
        out,
        {
            "m": m, "n_h": n_h, "n_l": n_l, "gamma": gamma,
            "p_h": list(res.pair.p_h), "p_l": list(res.pair.p_l),
            "mu_h": res.mu.mu_h, "mu_l": res.mu.mu_l, "feasible": res.feasible,
            **telemetry,
        },
    )


@main.command("as-stats")
@click.option("--m", type=RBS, required=True, help="Number of resource blocks.")
@click.option("--d", type=float, default=GRID_STEP, show_default=True,
              callback=checked(lambda d: GridSpec(1, d)), help="Grid step.")
def as_stats_cmd(m, d):
    """Discretized action-space sizes before and after rotation dedup."""
    spec = GridSpec(m, d)
    full = full_space_size(spec)
    try:
        reduced = len(generate_discretized(spec, reduced=True))
    except ValueError as exc:  # more grid actions than the cap
        raise click.UsageError(str(exc)) from None
    click.echo(f"M={m} d={d}: full {full}, reduced {reduced}")


@main.command("compact-build")
@click.option("--m", type=RBS, required=True, help="Number of resource blocks.")
@click.option("--n-h-max", type=COUNT, default=COMPACT_BOUND, show_default=True)
@click.option("--n-l-max", type=COUNT, default=COMPACT_BOUND, show_default=True)
@click.option("--gamma", type=float, default=0.0, show_default=True,
              callback=checked(check_gamma))
@click.option("--out", type=click.Path(), required=True, help="Destination CSV.")
def compact_build_cmd(m, n_h_max, n_l_max, gamma, out):
    """Precompute the compact (load -> allocation) table and save it."""
    try:
        Path(out).parent.mkdir(parents=True, exist_ok=True)  # before the solves
    except OSError as exc:
        raise unusable_path(exc) from None
    space = build_compact(m=m, n_h_max=n_h_max, n_l_max=n_l_max, gamma=gamma)
    try:
        save_compact(space, out)
    except OSError as exc:
        raise unusable_path(exc) from None
    infeasible = space.infeasible_cells()
    click.echo(f"built {len(space)} cells -> {out}")
    if infeasible:
        click.echo(f"{len(infeasible)} cells cannot meet the floor: "
                   f"{sorted(infeasible)}")


def _mab_like(space_kind, m, n_h, n_l, gamma, out, name, **flags):
    try:
        written = run_experiment(ExperimentSpec(
            name=name, cfg=NetworkConfig(n_h=n_h, n_l=n_l, m=m), gamma=gamma,
            method=f"mab-{space_kind}", out_dir=Path(out),
            # a flag not given is not passed: bench holds every default
            params={k: v for k, v in flags.items() if v not in (None, ())},
        ))
    except ValueError as exc:  # an unread flag, a bandit parameter, the grid or the table
        raise click.BadParameter(str(exc)) from None
    except OSError as exc:  # the table or the output directory
        raise unusable_path(exc) from None
    for path in written:
        click.echo(f"wrote {path}")
    summary = json.loads(written[-1].read_text())
    for rec in summary["seeds"]:
        line = (
            f"seed {rec['seed']}: best exact mu_h={rec['exact_mu_h']:.4f} "
            f"mu_l={rec['exact_mu_l']:.4f} ({rec['seconds']}s)"
        )
        if "estimated_load" in rec:
            line += f" estimated load {tuple(rec['estimated_load'])}"
        click.echo(line)


def per_space(values: dict) -> str:
    return f"[default: {values['discretized']} discretized, {values['compact']} compact]"


def bandit_options(runs: dict[str, int]):
    """The space and bandit options of `mab` and `scenario`, which run ``runs`` pulls."""
    return _options(
        click.option("--space", "space_kind", type=click.Choice(SPACES),
                     default="discretized", show_default=True),
        click.option("--d", type=float, default=None, callback=checked(lambda d: GridSpec(1, d)),
                     show_default=str(GRID_STEP), help="Grid step (discretized space)."),
        click.option("--table", type=click.Path(exists=True), default=None,
                     help="Precomputed compact table CSV."),
        click.option("--n-h-max", type=COUNT, default=None, show_default=str(COMPACT_BOUND),
                     help="Compact table bound when building in place."),
        click.option("--n-l-max", type=COUNT, default=None, show_default=str(COMPACT_BOUND),
                     help="Compact table bound when building in place."),
        *(click.option(f"--{name.replace('_', '-')}", type=kind, default=None,
                       help=f"{text} {per_space(preset(name))}.")
          for name, kind, text in (("alpha", float, "Smoothing rate"),
                                   ("elite_fraction", float, "Elite share of each batch"),
                                   ("batch_size", int, "Pulls per batch"),
                                   ("rho", float, "Infeasibility discount"),
                                   ("t", int, "Slots per pull"))),
        click.option("--runs", type=int, default=None, help=f"Total pulls {per_space(runs)}."),
        click.option("--seed", "seeds", type=SEED, multiple=True,
                     show_default=" ".join(map(str, MAB_SEEDS)),
                     help="Seed; repeat for several runs."),
    )


@main.command("mab")
@cfg_options
@click.option("--gamma", type=float, default=0.0, show_default=True,
              callback=checked(check_gamma))
@bandit_options(preset("runs"))
@click.option("--out", type=click.Path(), default="mab-out", show_default=True,
              help="Output directory.")
@click.option("--name", type=str, default="mab", show_default=True)
def mab_cmd(**opts):
    """Run the cross-entropy bandit and write trace/plot/result files."""
    _mab_like(schedule=None, **opts)


@main.command("scenario")
@click.option("--m", type=RBS, default=5, show_default=True)
@click.option("--n-h", type=COUNT, default=2, show_default=True, help="Initial high-class load.")
@click.option("--n-l", type=COUNT, default=1, show_default=True, help="Initial low-class load.")
@click.option("--switch-n-h", type=COUNT, default=4, show_default=True)
@click.option("--switch-n-l", type=COUNT, default=5, show_default=True)
@click.option("--switch", "switch_pull", type=click.IntRange(min=1), default=None,
              help=f"Pull index of the load switch {per_space(preset('runs'))}.")
@click.option("--gamma", type=float, default=0.4, show_default=True,
              callback=checked(check_gamma))
@bandit_options(SCENARIO_RUNS)
@click.option("--out", type=click.Path(), default="scenario-out", show_default=True)
@click.option("--name", type=str, default="scenario", show_default=True)
def scenario_cmd(switch_pull, switch_n_h, switch_n_l, **opts):
    """Non-stationary load switch: the device counts change mid-run.

    The bandit's state carries through the switch, so the run lengths default
    to longer horizons than the stationary command: the accumulated pull
    counts on pre-switch favorites must be outweighed before the running-mean
    value estimates can track the new load.
    """
    if opts["runs"] is None:
        opts["runs"] = SCENARIO_RUNS[opts["space_kind"]]
    switch_pull = switch_pull or preset("runs")[opts["space_kind"]]  # --switch is >= 1
    _mab_like(schedule=(switch_pull, switch_n_h, switch_n_l), **opts)


@main.command("reproduce")
@click.option("--table", "table_id", type=click.Choice((*TABLE_IDS, "all"), case_sensitive=False),
              default="all", show_default=True, help="Reference table id (I..VII) or 'all'.")
@click.option("--seed", type=SEED, default=MAB_SEEDS[0], show_default=True,
              help="Bandit seed; only Tables VI and VII read it.")
@click.option("--strict", is_flag=True, default=False,
              help="Exit nonzero if any reproduced value fails its tolerance.")
@click.pass_context
def reproduce_cmd(ctx, table_id, seed, strict):
    """Recompute published reference tables and report pass/fail."""
    ids = TABLE_IDS if table_id == "all" else (table_id,)
    all_passed = True
    for tid in ids:
        report = reproduce(tid, seed=seed)
        click.echo(report.render())
        click.echo("")
        all_passed = all_passed and report.passed
    if strict and not all_passed:
        ctx.exit(1)


@main.command("experiment")
@click.argument("config", type=click.Path(exists=True))
def experiment_cmd(config):
    """Run an experiment described by a config file."""
    try:
        written = run_experiment(load_experiment(config))
    except ValueError as exc:  # the file, or the grid or table it names
        raise click.BadParameter(str(exc), param_hint="CONFIG") from None
    except OSError as exc:  # the table it names or the output directory
        raise unusable_path(exc) from None
    for path in written:
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
