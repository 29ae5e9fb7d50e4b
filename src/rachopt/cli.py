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
from .actionspace import GridSpec, build_compact, full_space_size, generate_discretized
from .bench import GRID_STEP, TABLE_IDS, ExperimentSpec, load_experiment, reproduce, run_experiment
from .exact import throughput_closed_form
from .model import AccessProbabilityPair, NetworkConfig, check_gamma
from .optimize import SolverOptions, solve
from .simulate import sim_throughput

# Seeds feed numpy's SeedSequence, which takes non-negative integers only.
SEED = click.IntRange(min=0)
COUNT = click.IntRange(min=0)
RBS = click.IntRange(min=1)


class Floor(click.ParamType):
    """A low-class floor: a finite float >= 0, as :func:`check_gamma` has it."""

    name = "float"

    def convert(self, value, param, ctx):
        x = click.FLOAT.convert(value, param, ctx)
        try:
            check_gamma(x)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)
        return x


GAMMA = Floor()


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


def grid_step(ctx, param, value: float | None) -> float | None:
    """Click callback: a grid step must be the inverse of an integer."""
    if value is not None:
        try:
            GridSpec(1, value)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None
    return value


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


def write_json(out: str | None, record: dict) -> None:
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(record, indent=2) + "\n")
        click.echo(f"wrote {out}")


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Two-priority random-access throughput tools."""


@main.command("exact")
@cfg_options
@click.option("--p-h", type=str, default=None, help="High-class probabilities (comma separated).")
@click.option("--p-l", type=str, default=None, help="Low-class probabilities (comma separated).")
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
@click.option("--p-h", type=str, default=None, help="High-class probabilities (comma separated).")
@click.option("--p-l", type=str, default=None, help="Low-class probabilities (comma separated).")
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
@click.option("--gamma", type=GAMMA, default=0.0, show_default=True,
              help="Low-class throughput floor.")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--starts", type=COUNT, default=20, show_default=True,
              help="Number of multistart initializations.")
@click.option("--out", type=click.Path(), default=None, help="Write the result as JSON.")
def optimize_cmd(m, n_h, n_l, gamma, seed, starts, out):
    """Maximize high-class throughput subject to the low-class floor."""
    cfg = NetworkConfig(n_h=n_h, n_l=n_l, m=m)
    res = solve(cfg, gamma=gamma, options=SolverOptions(random_starts=starts, seed=seed))
    click.echo(f"p_h = {np.round(res.pair.p_h, 6).tolist()}")
    click.echo(f"p_l = {np.round(res.pair.p_l, 6).tolist()}")
    click.echo(f"mu_h = {res.mu.mu_h:.6f}")
    click.echo(f"mu_l = {res.mu.mu_l:.6f}")
    click.echo(f"feasible = {res.feasible}")
    telemetry = {key: res.diagnostics[key] for key in ("outer_rounds", "cap_hit", "max_violation")}
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
@click.option("--d", type=float, default=GRID_STEP, show_default=True, callback=grid_step,
              help="Grid step.")
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
@click.option("--n-h-max", type=COUNT, default=10, show_default=True)
@click.option("--n-l-max", type=COUNT, default=10, show_default=True)
@click.option("--gamma", type=GAMMA, default=0.0, show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True,
              help="Optimizer multistart seed used for every cell.")
@click.option("--out", type=click.Path(), required=True, help="Destination CSV.")
def compact_build_cmd(m, n_h_max, n_l_max, gamma, seed, out):
    """Precompute the compact (load -> allocation) table and save it."""
    from .actionspace import save_compact

    space = build_compact(
        m=m, n_h_max=n_h_max, n_l_max=n_l_max, gamma=gamma,
        options=SolverOptions(seed=seed),
    )
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    save_compact(space, out)
    infeasible = space.infeasible_cells()
    click.echo(f"built {len(space)} cells -> {out}")
    if infeasible:
        click.echo(f"{len(infeasible)} cells cannot meet the floor: "
                   f"{sorted(infeasible)}")


def _mab_like(space_kind, m, n_h, n_l, gamma, d, table, n_h_max, n_l_max,
              seeds, out, name, schedule, **mab_flags):
    params = {k: v for k, v in mab_flags.items() if v is not None}
    if space_kind == "discretized":
        method = "mab-discretized"
        if table is not None:
            raise click.UsageError("--table needs --space compact")
        if d is not None:
            params["d"] = d
    else:
        method = "mab-compact"
        if d is not None:
            raise click.UsageError("--d needs --space discretized")
        if table:
            params["table"] = table
        else:
            params["n_h_max"] = n_h_max
            params["n_l_max"] = n_l_max
    if schedule is not None:
        params["schedule"] = schedule
    try:
        spec = ExperimentSpec(
            name=name,
            cfg=NetworkConfig(n_h=n_h, n_l=n_l, m=m),
            gamma=gamma,
            method=method,
            params=params,
            seeds=tuple(seeds),
            out_dir=Path(out),
        )
        written = run_experiment(spec)
    except ValueError as exc:  # a bandit parameter, the grid's size or the table file
        raise click.BadParameter(str(exc)) from None
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


# The action space and bandit options shared by `mab` and `scenario`.
bandit_options = _options(
    click.option("--space", "space_kind", type=click.Choice(["discretized", "compact"]),
                 default="discretized", show_default=True),
    click.option("--d", type=float, default=None, callback=grid_step,
                 help="Grid step (discretized space)."),
    click.option("--table", type=click.Path(exists=True), default=None,
                 help="Precomputed compact table CSV."),
    click.option("--n-h-max", type=COUNT, default=10, show_default=True,
                 help="Compact table bound when building in place."),
    click.option("--n-l-max", type=COUNT, default=10, show_default=True),
    click.option("--alpha", type=float, default=None, help="Smoothing rate."),
    click.option("--elite-fraction", type=float, default=None),
    click.option("--batch-size", type=int, default=None),
    click.option("--rho", type=float, default=None, help="Infeasibility discount."),
    click.option("--t", type=int, default=None, help="Slots per pull."),
    click.option("--runs", type=int, default=None, help="Total pulls."),
    click.option("--seed", "seeds", type=SEED, multiple=True, default=(0,), show_default=True,
                 help="Seed; repeat for several runs."),
)


@main.command("mab")
@cfg_options
@click.option("--gamma", type=GAMMA, default=0.0, show_default=True)
@bandit_options
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
              help="Pull index of the load switch "
                   "[default: 15000 discretized, 2000 compact].")
@click.option("--gamma", type=GAMMA, default=0.4, show_default=True)
@bandit_options
@click.option("--out", type=click.Path(), default="scenario-out", show_default=True)
@click.option("--name", type=str, default="scenario", show_default=True)
def scenario_cmd(switch_pull, switch_n_h, switch_n_l, **opts):
    """Non-stationary load switch: the device counts change mid-run.

    The bandit's state carries through the switch, so the run lengths default
    to longer horizons than the stationary command: the accumulated pull
    counts on pre-switch favorites must be outweighed before the running-mean
    value estimates can track the new load.
    """
    grid = opts["space_kind"] == "discretized"
    if switch_pull is None:
        switch_pull = 15000 if grid else 2000
    if opts["runs"] is None:
        opts["runs"] = 45000 if grid else 12000
    _mab_like(schedule=(switch_pull, switch_n_h, switch_n_l), **opts)


@main.command("reproduce")
@click.option("--table", "table_id", type=str, default="all", show_default=True,
              help="Reference table id (I..VII) or 'all'.")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--strict", is_flag=True, default=False,
              help="Exit nonzero if any reproduced value fails its tolerance.")
@click.pass_context
def reproduce_cmd(ctx, table_id, seed, strict):
    """Recompute published reference tables and report pass/fail."""
    ids = TABLE_IDS if table_id.lower() == "all" else (table_id,)
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
    for path in written:
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
