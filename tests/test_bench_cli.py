"""Reproduction harness and command-line interface tests."""

import json
import re
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from rachopt.actionspace import (
    GridSpec,
    build_compact,
    generate_discretized,
    load_compact,
    save_compact,
)
from rachopt.bench import (
    TABLE_IDS,
    ExperimentSpec,
    ReportLine,
    TableReport,
    _write_plot_csv,
    load_experiment,
    published_pair,
    reproduce,
    run_experiment,
)
from rachopt.cli import main
from rachopt.exact import throughput_closed_form
from rachopt.mab import (
    MabConfig,
    mae_trace,
    run,
    run_nonstationary,
    save_mab_trace,
)
from rachopt.model import AccessProbabilityPair, NetworkConfig
from rachopt.optimize import solve_batch

from support import load_plot_data


@pytest.fixture(scope="module")
def compact_2x2(tmp_path_factory):
    space = build_compact(m=3, n_h_max=2, n_l_max=2, gamma=0.0)
    path = tmp_path_factory.mktemp("tables") / "compact3.csv"
    save_compact(space, path)
    return path


# --- table reproduction ---


def test_reproduce_space_sizes_report():
    report = reproduce("I")
    assert report.passed
    assert len(report.lines) == 20  # ten (M, d) rows, full + reduced each
    flagged = [line for line in report.lines if "4356" in line.note]
    assert len(flagged) == 1
    assert flagged[0].passed  # documented discrepancy, not a failure
    assert flagged[0].published == "3844"


def test_reproduce_acb_all_within_tolerance():
    report = reproduce("III")
    assert report.passed
    assert len(report.lines) == 4
    assert all(line.passed for line in report.lines)


@pytest.mark.parametrize("table_id", ["IV", "V", "VI"])
def test_reproduce_optimizer_and_bandit_tables_pass(table_id):
    report = reproduce(table_id)
    gated = [line for line in report.lines if line.passed is not None]
    assert gated and all(line.passed for line in gated)
    assert report.passed
    if table_id == "V":
        # the benchmark reads mu_h off the front of these strings
        assert all(line.computed.startswith("mu_h=") for line in report.lines)


def test_reproduce_optimizer_tables_ignore_the_seed():
    # the solver's starts are fixed; the seed reaches only the bandit tables
    assert reproduce("V", seed=3).render() == reproduce("V").render()


@pytest.mark.parametrize("table_id, gamma", [("IV", 0.0), ("V", 0.4)])
def test_reproduce_optimizer_table_is_one_solver_batch(monkeypatch, table_id, gamma):
    # the four M of a table run in one solver batch, not as four lone solves
    calls = []

    def counted(cfgs, gamma=0.0, options=None):
        calls.append(([cfg.m for cfg in cfgs], gamma))
        return solve_batch(cfgs, gamma, options)

    monkeypatch.setattr("rachopt.bench.solve_batch", counted)
    assert reproduce(table_id).passed
    assert calls == [([3, 4, 5, 6], gamma)]


def test_reproduce_excluded_table_is_note_only():
    report = reproduce("II")
    assert report.passed
    assert report.lines == []
    assert any("not reproduced" in n for n in report.notes)


def test_reproduce_rejects_unknown_table():
    with pytest.raises(ValueError, match="unknown table"):
        reproduce("IX")


def test_report_rendering_marks_status():
    report = TableReport(
        "X",
        "demo",
        lines=[
            ReportLine("a", "1", "1", True),
            ReportLine("b", "2", "3", False, "why"),
            ReportLine("c", "4", "?", None),
        ],
    )
    text = report.render()
    assert "[PASS]" in text and "[FAIL]" in text and "[info]" in text
    assert "(why)" in text
    assert not report.passed
    assert text.strip().endswith("FAIL")


def test_published_pairs_are_valid_distributions():
    for gamma in (0.0, 0.4):
        for m in (3, 4, 5, 6):
            pair = published_pair(gamma, m)
            assert pair.m == m
            mu = throughput_closed_form(NetworkConfig(4, 5, m), pair)
            assert mu.mu_h > 0


# --- experiment specs ---


def _write_ini(path, body):
    path.write_text(body)
    return path


def test_load_experiment_full_roundtrip(tmp_path):
    ini = _write_ini(
        tmp_path / "exp.ini",
        """
[experiment]
name = demo
method = mab-compact
out = results/demo

[network]
m = 5
n_h = 2
n_l = 1
gamma = 0.4

[seeds]
list = 0 1 2

[mab]
alpha = 0.1
batch_size = 200
rho = 0.1
t = 100
runs = 4000

[schedule]
switch = 2000
n_h = 4
n_l = 5

[compact]
table = table.csv
""",
    )
    spec = load_experiment(ini)
    assert spec.name == "demo"
    assert spec.method == "mab-compact"
    assert spec.cfg == NetworkConfig(2, 1, 5)
    assert spec.gamma == 0.4
    assert spec.params["seeds"] == (0, 1, 2)
    assert spec.params["alpha"] == 0.1
    assert spec.params["runs"] == 4000
    assert spec.params["schedule"] == (2000, 4, 5)
    assert spec.params["table"] == "table.csv"
    assert spec.out_dir.name == "demo"


MINIMAL_INI = {
    "experiment": "name = x\nmethod = uniform\n",
    "network": "m = 3\nn_h = 1\nn_l = 1\n",
}


def _ini_text(sections: dict) -> str:
    return "".join(f"[{name}]\n{body}\n" for name, body in sections.items())


@pytest.mark.parametrize(
    "section, body, message",
    [
        ("experiment", "workers = 2\n", "unknown key 'workers' in [experiment]"),
        ("experiment", "workers = -3\n", "unknown key 'workers' in [experiment]"),
        ("mab", "alhpa = 0.1\n", "unknown key 'alhpa' in [mab]"),
        ("network", "n = 9\n", "unknown key 'n' in [network]"),
        ("seeds", "list = 0\ncount = 2\n", "unknown key 'count' in [seeds]"),
        ("DEFAULT", "m = 3\n", "unknown key 'm' in [DEFAULT]"),
        ("bandit", "alpha = 0.1\n", "unknown section [bandit]"),
        ("Mab", "", "unknown section [Mab]"),
    ],
)
def test_load_experiment_rejects_unread_section_or_key(tmp_path, section, body, message):
    sections = dict(MINIMAL_INI)
    sections[section] = sections.get(section, "") + body
    ini = _write_ini(tmp_path / "exp.ini", _ini_text(sections))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_experiment(ini)


@pytest.mark.parametrize(
    "section, body, message",
    [
        ("network", "n_h = 1\nn_l = 1\n", "missing key 'm' in [network]"),
        ("network", "m = 3\nn_l = 1\n", "missing key 'n_h' in [network]"),
        ("network", "m = 3\nn_h = 1\n", "missing key 'n_l' in [network]"),
        ("schedule", "n_h = 4\nn_l = 5\n", "missing key 'switch' in [schedule]"),
        ("schedule", "switch = 20\nn_l = 5\n", "missing key 'n_h' in [schedule]"),
        ("schedule", "switch = 20\nn_h = 4\n", "missing key 'n_l' in [schedule]"),
        ("experiment", "method = uniform\n", "missing key 'name' in [experiment]"),
        ("experiment", "name = x\n", "missing key 'method' in [experiment]"),
    ],
    ids=["network-m", "network-n_h", "network-n_l", "schedule-switch", "schedule-n_h", "schedule-n_l",
         "experiment-name", "experiment-method"],
)
def test_load_experiment_names_missing_key(tmp_path, section, body, message):
    sections = {**MINIMAL_INI, section: body}
    ini = _write_ini(tmp_path / "exp.ini", _ini_text(sections))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_experiment(ini)


@pytest.mark.parametrize(
    "section, body, message",
    [
        ("network", "m = 3\nn_h = 1\nn_l = 1\ngamma = abc\n", "bad value 'abc' for 'gamma' in [network]"),
        ("network", "m = 3.5\nn_h = 1\nn_l = 1\n", "bad value '3.5' for 'm' in [network]"),
        ("seeds", "list = 0 1 two\n", "bad value '0 1 two' for 'list' in [seeds]"),
        ("mab", "alpha = 0.1x\n", "bad value '0.1x' for 'alpha' in [mab]"),
        ("mab", "runs = 1e3\n", "bad value '1e3' for 'runs' in [mab]"),
        ("compact", "n_h_max = many\n", "bad value 'many' for 'n_h_max' in [compact]"),
        ("schedule", "switch = soon\nn_h = 4\nn_l = 5\n", "bad value 'soon' for 'switch' in [schedule]"),
    ],
    ids=["network-gamma", "network-m", "seeds-list", "mab-alpha", "mab-runs", "compact-n_h_max",
         "schedule-switch"],
)
def test_load_experiment_names_unparsable_value(tmp_path, section, body, message):
    sections = {**MINIMAL_INI, section: body}
    ini = _write_ini(tmp_path / "exp.ini", _ini_text(sections))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_experiment(ini)


@pytest.mark.parametrize(
    "method, section, body, message",
    [
        ("uniform", "mab", "alpha = 7\n", "method 'uniform' does not read [mab]"),
        ("acb", "mab", "", "method 'acb' does not read [mab]"),
        ("exact-opt", "schedule", "switch = 20\nn_h = 4\nn_l = 5\n",
         "method 'exact-opt' does not read [schedule]"),
        ("uniform", "compact", "n_h_max = 2\n", "method 'uniform' does not read [compact]"),
        ("mab-discretized", "compact", "table = nonexistent.csv\n",
         "method 'mab-discretized' does not read [compact]"),
        ("mab-compact", "mab", "d = 0.5\n", "method 'mab-compact' does not read 'd'"),
        ("mab-compact", "compact", "table = t.csv\nn_h_max = 2\n",
         "mab-compact takes a 'table' or 'n_h_max'/'n_l_max' bounds, not both; "
         "got ['table', 'n_h_max']"),
        ("uniform", "seeds", "list = 0\n", "method 'uniform' does not read [seeds]"),
        ("acb", "seeds", "", "method 'acb' does not read [seeds]"),
        ("exact-opt", "seeds", "list = 3\n", "method 'exact-opt' does not read [seeds]"),
    ],
    ids=["uniform-mab", "acb-empty-mab", "exact-opt-schedule", "uniform-compact",
         "discretized-compact", "compact-d", "compact-table-and-bound", "uniform-seeds",
         "acb-empty-seeds", "exact-opt-seeds"],
)
def test_load_experiment_rejects_section_or_key_the_method_does_not_read(
    tmp_path, method, section, body, message
):
    sections = {**MINIMAL_INI, "experiment": f"name = x\nmethod = {method}\n", section: body}
    ini = _write_ini(tmp_path / "exp.ini", _ini_text(sections))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_experiment(ini)


def test_load_experiment_names_malformed_file(tmp_path):
    ini = _write_ini(tmp_path / "exp.ini", _ini_text(MINIMAL_INI) + "[network]\nm = 4\n")
    with pytest.raises(ValueError, match=re.escape("section 'network' already exists")):
        load_experiment(ini)


def test_load_experiment_compact_bounds_default_to_ten_each(tmp_path, monkeypatch):
    # each bound left out is COMPACT_BOUND, whatever the other one is; a
    # stand-in solver keeps the 11 x 11 build cheap
    uniform = lambda cfg, gamma: SimpleNamespace(pair=AccessProbabilityPair.uniform(cfg.m))
    monkeypatch.setattr("rachopt.bench.build_compact", partial(build_compact, opt=uniform))
    for compact, size in (("n_h_max = 1\n", 2 * 11), ("n_l_max = 0\n", 11 * 1), ("", 11 * 11)):
        sections = {
            **MINIMAL_INI,
            "experiment": f"name = c\nmethod = mab-compact\nout = {tmp_path}\n",
            "network": "m = 2\nn_h = 1\nn_l = 1\n",
            "mab": "runs = 100\nt = 10\nbatch_size = 50\n",
        }
        if compact:
            sections["compact"] = compact
        spec = load_experiment(_write_ini(tmp_path / "exp.ini", _ini_text(sections)))
        record = json.loads(run_experiment(spec)[-1].read_text())
        assert record["space_size"] == size, compact


def test_demo_configs_parse():
    configs = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.ini"))
    assert configs
    for path in configs:
        spec = load_experiment(path)
        assert spec.name, path


def test_load_experiment_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_experiment(tmp_path / "nope.ini")


def test_load_experiment_names_missing_section(tmp_path):
    ini = _write_ini(tmp_path / "exp.ini", "[experiment]\nname = x\nmethod = exact\n")
    with pytest.raises(ValueError, match=r"missing required \[network\] section"):
        load_experiment(ini)


def test_spec_validation_rejects_bad_method(tmp_path):
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentSpec(
            name="x", cfg=NetworkConfig(1, 1, 2), gamma=0.0, method="magic",
            params={}, out_dir=tmp_path,
        )
    for gamma in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            ExperimentSpec(
                name="x", cfg=NetworkConfig(1, 1, 2), gamma=gamma, method="uniform",
                params={}, out_dir=tmp_path,
            )


def test_spec_validation_rejects_infinite_gamma_and_negative_seed(tmp_path):
    base = dict(name="x", cfg=NetworkConfig(1, 1, 2), out_dir=tmp_path)
    for method in ("uniform", "exact-opt", "mab-discretized"):
        with pytest.raises(ValueError, match="gamma must be finite, got inf"):
            ExperimentSpec(**base, gamma=float("inf"), method=method, params={})
    for method in ("mab-discretized", "mab-compact"):
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            ExperimentSpec(**base, gamma=0.0, method=method, params={"seeds": (0, -5)})


def test_spec_validation_rejects_empty_seeds_and_table_beside_bounds(tmp_path):
    base = dict(name="x", cfg=NetworkConfig(1, 1, 2), gamma=0.0, out_dir=tmp_path)
    for method in ("mab-discretized", "mab-compact"):
        with pytest.raises(ValueError, match="at least one seed is required"):
            ExperimentSpec(**base, method=method, params={"seeds": ()})
    for bounds in ({"n_h_max": 2}, {"n_l_max": 2}, {"n_h_max": 2, "n_l_max": 2}):
        with pytest.raises(ValueError, match="not both"):
            ExperimentSpec(**base, method="mab-compact", params={"table": "t.csv", **bounds})
    # with neither, the bounds are COMPACT_BOUND each
    ExperimentSpec(**base, method="mab-compact", params={})


def test_run_experiment_uniform_single_record(tmp_path):
    spec = ExperimentSpec(
        name="uni", cfg=NetworkConfig(4, 5, 4), gamma=0.0, method="uniform",
        params={}, out_dir=tmp_path,
    )
    written = run_experiment(spec)
    assert [p.name for p in written] == ["uni_result.json"]
    record = json.loads(written[0].read_text())
    mu = throughput_closed_form(spec.cfg, AccessProbabilityPair.uniform(4))
    assert record["mu_h"] == pytest.approx(mu.mu_h)
    assert record["mu_l"] == pytest.approx(mu.mu_l)


def test_run_experiment_acb_reports_admission(tmp_path):
    spec = ExperimentSpec(
        name="acb", cfg=NetworkConfig(4, 5, 5), gamma=0.0, method="acb",
        params={}, out_dir=tmp_path,
    )
    record = json.loads(run_experiment(spec)[0].read_text())
    assert record["admitted_h"] == 2
    assert record["admitted_l"] == 3
    assert record["mu_h"] == pytest.approx(0.8192)


def test_run_experiment_exact_opt(tmp_path):
    spec = ExperimentSpec(
        name="opt", cfg=NetworkConfig(4, 5, 3), gamma=0.0, method="exact-opt",
        params={}, out_dir=tmp_path,
    )
    record = json.loads(run_experiment(spec)[0].read_text())
    assert record["feasible"] is True
    assert record["mu_h"] == pytest.approx(27 / 32, abs=5e-4)
    assert len(record["p_h"]) == 3


def test_spec_rejects_seeds_for_methods_that_draw_nothing(tmp_path):
    # only the bandits draw random numbers, so only they read seeds
    for method in ("uniform", "acb", "exact-opt"):
        with pytest.raises(ValueError, match=f"method '{method}' does not read 'seeds'"):
            ExperimentSpec(
                name="x", cfg=NetworkConfig(4, 5, 3), gamma=0.4, method=method,
                params={"seeds": (3,)}, out_dir=tmp_path,
            )


MAB_SMOKE = {"runs": 300, "t": 50, "batch_size": 50, "d": 0.5}


def test_run_experiment_mab_artifacts_roundtrip(tmp_path):
    spec = ExperimentSpec(
        name="grid", cfg=NetworkConfig(4, 5, 3), gamma=0.0,
        method="mab-discretized", params={**MAB_SMOKE, "seeds": (0, 1)},
        out_dir=tmp_path,
    )
    written = run_experiment(spec)
    names = [p.name for p in written]
    assert names == [
        "grid_seed0_trace.csv", "grid_seed0_plot.csv",
        "grid_seed1_trace.csv", "grid_seed1_plot.csv",
        "grid_result.json",
    ]
    space = generate_discretized(GridSpec(3, 0.5), reduced=True)
    mcfg = {seed: MabConfig(gamma=0.0, seed=seed, alpha=0.2, elite_fraction=0.1,
                            batch_size=50, rho=0.0, t=50, runs=300) for seed in (0, 1)}
    for seed in (0, 1):
        assert _same_trace(tmp_path / f"grid_seed{seed}_trace.csv", space,
                           [(0, spec.cfg)], mcfg[seed])
    plot = load_plot_data(tmp_path / "grid_seed0_plot.csv")
    assert set(plot) == {"pull", "mu_h_running", "mu_l_running"}
    mu_h = run(space, spec.cfg, mcfg[0]).trace.mu_h_t
    running = np.cumsum(mu_h) / np.arange(1, len(mu_h) + 1)
    assert plot["mu_h_running"] == pytest.approx(running, abs=1e-8)
    record = json.loads((tmp_path / "grid_result.json").read_text())
    assert record["space_size"] == 12
    assert [entry["seed"] for entry in record["seeds"]] == [0, 1]


def test_run_experiment_mab_compact_has_mae_and_load(tmp_path, compact_2x2):
    spec = ExperimentSpec(
        name="cas", cfg=NetworkConfig(2, 1, 3), gamma=0.0, method="mab-compact",
        params={"table": str(compact_2x2), "runs": 300, "t": 50, "batch_size": 50},
        out_dir=tmp_path,
    )
    written = run_experiment(spec)
    plot = load_plot_data(tmp_path / "cas_seed0_plot.csv")
    assert "mae" in plot
    record = json.loads(written[-1].read_text())
    entry = record["seeds"][0]
    # cells sharing the true n_h are reward-equivalent at gamma=0, so assert
    # the estimate's allocation attains the true cell's exact mu_h
    assert entry["estimated_load"][0] == 2
    pair = AccessProbabilityPair(entry["p_h"], entry["p_l"])
    attained = throughput_closed_form(spec.cfg, pair).mu_h
    table = load_compact(compact_2x2)
    true_pair = table.actions[2 * 3 + 1].pair  # cell (2, 1) of the 3 x 3 loads
    target = throughput_closed_form(spec.cfg, true_pair).mu_h
    assert attained == pytest.approx(target, rel=1e-9)


# The exact bytes _write_plot_csv writes for two small runs: a grid run
# without mae, and a compact run with a mid-batch load switch and mae.
DATA = Path(__file__).parent / "data"


def test_plot_csv_matches_golden_grid_run(tmp_path):
    space = generate_discretized(GridSpec(3, 0.5), reduced=True)
    mcfg = MabConfig(gamma=0.4, rho=0.1, t=30, runs=400, batch_size=40,
                     elite_fraction=0.1, alpha=0.2, seed=1)
    path = tmp_path / "plot.csv"
    _write_plot_csv(path, run(space, NetworkConfig(2, 1, 3), mcfg), None)
    assert path.read_bytes() == (DATA / "plot_grid.csv").read_bytes()


def test_plot_csv_matches_golden_compact_switch_with_mae(tmp_path, compact_2x2):
    space = load_compact(compact_2x2)
    cfg_a, cfg_b = NetworkConfig(2, 1, 3), NetworkConfig(1, 2, 3)
    mcfg = MabConfig(gamma=0.0, rho=0.1, t=20, runs=300, batch_size=20,
                     elite_fraction=0.1, alpha=0.1, seed=2)
    res = run_nonstationary(space, [(0, cfg_a), (150, cfg_b)], mcfg)
    path = tmp_path / "plot.csv"
    _write_plot_csv(path, res, mae_trace(space, res, cfg_b))
    assert path.read_bytes() == (DATA / "plot_compact.csv").read_bytes()


def test_run_experiment_schedule_evaluates_final_load(tmp_path, compact_2x2):
    spec = ExperimentSpec(
        name="sw", cfg=NetworkConfig(1, 1, 3), gamma=0.0, method="mab-compact",
        params={
            "table": str(compact_2x2), "runs": 300, "t": 50, "batch_size": 50,
            "schedule": (100, 2, 2),
        },
        out_dir=tmp_path,
    )
    record = json.loads(run_experiment(spec)[-1].read_text())
    entry = record["seeds"][0]
    pair = AccessProbabilityPair(entry["p_h"], entry["p_l"])
    mu = throughput_closed_form(NetworkConfig(2, 2, 3), pair)
    assert entry["exact_mu_h"] == pytest.approx(mu.mu_h)
    assert entry["exact_mu_l"] == pytest.approx(mu.mu_l)


# --- command line ---


@pytest.fixture()
def runner():
    return CliRunner()


def test_cli_exact_matches_library(runner):
    result = runner.invoke(
        main,
        ["exact", "--m", "3", "--n-h", "4", "--n-l", "5",
         "--p-h", "0.25,0.25,0.5", "--p-l", "0,0,1"],
    )
    assert result.exit_code == 0
    assert "mu_h = 0.843750" in result.output
    assert "mu_l = 0.000000" in result.output


def test_cli_exact_rejects_wrong_length(runner):
    result = runner.invoke(
        main,
        ["exact", "--m", "3", "--n-h", "1", "--n-l", "1",
         "--p-h", "0.5,0.5", "--p-l", "0,0,1"],
    )
    assert result.exit_code != 0
    assert "needs 3 entries" in result.output


def _usage_error(result, *fragments):
    """Click reports bad input as a usage error (exit 2), not a traceback."""
    assert result.exit_code == 2, result.output
    assert not isinstance(result.exception, ValueError)
    assert "Traceback" not in result.output
    for text in fragments:
        assert text in result.output


def test_cli_rejects_non_numeric_probabilities(runner):
    result = runner.invoke(
        main,
        ["exact", "--m", "2", "--n-h", "1", "--n-l", "1",
         "--p-h", "0.5,abc", "--p-l", "0.5,0.5"],
    )
    _usage_error(result, "--p-h", "entries must be numbers")
    result = runner.invoke(
        main,
        ["exact", "--m", "2", "--n-h", "1", "--n-l", "1",
         "--p-h", "0.5,0.6", "--p-l", "0.5,0.5"],
    )
    _usage_error(result, "p_h sums to")


def test_cli_rejects_bad_grid_step(runner):
    _usage_error(
        runner.invoke(main, ["as-stats", "--m", "3", "--d", "0.3"]),
        "--d", "not the inverse of an integer",
    )
    _usage_error(runner.invoke(main, ["as-stats", "--m", "3", "--d", "0"]), "must be > 0")


def test_cli_rejects_negative_seed_and_counts(runner):
    _usage_error(
        runner.invoke(main, ["mab", "--m", "3", "--n-h", "1", "--n-l", "1", "--seed", "-1"]),
        "--seed", "-1 is not in the range x>=0",
    )
    _usage_error(
        runner.invoke(main, ["simulate", "--m", "3", "--n-h", "1", "--n-l", "1",
                             "--seed", "-1"]),
        "--seed", "-1 is not in the range x>=0",
    )
    _usage_error(
        runner.invoke(main, ["exact", "--m", "3", "--n-h", "-1", "--n-l", "1"]), "--n-h"
    )


def test_cli_rejects_bad_compact_bounds(runner, tmp_path):
    out = tmp_path / "table.csv"
    _usage_error(
        runner.invoke(main, ["compact-build", "--m", "0", "--out", str(out)]),
        "--m", "0 is not in the range x>=1",
    )
    _usage_error(
        runner.invoke(main, ["compact-build", "--m", "3", "--n-h-max", "-1", "--out", str(out)]),
        "--n-h-max", "-1 is not in the range x>=0",
    )
    assert not out.exists()
    for cmd in ("mab", "scenario"):
        _usage_error(
            runner.invoke(main, [cmd, "--space", "compact", "--n-l-max", "-1"]),
            "--n-l-max", "-1 is not in the range x>=0",
        )


def test_cli_rejects_negative_and_nan_gamma(runner, tmp_path):
    cfg = ["--m", "3", "--n-h", "1", "--n-l", "1"]
    commands = {
        "optimize": cfg,
        "compact-build": ["--m", "3", "--out", str(tmp_path / "table.csv")],
        "mab": cfg,
        "scenario": [],
    }
    cases = (
        ("-1", "gamma must be >= 0, got -1.0"),
        ("nan", "gamma must be >= 0, got nan"),
        ("inf", "gamma must be finite, got inf"),
    )
    for cmd, args in commands.items():
        for bad, message in cases:
            _usage_error(runner.invoke(main, [cmd, *args, "--gamma", bad]), "--gamma", message)
    assert not (tmp_path / "table.csv").exists()


def test_cli_solver_takes_no_seed_or_starts(runner, tmp_path):
    # the solver's random starts are fixed, so no command chooses them
    net = ["--m", "3", "--n-h", "1", "--n-l", "1"]
    table = tmp_path / "table.csv"
    for args, flag in (
        (["optimize", *net, "--seed", "1"], "--seed"),
        (["optimize", *net, "--starts", "4"], "--starts"),
        (["compact-build", "--m", "3", "--seed", "1", "--out", str(table)], "--seed"),
    ):
        _usage_error(runner.invoke(main, args), "No such option", flag)
    assert not table.exists()


def test_cli_simulate_rejects_zero_slots(runner):
    _usage_error(
        runner.invoke(main, ["simulate", "--m", "3", "--n-h", "1", "--n-l", "1", "--t", "0"]),
        "--t", "0 is not in the range x>=1",
    )


def test_cli_mab_rejects_alpha_outside_unit_interval(runner, tmp_path):
    result = runner.invoke(main, ["mab", "--m", "3", "--n-h", "1", "--n-l", "1",
                                  "--alpha", "1.5", "--out", str(tmp_path)])
    _usage_error(result, "alpha 1.5 outside [0, 1]")
    assert not list(tmp_path.iterdir())


def test_cli_mab_rejects_rho_outside_unit_interval(runner, tmp_path):
    for bad in ("inf", "nan", "1.5"):
        result = runner.invoke(main, ["mab", "--m", "3", "--n-h", "1", "--n-l", "1",
                                      "--rho", bad, "--out", str(tmp_path)])
        _usage_error(result, f"rho {float(bad)} outside [0, 1]")
    assert not list(tmp_path.iterdir())


def test_cli_mab_rejects_batch_that_keeps_no_elite(runner, tmp_path):
    # int(0.1 * 5) = 0 elite pulls per batch
    cfg = ["--m", "3", "--n-h", "1", "--n-l", "1"]
    for cmd, args in (("mab", cfg), ("scenario", [])):
        result = runner.invoke(main, [cmd, *args, "--runs", "50", "--batch-size", "5",
                                      "--elite-fraction", "0.1", "--out", str(tmp_path)])
        _usage_error(result, "elite_fraction keeps no records per batch")
    assert not list(tmp_path.iterdir())


def test_cli_rejects_switch_before_first_pull(runner, tmp_path):
    for bad in ("0", "-3"):
        _usage_error(
            runner.invoke(main, ["scenario", "--switch", bad, "--out", str(tmp_path)]),
            "--switch", f"{bad} is not in the range x>=1",
        )
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nname = x\nmethod = mab-discretized\nout = {}\n"
        "[network]\nm = 2\nn_h = 1\nn_l = 1\n"
        "[schedule]\nswitch = -3\nn_h = 2\nn_l = 2\n".format(tmp_path / "res")
    )
    _usage_error(
        runner.invoke(main, ["experiment", str(ini)]), "schedule switch must be >= 1, got -3"
    )
    assert not (tmp_path / "res").exists()


def test_cli_rejects_negative_schedule_load_before_any_output(runner, tmp_path):
    # the bounds build a 2 x 2 table at once, so a check after the solve
    # would leave the output directory behind
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nname = x\nmethod = mab-compact\nout = {}\n"
        "[network]\nm = 3\nn_h = 1\nn_l = 1\n[compact]\nn_h_max = 1\nn_l_max = 1\n"
        "[schedule]\nswitch = 1000\nn_h = -1\nn_l = 2\n".format(tmp_path / "res")
    )
    _usage_error(
        runner.invoke(main, ["experiment", str(ini)]),
        "schedule load: device counts must be >= 0, got (-1, 2)",
    )
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("name", ["../esc", "a/b", "", ".", ".."])
def test_cli_rejects_name_that_is_not_a_file_name_before_any_output(runner, tmp_path, name):
    # the name prefixes each output file: "../esc" would write beside the
    # output directory, "a/b" below it, and "" or "." a bare or hidden file
    out = str(tmp_path / "o")
    message = f"experiment name must be a plain file-name stem, got {name!r}"
    _usage_error(
        runner.invoke(main, ["mab", "--m", "2", "--n-h", "1", "--n-l", "1", "--runs", "500",
                             "--out", out, "--name", name]),
        message,
    )
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\nname = {name}\nmethod = uniform\nout = {out}\n"
                   "[network]\nm = 2\nn_h = 1\nn_l = 1\n")
    _usage_error(runner.invoke(main, ["experiment", str(ini)]), message)
    assert [p.name for p in tmp_path.iterdir()] == ["exp.ini"]


def test_spec_validation_rejects_name_with_nul(tmp_path):
    name = "a\0b"
    with pytest.raises(ValueError, match=re.escape(f"plain file-name stem, got {name!r}")):
        ExperimentSpec(name=name, cfg=NetworkConfig(1, 1, 2), gamma=0.0,
                       method="uniform", params={}, out_dir=tmp_path)


def test_cli_rejects_switch_at_or_after_last_pull(runner, tmp_path):
    # 400 runs in batches of 200: pulls 0..399
    run = ["--runs", "400", "--batch-size", "200", "--out", str(tmp_path / "res")]
    for switch in ("400", "5000"):
        _usage_error(
            runner.invoke(main, ["scenario", "--space", "compact", "--m", "3",
                                 "--n-h-max", "3", "--n-l-max", "3", "--switch", switch, *run]),
            f"schedule switch {switch} is not below the run's 400 pulls",
        )
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nname = x\nmethod = mab-discretized\nout = {}\n"
        "[network]\nm = 2\nn_h = 1\nn_l = 1\n[mab]\nruns = 1030\nbatch_size = 100\n"
        "[schedule]\nswitch = 1000\nn_h = 2\nn_l = 2\n".format(tmp_path / "res")
    )
    _usage_error(
        runner.invoke(main, ["experiment", str(ini)]),
        "schedule switch 1000 is not below the run's 1000 pulls",
    )
    assert not (tmp_path / "res").exists()


def test_cli_rejects_grid_over_action_cap(runner, tmp_path):
    cap = "378224704 grid actions exceeds cap 1000000 (m=8, d=0.1)"
    _usage_error(runner.invoke(main, ["as-stats", "--m", "8", "--d", "0.1"]), cap)
    out = tmp_path / "out"
    _usage_error(
        runner.invoke(main, ["mab", "--m", "8", "--n-h", "1", "--n-l", "1", "--d", "0.1",
                             "--out", str(out)]),
        cap,
    )
    assert not out.exists()


def test_cli_rejects_table_for_other_network(runner, tmp_path, compact_2x2):
    _usage_error(
        runner.invoke(main, ["mab", "--space", "compact", "--table", str(compact_2x2),
                             "--m", "4", "--n-h", "1", "--n-l", "1", "--out", str(tmp_path)]),
        f"compact table {compact_2x2} is for m=3, the network has m=4",
    )


def test_cli_rejects_table_for_other_floor(runner, tmp_path, compact_2x2):
    _usage_error(
        runner.invoke(main, ["mab", "--space", "compact", "--table", str(compact_2x2),
                             "--m", "3", "--n-h", "1", "--n-l", "1", "--gamma", "0.4",
                             "--out", str(tmp_path)]),
        f"compact table {compact_2x2} is for gamma=0.0, the network has gamma=0.4",
    )


def test_cli_rejects_table_value_that_does_not_parse(runner, tmp_path, compact_2x2):
    lines = compact_2x2.read_text().splitlines()
    cols = lines[2].split(",")
    cols[5] = "abc"
    lines[2] = ",".join(cols)
    table = tmp_path / "t.csv"
    table.write_text("\n".join(lines) + "\n")
    for cmd, args in (("mab", ["--m", "3", "--n-h", "1", "--n-l", "1"]), ("scenario", [])):
        _usage_error(
            runner.invoke(main, [cmd, *args, "--space", "compact", "--table", str(table),
                                 "--out", str(tmp_path / "out")]),
            f"{table}: bad compact-table row at line 3: could not convert string to float: 'abc'",
        )


def test_cli_rejects_input_the_run_does_not_read(runner, tmp_path, compact_2x2):
    out = tmp_path / "out"
    cfg = ["--m", "3", "--n-h", "1", "--n-l", "1", "--out", str(out)]
    table = ["--table", str(compact_2x2)]
    for cmd, args in (("mab", cfg), ("scenario", ["--out", str(out)])):
        _usage_error(
            runner.invoke(main, [cmd, *args, *table]),
            "method 'mab-discretized' does not read 'table'",
        )
        _usage_error(
            runner.invoke(main, [cmd, *args, "--space", "compact", "--d", "0.5"]),
            "method 'mab-compact' does not read 'd'",
        )
        _usage_error(
            runner.invoke(main, [cmd, *args, "--n-h-max", "2"]),
            "method 'mab-discretized' does not read 'n_h_max'",
        )
        _usage_error(
            runner.invoke(main, [cmd, *args, "--space", "compact", *table, "--n-h-max", "7"]),
            "not both; got ['table', 'n_h_max']",
        )
    ini = tmp_path / "exp.ini"
    head = (f"[experiment]\nname = x\nmethod = {{}}\nout = {out}\n"
            "[network]\nm = 3\nn_h = 1\nn_l = 1\n[compact]\n")
    for method, compact, message in (
        ("mab-discretized", "table = nonexistent.csv\n",
         "method 'mab-discretized' does not read [compact]"),
        ("mab-compact", f"table = {compact_2x2}\nn_h_max = 7\n",
         "not both; got ['table', 'n_h_max']"),
    ):
        ini.write_text(head.format(method) + compact)
        _usage_error(runner.invoke(main, ["experiment", str(ini)]), message)
    assert not out.exists()


def test_cli_experiment_rejects_bad_floor_or_seed_before_any_output(runner, tmp_path):
    out = tmp_path / "out"
    ini = tmp_path / "exp.ini"
    head = f"[experiment]\nname = x\nmethod = {{}}\nout = {out}\n"
    net = "[network]\nm = 2\nn_h = 1\nn_l = 1\n"
    for method, tail, message in (
        ("mab-discretized", "[seeds]\nlist = 0 -1\n", "seed must be >= 0, got -1"),
        ("mab-compact", "[seeds]\nlist =\n", "at least one seed is required"),
        ("exact-opt", "[seeds]\nlist = 0\n", "method 'exact-opt' does not read [seeds]"),
        ("exact-opt", "gamma = inf\n", "gamma must be finite, got inf"),
    ):
        ini.write_text(head.format(method) + net + tail)
        _usage_error(runner.invoke(main, ["experiment", str(ini)]), message)
    assert not out.exists()


def test_cli_experiment_rejects_negative_compact_bound_before_any_output(runner, tmp_path):
    out = tmp_path / "out"
    ini = tmp_path / "exp.ini"
    head = (f"[experiment]\nname = x\nmethod = mab-compact\nout = {out}\n"
            "[network]\nm = 2\nn_h = 1\nn_l = 1\n[compact]\n")
    for bounds, message in (("n_h_max = -1\n", "n_h_max must be >= 0, got -1"),
                            ("n_h_max = 1\nn_l_max = -1\n", "n_l_max must be >= 0, got -1")):
        ini.write_text(head + bounds)
        _usage_error(runner.invoke(main, ["experiment", str(ini)]), message)
    assert not out.exists()


def test_cli_experiment_names_missing_section(runner, tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nname = x\nmethod = uniform\n")
    _usage_error(runner.invoke(main, ["experiment", str(ini)]), "missing required [network]")
    ini.write_text("[experiment]\nname = x\nmethod = uniform\n[network]\nn_h = 1\nn_l = 1\n")
    _usage_error(runner.invoke(main, ["experiment", str(ini)]), "missing key 'm' in [network]")
    ini.write_text("[experiment]\nname = x\nmethod = uniform\n[network]\nm = 3\nn_h = 1\nn_l = 1\ngamma = abc\n")
    _usage_error(runner.invoke(main, ["experiment", str(ini)]), "bad value 'abc' for 'gamma' in [network]")


def test_cli_exact_requires_both_vectors(runner):
    result = runner.invoke(
        main, ["exact", "--m", "2", "--n-h", "1", "--n-l", "1", "--p-h", "0.5,0.5"]
    )
    assert result.exit_code != 0
    assert "together" in result.output


def test_cli_simulate_writes_json(runner, tmp_path):
    out = tmp_path / "sim.json"
    result = runner.invoke(
        main,
        ["simulate", "--m", "3", "--n-h", "4", "--n-l", "5",
         "--t", "500", "--seed", "3", "--out", str(out)],
    )
    assert result.exit_code == 0
    record = json.loads(out.read_text())
    assert record["t"] == 500
    assert 0 <= record["mu_h_T"] <= 3


def test_cli_optimize_smoke(runner, tmp_path):
    result = runner.invoke(
        main,
        ["optimize", "--m", "3", "--n-h", "4", "--n-l", "5",
         "--gamma", "0"],
    )
    assert result.exit_code == 0
    assert "feasible = True" in result.output
    assert "mu_h = 0.84" in result.output
    # solver telemetry: rounds, whether the cap was hit, final residual
    assert "cap_hit = False" in result.output
    out = tmp_path / "opt.json"
    result = runner.invoke(
        main,
        ["optimize", "--m", "3", "--n-h", "4", "--n-l", "5",
         "--gamma", "0.4", "--out", str(out)],
    )
    assert result.exit_code == 0
    record = json.loads(out.read_text())
    rounds = record["outer_rounds"]
    assert isinstance(rounds, int) and 1 <= rounds <= 40
    assert record["cap_hit"] is (rounds == 40)
    assert 0.0 <= record["max_violation"] < 1e-6
    for key in ("outer_rounds", "cap_hit", "max_violation"):
        assert f"{key} = {record[key]}" in result.output


def test_cli_optimize_prints_inner_steps(runner, tmp_path):
    out = tmp_path / "opt.json"
    result = runner.invoke(
        main,
        ["optimize", "--m", "3", "--n-h", "2", "--n-l", "1",
         "--gamma", "0.4", "--out", str(out)],
    )
    assert result.exit_code == 0
    steps = json.loads(out.read_text())["inner_steps"]
    assert isinstance(steps, int) and steps >= 1
    assert f"inner_steps = {steps}" in result.output


def test_cli_as_stats(runner):
    result = runner.invoke(main, ["as-stats", "--m", "3", "--d", "0.5"])
    assert result.exit_code == 0
    assert "full 36, reduced 12" in result.output


def test_cli_compact_build_and_mab(runner, tmp_path):
    table = tmp_path / "table.csv"
    build = runner.invoke(
        main,
        ["compact-build", "--m", "3", "--n-h-max", "2", "--n-l-max", "2",
         "--gamma", "0", "--out", str(table)],
    )
    assert build.exit_code == 0
    assert "built 9 cells" in build.output
    assert "cannot meet the floor" not in build.output
    # with a floor, the n_l = 0 cells cannot meet it and are listed
    floored = runner.invoke(
        main,
        ["compact-build", "--m", "3", "--n-h-max", "1", "--n-l-max", "1",
         "--gamma", "0.3", "--out", str(tmp_path / "floored.csv")],
    )
    assert floored.exit_code == 0, floored.output
    assert "2 cells cannot meet the floor: [(0, 0), (1, 0)]" in floored.output
    mab = runner.invoke(
        main,
        ["mab", "--space", "compact", "--m", "3", "--n-h", "2", "--n-l", "1",
         "--table", str(table), "--runs", "300", "--t", "50",
         "--batch-size", "50", "--out", str(tmp_path / "out"), "--name", "demo"],
    )
    assert mab.exit_code == 0
    assert "estimated load (2," in mab.output  # n_l ambiguous at gamma=0
    assert (tmp_path / "out" / "demo_result.json").exists()


def test_cli_mab_on_saved_table_writes_the_in_place_run(runner, tmp_path):
    # compact-build saves a table that reads back bit for bit, so a run on it
    # writes the trace, plot and record of the same run on a table built in place
    bounds = ["--n-h-max", "3", "--n-l-max", "4"]
    table = tmp_path / "table.csv"
    build = runner.invoke(
        main, ["compact-build", "--m", "4", *bounds, "--gamma", "0.4", "--out", str(table)]
    )
    assert build.exit_code == 0, build.output
    args = ["mab", "--space", "compact", "--m", "4", "--n-h", "2", "--n-l", "3", "--gamma", "0.4",
            "--runs", "1000", "--t", "50", "--batch-size", "100", "--seed", "0", "--name", "r"]
    for out, space in (("saved", ["--table", str(table)]), ("built", bounds)):
        result = runner.invoke(main, [*args, *space, "--out", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    for name in ("r_seed0_trace.csv", "r_seed0_plot.csv"):
        assert (tmp_path / "saved" / name).read_bytes() == (tmp_path / "built" / name).read_bytes()
    records = [(tmp_path / out / "r_result.json").read_text() for out in ("saved", "built")]
    saved, built = (re.sub(r'"seconds": [^,\n]*', "", text) for text in records)
    assert saved == built


def test_cli_mab_compact_bounds_default_to_ten(runner, tmp_path):
    # --n-h-max 2 alone builds loads (0..2) x (0..10)
    result = runner.invoke(
        main,
        ["mab", "--m", "2", "--n-h", "1", "--n-l", "1", "--space", "compact", "--n-h-max", "2",
         "--out", str(tmp_path), "--name", "b"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "b_result.json").read_text())["space_size"] == 33


@pytest.mark.parametrize("command", ["mab", "scenario"])
def test_cli_help_shows_each_bandit_flags_per_space_default(runner, command):
    # flags stay None, so the help is the only place these defaults show
    text = " ".join(runner.invoke(main, [command, "--help"], terminal_width=1000).output.split())
    for flag, grid, compact in (("--alpha", 0.2, 0.1), ("--elite-fraction", 0.1, 0.1),
                                ("--batch-size", 500, 200), ("--rho", 0.0, 0.1),
                                ("--t", 1000, 100)):
        assert re.search(f"{flag} [A-Z]+ [^[]*\\[default: {grid} discretized, {compact} "
                         "compact\\]", text), flag
    assert re.search(r"--d FLOAT Grid step \(discretized space\)\. \[default: \(0\.2\)\]", text)


def _record_without_seconds(path):
    record = json.loads(path.read_text())
    for entry in record["seeds"]:
        entry.pop("seconds")
    return record


@pytest.mark.parametrize(
    "gamma, flags, sections",
    [
        # --n-h-max alone: n_l_max is COMPACT_BOUND on both routes, 2 x 11 loads
        ("0", ["--space", "compact", "--n-h-max", "1"],
         {"experiment": "method = mab-compact\n", "compact": "n_h_max = 1\n"}),
        ("0.2", ["--d", "0.5", "--seed", "0", "--seed", "3"],
         {"experiment": "method = mab-discretized\n", "mab": "d = 0.5\n",
          "seeds": "list = 0 3\n"}),
        ("0.2", ["--space", "compact", "--n-h-max", "2", "--n-l-max", "1", "--alpha", "0.3",
                 "--rho", "0.2", "--seed", "1"],
         {"experiment": "method = mab-compact\n", "compact": "n_h_max = 2\nn_l_max = 1\n",
          "mab": "alpha = 0.3\nrho = 0.2\n", "seeds": "list = 1\n"}),
    ],
    ids=["compact-n_h_max-alone", "grid-two-seeds", "compact-bounds-and-tuning"],
)
def test_cli_mab_flags_and_ini_write_the_same_record(runner, tmp_path, gamma, flags, sections):
    net = ["--m", "2", "--n-h", "1", "--n-l", "1", "--gamma", gamma]
    pulls = ["--runs", "100", "--t", "10", "--batch-size", "50"]
    result = runner.invoke(main, ["mab", *net, *pulls, *flags,
                                  "--out", str(tmp_path / "flags"), "--name", "p"])
    assert result.exit_code == 0, result.output
    ini = {
        "experiment": f"name = p\nout = {tmp_path / 'ini'}\n",
        "network": f"m = 2\nn_h = 1\nn_l = 1\ngamma = {gamma}\n",
        "mab": "runs = 100\nt = 10\nbatch_size = 50\n",
    }
    for section, body in sections.items():
        ini[section] = ini.get(section, "") + body
    ini_path = _write_ini(tmp_path / "p.ini", _ini_text(ini))
    result = runner.invoke(main, ["experiment", str(ini_path)])
    assert result.exit_code == 0, result.output
    flags_dir, ini_dir = tmp_path / "flags", tmp_path / "ini"
    names = sorted(p.name for p in flags_dir.iterdir())
    assert names == sorted(p.name for p in ini_dir.iterdir())
    for name in names:
        if name.endswith(".csv"):  # traces and plots
            assert (flags_dir / name).read_bytes() == (ini_dir / name).read_bytes(), name
    record = _record_without_seconds(flags_dir / "p_result.json")
    assert record == _record_without_seconds(ini_dir / "p_result.json")


def test_cli_mab_discretized_smoke(runner, tmp_path):
    result = runner.invoke(
        main,
        ["mab", "--m", "3", "--n-h", "4", "--n-l", "5", "--d", "0.5",
         "--runs", "300", "--t", "50", "--batch-size", "50",
         "--seed", "0", "--seed", "1", "--out", str(tmp_path), "--name", "g"],
    )
    assert result.exit_code == 0
    assert (tmp_path / "g_seed0_trace.csv").exists()
    assert (tmp_path / "g_seed1_plot.csv").exists()


def _same_trace(path, space, schedule, mcfg):
    """Whether the trace CSV at ``path`` is the bytes that a library run
    under the load ``schedule`` writes."""
    expected = path.with_name("expected.csv")
    save_mab_trace(run_nonstationary(space, schedule, mcfg), expected)
    return path.read_bytes() == expected.read_bytes()


def test_cli_mab_compact_runs_compact_preset(runner, tmp_path, compact_2x2):
    result = runner.invoke(
        main,
        ["mab", "--space", "compact", "--table", str(compact_2x2),
         "--m", "3", "--n-h", "2", "--n-l", "1", "--out", str(tmp_path), "--name", "c"],
    )
    assert result.exit_code == 0, result.output
    preset = MabConfig(gamma=0.0, seed=0, alpha=0.1, elite_fraction=0.1, batch_size=200,
                       rho=0.1, t=100, runs=2000)
    assert _same_trace(tmp_path / "c_seed0_trace.csv", load_compact(compact_2x2),
                       [(0, NetworkConfig(2, 1, 3))], preset)


@pytest.mark.parametrize("flags, alpha", [([], 0.2), (["--alpha", "0.3"], 0.3)])
def test_cli_mab_grid_runs_grid_preset(runner, tmp_path, flags, alpha):
    result = runner.invoke(
        main,
        ["mab", "--m", "2", "--n-h", "2", "--n-l", "1", "--d", "0.5", "--gamma", "0.2",
         *flags, "--out", str(tmp_path), "--name", "g"],
    )
    assert result.exit_code == 0, result.output
    preset = MabConfig(gamma=0.2, seed=0, alpha=alpha, elite_fraction=0.1, batch_size=500,
                       rho=0.0, t=1000, runs=15000)
    assert _same_trace(tmp_path / "g_seed0_trace.csv",
                       generate_discretized(GridSpec(2, 0.5), reduced=True),
                       [(0, NetworkConfig(2, 1, 2))], preset)


def test_cli_scenario_smoke(runner, tmp_path, compact_2x2):
    result = runner.invoke(
        main,
        ["scenario", "--space", "compact", "--table", str(compact_2x2),
         "--m", "3", "--n-h", "1", "--n-l", "1",
         "--switch-n-h", "2", "--switch-n-l", "2", "--switch", "100",
         "--gamma", "0", "--runs", "300", "--t", "20", "--batch-size", "50",
         "--out", str(tmp_path), "--name", "sc"],
    )
    assert result.exit_code == 0, result.output
    preset = MabConfig(gamma=0.0, seed=0, alpha=0.1, elite_fraction=0.1, batch_size=50,
                       rho=0.1, t=20, runs=300)
    assert _same_trace(tmp_path / "sc_seed0_trace.csv", load_compact(compact_2x2),
                       [(0, NetworkConfig(1, 1, 3)), (100, NetworkConfig(2, 2, 3))], preset)


def test_cli_reproduce_fast_tables(runner):
    result = runner.invoke(main, ["reproduce", "--table", "III"])
    assert result.exit_code == 0
    assert "Table III" in result.output
    assert "=> PASS" in result.output


def test_cli_reproduce_strict_exit_code(runner, monkeypatch):
    failing = TableReport("III", "stub", lines=[ReportLine("x", "1", "2", False)])
    monkeypatch.setattr("rachopt.cli.reproduce", lambda *a, **k: failing)
    lenient = runner.invoke(main, ["reproduce", "--table", "III"])
    assert lenient.exit_code == 0
    strict = runner.invoke(main, ["reproduce", "--table", "III", "--strict"])
    assert strict.exit_code == 1
    assert "=> FAIL" in strict.output


def test_cli_reproduce_rejects_unknown_table_and_takes_any_case(runner, monkeypatch):
    result = runner.invoke(main, ["reproduce", "--table", "VIII"])
    _usage_error(result, "'VIII' is not one of", "'vii'", "'all'")
    asked = []
    monkeypatch.setattr("rachopt.cli.reproduce",
                        lambda tid, **k: asked.append(tid) or TableReport(tid, "stub"))
    assert runner.invoke(main, ["reproduce", "--table", "vi"]).exit_code == 0
    assert runner.invoke(main, ["reproduce", "--table", "ALL"]).exit_code == 0
    assert asked == ["VI", *TABLE_IDS]


def test_cli_experiment_names_unreadable_table_before_any_output(runner, tmp_path):
    out = tmp_path / "out"
    ini = tmp_path / "exp.ini"
    head = (f"[experiment]\nname = x\nmethod = mab-compact\nout = {out}\n"
            "[network]\nm = 2\nn_h = 1\nn_l = 1\n[compact]\n")
    for table, reason in ((tmp_path / "missing.csv", "No such file or directory"),
                          (tmp_path, "Is a directory")):
        ini.write_text(head + f"table = {table}\n")
        _usage_error(runner.invoke(main, ["experiment", str(ini)]), str(table), reason)
    assert not out.exists()


def test_cli_output_under_a_file_is_usage_error(runner, tmp_path, compact_2x2):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\nname = x\nmethod = uniform\nout = {blocker}\n"
                   "[network]\nm = 2\nn_h = 1\nn_l = 1\n")
    net = ["--m", "2", "--n-h", "1", "--n-l", "1"]
    for args in (
        ["exact", *net, "--out", str(blocker / "x.json")],
        ["optimize", *net, "--out", str(blocker / "x.json")],
        ["compact-build", "--m", "2", "--n-h-max", "1", "--n-l-max", "1",
         "--out", str(blocker / "a" / "t.csv")],
        ["mab", "--m", "3", "--n-h", "1", "--n-l", "1", "--space", "compact",
         "--table", str(compact_2x2), "--out", str(blocker)],
        ["experiment", str(ini)],
    ):
        _usage_error(runner.invoke(main, args), "cannot open or create", str(blocker))
    assert blocker.read_text() == ""


def test_cli_experiment_runs_ini(runner, tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        f"""
[experiment]
name = ini
method = uniform
out = {tmp_path / 'res'}

[network]
m = 4
n_h = 4
n_l = 5
""".lstrip()
    )
    result = runner.invoke(main, ["experiment", str(ini)])
    assert result.exit_code == 0
    assert (tmp_path / "res" / "ini_result.json").exists()


def test_cli_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
