import csv
import math
import random
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rachopt.actionspace import (
    GridSpec,
    build_compact,
    exact_throughputs,
    full_space_size,
    generate_discretized,
    load_compact,
    save_compact,
)
from rachopt.exact import throughput_closed_form
from rachopt.model import AccessProbabilityPair, NetworkConfig
from rachopt.optimize import solve

from support import (
    burnside_orbit_count,
    grid_numerators,
    min_joint_rotation,
    random_simplex,
    stars_and_bars,
)

# Grid sizes for the benchmark (m, d) combinations.  The (3, 0.1) full count
# is the exact value 66^2 = 4356; the corresponding reduced count 1452 times
# the 3 rotations recovers it.
REFERENCE_SIZES = {
    (2, 0.5): (9, 5),
    (2, 0.2): (36, 18),
    (2, 0.1): (121, 61),
    (3, 0.5): (36, 12),
    (3, 0.2): (441, 147),
    (3, 0.1): (4356, 1452),
    (4, 0.5): (100, 26),
    (4, 0.2): (3136, 784),
    (5, 0.5): (225, 45),
    (5, 0.2): (15876, 3176),
}


def test_grid_spec_validation():
    assert GridSpec(3, 0.2).q == 5
    assert GridSpec(2, 0.1).q == 10
    with pytest.raises(ValueError):
        GridSpec(3, 0.3)
    with pytest.raises(ValueError):
        GridSpec(0, 0.5)


def test_full_sizes_match_composition_count():
    for (m, d), (full, _) in REFERENCE_SIZES.items():
        spec = GridSpec(m, d)
        assert full_space_size(spec) == full
        per_vec = math.comb(spec.q + m - 1, m - 1)
        assert full == per_vec**2


def test_generated_sizes_match_reference():
    for (m, d), (full, reduced) in REFERENCE_SIZES.items():
        if full > 5000:
            continue  # the big rows are covered by the acceptance suite
        spec = GridSpec(m, d)
        assert len(generate_discretized(spec)) == full
        assert len(generate_discretized(spec, reduced=True)) == reduced


def test_reduced_sizes_match_burnside():
    for (m, d), (_, reduced) in REFERENCE_SIZES.items():
        spec = GridSpec(m, d)
        assert burnside_orbit_count(spec.q, m) == reduced


def test_single_rb_grid():
    space = generate_discretized(GridSpec(1, 0.5))
    assert len(space) == 1
    assert space.actions[0].pair.p_h == (1.0,)


def test_full_space_lexicographic_order():
    space = generate_discretized(GridSpec(3, 0.5))
    keys = [u + v for u, v in grid_numerators(space, 2)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_grid_actions_are_exact():
    space = generate_discretized(GridSpec(3, 0.2))
    for pos, (u, v) in enumerate(grid_numerators(space, 5)):
        assert sum(u) == 5 and sum(v) == 5
        assert space.actions[pos].pair.p_h == tuple(n / 5 for n in u)
        assert space.actions[pos].pair.p_l == tuple(n / 5 for n in v)


def test_reduced_space_members_are_canonical():
    space = generate_discretized(GridSpec(3, 0.2), reduced=True)
    for u, v in grid_numerators(space, 5):
        assert min_joint_rotation(u, v) == (u, v)


def test_reduction_is_order_independent():
    spec = GridSpec(3, 0.5)
    full = generate_discretized(spec)
    reduced_keys = set(grid_numerators(generate_discretized(spec, reduced=True), spec.q))
    shuffled = grid_numerators(full, spec.q)
    random.Random(5).shuffle(shuffled)
    seen = {min_joint_rotation(u, v) for u, v in shuffled}
    assert seen == reduced_keys


def test_no_residual_rotation_duplicates():
    space = generate_discretized(GridSpec(3, 0.5), reduced=True)
    orbits = [min_joint_rotation(u, v) for u, v in grid_numerators(space, 2)]
    assert len(set(orbits)) == len(orbits)


def test_every_orbit_is_represented():
    spec = GridSpec(3, 0.5)
    full = generate_discretized(spec)
    representatives = set(grid_numerators(generate_discretized(spec, reduced=True), spec.q))
    # each representative is its orbit's minimum
    for u, v in grid_numerators(full, spec.q):
        assert min_joint_rotation(u, v) in representatives


def test_grids_match_brute_force_enumeration():
    specs = [GridSpec(m, d) for (m, d), (full, _) in REFERENCE_SIZES.items() if full <= 5000]
    specs += [GridSpec(1, 0.5), GridSpec(1, 1e-20)]
    for spec in specs:
        comps = sorted(stars_and_bars(spec.q, spec.m))
        every = [(u, v) for u in comps for v in comps]
        canonical = [(u, v) for u, v in every if min_joint_rotation(u, v) == (u, v)]
        for reduced, expected in ((False, every), (True, canonical)):
            space = generate_discretized(spec, reduced=reduced)
            assert grid_numerators(space, spec.q) == expected
            for (u, v), action in zip(expected, space.actions):
                assert action.pair.p_h == tuple(n / spec.q for n in u)
                assert action.pair.p_l == tuple(n / spec.q for n in v)


def test_size_cap():
    with pytest.raises(ValueError):
        generate_discretized(GridSpec(5, 0.1))  # 1001^2 actions
    with pytest.raises(ValueError, match="1002001 grid actions exceeds cap 1000000"):
        generate_discretized(GridSpec(2, 0.001))  # 1001^2 actions, two RBs


def test_exact_throughputs_rejects_other_m():
    space = generate_discretized(GridSpec(4, 0.5), reduced=True)
    with pytest.raises(ValueError, match="^space has m=4, config has m=3$"):
        exact_throughputs(space, NetworkConfig(4, 5, 3))
    with pytest.raises(ValueError, match="^space has m=4, config has m=5$"):
        exact_throughputs(space, NetworkConfig(4, 5, 5))


# ------------------------------------------------------------- compact table


def fake_opt(cfg: NetworkConfig, gamma: float) -> SimpleNamespace:
    # deterministic stand-in: high class spreads over the first m-1 RBs,
    # low class parks on the last
    m = cfg.m
    p_h = [1.0 / (m - 1)] * (m - 1) + [0.0]
    p_l = [0.0] * (m - 1) + [1.0]
    return SimpleNamespace(pair=AccessProbabilityPair(p_h, p_l))


def _cells(space) -> list[tuple[int, int]]:
    return [(e.n_h, e.n_l) for e in space.entries]


def test_build_compact_layout():
    space = build_compact(3, 2, 2, 0.0, opt=fake_opt)
    assert (space.m, space.gamma) == (3, 0.0)
    assert len(space) == 9
    assert (_cells(space)[0], _cells(space)[8]) == ((0, 0), (2, 2))
    e00 = space.entries[0]
    assert e00.pair == AccessProbabilityPair.uniform(3)
    assert e00.mu_h == 0.0 and e00.mu_l == 0.0
    # stored throughputs always match a fresh evaluation
    for e in space.entries:
        mu = throughput_closed_form(NetworkConfig(e.n_h, e.n_l, 3), e.pair)
        assert e.mu_h == mu.mu_h and e.mu_l == mu.mu_l
    # zero-high cells store a uniform high vector by convention
    assert space.entries[0 * 3 + 2].pair.p_h == (1 / 3, 1 / 3, 1 / 3)


def test_space_reads_m_and_floor(tmp_path):
    grid = generate_discretized(GridSpec(3, 0.5), reduced=True)
    assert (grid.m, grid.gamma, grid.is_compact) == (3, None, False)
    assert grid.infeasible_cells() == frozenset()
    built = build_compact(4, 1, 2, 0.4, opt=fake_opt)
    assert (built.m, built.gamma, built.is_compact) == (4, 0.4, True)
    path = tmp_path / "table.csv"
    save_compact(built, path)
    loaded = load_compact(path)
    assert (loaded.m, loaded.gamma, loaded.is_compact) == (4, 0.4, True)
    assert loaded.infeasible_cells() == built.infeasible_cells()


def test_build_compact_rejects_infinite_floor():
    # (0, 0) alone needs no solve, so only the table's own check sees gamma
    for args in ((2, 0, 0), (2, 1, 1)):
        with pytest.raises(ValueError, match="gamma must be finite, got inf"):
            build_compact(*args, math.inf)
    with pytest.raises(ValueError, match="gamma must be finite, got inf"):
        build_compact(2, 1, 1, math.inf, opt=fake_opt)


def test_build_compact_rejects_negative_bound_by_name():
    with pytest.raises(ValueError, match="^n_h_max must be >= 0, got -1$"):
        build_compact(2, -1, 3, 0.0)
    with pytest.raises(ValueError, match="^n_l_max must be >= 0, got -2$"):
        build_compact(2, 1, -2, 0.0, opt=fake_opt)


def test_build_compact_flags_unreachable_floor():
    space = build_compact(3, 1, 1, 0.5, opt=fake_opt)
    flagged = space.infeasible_cells()
    assert (0, 0) in flagged and (1, 0) in flagged
    assert (1, 1) not in flagged  # one low device alone on its RB: mu_l = 1


def test_build_compact_batch_matches_per_cell_solves():
    batch = build_compact(3, 3, 2, 0.4)
    per_cell = build_compact(3, 3, 2, 0.4, opt=solve)
    assert batch.entries == per_cell.entries
    assert batch.infeasible_cells() == {(n_h, 0) for n_h in range(4)}


def test_build_compact_matches_pinned_throughputs():
    # mu_h and mu_l of build_compact(4, 2, 2, 0.4) as the solver stored them
    # when this file was written; the table has loads with exponent-2 powers
    # and the n_l = 0 row that cannot meet the floor
    space = build_compact(4, 2, 2, 0.4)
    with open(Path(__file__).parent / "data" / "compact_m4_mu.csv", newline="") as fh:
        pinned = {(int(r["n_h"]), int(r["n_l"])): (float(r["mu_h"]), float(r["mu_l"]))
                  for r in csv.DictReader(fh)}
    assert sorted(pinned) == _cells(space)  # row-major order is sorted order
    for e in space.entries:
        assert e.mu_h == pytest.approx(pinned[e.n_h, e.n_l][0], rel=0, abs=1e-9)
        assert e.mu_l == pytest.approx(pinned[e.n_h, e.n_l][1], rel=0, abs=1e-9)
    assert space.infeasible_cells() == {(n_h, 0) for n_h in range(3)}


def test_compact_save_load_roundtrip(tmp_path):
    space = build_compact(3, 2, 1, 0.4, opt=fake_opt)
    path = tmp_path / "table.csv"
    save_compact(space, path)
    assert load_compact(path) == space
    header = path.read_text().splitlines()[0]
    assert header == "m,n_h,n_l,gamma,p_h_1,p_h_2,p_h_3,p_l_1,p_l_2,p_l_3,mu_h,mu_l"


@pytest.mark.parametrize("n_h_max, n_l_max", [(0, 0), (0, 3), (2, 0), (2, 3), (3, 1)])
def test_compact_cells_sit_at_their_row_major_positions(tmp_path, n_h_max, n_l_max):
    built = build_compact(3, n_h_max, n_l_max, 0.4, opt=fake_opt)
    path = tmp_path / "table.csv"
    save_compact(built, path)
    for space in (built, load_compact(path)):
        assert len(space) == (n_h_max + 1) * (n_l_max + 1)
        assert _cells(space) == [divmod(i, n_l_max + 1) for i in range(len(space))]


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 5),
    n_h_max=st.integers(0, 4),
    n_l_max=st.integers(0, 4),
    gamma=st.floats(0.0, 1.5, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
def test_compact_save_load_roundtrip_property(m, n_h_max, n_l_max, gamma, seed, sparse):
    rng = np.random.default_rng(seed)

    def random_opt(cfg, g):
        pair = AccessProbabilityPair(
            random_simplex(rng, cfg.m, sparse), random_simplex(rng, cfg.m, sparse)
        )
        return SimpleNamespace(pair=pair)

    space = build_compact(m, n_h_max, n_l_max, gamma, opt=random_opt)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        save_compact(space, path)
        loaded = load_compact(path)  # revalidates every stored throughput
    assert (loaded.m, _cells(loaded)[-1]) == (m, (n_h_max, n_l_max))
    assert loaded == space


def test_load_rejects_corrupted_throughput(tmp_path):
    space = build_compact(3, 1, 1, 0.0, opt=fake_opt)
    path = tmp_path / "table.csv"
    save_compact(space, path)
    lines = path.read_text().splitlines()
    cols = lines[-1].split(",")
    cols[-2] = "0.9876"  # falsify mu_h
    lines[-1] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_compact(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cols: cols[:4] + ["abc"] + cols[5:], "could not convert string to float: 'abc'"),
        (lambda cols: cols[:-1], "11 fields, expected 12"),
        (lambda cols: ["4"] + cols[1:], "row m=4 disagrees with header m=3"),
        (lambda cols: cols[:3] + ["nan"] + cols[4:], "gamma must be >= 0, got nan"),
        (lambda cols: cols[:3] + ["-0.5"] + cols[4:], "gamma must be >= 0, got -0.5"),
        (lambda cols: cols[:3] + ["inf"] + cols[4:], "gamma must be finite, got inf"),
        (lambda cols: cols[:3] + ["0.5"] + cols[4:], "rows disagree on gamma"),
        (lambda cols: cols[:-1] + ["nan"], "stored throughput for cell (0, 1) fails revalidation"),
        (lambda cols: cols[:-2] + ["nan"] + cols[-1:],
         "stored throughput for cell (0, 1) fails revalidation"),
        (lambda cols: cols[:-1] + ["inf"], "stored throughput for cell (0, 1) fails revalidation"),
    ],
    ids=["unparsable-value", "short-row", "other-m", "nan-gamma", "negative-gamma",
         "inf-gamma", "other-gamma", "nan-mu_l", "nan-mu_h", "inf-mu_l"],
)
def test_load_compact_names_file_and_line_of_bad_row(tmp_path, edit, message):
    path = tmp_path / "table.csv"
    save_compact(build_compact(3, 1, 1, 0.0, opt=fake_opt), path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_compact(path)
    assert str(err.value) == f"{path}: bad compact-table row at line 3: {message}"


@pytest.mark.parametrize(
    "edit, line, cell, expected",
    [
        (lambda lines: [lines[0], lines[2], lines[1], *lines[3:]], 2, (0, 1), (0, 0)),
        (lambda lines: [*lines[:3], lines[4], lines[3]], 4, (1, 1), (1, 0)),
        (lambda lines: lines[:2] + lines[1:4], 3, (0, 0), (0, 1)),
        (lambda lines: lines + lines[-1:], 6, (1, 1), (2, 0)),
    ],
    ids=["swapped-first-rows", "swapped-last-rows", "duplicated-row", "duplicated-last-row"],
)
def test_load_compact_names_line_of_out_of_place_row(tmp_path, edit, line, cell, expected):
    # the cells of a 2 x 2 table sit on lines 2..5 in row-major order
    path = tmp_path / "table.csv"
    save_compact(build_compact(3, 1, 1, 0.0, opt=fake_opt), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError) as err:
        load_compact(path)
    assert str(err.value) == (f"{path}: bad compact-table row at line {line}: "
                              f"cell {cell} where row-major order puts {expected}")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:-1], "{path}: compact table does not cover a full load rectangle"),
        (lambda lines: [lines[0].replace("mu_l", "mu_x")] + lines[1:],
         "unrecognized compact-table header in {path}"),
        (lambda lines: lines[:1], "empty compact table in {path}"),
        # written as Latin-1, "\xff" is the byte 0xff, which no UTF-8 text begins with
        (lambda lines: ["\xff" + lines[0]] + lines[1:],
         "unrecognized compact-table header in {path}"),
        (lambda lines: lines[:2] + ['"' + "0" * 200_000 + '"'] + lines[3:],
         "{path}: unreadable CSV at line 3: field larger than field limit (131072)"),
    ],
    ids=["missing-cell", "unknown-header", "no-rows", "not-utf-8", "oversized-field"],
)
def test_load_compact_names_file_of_bad_table(tmp_path, edit, message):
    path = tmp_path / "table.csv"
    save_compact(build_compact(3, 1, 1, 0.0, opt=fake_opt), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n", encoding="latin-1")
    with pytest.raises(ValueError) as err:
        load_compact(path)
    assert str(err.value) == message.format(path=path)


def test_save_compact_rejects_discretized():
    space = generate_discretized(GridSpec(2, 0.5))
    with pytest.raises(TypeError):
        save_compact(space, "/tmp/nope.csv")
