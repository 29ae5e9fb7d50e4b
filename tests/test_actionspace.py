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
from rachopt.optimize import SolverOptions, solve

from support import burnside_orbit_count, min_joint_rotation, random_simplex, stars_and_bars

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
    keys = [u + v for u, v in space.index]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_grid_actions_are_exact():
    space = generate_discretized(GridSpec(3, 0.2))
    for (u, v), pos in space.index.items():
        assert sum(u) == 5 and sum(v) == 5
        assert space.actions[pos].pair.p_h == tuple(n / 5 for n in u)


def test_reduced_space_members_are_canonical():
    space = generate_discretized(GridSpec(3, 0.2), reduced=True)
    for u, v in space.index:
        assert min_joint_rotation(u, v) == (u, v)


def test_reduction_is_order_independent():
    spec = GridSpec(3, 0.5)
    full = generate_discretized(spec)
    reduced_keys = set(generate_discretized(spec, reduced=True).index)
    shuffled = list(full.index)
    random.Random(5).shuffle(shuffled)
    seen = {min_joint_rotation(u, v) for u, v in shuffled}
    assert seen == reduced_keys


def test_no_residual_rotation_duplicates():
    space = generate_discretized(GridSpec(3, 0.5), reduced=True)
    orbits = [min_joint_rotation(u, v) for u, v in space.index]
    assert len(set(orbits)) == len(orbits)


def test_every_orbit_is_represented():
    spec = GridSpec(3, 0.5)
    full = generate_discretized(spec)
    reduced = generate_discretized(spec, reduced=True)
    # each representative is its orbit's minimum, which the index holds
    for u, v in full.index:
        assert min_joint_rotation(u, v) in reduced.index


def test_grids_match_brute_force_enumeration():
    specs = [GridSpec(m, d) for (m, d), (full, _) in REFERENCE_SIZES.items() if full <= 5000]
    specs += [GridSpec(1, 0.5), GridSpec(1, 1e-20)]
    for spec in specs:
        comps = sorted(stars_and_bars(spec.q, spec.m))
        every = [(u, v) for u in comps for v in comps]
        canonical = [(u, v) for u, v in every if min_joint_rotation(u, v) == (u, v)]
        for reduced, expected in ((False, every), (True, canonical)):
            space = generate_discretized(spec, reduced=reduced)
            assert list(space.index) == expected
            assert list(space.index.values()) == list(range(len(expected)))
            for (u, v), action in zip(expected, space.actions):
                assert action.pair.p_h == tuple(n / spec.q for n in u)
                assert action.pair.p_l == tuple(n / spec.q for n in v)


def test_size_cap():
    with pytest.raises(ValueError):
        generate_discretized(GridSpec(5, 0.1))  # 1001^2 actions
    with pytest.raises(ValueError, match="1002001 grid actions exceeds cap 1000000"):
        generate_discretized(GridSpec(2, 0.001))  # 1001^2 actions, two RBs


def test_exact_throughputs_match_scalar_route():
    space = generate_discretized(GridSpec(3, 0.5), reduced=True)
    for cfg in (NetworkConfig(4, 5, 3), NetworkConfig(0, 2, 3), NetworkConfig(3, 0, 3)):
        table = exact_throughputs(space, cfg)
        for row, action in zip(table, space.actions):
            mu = throughput_closed_form(cfg, action.pair)
            assert row[0] == pytest.approx(mu.mu_h, abs=1e-12)
            assert row[1] == pytest.approx(mu.mu_l, abs=1e-12)


# ------------------------------------------------------------- compact table


def fake_opt(cfg: NetworkConfig, gamma: float) -> SimpleNamespace:
    # deterministic stand-in: high class spreads over the first m-1 RBs,
    # low class parks on the last
    m = cfg.m
    p_h = [1.0 / (m - 1)] * (m - 1) + [0.0]
    p_l = [0.0] * (m - 1) + [1.0]
    return SimpleNamespace(pair=AccessProbabilityPair(p_h, p_l))


def test_build_compact_layout():
    space = build_compact(3, 2, 2, 0.0, opt=fake_opt)
    assert (space.m, space.gamma) == (3, 0.0)
    assert len(space) == 9
    assert space.index[(0, 0)] == 0
    assert space.index[(2, 2)] == 8
    e00 = space.entries[0]
    assert e00.pair == AccessProbabilityPair.uniform(3)
    assert e00.mu_h == 0.0 and e00.mu_l == 0.0
    # stored throughputs always match a fresh evaluation
    for e in space.entries:
        mu = throughput_closed_form(NetworkConfig(e.n_h, e.n_l, 3), e.pair)
        assert e.mu_h == mu.mu_h and e.mu_l == mu.mu_l
    # zero-high cells store a uniform high vector by convention
    assert space.entries[space.index[(0, 2)]].pair.p_h == (1 / 3, 1 / 3, 1 / 3)


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


def test_build_compact_flags_unreachable_floor():
    space = build_compact(3, 1, 1, 0.5, opt=fake_opt)
    flagged = space.infeasible_cells()
    assert (0, 0) in flagged and (1, 0) in flagged
    assert (1, 1) not in flagged  # one low device alone on its RB: mu_l = 1


def test_build_compact_batch_matches_per_cell_solves():
    options = SolverOptions(random_starts=4, max_outer=10, seed=3)
    batch = build_compact(3, 3, 2, 0.4, options=options)
    per_cell = build_compact(3, 3, 2, 0.4, opt=lambda cfg, g: solve(cfg, g, options))
    assert batch.entries == per_cell.entries
    assert batch.infeasible_cells() == {(n_h, 0) for n_h in range(4)}
    with pytest.raises(ValueError, match="opt or options"):
        build_compact(3, 1, 1, 0.4, opt=solve, options=options)


def test_compact_save_load_roundtrip(tmp_path):
    space = build_compact(3, 2, 1, 0.4, opt=fake_opt)
    path = tmp_path / "table.csv"
    save_compact(space, path)
    loaded = load_compact(path)
    assert (loaded.m, loaded.gamma) == (space.m, space.gamma)
    assert loaded.index == space.index
    for a, b in zip(space.entries, loaded.entries):
        assert (a.n_h, a.n_l) == (b.n_h, b.n_l)
        assert a.pair.p_h == pytest.approx(b.pair.p_h, abs=1e-11)
        assert a.mu_h == pytest.approx(b.mu_h, abs=1e-9)
    header = path.read_text().splitlines()[0]
    assert header == "m,n_h,n_l,gamma,p_h_1,p_h_2,p_h_3,p_l_1,p_l_2,p_l_3,mu_h,mu_l"


def _digits12(x: float) -> str:
    return f"{x:.12g}"


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
    assert (loaded.m, max(loaded.index)) == (m, (n_h_max, n_l_max))
    assert _digits12(loaded.gamma) == _digits12(gamma)
    assert loaded.index == space.index
    for a, b in zip(space.entries, loaded.entries):
        assert (a.n_h, a.n_l) == (b.n_h, b.n_l)
        values_a = a.pair.p_h + a.pair.p_l + (a.mu_h, a.mu_l)
        values_b = b.pair.p_h + b.pair.p_l + (b.mu_h, b.mu_l)
        assert [_digits12(x) for x in values_a] == [_digits12(x) for x in values_b]


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
    ],
    ids=["unparsable-value", "short-row", "other-m", "nan-gamma", "negative-gamma",
         "inf-gamma"],
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


def test_load_compact_names_file_of_repeated_cell(tmp_path):
    path = tmp_path / "table.csv"
    save_compact(build_compact(3, 1, 1, 0.0, opt=fake_opt), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + lines[1:4]) + "\n")
    with pytest.raises(ValueError, match=f"^{path}: duplicate cell \\(0, 0\\)$"):
        load_compact(path)


def test_save_compact_rejects_discretized():
    space = generate_discretized(GridSpec(2, 0.5))
    with pytest.raises(TypeError):
        save_compact(space, "/tmp/nope.csv")
