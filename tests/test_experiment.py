"""The seed runner: MinDis rows served from the search's anchor, worker count,
and a validating answer from every algorithm on small valid plans."""

import dataclasses
import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzirs import bcs, experiment
from thzirs.bcs import Solution
from thzirs.config import ExperimentConfig
from thzirs.experiment import draw_ue_positions, resolve_bands, run_experiment, run_single

# the reference study's radio setup on 2 seeds and U=1..3
SMALL = ExperimentConfig(
    element_count=8,
    band_centers_ghz=(225.0, 275.0, 305.0, 355.0),
    noise_figure_db=19.0,
    rate_floor_bps=1.25e9,
    grid_step_x_m=2.0,
    grid_step_y_m=2.0,
    seeds=(1, 2),
    ue_counts=(1, 2, 3),
    algorithms=("bcs", "minidis", "ranloc", "ranphi"),
)


def _counted_mini_dis(monkeypatch):
    calls = []
    original = experiment.baseline_mini_dis

    def counted(*args, **kwargs):
        calls.append(args[0].ue_count)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "baseline_mini_dis", counted)
    return calls


@pytest.fixture(scope="module")
def default_order(tmp_path_factory):
    out = tmp_path_factory.mktemp("default-order")
    return run_experiment(SMALL, out_dir=str(out), workers=1), out


def _by_cell(report):
    rows = {(r[0], r[1], r[2]): r for r in report.rows}
    solutions = {(s["seed"], s["algo"], s["ue_count"]): s for s in report.solutions}
    return rows, solutions


def test_minidis_rows_equal_a_standalone_min_distance_solve(default_order, monkeypatch):
    report, _ = default_order
    rows, solutions = _by_cell(report)
    for seed in SMALL.seeds:
        for u in SMALL.ue_counts:
            sol = run_single(SMALL, "minidis", seed, ue_count=u)
            assert rows[(seed, "minidis", u)] == [seed, "minidis", u, sol.sum_rate_bps, sol.feasible]
            assert solutions[(seed, "minidis", u)] == experiment._solution_dict(seed, "minidis", u, sol)

    # with bcs first in the order, no minidis cell solves again
    calls = _counted_mini_dis(monkeypatch)
    assert run_experiment(SMALL, workers=1).rows == report.rows
    assert calls == []


def test_minidis_before_bcs_solves_both_and_gives_the_same_cells(default_order, monkeypatch):
    report, _ = default_order
    calls = _counted_mini_dis(monkeypatch)
    config = dataclasses.replace(SMALL, algorithms=("minidis", "bcs", "ranloc", "ranphi"))
    swapped = run_experiment(config, workers=1)
    assert calls == [1, 2, 3, 1, 2, 3]
    assert _by_cell(swapped) == _by_cell(report)


def test_worker_count_leaves_the_tables_byte_identical(default_order, tmp_path, monkeypatch):
    _, one = default_order
    monkeypatch.setenv("PLAN_THREADS", "2")
    run_experiment(SMALL, out_dir=str(tmp_path), workers=2)
    for name in ("summary.csv", "aggregate.csv", "report.json"):
        assert (tmp_path / name).read_bytes() == (one / name).read_bytes()


@st.composite
def small_configs(draw):
    """Small valid plans: N <= 4, one or two explicit bands, U <= 3, a 2 m
    lattice (empty in rooms under 2 m), and floors from none up to far out
    of reach."""
    length, width = draw(st.floats(1.0, 10.0)), draw(st.floats(1.0, 6.0))
    height = draw(st.floats(2.5, 4.0))
    ap = (draw(st.floats(0.0, width)), draw(st.floats(0.0, length)),
          draw(st.floats(0.1, height - 0.1)))
    return ExperimentConfig(
        room_length_m=length, room_width_m=width, room_height_m=height, ap_position_m=ap,
        ue_count=draw(st.integers(1, 3)),
        element_count=draw(st.integers(1, 4)),
        band_centers_ghz=tuple(draw(st.lists(st.floats(210.0, 390.0), min_size=1, max_size=2))),
        band_width_ghz=draw(st.sampled_from([10.0, 50.0])),
        rate_floor_bps=draw(st.sampled_from([0.0, 1e9, 2e10, 1e11, 1e13])),
        grid_step_x_m=2.0,
        grid_step_y_m=2.0,
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=small_configs(), seed=st.integers(1, 1000))
def test_every_algorithm_returns_a_validating_solution(config, seed):
    scene = config.scene_for(draw_ue_positions(config, seed, config.ue_count))
    bands = resolve_bands(config)
    for algo in ("bcs", "minidis", "ranloc", "ranphi"):
        sol = run_single(config, algo, seed)
        assert isinstance(sol, Solution), algo
        sol.validate(scene, bands, config.p_max_w, config.rate_floor_bps, config.mixing_ratio())


@settings(max_examples=8, deadline=None, derandomize=True)
@given(config=small_configs(), first_seed=st.integers(1, 1000))
def test_worker_count_never_changes_a_small_study(config, first_seed):
    # two seeds, U = 1..3 and all four algorithms (ranphi's batched lattice
    # pass included), run in this process and in two worker processes
    config = dataclasses.replace(config, seeds=(first_seed, first_seed + 1),
                                 ue_counts=(1, 2, 3))
    with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two, \
            pytest.MonkeyPatch.context() as patch:
        patch.setenv("PLAN_THREADS", "2")
        serial = run_experiment(config, out_dir=one, workers=1)
        pooled = run_experiment(config, out_dir=two, workers=2)
        for name in ("summary.csv", "aggregate.csv"):
            with open(os.path.join(one, name), "rb") as a, open(os.path.join(two, name), "rb") as b:
                assert a.read() == b.read(), name
    assert pooled.solutions == serial.solutions
    assert pooled.failures == serial.failures


def test_default_ranphi_answer_is_pinned(monkeypatch):
    # the frozen-profile sweep's counterpart of the default bcs answer at
    # seed 7 (524.437 Gbit/s at (1.75, 1.25))
    sol = run_single(ExperimentConfig(), "ranphi", 7)
    assert (sol.placement.x_m, sol.placement.y_m) == (0.5, 1.0)
    assert sol.winners.tolist() == [1, 0, 0]
    assert sol.sum_rate_bps == 292870837528.98883

    # its running best over the 620 lattice points, as the full pass that
    # scored every point gave it; only 12 points are scored exactly, the
    # first call's 4 and the 8 whose bounds reach the best of those 4, since
    # no later point's bound reaches the best of those 12
    scored = []
    original = bcs.score_allocations

    def counted(gains, *args):
        scored.append(len(gains))
        return original(gains, *args)

    monkeypatch.setattr(bcs, "score_allocations", counted)
    config = ExperimentConfig()
    scene = config.scene_for(draw_ue_positions(config, 7, config.ue_count))
    again, extra, _ = experiment._solve(config, "ranphi", 7, scene, resolve_bands(config),
                                        config.mixing_ratio())
    assert again.sum_rate_bps == sol.sum_rate_bps
    trace = np.array(extra["best_trace"])
    assert trace.shape == (620,) and trace[-1] == sol.sum_rate_bps
    assert hashlib.sha256(trace.tobytes()).hexdigest() == (
        "2facd80e066140f97d07ad0a91df502d493013f33f9700a3b1e35df484ddab22")
    assert scored == [4, 8]
