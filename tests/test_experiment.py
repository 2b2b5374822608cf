"""The seed runner: MinDis rows served from the search's anchor, worker count."""

import dataclasses

import pytest

from thzirs import experiment
from thzirs.config import ExperimentConfig
from thzirs.experiment import run_experiment, run_single

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
    for name in ("summary.csv", "aggregate.csv"):
        assert (tmp_path / name).read_bytes() == (one / name).read_bytes()
