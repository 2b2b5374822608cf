"""Checks on the benchmark itself.

    python3 -m pytest perfbench/tests -q

Work counters and result digests must repeat exactly, the tracer must not
change any answer, every unit must get a host-speed factor, and
BENCHMARK.json must list the metrics run.py prints.
"""

import contextlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, workloads  # noqa: E402
from perfbench.tracer import TIME_STATS, Tracer  # noqa: E402

# shortened cases: a 1 m lattice (35 points) instead of 0.75 m or 0.25 m; one study seed
QUICK = {
    "lattice-coarse": {"grid_step_x_m": 1.0, "grid_step_y_m": 1.0},
    "study-reference": None,
    "frozen-phase-sweep": {"grid_step_x_m": 1.0, "grid_step_y_m": 1.0},
}


def _pass(name, work_dir, traced):
    tracer = Tracer()
    with tracer if traced else contextlib.nullcontext():
        units, messages, probes = run.run_units(
            workloads.make(name, 7, work_dir, QUICK[name]), count=2)
    assert not messages
    # one probe before the first unit and one after each unit
    assert len(probes) == len(units) + 1 and all(p > 0 for p in probes)
    assert all(u.speed > 0 for u in units)
    assert all(u.failed == 0 for u in units), [u.errors for u in units]
    counters = {k: v for k, v in tracer.layer_metrics().items() if not k.endswith(TIME_STATS)}
    return counters, [u.digest for u in units]


@pytest.mark.parametrize("name", sorted(QUICK))
def test_counters_and_digest_repeat_exactly(name, tmp_path):
    counters, digests = _pass(name, str(tmp_path), traced=True)
    assert (counters, digests) == _pass(name, str(tmp_path), traced=True)
    assert digests == _pass(name, str(tmp_path), traced=False)[1]
    assert counters["bcs.positions"] == counters["bcs.inner_solve.calls"] > 0
    if name == "frozen-phase-sweep":
        assert counters["phase_opt.sgd_solve.calls"] == 0
    else:
        assert counters["phase_opt.sgd_solve.calls"] > 0


def test_default_lattice_seed7_reproduces_baseline(tmp_path):
    # lattice-coarse with the default 0.25 m grid is the all-defaults plan optimize
    default_grid = {"grid_step_x_m": 0.25, "grid_step_y_m": 0.25}
    unit = workloads.make("lattice-coarse", 7, str(tmp_path), default_grid).run_unit(0)
    _, algo, x, y, _, rate = unit.answers[0]
    assert unit.failed == 0
    assert (algo, x, y) == ("bcs", 1.75, 1.25)
    assert rate / 1e9 == pytest.approx(524.437, abs=5e-4)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.per_layer_names()]
