"""The benchmark's workloads, built only from the public thzirs API.

A workload turns the run's seed into a sequence of units.  Unit k draws its
UE positions from drop seed ``seed + 1000 * k``, so ``--seed 7`` starts with
the seed-7 default baseline, and two runs with one seed see the same inputs
in the same order.  A unit is the smallest piece a user would ask for:

lattice-coarse
    ``plan optimize --algo bcs`` on the all-defaults config (N=20, U=2,
    three auto-planned bands) with a 0.75 m lattice (60 points) instead of
    the default 0.25 m (620), so that one drop takes about a second and a
    half rather than half a minute and a run's median covers some twenty
    drops.  Phase restoration (SGD inside SCA) does most of the work, so
    lattice batching and SGD stopping rules show here.  Stands for the default ``plan optimize`` and, per seed, for the
    default 100-seed ``plan monte-carlo``; with the 0.25 m grid restored
    through ``overrides`` it is exactly the default ``plan optimize``.
study-reference
    One seed of the acceptance study (N=8, four explicit bands, 1.25 Gbit/s
    floors, 19 dB noise figure, 2 m lattice, U=1..4, all four algorithms,
    16 cells) through ``run_experiment`` and ``load_report``.  Exact
    allocation and feasibility repair do most of the work; the U=4 cells
    have 256 assignments, so the dual-pricing loop runs.  Also exercises the
    report layer and min-distance placement.
frozen-phase-sweep
    ``plan optimize --algo ranphi`` on the all-defaults config: the 0.25 m
    lattice with one frozen random profile and no phase stage.  Many small
    cold allocations (one per lattice point) and link-vector construction do
    the work; a change to the phase stage should leave it unchanged.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

from thzirs import config as tconfig
from thzirs import experiment

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
DROP_STRIDE = 1000


def drop_seed(seed: int, k: int) -> int:
    return seed + DROP_STRIDE * k


@dataclass
class Unit:
    """Outcome of one unit: timings, answers and failed checks."""

    drop_seed: int
    wall_s: float  # time to solution, checks excluded
    cells: list  # (wall_s, sum_rate_bps, feasible) per (seed, U, algorithm) solve
    answers: list  # placements, winners and sum rates; the digest covers them
    failed: int = 0  # solves that aborted or failed a check
    errors: list = field(default_factory=list)
    report_bytes: int = 0
    speed: float = 1.0  # host-speed factor the runner sets; time * speed is at reference speed

    @property
    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.answers).encode()).hexdigest()


def _load(name: str, overrides):
    # every config access goes through the module attribute, so the tracer sees it
    config = tconfig.load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


class PlanOptimize:
    """One ``plan optimize`` call (``run_single``) per unit."""

    def __init__(self, name: str, seed: int, work_dir: str, overrides=None):
        self.config = _load(name, overrides)
        (self.algo,) = self.config.algorithms
        self.seed = seed
        self.cells_per_unit = 1
        self.bands = experiment.resolve_bands(self.config)
        self.mix = self.config.mixing_ratio()
        self._first_scene = self._scene(drop_seed(seed, 0))

    def _scene(self, drop: int):
        cfg = self.config
        return cfg.scene_for(experiment.draw_ue_positions(cfg, drop, cfg.ue_count))

    def run_unit(self, k: int) -> Unit:
        cfg = self.config
        drop = drop_seed(self.seed, k)
        scene = self._first_scene if k == 0 else self._scene(drop)
        t0 = time.perf_counter()
        sol = experiment.run_single(cfg, self.algo, drop)
        wall = time.perf_counter() - t0

        unit = Unit(
            drop_seed=drop,
            wall_s=wall,
            cells=[(wall, float(sol.sum_rate_bps), bool(sol.feasible))],
            answers=[[drop, self.algo, sol.placement.x_m, sol.placement.y_m,
                      [int(w) for w in sol.winners], float(sol.sum_rate_bps)]],
        )
        try:
            sol.validate(scene, self.bands, cfg.p_max_w, cfg.rate_floor_bps, self.mix)
        except ValueError as exc:
            unit.failed += 1
            unit.errors.append(f"drop {drop}: {exc}")
        return unit


class Study:
    """One seed of the reference study per unit, written out and read back."""

    def __init__(self, name: str, seed: int, work_dir: str, overrides=None):
        self.config = _load(name, overrides)
        self.seed = seed
        self.work_dir = work_dir
        self.cells_per_unit = len(self.config.ue_counts) * len(self.config.algorithms)
        # fails early on a band plan that does not resolve, as the CLI does
        experiment.resolve_bands(self.config)

    def run_unit(self, k: int) -> Unit:
        drop = drop_seed(self.seed, k)
        config = dataclasses.replace(self.config, seeds=(drop,))
        out = os.path.join(self.work_dir, f"unit-{k}")
        errors = []
        t0 = time.perf_counter()
        try:
            report = experiment.run_experiment(config, out_dir=out, workers=1)
            try:
                # re-validates every stored solution against the geometry
                experiment.load_report(os.path.join(out, "report.json"))
            except ValueError as exc:
                errors.append(f"drop {drop}: load_report: {exc}")
            wall = time.perf_counter() - t0
            with open(os.path.join(out, "summary.csv"), "rb") as fh:
                summary = fh.read()
            report_bytes = os.path.getsize(os.path.join(out, "report.json"))
        finally:
            shutil.rmtree(out, ignore_errors=True)

        failed = len(errors)
        for failure in report.failures:
            failed += self.cells_per_unit
            errors.append(f"drop {failure['seed']} aborted: {failure['error']}")
        rate = {(algo, u): r for _, algo, u, r, _ in report.rows}
        for u in config.ue_counts:
            if ("bcs", u) in rate and rate[("bcs", u)] < rate[("minidis", u)] * (1 - 1e-9):
                failed += 1
                errors.append(f"drop {drop} U={u}: bcs {rate[('bcs', u)]} < minidis "
                              f"{rate[('minidis', u)]}")

        cells = [(t[3], float(row[3]), bool(row[4])) for t, row in zip(report.timing, report.rows)]
        answers = [[drop, s["algo"], s["ue_count"], s["placement_x_m"], s["placement_y_m"],
                    s["winners"], s["sum_rate_bps"]] for s in report.solutions]
        answers.append(["summary.csv", hashlib.sha256(summary).hexdigest()])
        return Unit(
            drop_seed=drop,
            wall_s=wall,
            cells=cells,
            answers=answers,
            failed=min(failed, self.cells_per_unit),
            errors=errors,
            report_bytes=report_bytes,
        )


WORKLOADS = {
    "lattice-coarse": PlanOptimize,
    "study-reference": Study,
    "frozen-phase-sweep": PlanOptimize,
}


def make(name: str, seed: int, work_dir: str, overrides=None):
    """Set the workload up: load its config, plan its bands, build a scene."""
    return WORKLOADS[name](name, seed, work_dir, overrides)
