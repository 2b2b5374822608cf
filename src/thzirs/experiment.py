"""Experiment runner: band planning, absorption sweeps, Monte-Carlo batches.

All randomness flows through the splittable counter generator so that a
(seed, purpose) pair draws the same numbers in any run, any process, and any
worker count; batch outputs are merged in configured seed order, which makes
the emitted CSVs byte-identical across repetitions.
"""

import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bcs import (
    Solution,
    baseline_mini_dis,
    baseline_ran_loc,
    baseline_ran_phi,
    bcs_solve,
)
from .channel import SPEED_OF_LIGHT, SubBand, absorption_coefficient, water_vapor_mixing_ratio
from .config import ConfigError, ExperimentConfig, config_from_dict, config_to_dict
from .geometry import IrsPlacement, PhaseVector
from .rng import (
    STREAM_RANDOM_PHASES,
    STREAM_RANDOM_PLACEMENT,
    STREAM_UE_POSITIONS,
    stream,
)

logger = logging.getLogger("thzirs.experiment")

PEAK_EXCLUSION_HZ = 10e9
_PEAK_SCAN_STEP_HZ = 0.1e9


def absorption_peaks(mixing_ratio: float, lo_hz: float = 200e9, hi_hz: float = 400e9,
                     step_hz: float = _PEAK_SCAN_STEP_HZ) -> np.ndarray:
    """Frequencies of the interior local maxima of K(f) on a uniform scan."""
    f = np.arange(lo_hz, hi_hz + step_hz / 2, step_hz)
    k = absorption_coefficient(f, mixing_ratio)
    idx = np.flatnonzero((k[1:-1] > k[:-2]) & (k[1:-1] > k[2:])) + 1
    return f[idx]


def auto_band_plan(range_hz, width_hz: float, atmosphere, noise_psd_w_per_hz: float):
    """Tile the range with sub-bands, sliding past absorption peaks.

    The walk starts at the low edge and advances one band width at a time; a
    candidate whose center falls within 10 GHz of a K(f) peak is pushed just
    past the exclusion zone instead.  With a dry atmosphere (no peaks) the
    bands tile the range contiguously.
    """
    lo, hi = (float(v) for v in range_hz)
    if not (200e9 - 1e-3 <= lo < hi <= 400e9 + 1e-3):
        raise ConfigError(f"band range {lo}..{hi} Hz outside the 200..400 GHz window")
    if width_hz <= 0:
        raise ConfigError("band width must be positive")
    if hi - lo < width_hz - 1e-3:
        raise ConfigError("range too narrow for a single sub-band")

    mix = water_vapor_mixing_ratio(atmosphere)
    peaks = absorption_peaks(mix)

    bands = []
    start = lo
    while start + width_hz <= hi + 1e-3:
        center = start + width_hz / 2
        near = peaks[np.abs(peaks - center) < PEAK_EXCLUSION_HZ]
        if near.size:
            start = float(np.max(near)) + PEAK_EXCLUSION_HZ - width_hz / 2
            continue
        bands.append(SubBand(center_hz=center, bandwidth_hz=width_hz,
                             noise_psd_w_per_hz=noise_psd_w_per_hz))
        start += width_hz
    if not bands:
        raise ConfigError("no sub-band of the requested width clears the absorption peaks")
    return bands


def resolve_bands(config: ExperimentConfig):
    """The experiment's SubBand list: explicit plan or auto-planned range."""
    if config.auto_band_range_ghz is not None:
        lo, hi = config.auto_band_range_ghz
        return auto_band_plan(
            (lo * 1e9, hi * 1e9),
            config.band_width_ghz * 1e9,
            config.atmosphere(),
            config.noise_psd_w_per_hz(),
        )
    return config.explicit_sub_bands()


# -- absorption sweep --------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def absorption_sweep(config: ExperimentConfig, out_path):
    """Absorption coefficient and reflected-path gain versus frequency.

    Emits one row per frequency step over 200..400 GHz with columns
    f_hz, K_per_m, then one gain_db_d<i> column per configured distance.
    Returns (frequencies, coefficients, gain matrix) for plotting.
    """
    step = config.sweep_step_ghz * 1e9
    f = np.arange(200e9, 400e9 + step / 2, step)
    mix = config.mixing_ratio()
    k = absorption_coefficient(f, mix)

    distances = config.sweep_distances_m
    gains_db = np.empty((f.size, len(distances)))
    for j, d in enumerate(distances):
        amplitude = SPEED_OF_LIGHT / (4.0 * np.pi * f * d)
        gains_db[:, j] = 20.0 * np.log10(amplitude) - 10.0 * k * d / np.log(10.0)

    header = ["f_hz", "K_per_m"] + [f"gain_db_d{j + 1}" for j in range(len(distances))]
    rows = [
        [f[i], k[i]] + [gains_db[i, j] for j in range(len(distances))]
        for i in range(f.size)
    ]
    _write_csv(out_path, header, rows)
    return f, k, gains_db


# -- Monte-Carlo batch -------------------------------------------------------


@dataclass
class RunReport:
    config: dict
    band_plan: list
    draws: list
    rows: list
    solutions: list
    aggregate: list
    timing: list
    failures: list = field(default_factory=list)


def draw_ue_positions(config: ExperimentConfig, seed: int, count: int) -> np.ndarray:
    """Uniform UE drops over the room floor at the configured height.

    Draws are x-then-y per UE from one per-seed stream, so a smaller count
    is always a prefix of a larger one.
    """
    if config.ue_positions_m is not None:
        rows = np.asarray(config.ue_positions_m, dtype=float)
        if count > rows.shape[0]:
            raise ConfigError(f"{count} UEs requested, {rows.shape[0]} positions configured")
        return rows[:count].copy()
    rng = stream(seed, STREAM_UE_POSITIONS)
    out = np.empty((count, 3))
    for u in range(count):
        out[u, 0] = rng.uniform(0.0, config.room_width_m)
        out[u, 1] = rng.uniform(0.0, config.room_length_m)
        out[u, 2] = config.ue_height_m
    return out


def _solution_dict(seed, algo, u_count, sol: Solution, extra=None) -> dict:
    d = {
        "seed": seed,
        "algo": algo,
        "ue_count": u_count,
        "placement_x_m": sol.placement.x_m,
        "placement_y_m": sol.placement.y_m,
        "phases_rad": [float(a) for a in sol.phases.angles],
        "winners": [int(w) for w in sol.winners],
        "powers_w": [float(p) for p in sol.powers],
        "rates_bps": [float(r) for r in sol.rates],
        "sum_rate_bps": float(sol.sum_rate_bps),
        "feasible": bool(sol.feasible),
        "converged": bool(sol.converged),
        "rounds": int(sol.rounds),
        "rate_trace": [float(r) for r in sol.rate_trace],
    }
    if extra:
        d.update(extra)
    return d


def _solve(config: ExperimentConfig, algo: str, seed: int, scene, bands, mix):
    """Run one algorithm on one scene.

    Returns (Solution, extra report fields, min-distance anchor); the anchor
    is the MinDis solution a ``bcs`` search evaluated first, else None.  The
    solvers are looked up as module attributes at call time, so a wrapper
    installed on this module sees every call.
    """
    u_count = scene.ue_count
    common = (scene, bands, config.element_count, config.spacing_m,
              config.p_max_w, config.rate_floor_bps, mix)
    grid = {"grid_step_x": config.grid_step_x_m, "grid_step_y": config.grid_step_y_m}
    tolerance = config.inner_tolerance
    if algo == "minidis":
        return baseline_mini_dis(*common, tolerance=tolerance), None, None
    if algo == "ranloc":
        rng = stream(seed, STREAM_RANDOM_PLACEMENT + (u_count << 8))
        return baseline_ran_loc(*common, rng=rng, tolerance=tolerance), None, None
    if algo == "bcs":
        search = bcs_solve(*common, **grid, tolerance=tolerance)
    elif algo == "ranphi":
        rng = stream(seed, STREAM_RANDOM_PHASES + (u_count << 8))
        search = baseline_ran_phi(*common, rng=rng, **grid, tolerance=tolerance)
    else:
        raise ConfigError(f"unknown algorithm {algo!r}")
    extra = {"points_evaluated": search.points_evaluated,
             "best_trace": [float(r) for r in search.best_trace]}
    return search.solution, extra, search.anchor


def run_single(config: ExperimentConfig, algo: str, seed: int, ue_count=None) -> Solution:
    """One (algorithm, seed) instance with freshly drawn UE positions."""
    u_count = int(ue_count) if ue_count is not None else config.ue_count
    bands = resolve_bands(config)
    mix = config.mixing_ratio()
    scene = config.scene_for(draw_ue_positions(config, seed, u_count))
    return _solve(config, algo.lower(), seed, scene, bands, mix)[0]


def _run_seed(config: ExperimentConfig, seed: int) -> dict:
    """All (ue_count, algorithm) cells of one seed; isolated failure domain."""
    ue_counts = config.ue_counts if config.ue_counts is not None else (config.ue_count,)
    try:
        bands = resolve_bands(config)
        mix = config.mixing_ratio()
        positions = draw_ue_positions(config, seed, max(ue_counts))
        rows, solutions, timing = [], [], []
        for u_count in ue_counts:
            scene = config.scene_for(positions[:u_count])
            anchor = None
            for algo in config.algorithms:
                t0 = time.perf_counter()
                if algo == "minidis" and anchor is not None:
                    # bcs already solved this scene at the min-distance point
                    sol, extra = anchor, None
                else:
                    sol, extra, found = _solve(config, algo, seed, scene, bands, mix)
                    if found is not None:
                        anchor = found
                wall = time.perf_counter() - t0
                rows.append([seed, algo, u_count, sol.sum_rate_bps, sol.feasible])
                solutions.append(_solution_dict(seed, algo, u_count, sol, extra))
                timing.append([seed, algo, u_count, wall])
        return {
            "seed": seed,
            "positions": [[float(v) for v in row] for row in positions],
            "rows": rows,
            "solutions": solutions,
            "timing": timing,
            "failure": None,
        }
    except Exception as exc:  # noqa: BLE001 - the seed is the failure domain
        logger.error("seed %d aborted: %s", seed, exc)
        return {"seed": seed, "positions": [], "rows": [], "solutions": [],
                "timing": [], "failure": f"{type(exc).__name__}: {exc}"}


def _worker_count(requested, n_jobs: int) -> int:
    cap = os.environ.get("PLAN_THREADS")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    want = requested if requested is not None else limit
    return max(1, min(want, limit, n_jobs))


def _aggregate_rows(rows):
    """Mean and spread of the sum rate per (algo, ue_count), seed order kept."""
    groups: dict = {}
    order = []
    for seed, algo, u_count, rate, feasible in rows:
        key = (algo, u_count)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((rate, feasible))
    out = []
    for algo, u_count in order:
        vals = np.array([r for r, _ in groups[(algo, u_count)]])
        feas = sum(1 for _, f in groups[(algo, u_count)] if f)
        out.append([algo, u_count, float(np.mean(vals)), float(np.std(vals)),
                    feas, vals.size])
    return out


def run_experiment(config: ExperimentConfig, out_dir=None, workers=None) -> RunReport:
    """Run the configured seed batch and optionally emit the CSV/JSON outputs.

    Seeds are independent jobs; results are merged in configured seed order,
    so the emitted summary is identical for any worker count.
    """
    seeds = config.seeds
    n_workers = _worker_count(workers, len(seeds))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            by_seed = {r["seed"]: r for r in pool.map(_run_seed, [config] * len(seeds), seeds)}
        results = [by_seed[s] for s in seeds]
    else:
        results = [_run_seed(config, s) for s in seeds]

    rows, solutions, timing, draws, failures = [], [], [], [], []
    for res in results:
        rows.extend(res["rows"])
        solutions.extend(res["solutions"])
        timing.extend(res["timing"])
        if res["failure"] is not None:
            failures.append({"seed": res["seed"], "error": res["failure"]})
        else:
            draws.append({"seed": res["seed"], "positions_m": res["positions"]})

    bands = resolve_bands(config)
    mix = config.mixing_ratio()
    band_plan = [
        {
            "center_ghz": b.center_hz / 1e9,
            "width_ghz": b.bandwidth_hz / 1e9,
            "lo_ghz": b.lo_hz / 1e9,
            "hi_ghz": b.hi_hz / 1e9,
            "k_center_per_m": float(absorption_coefficient(b.center_hz, mix)),
        }
        for b in bands
    ]
    report = RunReport(
        config=config_to_dict(config),
        band_plan=band_plan,
        draws=draws,
        rows=rows,
        solutions=solutions,
        aggregate=_aggregate_rows(rows),
        timing=timing,
        failures=failures,
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "summary.csv"),
                   ["seed", "algo", "U", "sum_rate_bps", "feasible"], rows)
        _write_csv(os.path.join(out_dir, "aggregate.csv"),
                   ["algo", "U", "mean_sum_rate_bps", "std_sum_rate_bps",
                    "feasible_count", "n"],
                   [[a, u, m, s, fc, n] for a, u, m, s, fc, n in report.aggregate])
        _write_csv(os.path.join(out_dir, "timing.csv"),
                   ["seed", "algo", "U", "wallclock_s"], timing)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report.__dict__, fh, indent=2)
            fh.write("\n")
    return report


def load_report(path) -> RunReport:
    """Read a report.json back and re-validate every stored solution.

    Each solution is reconstructed and its rates recomputed from geometry;
    any drift beyond validation tolerance raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    report = RunReport(**raw)
    config = config_from_dict(report.config)
    bands = resolve_bands(config)
    mix = config.mixing_ratio()

    positions_by_seed = {d["seed"]: np.asarray(d["positions_m"], dtype=float)
                         for d in report.draws}
    for sol in report.solutions:
        positions = positions_by_seed[sol["seed"]][: sol["ue_count"]]
        scene = config.scene_for(positions)
        solution = Solution(
            placement=IrsPlacement(sol["placement_x_m"], sol["placement_y_m"],
                                   config.element_count, config.spacing_m),
            phases=PhaseVector(np.asarray(sol["phases_rad"], dtype=float)),
            winners=np.asarray(sol["winners"], dtype=int),
            powers=np.asarray(sol["powers_w"], dtype=float),
            rates=np.asarray(sol["rates_bps"], dtype=float),
            sum_rate_bps=sol["sum_rate_bps"],
            feasible=sol["feasible"],
            converged=sol["converged"],
            rounds=sol["rounds"],
            rate_trace=list(sol["rate_trace"]),
        )
        solution.validate(scene, bands, config.p_max_w, config.rate_floor_bps, mix)

    recomputed = _aggregate_rows(report.rows)
    stored = [list(row) for row in report.aggregate]
    if recomputed != stored:
        raise ValueError("aggregate table does not match the stored rows")
    return report
