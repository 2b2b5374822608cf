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
from dataclasses import dataclass, field

import numpy as np

from .bcs import (
    Solution,
    baseline_mini_dis,
    baseline_ran_loc,
    baseline_ran_phi,
    bcs_solve,
)
from .channel import (
    SPEED_OF_LIGHT,
    VALID_F_HI,
    VALID_F_LO,
    SubBand,
    _absorption_peaks,
    absorption_coefficient,
)
from .channel import water_vapor_mixing_ratio
from .config import ConfigError, ExperimentConfig, _count, config_from_dict, config_to_dict
from .geometry import IrsPlacement, PhaseVector
from .rng import (
    STREAM_RANDOM_PHASES,
    STREAM_RANDOM_PLACEMENT,
    STREAM_UE_POSITIONS,
    stream,
)

logger = logging.getLogger("thzirs.experiment")

PEAK_EXCLUSION_HZ = 10e9


def absorption_peaks(mixing_ratio: float) -> np.ndarray:
    """Frequencies of the interior local maxima of K(f) on a uniform scan
    of the model's validity window, as a fresh array."""
    return _absorption_peaks(mixing_ratio).copy()


def auto_band_plan(range_hz, width_hz: float, atmosphere, noise_psd_w_per_hz: float):
    """Tile the range with sub-bands, sliding past absorption peaks.

    The walk starts at the low edge and advances one band width at a time; a
    candidate whose center falls within 10 GHz of a K(f) peak is pushed just
    past the exclusion zone instead.  With a dry atmosphere (no peaks) the
    bands tile the range contiguously.
    """
    lo, hi = (float(v) for v in range_hz)
    if not (VALID_F_LO - 1e-3 <= lo < hi <= VALID_F_HI + 1e-3):
        raise ConfigError(f"band range {lo}..{hi} Hz outside the "
                          f"{VALID_F_LO / 1e9:g}..{VALID_F_HI / 1e9:g} GHz window")
    if width_hz <= 0:
        raise ConfigError("band width must be positive")
    if hi - lo < width_hz - 1e-3:
        raise ConfigError("range too narrow for a single sub-band")

    mix = water_vapor_mixing_ratio(atmosphere)
    peaks = _absorption_peaks(mix)

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
    width_hz = config.band_width_ghz * 1e9
    noise = config.noise_psd_w_per_hz()
    if config.band_centers_ghz is not None:
        return [SubBand(center_hz=c * 1e9, bandwidth_hz=width_hz, noise_psd_w_per_hz=noise)
                for c in config.band_centers_ghz]
    lo, hi = config.auto_band_range_ghz
    return auto_band_plan((lo * 1e9, hi * 1e9), width_hz, config.atmosphere(), noise)


def _band_plan(config: ExperimentConfig) -> list:
    """Each resolved sub-band's center, width and edges in GHz, and K(f) at its center."""
    bands = resolve_bands(config)
    mix = config.mixing_ratio()
    return [
        {
            "center_ghz": b.center_hz / 1e9,
            "width_ghz": b.bandwidth_hz / 1e9,
            "lo_ghz": b.lo_hz / 1e9,
            "hi_ghz": b.hi_hz / 1e9,
            "k_center_per_m": float(absorption_coefficient(b.center_hz, mix)),
        }
        for b in bands
    ]


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
    f = np.arange(VALID_F_LO, VALID_F_HI + step / 2, step)
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
    # per-cell wall times: timing.csv holds them, report.json does not
    timing: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def draw_ue_positions(config: ExperimentConfig, seed: int, count: int) -> np.ndarray:
    """Uniform UE drops over the room floor at the configured height.

    Draws are x-then-y per UE from one per-seed stream, so a smaller count
    is always a prefix of a larger one.  A count below 1 is refused.
    """
    count = _count(count, "ue_count", 1)
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


# solution fields a summary row repeats, in column order, with their types
_ROW_FIELDS = (("seed", int), ("algo", str), ("ue_count", int), ("sum_rate_bps", float),
               ("feasible", bool))


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
    if algo == "minidis":
        return baseline_mini_dis(*common), None, None
    if algo == "ranloc":
        rng = stream(seed, STREAM_RANDOM_PLACEMENT + (u_count << 8))
        return baseline_ran_loc(*common, rng=rng), None, None
    if algo == "bcs":
        search = bcs_solve(*common, **grid)
    elif algo == "ranphi":
        rng = stream(seed, STREAM_RANDOM_PHASES + (u_count << 8))
        search = baseline_ran_phi(*common, rng=rng, **grid)
    else:
        raise ConfigError(f"unknown algorithm {algo!r}")
    extra = {"points_evaluated": search.points_evaluated,
             "best_trace": [float(r) for r in search.best_trace]}
    return search.solution, extra, search.anchor


def run_single(config: ExperimentConfig, algo: str, seed: int, ue_count=None) -> Solution:
    """One (algorithm, seed) instance with freshly drawn UE positions.

    A negative seed is refused, as the config refuses it in ``runner.seeds``.
    """
    seed = _count(seed, "seed", 0)
    u_count = ue_count if ue_count is not None else config.ue_count
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
                solutions.append(_solution_dict(seed, algo, u_count, sol, extra))
                rows.append([solutions[-1][key] for key, _ in _ROW_FIELDS])
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
    """Workers for ``n_jobs`` seeds: the request, capped by ``PLAN_THREADS``
    (else the CPU count) and the job count.  A count below 1 is refused."""
    cap = os.environ.get("PLAN_THREADS") or str(os.cpu_count() or 1)
    if not cap.isdecimal() or int(cap) < 1:
        raise ConfigError(f"PLAN_THREADS must be a positive integer, got {cap!r}")
    if requested is not None and requested < 1:
        raise ConfigError(f"worker count must be a positive integer, got {requested}")
    limit = int(cap)
    return max(1, min(requested or limit, limit, n_jobs))


def _aggregate_rows(rows):
    """Mean and spread of the sum rate per (algo, ue_count), seed order kept."""
    groups: dict = {}
    for seed, algo, u_count, rate, feasible in rows:
        groups.setdefault((algo, u_count), []).append((rate, feasible))
    out = []
    for (algo, u_count), group in groups.items():
        vals = np.array([r for r, _ in group])
        feas = sum(1 for _, f in group if f)
        out.append([algo, u_count, float(np.mean(vals)), float(np.std(vals)),
                    feas, vals.size])
    return out


def run_experiment(config: ExperimentConfig, out_dir=None, workers=None) -> RunReport:
    """Run the configured seed batch and optionally emit the CSV/JSON outputs.

    Seeds are independent jobs; results are merged in configured seed order,
    so the emitted summary is identical for any worker count.  The returned
    report carries each cell's wall time (``timing``), and so does
    ``timing.csv``; ``report.json`` holds every other field, so that it too
    is byte-identical from run to run.
    """
    seeds = config.seeds
    n_workers = _worker_count(workers, len(seeds))
    if n_workers > 1:
        # imported here: the pool brings in multiprocessing, which a
        # single-worker run would load for nothing on every start
        from concurrent.futures import ProcessPoolExecutor

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

    report = RunReport(
        config=config_to_dict(config),
        band_plan=_band_plan(config),
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
            json.dump({k: v for k, v in report.__dict__.items() if k != "timing"}, fh, indent=2)
            fh.write("\n")
    return report


def _typed(sol: dict, key: str, kind):
    """``sol[key]`` when it, or each entry of a list, is exactly a ``kind``."""
    if key not in sol:
        raise ValueError(f"solution field {key!r} is missing")
    value = sol[key]
    if not all(type(v) is kind for v in (value if isinstance(value, list) else [value])):
        raise ValueError(f"solution field {key!r} must hold {kind.__name__} values, got {value!r}")
    return value


def load_report(path) -> RunReport:
    """Read a report.json back and re-validate every stored solution.

    Each solution is reconstructed and its rates recomputed from geometry;
    any drift beyond validation tolerance, a missing field, one of the wrong
    type or an array of the wrong length, a solution whose seed has no draws
    entry, whose UE count is below 1 or exceeds its drawn positions, and a
    summary row that differs from its solution raise ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    report = RunReport(**raw)
    config = config_from_dict(report.config)
    bands = resolve_bands(config)
    mix = config.mixing_ratio()

    positions_by_seed = {d["seed"]: np.asarray(d["positions_m"], dtype=float)
                         for d in report.draws}
    if len(report.rows) != len(report.solutions):
        raise ValueError(f"{len(report.rows)} summary rows for "
                         f"{len(report.solutions)} stored solutions")
    for i, (row, sol) in enumerate(zip(report.rows, report.solutions)):
        seed, u_count = _typed(sol, "seed", int), _typed(sol, "ue_count", int)
        if seed not in positions_by_seed:
            raise ValueError(f"solution field 'seed' = {seed!r} has no draws entry")
        positions = positions_by_seed[seed]
        if u_count < 1:
            raise ValueError(f"solution field 'ue_count' = {u_count} is below 1")
        if u_count > positions.shape[0]:
            raise ValueError(f"solution field 'ue_count' = {u_count} exceeds the "
                             f"{positions.shape[0]} positions drawn for seed {seed!r}")
        scene = config.scene_for(positions[:u_count])
        solution = Solution(
            placement=IrsPlacement(_typed(sol, "placement_x_m", float),
                                   _typed(sol, "placement_y_m", float),
                                   config.element_count, config.spacing_m),
            phases=PhaseVector(np.asarray(_typed(sol, "phases_rad", float), dtype=float)),
            winners=np.asarray(_typed(sol, "winners", int), dtype=int),
            powers=np.asarray(_typed(sol, "powers_w", float), dtype=float),
            rates=np.asarray(_typed(sol, "rates_bps", float), dtype=float),
            sum_rate_bps=_typed(sol, "sum_rate_bps", float),
            feasible=_typed(sol, "feasible", bool),
            converged=_typed(sol, "converged", bool),
            rounds=_typed(sol, "rounds", int),
            rate_trace=list(_typed(sol, "rate_trace", float)),
        )
        solution.validate(scene, bands, config.p_max_w, config.rate_floor_bps, mix)
        for (key, kind), value in zip(_ROW_FIELDS, row, strict=True):
            want = _typed(sol, key, kind)
            if type(value) is not kind or value != want:
                raise ValueError(f"summary row {i} field {key!r} = {value!r} does not "
                                 f"match its solution's {want!r}")

    recomputed = _aggregate_rows(report.rows)
    stored = [list(row) for row in report.aggregate]
    if recomputed != stored:
        raise ValueError("aggregate table does not match the stored rows")
    return report
