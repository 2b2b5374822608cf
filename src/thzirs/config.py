"""Experiment configuration: JSON ingestion, defaults, validation.

The file format is a nested JSON document with the group keys below; every
field is optional and falls back to the defaults of the reference indoor
setup (8 m x 5 m x 3 m room, AP at (0, 0, 2), 20-element array at 5 mm
spacing, auto-planned 50 GHz sub-bands over 200-400 GHz, 1 W budget,
1 Gbit/s per-UE floor).  Unknown keys anywhere are rejected.

The sub-band plan comes in two mutually exclusive flavors: an explicit
center list, taken verbatim, or an auto-plan range handed to
``auto_band_plan``.  An explicit list wins when both are present.
"""

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .channel import VALID_F_HI, VALID_F_LO, Atmosphere, SubBand, water_vapor_mixing_ratio
from .geometry import Scene


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


_ALGORITHMS = ("bcs", "minidis", "ranloc", "ranphi")


def _non_finite(value) -> bool:
    """True when value is, or holds, a NaN or infinite number."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return any(_non_finite(v) for v in value)
    if isinstance(value, numbers.Integral):
        return False
    return isinstance(value, numbers.Real) and not math.isfinite(value)


def _count(value, name, least) -> int:
    """``value`` as an int of at least ``least``; bools and fractions are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 or value < least:
        raise ConfigError(f"{name} takes whole numbers of at least {least}, got {value!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    room_length_m: float = 8.0
    room_width_m: float = 5.0
    room_height_m: float = 3.0
    ap_position_m: tuple = (0.0, 0.0, 2.0)

    ue_count: int = 2
    ue_height_m: float = 1.0
    ue_positions_m: tuple = None  # explicit (x, y, z) rows; overrides draws

    temperature_c: float = 23.0
    pressure_hpa: float = 1013.25
    relative_humidity_pct: float = 50.0

    band_centers_ghz: tuple = None  # explicit plan, echoed verbatim when given
    band_width_ghz: float = 50.0
    auto_band_range_ghz: tuple = (VALID_F_LO / 1e9, VALID_F_HI / 1e9)  # used when no explicit list

    element_count: int = 20
    spacing_m: float = 0.005
    p_max_w: float = 1.0
    rate_floor_bps: float = 1e9
    noise_psd_dbm_per_hz: float = -174.0
    noise_figure_db: float = 10.0

    grid_step_x_m: float = 0.25
    grid_step_y_m: float = 0.25

    seeds: tuple = tuple(range(1, 101))
    algorithms: tuple = _ALGORITHMS
    ue_counts: tuple = None  # per-run UE sweep; default: just ue_count

    sweep_distances_m: tuple = (5.0, 10.0, 20.0)
    sweep_step_ghz: float = 0.5

    def __post_init__(self):
        # JSON admits NaN and Infinity, which slip through every range check below
        bad = [f.name for f in fields(self) if _non_finite(getattr(self, f.name))]
        if bad:
            raise ConfigError(f"non-finite number in {', '.join(bad)}")
        if self.room_length_m <= 0 or self.room_width_m <= 0 or self.room_height_m <= 0:
            raise ConfigError("room dimensions must be positive")
        ap = tuple(float(v) for v in self.ap_position_m)
        if len(ap) != 3:
            raise ConfigError("ap_position_m needs exactly three coordinates")
        self.ap_position_m = ap
        if not (0 <= ap[0] <= self.room_width_m and 0 <= ap[1] <= self.room_length_m):
            raise ConfigError(f"AP position {ap} outside the room")
        if not (0 < ap[2] < self.room_height_m):
            raise ConfigError("AP height must sit strictly between floor and ceiling")

        if self.ue_positions_m is not None:
            rows = tuple(tuple(float(v) for v in row) for row in self.ue_positions_m)
            if not rows or any(len(r) != 3 for r in rows):
                raise ConfigError("ue positions must be non-empty (x, y, z) rows")
            try:
                self.scene_for(rows)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            self.ue_positions_m = rows
            self.ue_count = len(rows)
        self.ue_count = _count(self.ue_count, "ue_count", 1)
        if not (0 < self.ue_height_m < self.room_height_m):
            raise ConfigError("UE height must sit strictly between floor and ceiling")

        if not (-100 <= self.temperature_c <= 100):
            raise ConfigError(f"temperature {self.temperature_c} C out of range")
        if self.pressure_hpa <= 0:
            raise ConfigError("pressure must be positive")
        if not (0 <= self.relative_humidity_pct <= 100):
            raise ConfigError("relative humidity must be within 0..100 %")

        if self.band_width_ghz <= 0:
            raise ConfigError("band width must be positive")
        if self.band_centers_ghz is not None:
            # explicit plans are kept verbatim: order and spacing are the
            # caller's choice, only physical positivity is enforced
            centers = tuple(float(v) for v in self.band_centers_ghz)
            if not centers:
                raise ConfigError("need at least one sub-band center")
            self.band_centers_ghz = centers
            self.auto_band_range_ghz = None
            if any(c - self.band_width_ghz / 2 <= 0 for c in centers):
                raise ConfigError("a sub-band extends below 0 Hz")
        else:
            if self.auto_band_range_ghz is None:
                raise ConfigError("need an explicit center list or an auto band range")
            rng = tuple(float(v) for v in self.auto_band_range_ghz)
            if len(rng) != 2 or rng[0] >= rng[1]:
                raise ConfigError("auto band range must be (lo, hi) with lo < hi")
            self.auto_band_range_ghz = rng

        self.element_count = _count(self.element_count, "element_count", 1)
        if self.spacing_m <= 0:
            raise ConfigError("element spacing must be positive")
        if self.p_max_w <= 0:
            raise ConfigError("power budget must be positive")
        if self.rate_floor_bps < 0:
            raise ConfigError("rate floor must be non-negative")
        if self.grid_step_x_m <= 0 or self.grid_step_y_m <= 0:
            raise ConfigError("grid steps must be positive")

        self.seeds = tuple(_count(s, "seeds", 0) for s in self.seeds)
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list of non-negative integers")

        algos = tuple(str(a).lower() for a in self.algorithms)
        unknown = [a for a in algos if a not in _ALGORITHMS]
        if unknown or not algos:
            raise ConfigError(f"unknown algorithms {unknown}; valid: {_ALGORITHMS}")
        self.algorithms = algos

        if self.ue_counts is not None:
            self.ue_counts = tuple(_count(u, "ue_counts", 1) for u in self.ue_counts)
            if not self.ue_counts:
                raise ConfigError("ue_counts must be positive integers")

        if any(d <= 0 for d in self.sweep_distances_m):
            raise ConfigError("sweep distances must be positive")
        self.sweep_distances_m = tuple(float(d) for d in self.sweep_distances_m)
        if self.sweep_step_ghz <= 0:
            raise ConfigError("sweep step must be positive")

    # -- derived quantities ------------------------------------------------

    def atmosphere(self) -> Atmosphere:
        return Atmosphere(
            temperature_c=self.temperature_c,
            pressure_hpa=self.pressure_hpa,
            relative_humidity_pct=self.relative_humidity_pct,
        )

    def mixing_ratio(self) -> float:
        return water_vapor_mixing_ratio(self.atmosphere())

    def noise_psd_w_per_hz(self) -> float:
        return 10.0 ** ((self.noise_psd_dbm_per_hz + self.noise_figure_db) / 10.0 - 3.0)

    def explicit_sub_bands(self):
        """SubBand list from the explicit center plan (None when auto-planned)."""
        if self.band_centers_ghz is None:
            return None
        noise = self.noise_psd_w_per_hz()
        return [
            SubBand(center_hz=c * 1e9, bandwidth_hz=self.band_width_ghz * 1e9,
                    noise_psd_w_per_hz=noise)
            for c in self.band_centers_ghz
        ]

    def scene_for(self, ue_positions) -> Scene:
        return Scene(
            room_length_m=self.room_length_m,
            room_width_m=self.room_width_m,
            ceiling_height_m=self.room_height_m,
            ap_position_m=np.asarray(self.ap_position_m, dtype=float),
            ue_positions_m=np.atleast_2d(np.asarray(ue_positions, dtype=float)),
        )


_SCHEMA = {
    "room": {
        "length_m": "room_length_m",
        "width_m": "room_width_m",
        "height_m": "room_height_m",
        "ap_position_m": "ap_position_m",
    },
    "ues": {
        "count": "ue_count",
        "height_m": "ue_height_m",
        "positions_m": "ue_positions_m",
    },
    "atmosphere": {
        "temperature_c": "temperature_c",
        "pressure_hpa": "pressure_hpa",
        "relative_humidity_pct": "relative_humidity_pct",
    },
    "bands": {
        "centers_ghz": "band_centers_ghz",
        "width_ghz": "band_width_ghz",
        "auto_range_ghz": "auto_band_range_ghz",
    },
    "radio": {
        "element_count": "element_count",
        "spacing_m": "spacing_m",
        "p_max_w": "p_max_w",
        "rate_floor_bps": "rate_floor_bps",
        "noise_psd_dbm_per_hz": "noise_psd_dbm_per_hz",
        "noise_figure_db": "noise_figure_db",
    },
    "search": {
        "grid_step_x_m": "grid_step_x_m",
        "grid_step_y_m": "grid_step_y_m",
    },
    "runner": {
        "seeds": "seeds",
        "algorithms": "algorithms",
        "ue_counts": "ue_counts",
    },
    "sweep": {
        "distances_m": "sweep_distances_m",
        "step_ghz": "sweep_step_ghz",
    },
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a nested dict, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    kwargs = {}
    for group, content in raw.items():
        if group not in _SCHEMA:
            raise ConfigError(f"unknown config section {group!r}")
        if not isinstance(content, dict):
            raise ConfigError(f"section {group!r} must be an object")
        for key, value in content.items():
            if key not in _SCHEMA[group]:
                raise ConfigError(f"unknown key {group}.{key}")
            if value is not None:
                kwargs[_SCHEMA[group][key]] = value
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """Nested plain-JSON form of a config (the exact load_config inverse)."""
    out = {}
    for group, mapping in _SCHEMA.items():
        out[group] = {key: getattr(config, attr) for key, attr in mapping.items()}
    return out


def load_config(path) -> ExperimentConfig:
    """Read, default, and validate a JSON config file.

    An empty (or whitespace-only) file is the all-defaults configuration.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        return ExperimentConfig()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
