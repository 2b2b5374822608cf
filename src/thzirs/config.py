"""Experiment configuration: JSON ingestion, defaults, validation.

The file format is a nested JSON document of groups and keys; each field of
``ExperimentConfig`` names its ``group.key`` beside its default.  Every key
is optional and falls back to the defaults of the reference indoor setup
(8 m x 5 m x 3 m room, AP at (0, 0, 2), 20-element array at 5 mm spacing,
auto-planned 50 GHz sub-bands over 200-400 GHz, 1 W budget, 1 Gbit/s per-UE
floor).  Unknown keys anywhere are rejected.

The sub-band plan comes in two mutually exclusive flavors: an explicit
center list, taken verbatim, or an auto-plan range handed to
``auto_band_plan``.  An explicit list wins when both are present.
"""

import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import VALID_F_HI, VALID_F_LO, Atmosphere, water_vapor_mixing_ratio
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


def _key(path, default):
    """A field stored under ``path`` ("group.key") in the config file."""
    return field(default=default, metadata={"key": path})


@dataclass
class ExperimentConfig:
    room_length_m: float = _key("room.length_m", 8.0)
    room_width_m: float = _key("room.width_m", 5.0)
    room_height_m: float = _key("room.height_m", 3.0)
    ap_position_m: tuple = _key("room.ap_position_m", (0.0, 0.0, 2.0))

    ue_count: int = _key("ues.count", 2)
    ue_height_m: float = _key("ues.height_m", 1.0)
    ue_positions_m: tuple = _key("ues.positions_m", None)  # explicit (x, y, z) rows; overrides draws

    temperature_c: float = _key("atmosphere.temperature_c", 23.0)
    pressure_hpa: float = _key("atmosphere.pressure_hpa", 1013.25)
    relative_humidity_pct: float = _key("atmosphere.relative_humidity_pct", 50.0)

    band_centers_ghz: tuple = _key("bands.centers_ghz", None)  # explicit plan, echoed verbatim
    band_width_ghz: float = _key("bands.width_ghz", 50.0)
    auto_band_range_ghz: tuple = _key(  # used when no explicit list
        "bands.auto_range_ghz", (VALID_F_LO / 1e9, VALID_F_HI / 1e9))

    element_count: int = _key("radio.element_count", 20)
    spacing_m: float = _key("radio.spacing_m", 0.005)
    p_max_w: float = _key("radio.p_max_w", 1.0)
    rate_floor_bps: float = _key("radio.rate_floor_bps", 1e9)
    noise_psd_dbm_per_hz: float = _key("radio.noise_psd_dbm_per_hz", -174.0)
    noise_figure_db: float = _key("radio.noise_figure_db", 10.0)

    grid_step_x_m: float = _key("search.grid_step_x_m", 0.25)
    grid_step_y_m: float = _key("search.grid_step_y_m", 0.25)

    seeds: tuple = _key("runner.seeds", tuple(range(1, 101)))
    algorithms: tuple = _key("runner.algorithms", _ALGORITHMS)
    ue_counts: tuple = _key("runner.ue_counts", None)  # per-run UE sweep; default: just ue_count

    sweep_distances_m: tuple = _key("sweep.distances_m", (5.0, 10.0, 20.0))
    sweep_step_ghz: float = _key("sweep.step_ghz", 0.5)

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

    def scene_for(self, ue_positions) -> Scene:
        return Scene(
            room_length_m=self.room_length_m,
            room_width_m=self.room_width_m,
            ceiling_height_m=self.room_height_m,
            ap_position_m=np.asarray(self.ap_position_m, dtype=float),
            ue_positions_m=np.atleast_2d(np.asarray(ue_positions, dtype=float)),
        )


# "group.key" -> field name, in file order
_FIELD_OF = {f.metadata["key"]: f.name for f in fields(ExperimentConfig)}
_GROUPS = {path.partition(".")[0] for path in _FIELD_OF}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a nested dict, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    kwargs = {}
    for group, content in raw.items():
        if group not in _GROUPS:
            raise ConfigError(f"unknown config section {group!r}")
        if not isinstance(content, dict):
            raise ConfigError(f"section {group!r} must be an object")
        for key, value in content.items():
            name = _FIELD_OF.get(f"{group}.{key}")
            if name is None:
                raise ConfigError(f"unknown key {group}.{key}")
            if value is not None:
                kwargs[name] = value
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """Nested plain-JSON form of a config (the exact load_config inverse)."""
    out = {}
    for path, name in _FIELD_OF.items():
        group, _, key = path.partition(".")
        out.setdefault(group, {})[key] = getattr(config, name)
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
