"""Terahertz indoor channel pieces: water-vapor absorption, the cascaded
reflect-path gain, and per-sub-band rates.

Frequencies are Hz, distances are m, powers are W, absorption is 1/m.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

# Absorption model fit window.  Outside it the value is still computed but a
# validity warning is emitted.
VALID_F_LO = 200e9
VALID_F_HI = 400e9
# frequency step of the scan for absorption peaks
_PEAK_SCAN_STEP_HZ = 0.1e9

# Polynomial tail coefficients of the absorption fit (f in Hz, result in 1/m).
_P1 = 5.54e-37
_P2 = -3.94e-25
_P3 = 9.06e-14
_P4 = -6.36e-3

# Line centers in wavenumber units (1/cm): f/(100 c) is compared against these.
_LINE_1 = 10.835
_LINE_2 = 12.664


class ValidityWarning(UserWarning):
    """Raised (as a warning) when a frequency leaves the model fit window."""


@dataclass(frozen=True)
class Atmosphere:
    """Ambient air state used by the absorption model."""

    temperature_c: float = 23.0
    pressure_hpa: float = 1013.25
    relative_humidity_pct: float = 50.0

    def __post_init__(self):
        if not np.isfinite(self.temperature_c) or self.temperature_c <= -240.97:
            raise ValueError(f"temperature out of range: {self.temperature_c}")
        if not np.isfinite(self.pressure_hpa) or self.pressure_hpa <= 0:
            raise ValueError(f"pressure must be positive, got {self.pressure_hpa}")
        if not np.isfinite(self.relative_humidity_pct) or not 0 <= self.relative_humidity_pct <= 100:
            raise ValueError(f"relative humidity must be in [0, 100], got {self.relative_humidity_pct}")


@dataclass(frozen=True)
class SubBand:
    """One transmission window: center frequency, width, and noise density."""

    center_hz: float
    bandwidth_hz: float
    noise_psd_w_per_hz: float

    def __post_init__(self):
        for name in ("center_hz", "bandwidth_hz", "noise_psd_w_per_hz"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @property
    def lo_hz(self) -> float:
        return self.center_hz - 0.5 * self.bandwidth_hz

    @property
    def hi_hz(self) -> float:
        return self.center_hz + 0.5 * self.bandwidth_hz

    @property
    def noise_power_w(self) -> float:
        return self.noise_psd_w_per_hz * self.bandwidth_hz


def saturated_vapor_pressure(temperature_c: float, pressure_hpa: float) -> float:
    """Buck equation for the saturated water vapor pressure, in hPa.

    An enhancement factor linear in total pressure multiplies the pure-phase
    exponential term.
    """
    if not np.isfinite(temperature_c) or not np.isfinite(pressure_hpa):
        raise ValueError("temperature and pressure must be finite")
    if temperature_c <= -240.97:
        raise ValueError(f"temperature below model range: {temperature_c}")
    enhancement = 1.0007 + 3.46e-8 * pressure_hpa
    return 6.1121 * enhancement * np.exp(17.502 * temperature_c / (240.97 + temperature_c))


def water_vapor_mixing_ratio(atmosphere: Atmosphere) -> float:
    """Volume mixing ratio of water vapor (dimensionless, 0 for dry air)."""
    p_w = saturated_vapor_pressure(atmosphere.temperature_c, atmosphere.pressure_hpa)
    return (atmosphere.relative_humidity_pct / 100.0) * p_w / atmosphere.pressure_hpa


def absorption_coefficient(frequency_hz, mixing_ratio: float):
    """Molecular absorption coefficient K(f) in 1/m.

    Two pressure-broadened water lines (centered near 325 and 380 GHz) sit on
    a cubic polynomial floor.  The line shapes use squared detuning, which
    keeps K positive and peaked at the line centers.

    Accepts scalars or numpy arrays for ``frequency_hz``.
    """
    f = np.asarray(frequency_hz, dtype=float)
    if np.any(~np.isfinite(f)) or np.any(f <= 0):
        raise ValueError("frequency must be positive and finite")
    if mixing_ratio < 0 or not np.isfinite(mixing_ratio):
        raise ValueError(f"mixing ratio must be non-negative, got {mixing_ratio}")
    if np.any(f < VALID_F_LO) or np.any(f > VALID_F_HI):
        warnings.warn(
            "absorption model is fitted for 200-400 GHz; value computed anyway",
            ValidityWarning,
            stacklevel=2,
        )

    mu = mixing_ratio
    a = 0.2205 * mu * (0.1303 * mu + 0.0294)
    b = (0.4093 * mu + 0.0925) ** 2
    c = 2.014 * mu * (0.1702 * mu + 0.0303)
    d = (0.537 * mu + 0.0956) ** 2

    wavenumber = f / (100.0 * SPEED_OF_LIGHT)
    det1 = wavenumber - _LINE_1
    det2 = wavenumber - _LINE_2
    lines = a / (b + det1 * det1) + c / (d + det2 * det2)
    poly = ((_P1 * f + _P2) * f + _P3) * f + _P4
    out = lines + poly
    return out if out.ndim else float(out)


@lru_cache(maxsize=64)
def _band_absorption(centers_hz: tuple, mixing_ratio: float) -> np.ndarray:
    """K(f) at a band plan's centers, computed once per plan; read-only."""
    k = absorption_coefficient(list(centers_hz), mixing_ratio)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=64)
def _absorption_peaks(mixing_ratio: float) -> np.ndarray:
    """Frequencies of the interior local maxima of K(f) on a uniform scan of
    the validity window, scanned once per mixing ratio; read-only."""
    f = np.arange(VALID_F_LO, VALID_F_HI + _PEAK_SCAN_STEP_HZ / 2, _PEAK_SCAN_STEP_HZ)
    k = absorption_coefficient(f, mixing_ratio)
    peaks = f[np.flatnonzero((k[1:-1] > k[:-2]) & (k[1:-1] > k[2:])) + 1]
    peaks.flags.writeable = False
    return peaks


def _path_amplitude(f, d, k):
    """``cascaded_gain``'s amplitude, Friis spreading over the total length
    times molecular attenuation, for float arrays of frequency ``f``, path
    length ``d`` and absorption ``k`` that broadcast against each other."""
    if not (np.isfinite(d) & (d > 0)).all():
        raise ValueError(f"path length must be positive, got {d}")
    if not (np.isfinite(f) & (f > 0)).all():
        raise ValueError(f"frequency must be positive, got {f}")
    if not (np.isfinite(k) & (k >= 0)).all():
        raise ValueError(f"absorption must be non-negative, got {k}")
    amplitude = SPEED_OF_LIGHT / (4.0 * np.pi * f * d)
    return amplitude * np.exp(-0.5 * k * d)


def cascaded_gain(frequency_hz, path_length_m, absorption_per_m):
    """Complex gain of the two-hop reflected path, Friis spreading over the
    total length times molecular attenuation, with the propagation phase.

    The arguments broadcast against each other; all-scalar input gives a
    complex scalar.
    """
    f = np.asarray(frequency_hz, dtype=float)
    d = np.asarray(path_length_m, dtype=float)
    amplitude = _path_amplitude(f, d, np.asarray(absorption_per_m, dtype=float))
    phase = -2.0 * np.pi * f * d / SPEED_OF_LIGHT
    re, im = amplitude * np.cos(phase), amplitude * np.sin(phase)
    return complex(re, im) if re.ndim == 0 else re + 1j * im


def reflected_channel(sub_band, placement, phases, scene, ue_index, absorption_per_m):
    """End-to-end reflected channel h for one UE on one sub-band.

    The surface sums the element responses: each element n contributes
    exp(j(phi_n - theta_n - vartheta_n)) on top of the cascaded gain, where
    theta/vartheta are the incident and departure steering phases.

    Args:
        sub_band: SubBand evaluated at its center frequency.
        placement: IrsPlacement of the reflecting array.
        phases: PhaseVector or array of per-element phase shifts (rad).
        scene: room geometry with AP and UE positions.
        ue_index: which UE the departure leg points at.
        absorption_per_m: K(f) at the sub-band center.

    Returns:
        Complex channel coefficient.
    """
    from .phase_opt import effective_vector

    angles = np.asarray(getattr(phases, "angles", phases), dtype=float)
    if angles.shape != (placement.element_count,):
        raise ValueError(
            f"phase vector has {angles.shape} entries, expected {placement.element_count}"
        )
    rows = effective_vector([sub_band], placement, scene, absorption_per_m)
    return rows[ue_index, 0] @ np.exp(1j * angles)


def subband_rate(sub_band: SubBand, power_w: float, channel_power_gain: float) -> float:
    """Shannon rate of one sub-band in bit/s, log base 2."""
    if power_w < 0:
        raise ValueError(f"power must be non-negative, got {power_w}")
    if channel_power_gain < 0:
        raise ValueError(f"power gain must be non-negative, got {channel_power_gain}")
    snr = power_w * channel_power_gain / sub_band.noise_power_w
    return sub_band.bandwidth_hz * np.log2(1.0 + snr)
