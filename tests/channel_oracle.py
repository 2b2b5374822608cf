"""Reference form of the reflected-link construction, one (UE, band) at a time.

``reference_link_vectors`` is the per-link loop the library replaced with
``thzirs.phase_opt.effective_vector``: every row is built from its own norms,
its own cascaded gain and the steering profile of that one UE.  The library
computes the same arithmetic in the same order for all links at once, so
every row, path length and steering phase must agree bit for bit.  The
element-by-element ``incident_steering_phase`` and
``departure_steering_phase`` spell out what the steering profile sums.
"""

import numpy as np

from thzirs.channel import SPEED_OF_LIGHT


def incident_vector(placement, scene) -> np.ndarray:
    """Vector from the AP to the anchor element."""
    return placement.anchor_position(scene) - scene.ap_position_m


def departure_vector(placement, scene, ue_index: int) -> np.ndarray:
    """Vector from the anchor element to UE ``ue_index``."""
    return scene.ue_positions_m[ue_index] - placement.anchor_position(scene)


def reference_path_length(placement, scene, ue_index: int) -> float:
    """Total two-hop distance AP -> anchor -> UE."""
    d0 = np.linalg.norm(incident_vector(placement, scene))
    du = np.linalg.norm(departure_vector(placement, scene, ue_index))
    if d0 == 0 or du == 0:
        raise ValueError("AP or UE coincides with the array anchor")
    return float(d0 + du)


def incident_steering_phase(frequency_hz: float, placement, scene, n: int) -> float:
    """Phase advance of element n (1-based) on the incident leg.

    Element n sits (n-1) spacings along +y from the anchor; the phase is the
    projection of that offset onto the AP direction times the wavenumber.
    """
    r0 = incident_vector(placement, scene)
    norm = np.linalg.norm(r0)
    if norm == 0:
        raise ValueError("AP coincides with the array anchor")
    k = 2.0 * np.pi * frequency_hz / SPEED_OF_LIGHT
    return float(k * (placement.y_m - scene.ap_position_m[1]) * (n - 1) * placement.spacing_m / norm)


def departure_steering_phase(frequency_hz: float, placement, scene, ue_index: int, n: int) -> float:
    """Phase advance of element n (1-based) on the departure leg toward one UE."""
    ru = departure_vector(placement, scene, ue_index)
    norm = np.linalg.norm(ru)
    if norm == 0:
        raise ValueError("UE coincides with the array anchor")
    k = 2.0 * np.pi * frequency_hz / SPEED_OF_LIGHT
    return float(
        k * (scene.ue_positions_m[ue_index][1] - placement.y_m) * (n - 1) * placement.spacing_m / norm
    )


def reference_steering_phase_profile(frequency_hz: float, placement, scene, ue_index: int) -> np.ndarray:
    """theta_n + vartheta_n for all N elements of one UE."""
    r0 = incident_vector(placement, scene)
    ru = departure_vector(placement, scene, ue_index)
    n0, nu = np.linalg.norm(r0), np.linalg.norm(ru)
    if n0 == 0 or nu == 0:
        raise ValueError("AP or UE coincides with the array anchor")
    k = 2.0 * np.pi * frequency_hz / SPEED_OF_LIGHT
    slope = (placement.y_m - scene.ap_position_m[1]) / n0
    slope += (scene.ue_positions_m[ue_index][1] - placement.y_m) / nu
    offsets = np.arange(placement.element_count) * placement.spacing_m
    return k * slope * offsets


def reference_cascaded_gain(frequency_hz: float, path_length_m: float, absorption_per_m: float) -> complex:
    """Scalar cascaded two-hop gain: Friis spreading, attenuation, phase."""
    if path_length_m <= 0 or not np.isfinite(path_length_m):
        raise ValueError(f"path length must be positive, got {path_length_m}")
    if frequency_hz <= 0 or not np.isfinite(frequency_hz):
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    if absorption_per_m < 0 or not np.isfinite(absorption_per_m):
        raise ValueError(f"absorption must be non-negative, got {absorption_per_m}")
    amplitude = SPEED_OF_LIGHT / (4.0 * np.pi * frequency_hz * path_length_m)
    amplitude *= np.exp(-0.5 * absorption_per_m * path_length_m)
    phase = -2.0 * np.pi * frequency_hz * path_length_m / SPEED_OF_LIGHT
    return complex(amplitude * np.cos(phase), amplitude * np.sin(phase))


def reference_effective_vector(sub_band, power_w, placement, scene, ue_index, absorption_per_m) -> np.ndarray:
    """Row e of one link with e . phi its received amplitude at power ``power_w``."""
    if power_w < 0:
        raise ValueError(f"power must be non-negative, got {power_w}")
    d = reference_path_length(placement, scene, ue_index)
    g = reference_cascaded_gain(sub_band.center_hz, d, absorption_per_m)
    beta = reference_steering_phase_profile(sub_band.center_hz, placement, scene, ue_index)
    return np.sqrt(power_w) * g * np.exp(-1j * beta)


def reference_link_vectors(scene, placement, sub_bands, absorption_per_m) -> np.ndarray:
    """Unit-power rows for every (UE, band) pair, shape (U, I, N), one link at a time."""
    vectors = np.empty((scene.ue_count, len(sub_bands), placement.element_count), dtype=complex)
    for i, band in enumerate(sub_bands):
        for u in range(scene.ue_count):
            vectors[u, i] = reference_effective_vector(band, 1.0, placement, scene, u, float(absorption_per_m[i]))
    return vectors


def reference_reflected_channel(sub_band, placement, angles, scene, ue_index, absorption_per_m):
    """Channel of one link as the gain times the sum of the element responses."""
    d = reference_path_length(placement, scene, ue_index)
    g = reference_cascaded_gain(sub_band.center_hz, d, absorption_per_m)
    beta = reference_steering_phase_profile(sub_band.center_hz, placement, scene, ue_index)
    return g * np.sum(np.exp(1j * (angles - beta)))
