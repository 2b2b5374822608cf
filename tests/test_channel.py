import warnings

import numpy as np
import pytest

from thzirs import channel
from thzirs.channel import (
    SPEED_OF_LIGHT,
    Atmosphere,
    SubBand,
    ValidityWarning,
    _band_absorption,
    absorption_coefficient,
    cascaded_gain,
    reflected_channel,
    saturated_vapor_pressure,
    subband_rate,
    water_vapor_mixing_ratio,
)
from thzirs.experiment import absorption_peaks, auto_band_plan
from thzirs.geometry import IrsPlacement, Scene, optimal_single_ue_phases

# Mixing ratio for the default indoor air state (23 C, 1013.25 hPa, 50% RH).
MU_DEFAULT = 0.013869106058060476


def default_mu() -> float:
    return water_vapor_mixing_ratio(Atmosphere())


def test_saturated_vapor_pressure_values():
    np.testing.assert_allclose(
        saturated_vapor_pressure(23.0, 1013.25), 28.105743426659554, rtol=1e-13
    )
    np.testing.assert_allclose(
        saturated_vapor_pressure(0.0, 1013.25), 6.116592750752244, rtol=1e-13
    )
    np.testing.assert_allclose(
        saturated_vapor_pressure(30.0, 900.0), 42.46611937642944, rtol=1e-13
    )


def test_saturated_vapor_pressure_monotone_in_temperature():
    temps = np.linspace(-10, 40, 51)
    vals = [saturated_vapor_pressure(t, 1013.25) for t in temps]
    assert np.all(np.diff(vals) > 0)


def test_mixing_ratio_default_air():
    np.testing.assert_allclose(default_mu(), MU_DEFAULT, rtol=1e-13)


def test_mixing_ratio_dry_air_is_zero():
    atm = Atmosphere(relative_humidity_pct=0.0)
    assert water_vapor_mixing_ratio(atm) == 0.0


def test_atmosphere_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Atmosphere(temperature_c=-300.0)
    with pytest.raises(ValueError):
        Atmosphere(pressure_hpa=0.0)
    with pytest.raises(ValueError):
        Atmosphere(relative_humidity_pct=120.0)


def test_absorption_dry_air_is_polynomial_floor():
    # with mu = 0 both line terms vanish
    np.testing.assert_allclose(
        absorption_coefficient(300e9, 0.0), 0.0003179999999999997, rtol=1e-12
    )


def test_absorption_default_air_values():
    mu = default_mu()
    np.testing.assert_allclose(
        absorption_coefficient(300e9, mu), 0.0005842722826881715, rtol=1e-12
    )
    np.testing.assert_allclose(
        absorption_coefficient(350e9, mu), 0.0018934645100463815, rtol=1e-12
    )


def test_absorption_peaks_near_line_centers():
    mu = default_mu()
    f = np.arange(200e9, 400e9 + 0.05e9, 0.1e9)
    k = absorption_coefficient(f, mu)
    interior = (k[1:-1] > k[:-2]) & (k[1:-1] > k[2:])
    peaks = f[1:-1][interior]
    assert len(peaks) == 2
    np.testing.assert_allclose(peaks, [324.8e9, 379.7e9], atol=0.05e9)
    np.testing.assert_allclose(
        absorption_coefficient(324.8e9, mu), 0.010656767226699077, rtol=1e-12
    )
    np.testing.assert_allclose(
        absorption_coefficient(379.7e9, mu), 0.08748816117154286, rtol=1e-12
    )


def test_absorption_peaks_are_scanned_once_and_handed_out_fresh(monkeypatch):
    # one read-only scan per mixing ratio, with the bits of a fresh scan;
    # the public peaks are a writable copy that leaves the scan alone
    mu = default_mu()
    f = np.arange(200e9, 400e9 + 0.05e9, 0.1e9)
    k = absorption_coefficient(f, mu)
    want = f[1:-1][(k[1:-1] > k[:-2]) & (k[1:-1] > k[2:])]
    cached = channel._absorption_peaks(mu)
    assert cached is channel._absorption_peaks(mu) and not cached.flags.writeable
    peaks = absorption_peaks(mu)
    assert peaks.tobytes() == cached.tobytes() == want.tobytes()
    assert peaks.flags.writeable and not np.shares_memory(peaks, cached)
    peaks[:] = 0.0
    assert absorption_peaks(mu).tobytes() == want.tobytes()

    # the band planner reads the scan: no K(f) is evaluated again
    def refused(*args):
        raise AssertionError("the absorption peaks were scanned again")

    monkeypatch.setattr(channel, "absorption_coefficient", refused)
    bands = auto_band_plan((200e9, 400e9), 50e9, Atmosphere(), 1e-20)
    assert all(np.abs(want - b.center_hz).min() >= 10e9 for b in bands)


def test_absorption_array_matches_scalar():
    mu = default_mu()
    f = np.array([250e9, 300e9, 350e9])
    k = absorption_coefficient(f, mu)
    assert k.shape == (3,)
    for fi, ki in zip(f, k):
        assert ki == absorption_coefficient(float(fi), mu)


def test_absorption_warns_outside_fit_window():
    mu = default_mu()
    with pytest.warns(ValidityWarning):
        absorption_coefficient(150e9, mu)
    with pytest.warns(ValidityWarning):
        absorption_coefficient(450e9, mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        absorption_coefficient(300e9, mu)


def test_band_plan_absorption_is_memoized_read_only():
    mu = default_mu()
    centers = (225e9, 275e9, 305e9)
    k = _band_absorption(centers, mu)
    assert k is _band_absorption(centers, mu)
    assert not k.flags.writeable
    with pytest.raises(ValueError):
        k[0] = 0.0
    assert k.tobytes() == absorption_coefficient(list(centers), mu).tobytes()


def test_absorption_rejects_bad_inputs():
    with pytest.raises(ValueError):
        absorption_coefficient(-1.0, 0.01)
    with pytest.raises(ValueError):
        absorption_coefficient(300e9, -0.1)


def test_cascaded_gain_magnitude():
    mu = default_mu()
    k300 = absorption_coefficient(300e9, mu)
    g = cascaded_gain(300e9, 5.0, k300)
    np.testing.assert_allclose(abs(g) ** 2, 2.5221471934170634e-10, rtol=1e-12)


def test_cascaded_gain_phase():
    g = cascaded_gain(300e9, 5.0, 0.0)
    expected = -2.0 * np.pi * 300e9 * 5.0 / SPEED_OF_LIGHT
    np.testing.assert_allclose(np.angle(g), np.angle(np.exp(1j * expected)), atol=1e-9)


def test_cascaded_gain_attenuation_monotone():
    g_dry = abs(cascaded_gain(300e9, 5.0, 0.0))
    g_wet = abs(cascaded_gain(300e9, 5.0, 0.01))
    assert g_wet < g_dry
    # spreading alone follows 1/d
    np.testing.assert_allclose(
        abs(cascaded_gain(300e9, 10.0, 0.0)) / abs(cascaded_gain(300e9, 5.0, 0.0)),
        0.5,
        rtol=1e-12,
    )


def _small_scene():
    return Scene(
        room_length_m=8.0,
        room_width_m=5.0,
        ceiling_height_m=3.0,
        ap_position_m=[0.0, 0.0, 2.0],
        ue_positions_m=[[4.0, 6.0, 1.0]],
    )


def test_reflected_channel_matched_phases_hit_full_array_gain():
    scene = _small_scene()
    mu = default_mu()
    band = SubBand(300e9, 50e9, 1e-20)
    k = absorption_coefficient(band.center_hz, mu)
    rng = np.random.RandomState(3)
    for _ in range(20):
        n = rng.randint(1, 25)
        placement = IrsPlacement(
            rng.uniform(0.5, 4.5), rng.uniform(0.5, 6.0), n, 0.005
        )
        phases = optimal_single_ue_phases(band.center_hz, placement, scene, 0)
        h = reflected_channel(band, placement, phases, scene, 0, k)
        from thzirs.geometry import path_length

        g = cascaded_gain(band.center_hz, path_length(placement, scene, 0), k)
        np.testing.assert_allclose(abs(h) ** 2, n**2 * abs(g) ** 2, rtol=1e-9)


def test_reflected_channel_random_phases_never_beat_matched():
    scene = _small_scene()
    mu = default_mu()
    band = SubBand(300e9, 50e9, 1e-20)
    k = absorption_coefficient(band.center_hz, mu)
    placement = IrsPlacement(2.0, 3.0, 12, 0.005)
    matched = reflected_channel(
        band, placement, optimal_single_ue_phases(band.center_hz, placement, scene, 0), scene, 0, k
    )
    rng = np.random.RandomState(11)
    for _ in range(50):
        phases = rng.uniform(0, 2 * np.pi, size=12)
        h = reflected_channel(band, placement, phases, scene, 0, k)
        assert abs(h) <= abs(matched) * (1 + 1e-12)


def test_reflected_channel_rejects_wrong_length():
    scene = _small_scene()
    band = SubBand(300e9, 50e9, 1e-20)
    placement = IrsPlacement(2.0, 3.0, 8, 0.005)
    with pytest.raises(ValueError):
        reflected_channel(band, placement, np.zeros(5), scene, 0, 0.001)


def test_subband_rate_reference_value():
    # 50 GHz band, -174 dBm/Hz noise floor, 1 W, 20-element coherent gain at 5 m
    mu = default_mu()
    k300 = absorption_coefficient(300e9, mu)
    band = SubBand(300e9, 50e9, 10.0 ** (-20.4))
    gain = 400.0 * abs(cascaded_gain(300e9, 5.0, k300)) ** 2
    np.testing.assert_allclose(
        subband_rate(band, 1.0, gain), 449409776096.0817, rtol=1e-12
    )


def test_subband_rate_zero_power_is_zero():
    band = SubBand(300e9, 50e9, 1e-20)
    assert subband_rate(band, 0.0, 1e-9) == 0.0


def test_subband_rate_monotone_in_power():
    band = SubBand(300e9, 50e9, 1e-20)
    rates = [subband_rate(band, p, 1e-10) for p in np.linspace(0.1, 2.0, 15)]
    assert np.all(np.diff(rates) > 0)


def test_subband_properties():
    band = SubBand(275e9, 50e9, 2e-21)
    assert band.lo_hz == 250e9
    assert band.hi_hz == 300e9
    np.testing.assert_allclose(band.noise_power_w, 1e-10)
    with pytest.raises(ValueError):
        SubBand(275e9, -1.0, 2e-21)
    with pytest.raises(ValueError):
        SubBand(275e9, 50e9, 0.0)
