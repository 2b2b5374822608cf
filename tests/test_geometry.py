import struct
from functools import partial

import numpy as np
import pytest
from channel_oracle import departure_steering_phase, incident_steering_phase
from geometry_oracle import reference_distance_terms, reference_projected_descent

from thzirs import geometry
from thzirs.geometry import (
    IrsPlacement,
    PhaseVector,
    Scene,
    optimal_single_ue_phases,
    path_length,
    solve_min_total_distance,
    solve_single_ue_placement,
    steering_phase_profile,
)


def make_scene(ues=((4.0, 6.0, 1.0),)):
    return Scene(
        room_length_m=8.0,
        room_width_m=5.0,
        ceiling_height_m=3.0,
        ap_position_m=[0.0, 0.0, 2.0],
        ue_positions_m=list(ues),
    )


def test_scene_validation():
    with pytest.raises(ValueError):
        make_scene(ues=((4.0, 9.0, 1.0),))  # y beyond room length
    with pytest.raises(ValueError):
        make_scene(ues=((4.0, 6.0, 3.0),))  # UE on the ceiling plane
    with pytest.raises(ValueError):
        Scene(8.0, 5.0, 3.0, [9.0, 0.0, 2.0], [[4.0, 6.0, 1.0]])


def test_scene_positions_are_read_only():
    ap, ues = np.array([0.0, 0.0, 2.0]), np.array([[4.0, 6.0, 1.0]])
    scene = Scene(8.0, 5.0, 3.0, ap, ues)
    with pytest.raises(ValueError, match="read-only"):
        scene.ap_position_m[2] = 3.0
    with pytest.raises(ValueError, match="read-only"):
        scene.ue_positions_m[0] = [2.0, 3.0, 3.0]
    # the scene holds its own copies: the caller's arrays stay writable
    ues[0, 2] = 3.0
    assert scene.ue_positions_m[0, 2] == 1.0


def test_placement_span_and_fit():
    p = IrsPlacement(2.0, 3.0, 8, 0.005)
    np.testing.assert_allclose(p.offsets_m[-1], 0.035)
    with pytest.raises(ValueError):
        IrsPlacement(2.0, 3.0, 0, 0.005)
    with pytest.raises(ValueError):
        IrsPlacement(2.0, 3.0, 8, 0.0)


def test_phase_vector_wrap_safe_distance():
    a = PhaseVector(np.zeros(4))
    b = PhaseVector(np.full(4, 2.0 * np.pi))
    assert a.distance(b) < 1e-12
    c = PhaseVector(np.full(4, np.pi))
    np.testing.assert_allclose(a.distance(c), 4.0)


def test_path_length_mirror_identity():
    # at the mirror point the two-hop length equals the straight line to the
    # UE reflected across the ceiling plane
    scene = make_scene()
    placement = IrsPlacement(4.0 / 3.0, 2.0, 1, 0.005)
    np.testing.assert_allclose(path_length(placement, scene, 0), np.sqrt(61.0), rtol=1e-12)


def test_incident_steering_phase_reference():
    # anchor chosen so the AP leg has |r0| = 5 and Y - y0 = 3
    scene = make_scene()
    placement = IrsPlacement(np.sqrt(15.0), 3.0, 4, 0.005)
    got = incident_steering_phase(300e9, placement, scene, 2)
    np.testing.assert_allclose(got, 18.862605197565134, rtol=1e-12)
    assert incident_steering_phase(300e9, placement, scene, 1) == 0.0


def test_steering_profile_matches_elementwise_sums():
    scene = make_scene(ues=((4.0, 6.0, 1.0), (1.0, 5.0, 1.5)))
    placement = IrsPlacement(2.5, 1.5, 6, 0.005)
    for u in range(2):
        prof = steering_phase_profile(320e9, placement, scene, u)
        for n in range(1, 7):
            expected = incident_steering_phase(320e9, placement, scene, n)
            expected += departure_steering_phase(320e9, placement, scene, u, n)
            np.testing.assert_allclose(prof[n - 1], expected, rtol=1e-12, atol=1e-15)


def test_optimal_phases_align_coefficients():
    scene = make_scene()
    placement = IrsPlacement(2.0, 3.0, 10, 0.005)
    phases = optimal_single_ue_phases(305e9, placement, scene, 0)
    beta = steering_phase_profile(305e9, placement, scene, 0)
    aligned = phases.coefficients * np.exp(-1j * beta)
    np.testing.assert_allclose(aligned, np.ones(10), rtol=1e-12)


def test_single_ue_placement_hits_mirror_point():
    scene = make_scene()
    x, y = solve_single_ue_placement(scene, 0)
    np.testing.assert_allclose([x, y], [4.0 / 3.0, 2.0], atol=1e-6)


def test_single_ue_placement_random_geometries_match_mirror():
    rng = np.random.RandomState(7)
    for _ in range(50):
        ap = [rng.uniform(0, 5), rng.uniform(0, 8), rng.uniform(0.5, 2.5)]
        ue = [rng.uniform(0, 5), rng.uniform(0, 8), rng.uniform(0.2, 2.0)]
        scene = Scene(8.0, 5.0, 3.0, ap, [ue])
        h = scene.ceiling_height_m
        s = (h - ap[2]) / (2 * h - ue[2] - ap[2])
        mx = ap[0] + s * (ue[0] - ap[0])
        my = ap[1] + s * (ue[1] - ap[1])
        x, y = solve_single_ue_placement(scene, 0)
        np.testing.assert_allclose([x, y], [mx, my], atol=1e-6)


def test_single_ue_placement_respects_y_cap():
    scene = make_scene()
    x, y = solve_single_ue_placement(scene, 0, y_max=1.0)
    assert y <= 1.0 + 1e-12
    np.testing.assert_allclose(y, 1.0, atol=1e-8)
    with pytest.raises(ValueError):
        solve_single_ue_placement(scene, 0, y_max=-0.5)


def _total_weighted_distance(scene, x, y):
    h = scene.ceiling_height_m
    anchor = np.array([x, y, h])
    d0 = np.linalg.norm(anchor - scene.ap_position_m)
    total = 0.0
    for k in range(scene.ue_count):
        total += d0 + np.linalg.norm(scene.ue_positions_m[k] - anchor)
    return total


def test_min_total_distance_single_ue_reduces_to_mirror():
    scene = make_scene()
    x, y = solve_min_total_distance(scene)
    np.testing.assert_allclose([x, y], [4.0 / 3.0, 2.0], atol=1e-6)


def test_min_total_distance_is_local_optimum():
    rng = np.random.RandomState(21)
    for _ in range(20):
        u = rng.randint(1, 5)
        ues = [[rng.uniform(0.2, 4.8), rng.uniform(0.2, 7.8), rng.uniform(0.3, 1.8)] for _ in range(u)]
        scene = Scene(8.0, 5.0, 3.0, [0.5, 0.5, 2.0], ues)
        x, y = solve_min_total_distance(scene)
        f0 = _total_weighted_distance(scene, x, y)
        for dx, dy in [(1e-4, 0), (-1e-4, 0), (0, 1e-4), (0, -1e-4)]:
            xx = min(max(x + dx, 0.0), scene.room_width_m)
            yy = min(max(y + dy, 0.0), scene.room_length_m)
            assert _total_weighted_distance(scene, xx, yy) >= f0 - 1e-9


def test_min_total_distance_two_symmetric_ues():
    # symmetric pair about the x axis: the optimum sits on y = 0 axis midline
    scene = Scene(
        8.0, 5.0, 3.0, [2.5, 0.0, 2.0],
        [[1.0, 4.0, 1.0], [4.0, 4.0, 1.0]],
    )
    x, y = solve_min_total_distance(scene)
    np.testing.assert_allclose(x, 2.5, atol=1e-6)
    assert 0.0 < y < 4.0


def _random_scene(rng, ue_count):
    length, width, height = rng.uniform(4.0, 12.0), rng.uniform(3.0, 8.0), rng.uniform(2.5, 4.0)
    ap = [rng.uniform(0, width), rng.uniform(0, length), rng.uniform(0, height)]
    ues = [[rng.uniform(0, width), rng.uniform(0, length), rng.uniform(0, 0.95 * height)]
           for _ in range(ue_count)]
    return Scene(length, width, height, ap, ues)


def _bits(terms):
    f, g, h = terms
    return struct.pack("7d", f, *g.tolist(), *h.ravel().tolist())


def _kkt_residual(xy, endpoints, weights, height, lo, hi):
    _, g, _ = reference_distance_terms(xy, endpoints, weights, height)
    return np.linalg.norm(xy - np.clip(xy - g, lo, hi))


def test_placement_solvers_reach_the_kkt_residual_on_oracle_terms(monkeypatch):
    # Every evaluation the solve asks for must return the oracle's exact
    # bits.  The solve is a deterministic function of those values, so
    # driven by the oracle it returns the same anchor; every 20th scene runs
    # that oracle-driven solve outright.  Every anchor must be a KKT point of
    # its box to DESCENT_TOLERANCE, and its objective no higher, beyond
    # rounding, than the anchor of the projected-gradient descent it replaced.
    library = geometry._distance_terms
    evaluations = 0

    def checked(xy, endpoints, weights, height):
        nonlocal evaluations
        got = library(xy, endpoints, weights, height)
        assert _bits(got) == _bits(reference_distance_terms(xy, endpoints, weights, height))
        evaluations += 1
        return got

    descent = geometry._projected_descent
    solves = []

    def recorded(*args):
        solves.append((args, descent(*args)))
        return solves[-1][1]

    monkeypatch.setattr(geometry, "_distance_terms", checked)
    monkeypatch.setattr(geometry, "_projected_descent", recorded)
    rng = np.random.default_rng(2024)
    for case in range(1000):
        ue_count, variant = 1 + case % 4, (case // 4) % 4
        scene = _random_scene(rng, ue_count)
        y_max = rng.uniform(0.1, 1.0) * scene.room_length_m if variant % 2 else None
        if variant < 2:
            solve = partial(solve_min_total_distance, scene, y_max=y_max)
        else:
            solve = partial(solve_single_ue_placement, scene, case % ue_count, y_max=y_max)
        anchor = solve()
        (endpoints, weights, height, lo, hi, x0), xy = solves[-1]
        assert (float(xy[0]), float(xy[1])) == anchor
        assert _kkt_residual(xy, endpoints, weights, height, lo, hi) <= geometry.DESCENT_TOLERANCE
        f = reference_distance_terms(xy, endpoints, weights, height)[0]
        old = reference_projected_descent(endpoints, weights, height, lo, hi, x0)
        f_old = reference_distance_terms(old, endpoints, weights, height)[0]
        assert f <= f_old + len(weights) * np.spacing(f_old), (case, f, f_old)
        if case % 20 == 0:
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "_distance_terms", reference_distance_terms)
                assert solve() == anchor
    assert evaluations > 2_000


@pytest.mark.parametrize(
    "scene, y_max",
    [(make_scene(), np.nan), (Scene(np.inf, 5.0, 3.0, [0.0, 0.0, 2.0], [[4.0, np.inf, 1.0]]), None)],
    ids=["nan-cap", "ue-at-infinity"],
)
def test_min_total_distance_refuses_a_non_finite_objective(scene, y_max):
    # a NaN cap or a UE at infinity makes the starting objective non-finite,
    # where the solve would otherwise never stop moving
    with pytest.raises(ValueError, match="placement objective must be finite"):
        solve_min_total_distance(scene, y_max=y_max)


def test_infinite_y_cap_means_no_cap():
    for ues in (((4.0, 6.0, 1.0),), ((1.0, 7.9, 0.5), (4.5, 7.5, 2.5))):
        scene = make_scene(ues)
        assert solve_min_total_distance(scene, y_max=np.inf) == solve_min_total_distance(scene)


def test_scene_refuses_an_ap_on_the_ceiling_plane():
    # With the AP on the ceiling plane the min-total-distance anchor would be
    # the AP itself, the tip of its term's cone, where the two-hop model
    # degenerates and the placement solve ended on last-bit rounding.  A
    # scene refuses such an AP as it refuses a UE there.
    rng = np.random.default_rng(5)
    for case in range(100):
        drawn = _random_scene(rng, 1 + case % 4)
        (x, y), h = drawn.ap_position_m[:2], drawn.ceiling_height_m
        with pytest.raises(ValueError, match="z must stay below H"):
            Scene(drawn.room_length_m, drawn.room_width_m, h, [x, y, h], drawn.ue_positions_m)
