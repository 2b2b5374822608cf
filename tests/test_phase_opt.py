import itertools

import numpy as np
import pytest
from channel_oracle import (
    reference_cascaded_gain,
    reference_effective_vector,
    reference_link_vectors,
    reference_path_length,
    reference_reflected_channel,
    reference_steering_phase_profile,
)
from phase_oracle import penalized_phase_update, price_update, reference_sgd_solve

from thzirs.channel import (
    Atmosphere,
    SubBand,
    absorption_coefficient,
    cascaded_gain,
    reflected_channel,
    water_vapor_mixing_ratio,
)
from thzirs.geometry import IrsPlacement, Scene, path_length, steering_phase_profile
from thzirs.phase_opt import (
    PhaseProblem,
    effective_vector,
    exact_values,
    sca_phase_optimize,
    sgd_solve,
    surrogate,
    surrogate_values,
)


def random_vectors(rng, k, n, scale=1.0):
    return scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))


def test_surrogate_minorizes_everywhere():
    rng = np.random.default_rng(17)
    for _ in range(300):
        k = rng.integers(1, 5)
        n = rng.integers(1, 9)
        vectors = random_vectors(rng, k, n)
        anchor = rng.uniform(0, 2 * np.pi, n)
        probe = rng.uniform(0, 2 * np.pi, n)
        surr = surrogate(vectors, anchor)
        lo = surrogate_values(surr, probe)
        hi = exact_values(vectors, probe)
        assert np.all(lo <= hi + 1e-10 * np.maximum(1.0, np.abs(hi)))


def test_surrogate_tight_at_anchor():
    rng = np.random.default_rng(18)
    for _ in range(100):
        vectors = random_vectors(rng, 3, 6)
        anchor = rng.uniform(0, 2 * np.pi, 6)
        surr = surrogate(vectors, anchor)
        np.testing.assert_allclose(
            surrogate_values(surr, anchor),
            exact_values(vectors, anchor),
            rtol=1e-10,
            atol=1e-12,
        )


def test_penalized_phase_update_closed_form():
    rng = np.random.default_rng(19)
    vectors = random_vectors(rng, 4, 8)
    anchor = rng.uniform(0, 2 * np.pi, 8)
    surr = surrogate(vectors, anchor)
    prices = rng.uniform(0.1, 2.0, 4)
    angles, flat = penalized_phase_update(surr, prices)
    assert not flat
    np.testing.assert_allclose(angles, -np.angle(2.0 * (prices @ surr.theta)))
    # entrywise optimality: no single-entry angle perturbation can raise the
    # priced objective
    phi = np.exp(1j * angles)
    base = prices @ (2.0 * np.real(surr.theta @ phi))
    for n in range(8):
        for delta in (0.05, -0.05):
            bumped = phi.copy()
            bumped[n] *= np.exp(1j * delta)
            assert prices @ (2.0 * np.real(surr.theta @ bumped)) <= base + 1e-12


def test_penalized_phase_update_flat_prices():
    rng = np.random.default_rng(20)
    surr = surrogate(random_vectors(rng, 2, 5), np.zeros(5))
    angles, flat = penalized_phase_update(surr, np.zeros(2))
    assert flat
    np.testing.assert_allclose(angles, np.zeros(5))
    with pytest.raises(ValueError):
        penalized_phase_update(surr, np.array([-1.0, 0.5]))


def test_price_update_projects_to_nonnegative():
    prices = np.array([0.5, 0.1, 2.0])
    slacks = np.array([10.0, -1.0, 0.0])
    out = price_update(prices, slacks, 0.2)
    np.testing.assert_allclose(out, [0.0, 0.3, 2.0])


def test_effective_vector_matched_phase_power():
    scene = Scene(8.0, 5.0, 3.0, [0.0, 0.0, 2.0], [[4.0, 6.0, 1.0]])
    placement = IrsPlacement(2.0, 3.0, 12, 0.005)
    mu = water_vapor_mixing_ratio(Atmosphere())
    band = SubBand(300e9, 50e9, 1e-20)
    k = absorption_coefficient(band.center_hz, mu)
    e = np.sqrt(0.7) * effective_vector([band], placement, scene, k)[0, 0]
    g = cascaded_gain(band.center_hz, path_length(placement, scene, 0), k)
    np.testing.assert_allclose(e[0], np.sqrt(0.7) * g, rtol=1e-12)
    np.testing.assert_allclose(np.abs(e), np.sqrt(0.7) * abs(g), rtol=1e-12)
    # aligning phi with the steering restores the coherent sum
    phi = np.exp(-1j * np.angle(e))
    np.testing.assert_allclose(abs(e @ phi) ** 2, 0.7 * 144 * abs(g) ** 2, rtol=1e-10)


def random_link_case(rng, u_count, i_count, n):
    """Random room, AP, UEs, array and band plan; the array need not fit the room."""
    length, width, height = rng.uniform(3.0, 12.0), rng.uniform(3.0, 8.0), rng.uniform(2.5, 4.0)
    ap = (rng.uniform(0, width), rng.uniform(0, length), rng.uniform(0.5, height))
    ues = np.column_stack([
        rng.uniform(0, width, u_count), rng.uniform(0, length, u_count), rng.uniform(0, height - 0.1, u_count)
    ])
    scene = Scene(length, width, height, ap, ues)
    placement = IrsPlacement(rng.uniform(0, width), rng.uniform(0, length), n, rng.uniform(1e-3, 1e-2))
    bands = [SubBand(rng.uniform(200e9, 400e9), 50e9, 1e-20) for _ in range(i_count)]
    absorb = absorption_coefficient([b.center_hz for b in bands], rng.uniform(0.0, 0.03))
    return scene, placement, bands, absorb


def test_link_rows_match_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(404)
    eps = np.finfo(float).eps
    for case in range(1000):
        u_count, i_count, n = 1 + case % 4, 1 + (case // 4) % 5, 1 + (case // 20) % 20
        scene, placement, bands, absorb = random_link_case(rng, u_count, i_count, n)
        rows = effective_vector(bands, placement, scene, absorb)
        assert rows.shape == (u_count, i_count, n)
        assert np.array_equal(rows, reference_link_vectors(scene, placement, bands, absorb)), case

        band, k = bands[0], float(absorb[0])
        for u in range(u_count):
            assert path_length(placement, scene, u) == reference_path_length(placement, scene, u)
            beta = steering_phase_profile(band.center_hz, placement, scene, u)
            assert np.array_equal(beta, reference_steering_phase_profile(band.center_hz, placement, scene, u))
            angles = rng.uniform(0, 2 * np.pi, n)
            h = reflected_channel(band, placement, angles, scene, u, k)
            # the channel is the solver's own link row applied to the phases
            assert h == reference_effective_vector(band, 1.0, placement, scene, u, k) @ np.exp(1j * angles)
            # and the gain times the summed element responses up to rounding
            # of the steering phase, which grows with its size
            g = abs(reference_cascaded_gain(band.center_hz, reference_path_length(placement, scene, u), k))
            bound = 4 * eps * n * g * (1 + np.max(np.abs(beta)))
            assert abs(h - reference_reflected_channel(band, placement, angles, scene, u, k)) <= bound


def test_cascaded_gain_broadcasts_like_the_scalar_form():
    f = np.array([210e9, 300e9, 390e9])
    d = np.array([[2.0], [7.5]])
    k = np.array([0.0, 0.01, 0.002])
    g = cascaded_gain(f, d, k)
    assert g.shape == (2, 3)
    for u in range(2):
        for i in range(3):
            assert g[u, i] == reference_cascaded_gain(f[i], d[u, 0], k[i])
    assert isinstance(cascaded_gain(300e9, 5.0, 0.01), complex)
    with pytest.raises(ValueError, match="path length"):
        cascaded_gain(f, np.array([[2.0], [0.0]]), k)
    with pytest.raises(ValueError, match="absorption"):
        cascaded_gain(f, d, np.array([0.0, np.nan, 0.0]))


def _ap_on_anchor():
    return Scene(8.0, 5.0, 3.0, [2.0, 3.0, 3.0], [[4.0, 6.0, 1.0]]), np.array([0.001])


def _ue_on_anchor():
    # a validated Scene keeps every UE below the ceiling, so this one skips
    # validation to reach the guard in the link-row construction
    scene = object.__new__(Scene)
    for name, value in (("room_length_m", 8.0), ("room_width_m", 5.0), ("ceiling_height_m", 3.0),
                        ("ap_position_m", np.array([0.0, 0.0, 2.0])),
                        ("ue_positions_m", np.array([[4.0, 6.0, 1.0], [2.0, 3.0, 3.0]]))):
        object.__setattr__(scene, name, value)
    return scene, np.array([0.001])


def _ue_at_infinity():
    return Scene(np.inf, 5.0, 3.0, [0.0, 0.0, 2.0], [[4.0, np.inf, 1.0]]), np.array([0.001])


def _nan_absorption():
    return Scene(8.0, 5.0, 3.0, [0.0, 0.0, 2.0], [[4.0, 6.0, 1.0]]), np.array([np.nan])


@pytest.mark.parametrize(
    "make, match",
    [
        (_ap_on_anchor, "coincides with the array anchor"),
        (_ue_on_anchor, "coincides with the array anchor"),
        (_ue_at_infinity, "path lengths must be finite"),
        (_nan_absorption, "absorption must be non-negative"),
    ],
    ids=["ap-on-anchor", "ue-on-anchor", "ue-at-infinity", "nan-absorption"],
)
def test_link_rows_reject_degenerate_geometry(make, match):
    scene, absorb = make()
    placement = IrsPlacement(2.0, 3.0, 4, 0.005)
    band = SubBand(300e9, 50e9, 1e-20)
    with pytest.raises(ValueError, match=match):
        effective_vector([band], placement, scene, absorb)
    with pytest.raises(ValueError, match=match):
        reflected_channel(band, placement, np.zeros(4), scene, 0, absorb[0])


def test_sgd_reaches_feasible_targets():
    rng = np.random.default_rng(23)
    for _ in range(40):
        k = rng.integers(1, 4)
        n = rng.integers(2, 7)
        vectors = random_vectors(rng, k, n)
        witness = rng.uniform(0, 2 * np.pi, n)
        targets = 0.8 * exact_values(vectors, witness)
        surr = surrogate(vectors, witness)
        res = sgd_solve(surr, targets)
        assert res.feasible
        assert res.min_slack >= -1e-6 * max(targets.max(), 1e-300)


def test_sgd_certifies_impossible_targets():
    rng = np.random.default_rng(24)
    vectors = random_vectors(rng, 2, 5)
    # above the coherent optimum of every phase profile
    impossible = 2.0 * np.sum(np.abs(vectors), axis=1) ** 2
    surr = surrogate(vectors, np.zeros(5))
    res = sgd_solve(surr, impossible)
    assert res.infeasible
    assert not res.feasible


def test_sgd_keeps_best_iterate_not_last():
    rng = np.random.default_rng(25)
    vectors = random_vectors(rng, 3, 6)
    witness = rng.uniform(0, 2 * np.pi, 6)
    targets = 0.9 * exact_values(vectors, witness)
    surr = surrogate(vectors, witness)
    res = sgd_solve(surr, targets, max_iters=200)
    returned = float(np.min(surrogate_values(surr, res.phases.angles) - targets))
    np.testing.assert_allclose(returned, res.min_slack, rtol=1e-12, atol=1e-15)


def test_sca_trace_is_monotone_and_feasible():
    rng = np.random.default_rng(26)
    for _ in range(30):
        k = rng.integers(1, 4)
        n = rng.integers(2, 8)
        vectors = random_vectors(rng, k, n)
        witness = rng.uniform(0, 2 * np.pi, n)
        targets = 0.7 * exact_values(vectors, witness)
        anchor = rng.uniform(0, 2 * np.pi, n)
        problem = PhaseProblem(vectors=vectors, targets=targets, anchor=anchor)
        res = sca_phase_optimize(problem)
        trace = np.asarray(res.slack_trace)
        assert np.all(np.diff(trace) >= -1e-12 * max(1.0, abs(trace[0])))
        # never worse than the anchor it started from
        anchor_slack = float(np.min(exact_values(vectors, anchor) - targets))
        assert res.min_slack >= anchor_slack - 1e-12


def test_sca_strictly_feasible_anchor_single_pass():
    rng = np.random.default_rng(27)
    vectors = random_vectors(rng, 2, 6)
    anchor = rng.uniform(0, 2 * np.pi, 6)
    targets = 0.5 * exact_values(vectors, anchor)
    problem = PhaseProblem(vectors=vectors, targets=targets, anchor=anchor)
    res = sca_phase_optimize(problem)
    assert res.converged
    assert res.outer_iterations == 1
    assert res.feasible


def test_phase_problem_validation():
    with pytest.raises(ValueError):
        PhaseProblem(vectors=np.ones((2, 3), dtype=complex), targets=np.ones(3), anchor=np.zeros(3))
    with pytest.raises(ValueError):
        PhaseProblem(vectors=np.ones((2, 3), dtype=complex), targets=np.ones(2), anchor=np.zeros(4))
    with pytest.raises(ValueError):
        PhaseProblem(vectors=np.ones((1, 3), dtype=complex), targets=[-1.0], anchor=np.zeros(3))
    with pytest.raises(ValueError, match="at least one target"):
        PhaseProblem(vectors=np.ones((0, 3), dtype=complex), targets=[], anchor=np.zeros(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PhaseProblem(vectors=np.ones((2, 3), dtype=complex), targets=[bad, 1.0], anchor=np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            PhaseProblem(vectors=np.full((1, 3), bad, dtype=complex), targets=[1.0], anchor=np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            PhaseProblem(vectors=np.ones((1, 3), dtype=complex), targets=[1.0], anchor=[0.0, bad, 0.0])


@pytest.mark.parametrize(
    "targets, init_prices, match",
    [
        ([np.nan, 0.1], None, "targets must be finite"),
        ([0.1, np.inf], None, "targets must be finite"),
        ([0.1, 0.1], [np.nan, 1.0], "finite, non-negative price"),
        ([0.1, 0.1], [1.0, np.inf], "finite, non-negative price"),
        ([], None, "one target per surrogate row"),
    ],
    ids=["nan-target", "inf-target", "nan-price", "inf-price", "empty"],
)
def test_sgd_rejects_non_finite_or_empty_problems(targets, init_prices, match):
    rng = np.random.default_rng(28)
    surr = surrogate(random_vectors(rng, 2, 4), np.zeros(4))
    with pytest.raises(ValueError, match=match):
        sgd_solve(surr, np.array(targets, dtype=float), init_prices=init_prices)


def test_sgd_matches_reference_bit_for_bit():
    """The inlined loop against the step-by-step oracle: same arithmetic in
    the same order, so every output must be exactly equal."""
    rng = np.random.default_rng(29)
    families = list(itertools.product(
        ("none", "zeros", "random"),          # init_prices
        (1, 50, 500),                         # max_iters
        ("feasible", "restore", "stall", "certified"),
        (1.0, 1e-6),                          # row scale: unit and THz-like
    ))
    seen = set()
    for case in range(8 * len(families)):
        init, max_iters, kind, scale = families[case % len(families)]
        k = 1 + case % 4
        n = 1 + (case // 4) % 20
        vectors = random_vectors(rng, k, n, scale)
        anchor = rng.uniform(0, 2 * np.pi, n)
        coherent = np.sum(np.abs(vectors), axis=1) ** 2
        if kind == "feasible":
            # the incumbent's own received powers, as the inner solve asks
            targets = exact_values(vectors, anchor)
        elif kind == "restore":
            witness = rng.uniform(0, 2 * np.pi, n)
            targets = 0.8 * exact_values(vectors, witness)
        elif kind == "stall":
            # rows that pull the phases apart, so the targets are often out
            # of reach together and the subgradient can stall out
            targets = rng.uniform(0.5, 1.3, k) * coherent / k
        else:
            targets = 2.0 * coherent + 1.0 * scale**2
        init_prices = {
            "none": None,
            "zeros": np.zeros(k),
            "random": rng.uniform(0.0, 2.0, k),
        }[init]
        surr = surrogate(vectors, anchor)
        got = sgd_solve(surr, targets, init_prices=init_prices, max_iters=max_iters)
        ref = reference_sgd_solve(surr, targets, init_prices=init_prices, max_iters=max_iters)

        assert np.array_equal(got.phases.angles, ref.phases.angles), case
        assert np.array_equal(got.prices, ref.prices), case
        assert got.iterations == ref.iterations, case
        assert got.min_slack == ref.min_slack, case
        for flag in ("converged", "feasible", "infeasible", "prices_collapsed"):
            assert getattr(got, flag) == getattr(ref, flag), (case, flag)
        seen.add(
            "collapsed" if ref.prices_collapsed
            else "converged" if ref.converged
            else "capped" if ref.iterations == max_iters
            else "stalled"
        )
        if kind == "certified":
            assert ref.infeasible, case
    # every way out of the loop was exercised
    assert seen == {"collapsed", "converged", "capped", "stalled"}
