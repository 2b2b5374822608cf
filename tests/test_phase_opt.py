import copy
import itertools
import math

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
from phase_oracle import (
    penalized_phase_update,
    price_update,
    reference_exact_values,
    reference_sca_phase_optimize,
    reference_sgd_solve,
    reference_surrogate,
    reference_surrogate_values,
)

from thzirs.channel import (
    Atmosphere,
    SubBand,
    absorption_coefficient,
    cascaded_gain,
    reflected_channel,
    water_vapor_mixing_ratio,
)
from thzirs import phase_opt
from thzirs.geometry import IrsPlacement, PhaseVector, Scene, path_length, steering_phase_profile
from thzirs.phase_opt import (
    _link_rows,
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


def test_batched_link_rows_match_each_placement_bit_for_bit():
    # a stack of P anchors shares one layout; row p is the single-placement
    # call at anchor p
    rng = np.random.default_rng(405)
    for case in range(200):
        u_count, i_count, n = 1 + case % 4, 1 + (case // 4) % 5, 1 + (case // 20) % 20
        scene, placement, bands, absorb = random_link_case(rng, u_count, i_count, n)
        xy = [(placement.x_m, placement.y_m)] + [
            (rng.uniform(0, scene.room_width_m), rng.uniform(0, scene.room_length_m))
            for _ in range(int(rng.integers(0, 5)))]
        anchors = np.array([(x, y, scene.ceiling_height_m) for x, y in xy])
        rows = _link_rows(bands, anchors, placement.offsets_m, scene, absorb)
        assert rows.shape == (len(xy), u_count, i_count, n)
        for p, (x, y) in enumerate(xy):
            point = IrsPlacement(x, y, n, placement.spacing_m)
            assert rows[p].tobytes() == effective_vector(bands, point, scene, absorb).tobytes()


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


def _unchecked_scene(ap, ues):
    """A scene built past ``Scene``'s validation, which keeps the AP and
    every UE below the ceiling, to reach the guard in the link rows."""
    scene = object.__new__(Scene)
    for name, value in (("room_length_m", 8.0), ("room_width_m", 5.0), ("ceiling_height_m", 3.0),
                        ("ap_position_m", np.array(ap)), ("ue_positions_m", np.array(ues))):
        object.__setattr__(scene, name, value)
    return scene, np.array([0.001])


def _ap_on_anchor():
    return _unchecked_scene([2.0, 3.0, 3.0], [[4.0, 6.0, 1.0]])


def _ue_on_anchor():
    return _unchecked_scene([0.0, 0.0, 2.0], [[4.0, 6.0, 1.0], [2.0, 3.0, 3.0]])


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
        slack = np.min(surrogate_values(surr, res.phases.angles) - targets)
        assert slack >= -1e-6 * max(targets.max(), 1e-300)


def test_sgd_certifies_impossible_targets():
    rng = np.random.default_rng(24)
    vectors = random_vectors(rng, 2, 5)
    # above the coherent optimum of every phase profile
    impossible = 2.0 * np.sum(np.abs(vectors), axis=1) ** 2
    surr = surrogate(vectors, np.zeros(5))
    res = sgd_solve(surr, impossible)
    assert not res.feasible
    assert np.all(exact_values(vectors, res.phases.angles) < impossible)


def test_sgd_keeps_best_iterate_not_last():
    rng = np.random.default_rng(25)
    vectors = random_vectors(rng, 3, 6)
    witness = rng.uniform(0, 2 * np.pi, 6)
    targets = 0.9 * exact_values(vectors, witness)
    surr = surrogate(vectors, witness)
    res = sgd_solve(surr, targets, max_iters=200)
    best = reference_sgd_solve(surr, targets, max_iters=200).min_slack
    returned = float(np.min(surrogate_values(surr, res.phases.angles) - targets))
    np.testing.assert_allclose(returned, best, rtol=1e-12, atol=1e-15)


def test_feasible_sgd_stalls_out_below_the_cap():
    # a strictly feasible start gives up STALL_LIMIT steps after its best
    # iterate, long before max_iters
    rng = np.random.default_rng(30)
    stalled = 0
    for _ in range(40):
        k, n = int(rng.integers(1, 5)), int(rng.integers(2, 21))
        vectors = random_vectors(rng, k, n)
        anchor = rng.uniform(0, 2 * np.pi, n)
        surr = surrogate(vectors, anchor)
        targets = 0.5 * exact_values(vectors, anchor)
        res = sgd_solve(surr, targets)
        ref = reference_sgd_solve(surr, targets)
        assert res.feasible
        if ref.converged or ref.prices_collapsed:
            continue
        assert res.iterations < 500
        # the best iterate came STALL_LIMIT steps before the exit, not earlier
        best_at = res.iterations - phase_opt.STALL_LIMIT
        assert np.array_equal(sgd_solve(surr, targets, max_iters=best_at).phases.angles,
                              res.phases.angles)
        assert not np.array_equal(sgd_solve(surr, targets, max_iters=best_at - 1).phases.angles,
                                  res.phases.angles)
        stalled += 1
    assert stalled >= 10


def test_sca_trace_is_monotone_and_feasible(monkeypatch):
    rng = np.random.default_rng(26)
    for _ in range(30):
        k = rng.integers(1, 4)
        n = rng.integers(2, 8)
        vectors = random_vectors(rng, k, n)
        witness = rng.uniform(0, 2 * np.pi, n)
        targets = 0.7 * exact_values(vectors, witness)
        anchor = rng.uniform(0, 2 * np.pi, n)
        res = sca_phase_optimize(vectors, targets, anchor)
        # the incumbent after each outer pass is the answer of a solve
        # capped at that many passes
        trace = [float(np.min(exact_values(vectors, anchor) - targets))]
        for cap in range(1, res.outer_iterations + 1):
            monkeypatch.setattr(phase_opt, "MAX_OUTER", cap)
            capped = sca_phase_optimize(vectors, targets, anchor).phases.angles
            trace.append(float(np.min(exact_values(vectors, capped) - targets)))
        monkeypatch.undo()
        assert np.array_equal(capped, res.phases.angles)
        # never worse than the anchor it started from
        assert np.all(np.diff(trace) >= -1e-12 * max(1.0, abs(trace[0])))


def test_sca_strictly_feasible_anchor_single_pass():
    rng = np.random.default_rng(27)
    vectors = random_vectors(rng, 2, 6)
    anchor = rng.uniform(0, 2 * np.pi, 6)
    targets = 0.5 * exact_values(vectors, anchor)
    res = sca_phase_optimize(vectors, targets, anchor)
    assert res.outer_iterations == 1
    assert np.min(exact_values(vectors, res.phases.angles) - targets) >= -1e-6 * targets.max()


def test_sca_input_validation():
    with pytest.raises(ValueError, match="one target per effective vector"):
        sca_phase_optimize(np.ones((2, 3), dtype=complex), np.ones(3), np.zeros(3))
    with pytest.raises(ValueError, match="anchor length must match vector width"):
        sca_phase_optimize(np.ones((2, 3), dtype=complex), np.ones(2), np.zeros(4))
    with pytest.raises(ValueError, match="targets must be non-negative"):
        sca_phase_optimize(np.ones((1, 3), dtype=complex), [-1.0], np.zeros(3))
    with pytest.raises(ValueError, match="at least one target"):
        sca_phase_optimize(np.ones((0, 3), dtype=complex), [], np.zeros(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="targets must be finite"):
            sca_phase_optimize(np.ones((2, 3), dtype=complex), [bad, 1.0], np.zeros(3))
        with pytest.raises(ValueError, match="effective vectors and anchor must be finite"):
            sca_phase_optimize(np.full((1, 3), bad, dtype=complex), [1.0], np.zeros(3))
        with pytest.raises(ValueError, match="effective vectors and anchor must be finite"):
            sca_phase_optimize(np.ones((1, 3), dtype=complex), [1.0], [0.0, bad, 0.0])


@pytest.mark.parametrize(
    "targets, match",
    [
        ([np.nan, 0.1], "targets must be finite"),
        ([0.1, np.inf], "targets must be finite"),
        ([], "one target per surrogate row"),
    ],
    ids=["nan-target", "inf-target", "empty"],
)
def test_sgd_rejects_non_finite_or_empty_problems(targets, match):
    rng = np.random.default_rng(28)
    surr = surrogate(random_vectors(rng, 2, 4), np.zeros(4))
    with pytest.raises(ValueError, match=match):
        sgd_solve(surr, np.array(targets, dtype=float))


def test_sgd_matches_reference_bit_for_bit():
    """The inlined loop against the step-by-step oracle: same arithmetic in
    the same order, so every output must be exactly equal."""
    rng = np.random.default_rng(29)
    families = list(itertools.product(
        (1, 50, 500),                         # max_iters
        ("feasible", "feasible stall", "restore", "stall", "certified", "flat"),
        (1.0, 1e-6),                          # row scale: unit and THz-like
    ))
    seen = set()
    feasible_stalls = 0
    for case in range(20 * len(families)):
        max_iters, kind, scale = families[case % len(families)]
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 21))
        vectors = random_vectors(rng, k, n, scale)
        anchor = rng.uniform(0, 2 * np.pi, n)
        coherent = np.sum(np.abs(vectors), axis=1) ** 2
        if kind == "flat":
            # nothing to restore from a profile matched to row 0, so the
            # first price step can zero every price and collapse the loop
            anchor = -np.angle(vectors[0])
            targets = np.zeros(k)
        elif kind == "feasible":
            # the incumbent's own received powers, as the inner solve asks
            targets = exact_values(vectors, anchor)
        elif kind == "feasible stall":
            # strictly inside at the anchor: nothing to restore, so the
            # solve ends when the best iterate stops improving
            targets = rng.uniform(0.5, 1.0, k) * exact_values(vectors, anchor)
        elif kind == "restore":
            witness = rng.uniform(0, 2 * np.pi, n)
            targets = 0.8 * exact_values(vectors, witness)
        elif kind == "stall":
            # rows that pull the phases apart, so the targets are often out
            # of reach together and the subgradient can stall out
            targets = rng.uniform(0.5, 1.3, k) * coherent / k
        else:
            targets = 2.0 * coherent + 1.0 * scale**2
        surr = surrogate(vectors, anchor)
        got = sgd_solve(surr, targets, max_iters=max_iters)
        ref = reference_sgd_solve(surr, targets, max_iters=max_iters)

        assert np.array_equal(got.phases.angles, ref.phases.angles), case
        assert got.iterations == ref.iterations, case
        for flag in ("converged", "feasible"):
            assert getattr(got, flag) == getattr(ref, flag), (case, flag)
        way_out = ("collapsed" if ref.prices_collapsed
                   else "converged" if ref.converged
                   else "capped" if ref.iterations == max_iters
                   else "stalled")
        seen.add(way_out)
        feasible_stalls += kind == "feasible stall" and way_out == "stalled" and got.feasible
        if kind == "certified":
            assert not got.feasible, case
    # every way out of the loop was exercised, a stall also from a feasible start
    assert seen == {"collapsed", "converged", "capped", "stalled"}
    assert feasible_stalls > 0


def test_np_dot_matches_matmul_on_phase_stage_shapes():
    """The phase stage swaps ``@`` for ``np.dot`` on the grounds that both
    run the same product.  Check that ground on this host's BLAS, at every
    shape the stage uses, so that a BLAS build breaking it fails here and
    not deep inside the oracle comparison."""
    rng = np.random.default_rng(31)
    for k, n, scale in itertools.product(range(1, 5), range(1, 21), (1.0, 1e-6)):
        v = np.empty(n, dtype=complex)
        w = np.empty(k, dtype=complex)
        for _ in range(25):
            theta2 = 2.0 * random_vectors(rng, k, n, scale)
            # prices as the loop keeps them: real, some at zero, imaginary +0.0
            prices = rng.uniform(0.0, 2.0, k) * (rng.uniform(size=k) < 0.8)
            cprices = np.ones(k, dtype=complex)
            cprices.real[:] = prices.tolist()
            assert not np.signbit(cprices.imag).any()
            ref = (prices @ theta2).tobytes()
            if k > 1:
                assert np.dot(cprices, theta2).tobytes() == ref, (k, n, scale)
            phase_opt._product(k)(cprices, theta2, out=v)
            assert v.tobytes() == ref, (k, n, scale)

            coeff = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            ref = (theta2 @ coeff).tobytes()
            if n > 1:
                assert np.dot(theta2, coeff).tobytes() == ref, (k, n, scale)
            # a length-1 operand is a scalar to np.dot, so _product keeps @ there
            phase_opt._product(n)(theta2, coeff, out=w)
            assert w.tobytes() == ref, (k, n, scale)


def _sgd_family(rng, kind, k, n, scale):
    """One SGD problem of the named family: (surrogate, targets)."""
    vectors = random_vectors(rng, k, n, scale)
    anchor = rng.uniform(0, 2 * np.pi, n)
    coherent = np.sum(np.abs(vectors), axis=1) ** 2
    if kind == "flat":
        # nothing to restore from a profile matched to row 0, so the first
        # price step can zero every price and collapse the loop
        anchor = -np.angle(vectors[0])
        targets = np.zeros(k)
    elif kind == "feasible":
        targets = exact_values(vectors, anchor)
    elif kind == "feasible stall":
        targets = rng.uniform(0.5, 1.0, k) * exact_values(vectors, anchor)
    elif kind == "restore":
        targets = 0.8 * exact_values(vectors, rng.uniform(0, 2 * np.pi, n))
    elif kind == "stall":
        targets = rng.uniform(0.5, 1.3, k) * coherent / k
    else:
        targets = 2.0 * coherent + 1.0 * scale**2
    return surrogate(vectors, anchor), targets


def test_pooled_sgd_matches_reference_bit_for_bit():
    """Problems of mixed K and N join the pool of their N at random steps
    and leave on their own exits; each must return the step-by-step
    oracle's result."""
    rng = np.random.default_rng(35)
    kinds = ("feasible", "feasible stall", "restore", "stall", "certified", "flat")
    problems = []
    for case in range(360):
        kind = kinds[case % len(kinds)]
        k, n = int(rng.integers(1, 5)), (1, 8, 20)[int(rng.integers(0, 3))]
        max_iters = (500, 500, 500, 60, 1)[case % 5]
        problems.append((*_sgd_family(rng, kind, k, n, (1.0, 1e-6)[case % 2]), max_iters))

    # a pool holds problems of one width
    pools = {n: phase_opt._SgdPool() for n in (1, 8, 20)}
    waiting, got, steps = list(range(len(problems))), {}, 0
    while len(got) < len(problems):
        for _ in range(int(rng.integers(0, 4))):
            if waiting:
                i = waiting.pop(0)
                pools[problems[i][0].theta.shape[1]].add(i, *problems[i])
        for pool in pools.values():
            for token, result in pool.step():
                assert token not in got
                got[token] = result
        steps += 1
    assert steps < 5000

    seen = set()
    for i, (surr, targets, max_iters) in enumerate(problems):
        ref = reference_sgd_solve(surr, targets, max_iters=max_iters)
        res = got[i]
        assert res.phases.angles.tobytes() == ref.phases.angles.tobytes(), i
        assert (res.iterations, res.converged, res.feasible) == (
            ref.iterations, ref.converged, ref.feasible), i
        # the pool's answer is the lone loop's too
        lone = sgd_solve(surr, targets, max_iters)
        assert lone.phases.angles.tobytes() == res.phases.angles.tobytes(), i
        start = float(np.min(reference_surrogate_values(surr, surr.anchor) - targets))
        feas_tol = 1e-6 * max(targets.max(), np.finfo(float).tiny)
        seen.add("collapsed" if ref.prices_collapsed
                 else "converged" if ref.converged
                 else "capped" if ref.iterations == max_iters
                 else "restored" if start < -feas_tol and ref.min_slack >= 0
                 else "stalled")
    assert seen == {"collapsed", "converged", "capped", "restored", "stalled"}


def _left_alone(pool):
    """A copy of ``pool`` whose ``finish`` leaves ``pool`` as it is:
    ``finish`` changes only the pool's row lists and reads its arrays."""
    twin = copy.copy(pool)
    for name in ("rows", "vacated", "joining"):
        setattr(twin, name, list(getattr(pool, name)))
    return twin


def test_a_problem_resumed_from_the_pool_matches_the_reference():
    """A problem alone in the pool leaves it after any tick, from before its
    first step to the one before its exit, and finishes alone with the
    step-by-step oracle's result: in ``sgd_solve`` before its first step,
    in the lone loop after.  Half the problems first share their pool with
    companions that exit early, two of them of other K, so the problem
    leaves from a regrouped row beside idle ones."""
    rng = np.random.default_rng(38)
    kinds = ("feasible", "feasible stall", "restore", "stall", "certified", "flat")
    seen, resumed = set(), 0
    for case, (k, n, kind) in enumerate(itertools.product(range(1, 5), (1, 8, 20), kinds)):
        max_iters = (500, 120, 30)[case % 3]
        surr, targets = _sgd_family(rng, kind, k, n, (1.0, 1e-6)[case % 2])
        ref = reference_sgd_solve(surr, targets, max_iters=max_iters)
        want = (ref.phases.angles.tobytes(), ref.converged, ref.feasible, ref.iterations)
        pool = phase_opt._SgdPool()
        pool.add("problem", surr, targets, max_iters)
        alone_from = 0
        if case % 2:
            for other_k, cap in ((k % 4 + 1, 1), (1, 3), (k, 2)):
                pool.add(cap, *_sgd_family(rng, "stall", other_k, n, 1.0), cap)
            alone_from = 3
        tick, result = 0, None
        while result is None:
            if tick >= alone_from:
                token, got = _left_alone(pool).finish()
                assert token == "problem"
                assert (got.phases.angles.tobytes(), got.converged, got.feasible,
                        got.iterations) == want, (case, tick)
                resumed += 1
            tick += 1
            for token, res in pool.step():
                if token == "problem":
                    result = res
        assert (result.phases.angles.tobytes(), result.converged, result.feasible,
                result.iterations) == want, case
        start = float(np.min(reference_surrogate_values(surr, surr.anchor) - targets))
        feas_tol = 1e-6 * max(targets.max(), np.finfo(float).tiny)
        seen.add("collapsed" if ref.prices_collapsed
                 else "converged" if ref.converged
                 else "capped" if ref.iterations == max_iters
                 else "restored" if start < -feas_tol and ref.min_slack >= 0
                 else "stalled")
    assert seen == {"collapsed", "converged", "capped", "restored", "stalled"}
    assert resumed > 1000


def test_problems_started_from_a_stage_match_sgd_solve():
    """Each SCA stage checks its input and computes the SGD constants once;
    every problem it yields starts from them, and from the anchor
    coefficients its surrogate keeps, as ``sgd_solve`` starts it alone."""
    rng = np.random.default_rng(39)
    problems = 0
    for case in range(120):
        k, n = int(rng.integers(1, 5)), (1, 4, 8, 20)[case % 4]
        vectors = random_vectors(rng, k, n, (1.0, 1e-6)[case % 2])
        anchor = rng.uniform(-7.0, 7.0, n)
        targets = (0.5, 0.9, 1.3)[case % 3] * exact_values(vectors, rng.uniform(-7.0, 7.0, n))
        steps = phase_opt._sca_steps(vectors, targets, anchor)
        reply = None
        while True:
            try:
                surr, stage_targets, constants = steps.send(reply)
            except StopIteration:
                break
            assert surr.coefficients.tobytes() == np.exp(1j * surr.anchor).tobytes()
            fresh = phase_opt._sgd_start(surr, stage_targets, constants)
            alone = phase_opt._sgd_start(surr, stage_targets)
            for got, want in zip(fresh, alone):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), case
            # the stage's tolerance is the problem's feasibility tolerance
            assert constants[3] == 1e-6 * max(float(np.max(targets)), np.finfo(float).tiny)
            pool = phase_opt._SgdPool()
            pool.add(0, surr, stage_targets, constants=constants)
            pooled = []
            while not pooled:
                pooled = pool.step()
            reply = sgd_solve(surr, stage_targets)
            assert pooled[0][1].phases.angles.tobytes() == reply.phases.angles.tobytes(), case
            assert pooled[0][1].iterations == reply.iterations, case
            problems += 1
    assert problems > 120


def test_sca_moves_by_the_phase_distance():
    # SCA's movement test reads the coefficients both surrogates keep
    rng = np.random.default_rng(40)
    for case in range(200):
        n = int(rng.integers(1, 21))
        a, b = rng.uniform(-7.0, 7.0, (2, n))
        if case % 5 == 0:
            b = a.copy()
        pa, pb = surrogate(random_vectors(rng, 2, n), a), surrogate(random_vectors(rng, 2, n), b)
        moved = float(np.linalg.norm(pb.coefficients - pa.coefficients))
        assert moved == PhaseVector(b).distance(pa.anchor), case


def test_a_joiner_of_another_k_takes_a_moved_row(monkeypatch):
    """Every problem that exits is followed by one of another K, so each
    joiner finds no free row of its K: it takes a free row moved to its K's
    block, and the batch regroups only where the rule allows, at its first
    step and once free rows outnumber live ones.  Every result is
    ``sgd_solve``'s bit for bit, and the blocks stay one per K."""
    rng = np.random.default_rng(41)
    regroups, moves, blocks = [], [], []
    regroup, move = phase_opt._SgdPool._regroup, phase_opt._SgdPool._move

    def counted_regroup(pool):
        free = sum(row is None for row in pool.rows) - len(pool.joining)
        regroups.append("build" if not pool.rows else
                        "compact" if 2 * free > len(pool.rows) else "other")
        regroup(pool)

    def counted_move(pool, r, k):
        moves.append(k)
        t = move(pool, r, k)
        blocks.append(len(pool.blocks) == len(set(pool.ks)))
        return t

    monkeypatch.setattr(phase_opt._SgdPool, "_regroup", counted_regroup)
    monkeypatch.setattr(phase_opt._SgdPool, "_move", counted_move)
    kinds = ("feasible", "feasible stall", "restore", "stall")
    problems, got, pool = [], {}, phase_opt._SgdPool()

    def add(k):
        problems.append((*_sgd_family(rng, kinds[len(problems) % 4], k, 8, 1.0), 120))
        pool.add(len(problems) - 1, *problems[-1])

    for k in (1, 2, 3, 4, 1, 2, 3, 4):
        add(k)
    while len(got) < len(problems):
        for token, result in pool.step():
            got[token] = result
            if len(problems) < 150:
                add(problems[token][0].theta.shape[0] % 4 + 1)
    assert len(moves) > 100 and all(blocks)
    # built at the first step, compacted only as the last problems drain
    assert regroups == ["build", "compact", "compact"]
    for i, (surr, targets, max_iters) in enumerate(problems):
        want = sgd_solve(surr, targets, max_iters)
        assert got[i].phases.angles.tobytes() == want.phases.angles.tobytes(), i
        assert (got[i].iterations, got[i].converged, got[i].feasible) == (
            want.iterations, want.converged, want.feasible), i


@pytest.mark.parametrize("targets, match", [
    ([np.nan, 0.1], "targets must be finite"),
    ([], "one target per surrogate row"),
    ([0.1, 0.1], "the pool holds problems of width 5, not 4"),
])
def test_pool_refuses_what_sgd_refuses(targets, match):
    rng = np.random.default_rng(36)
    pool = phase_opt._SgdPool()
    held = None
    if "width" in match:
        # the pool's width is its first problem's
        held = (surrogate(random_vectors(rng, 2, 5), np.zeros(5)), np.full(2, 0.1))
        pool.add("held", *held)
    surr = surrogate(random_vectors(rng, 2, 4), np.zeros(4))
    with pytest.raises(ValueError, match=match):
        pool.add(0, surr, np.array(targets, dtype=float))
    if held is not None:
        # the refused problem left the pool as it was
        done = []
        while not done:
            done = pool.step()
        (token, result), = done
        want = sgd_solve(*held)
        assert token == "held" and result.phases.angles.tobytes() == want.phases.angles.tobytes()


def test_stacked_products_match_the_lone_products():
    """The pool stacks the lone loop's products: (P, 1, K) @ (P, K, N) for
    the priced rows, (P, K, N) @ (P, N, 1) for the received amplitudes, both
    on slices of wider buffers, and the movement norm as a stacked product
    over the strided real and imaginary views.  Check on this host's BLAS
    that each slice keeps the bits of the lone loop's product."""
    rng = np.random.default_rng(37)
    for k_max, n, p in itertools.product(range(1, 5), (1, 8, 20), (1, 7, 64)):
        for k in range(1, k_max + 1):
            theta2 = 2.0 * random_vectors(rng, p * k, n).reshape(p, k, n)
            cprices = np.zeros((p, 1, k_max), dtype=complex)
            cprices.real[:, 0, :k] = rng.uniform(0.0, 2.0, (p, k)) * (rng.uniform(size=(p, k)) < 0.8)
            v = np.empty((p + 1, 1, n), dtype=complex)
            np.matmul(cprices[:, :, :k], theta2, out=v[1:])
            coeff = np.exp(1j * rng.uniform(-np.pi, np.pi, (p, 1, n)))
            w = np.zeros((p, k_max, 1), dtype=complex)
            np.matmul(theta2, coeff.transpose(0, 2, 1), out=w[:, :k])
            d = coeff - np.exp(1j * rng.uniform(-np.pi, np.pi, (p, 1, n)))
            moved = (np.matmul(d.real, d.real.transpose(0, 2, 1))
                     + np.matmul(d.imag, d.imag.transpose(0, 2, 1)))
            for r in range(p):
                prices = cprices.real[r, 0, :k].copy()
                want = np.empty(n, dtype=complex)
                phase_opt._product(k)(cprices[r, 0, :k].copy(), theta2[r], out=want)
                assert v[1 + r, 0].tobytes() == want.tobytes() == (prices @ theta2[r]).tobytes()
                want = np.empty(k, dtype=complex)
                phase_opt._product(n)(theta2[r], coeff[r, 0], out=want)
                assert w[r, :k, 0].tobytes() == want.tobytes(), (k, n, p)
                d_re, d_im = d[r, 0].real, d[r, 0].imag
                assert moved[r, 0, 0] == d_re.dot(d_re) + d_im.dot(d_im), (k, n, p)
    # the pool tests sqrt(moved) <= TOLERANCE as moved <= this limit
    limit = phase_opt._square_limit(phase_opt.TOLERANCE)
    assert math.sqrt(limit) <= phase_opt.TOLERANCE < math.sqrt(np.nextafter(limit, np.inf))


def test_sca_helpers_match_reference_bit_for_bit():
    rng = np.random.default_rng(32)
    for case in range(2000):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 21))
        vectors = random_vectors(rng, k, n, (1.0, 1e-6)[case % 2])
        anchor = rng.uniform(-7.0, 7.0, n)
        probe = rng.uniform(-7.0, 7.0, n)
        if case % 5 == 0:
            anchor[0], probe[-1] = 0.0, -0.0
        surr, ref = surrogate(vectors, anchor), reference_surrogate(vectors, anchor)
        for field in ("theta", "psi", "anchor", "vectors"):
            assert getattr(surr, field).tobytes() == getattr(ref, field).tobytes(), (case, field)
        for angles in (anchor, probe):
            assert surrogate_values(surr, angles).tobytes() == \
                reference_surrogate_values(ref, angles).tobytes(), case
            assert exact_values(vectors, angles).tobytes() == \
                reference_exact_values(vectors, angles).tobytes(), case


def test_sca_matches_reference_bit_for_bit(monkeypatch):
    """The SCA loop reads each profile's slack off the surrogate it builds
    there; the reference takes it from ``exact_values``.  Both must return
    the same phase bits after the same number of passes."""
    rng = np.random.default_rng(34)
    seen = {"strict": 0, "kept anchor": 0, "infeasible": 0, "several passes": 0, "capped": 0}
    for case in range(300):
        k, n = int(rng.integers(1, 5)), (1, 4, 8, 20)[int(rng.integers(0, 4))]
        vectors = random_vectors(rng, k, n, 10.0 ** rng.uniform(-9, 3))
        anchor = rng.uniform(-7.0, 7.0, n)
        family = case % 6
        if family == 0:
            # strictly inside at the anchor: the single-pass exit
            targets = 0.5 * exact_values(vectors, anchor)
        elif family == 1:
            # matched to row 0, which no other profile raises, at its own
            # value: SCA must hand back its anchor bit for bit
            anchor = -np.angle(vectors[0])
            targets = exact_values(vectors, anchor)
        elif family == 2:
            # above every profile's reach
            targets = 1.5 * np.sum(np.abs(vectors), axis=1) ** 2
        elif family == 3:
            # near the coherent ceiling
            targets = 0.99 * np.sum(np.abs(vectors), axis=1) ** 2
        else:
            targets = (0.7, 1.2)[family - 4] * exact_values(vectors, rng.uniform(-7.0, 7.0, n))
        cap = (None, None, None, 1, 2)[(case // 6) % 5]
        if cap is not None:
            monkeypatch.setattr(phase_opt, "MAX_OUTER", cap)
        got = sca_phase_optimize(vectors, targets, anchor)
        ref = reference_sca_phase_optimize(vectors, targets, anchor)
        monkeypatch.undo()
        assert got.phases.angles.tobytes() == ref.phases.angles.tobytes(), case
        assert got.outer_iterations == ref.outer_iterations, case
        start = float(np.min(exact_values(vectors, anchor) - targets))
        if family == 0:
            seen["strict"] += start > 1e-6 * targets.max() and got.outer_iterations == 1
        elif family == 1:
            seen["kept anchor"] += got.phases.angles.tobytes() == anchor.tobytes()
        elif family == 2:
            seen["infeasible"] += start < 0
        seen["several passes"] += got.outer_iterations > 1
        seen["capped"] += got.outer_iterations == cap
    assert seen["strict"] == seen["kept anchor"] == seen["infeasible"] == 50, seen
    assert seen["several passes"] >= 30 and seen["capped"] >= 10, seen


class _OutRecorder:
    """Stands in for numpy inside ``phase_opt`` and keeps every ``out=`` array."""

    def __init__(self):
        self.outs = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def call(*args, **kwargs):
            if kwargs.get("out") is not None:
                self.outs.append(kwargs["out"])
            return attr(*args, **kwargs)
        return call


def test_phase_stage_leaves_inputs_untouched_and_returns_fresh_phases(monkeypatch):
    rng = np.random.default_rng(33)
    for case in range(40):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 21))
        vectors = random_vectors(rng, k, n, 1e-6)
        anchor = rng.uniform(0, 2 * np.pi, n)
        if case % 4 == 3:
            # a matched profile nothing improves on, so SCA keeps its anchor
            anchor = -np.angle(vectors[0])
            targets = exact_values(vectors, anchor)
        else:
            targets = (0.5, 0.9, 1.5)[case % 4] * exact_values(vectors, rng.uniform(0, 2 * np.pi, n))
        surr = surrogate(vectors, anchor)
        assert not np.shares_memory(surr.anchor, anchor)
        inputs = {"surr.theta": surr.theta, "surr.psi": surr.psi, "surr.anchor": surr.anchor,
                  "surr.vectors": surr.vectors, "targets": targets,
                  "anchor": anchor, "vectors": vectors}
        before = {name: arr.tobytes() for name, arr in inputs.items()}

        recorder = _OutRecorder()
        monkeypatch.setattr(phase_opt, "np", recorder)
        first = sgd_solve(surr, targets).phases.angles
        second = sgd_solve(surr, targets).phases.angles
        sca_first = sca_phase_optimize(vectors, targets, anchor).phases.angles
        sca_second = sca_phase_optimize(vectors, targets, anchor).phases.angles
        monkeypatch.undo()

        for name, arr in inputs.items():
            assert arr.tobytes() == before[name], (case, name)
        for got, again in ((first, second), (sca_first, sca_second)):
            assert np.array_equal(got, again), case
            assert not np.shares_memory(got, again), case
            for name, arr in inputs.items():
                assert not np.shares_memory(got, arr), (case, name)
            for buf in recorder.outs:
                assert not np.shares_memory(got, buf), case
        assert recorder.outs, "no out= buffer was recorded"
