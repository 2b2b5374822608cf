import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzirs import allocation, bcs, phase_opt
from thzirs.bcs import (
    Solution,
    admissible_y_span,
    baseline_mini_dis,
    baseline_ran_loc,
    baseline_ran_phi,
    bcs_solve,
    candidate_grid,
    inner_solve,
)
from thzirs.allocation import _snr_per_watt, _SnrOverflow, solve_allocation
from thzirs.channel import (
    SPEED_OF_LIGHT,
    SubBand,
    _band_absorption,
    _path_amplitude,
    absorption_coefficient,
    cascaded_gain,
)
from thzirs.config import ExperimentConfig
from thzirs.experiment import draw_ue_positions, resolve_bands, run_single
from thzirs.geometry import IrsPlacement, PhaseVector, Scene, _two_hop, path_length
from thzirs.phase_opt import (
    effective_vector,
    exact_values,
    sca_phase_optimize,
    sgd_solve,
    surrogate_values,
)
from thzirs.rng import SplitMix64

import search_oracle
from search_oracle import (
    MAX_REPAIRS,
    ceiling_bound,
    frozen_sweep_ran_phi,
    full_sweep_bcs,
    lattice_placements,
    reference_inner_solve,
    reference_repair_feasibility,
    reference_start_phases,
)

MU = 0.013869106058060476  # 23 C, 1013.25 hPa, 50 % RH


def make_scene(ue_xy, room=(8.0, 5.0, 3.0)):
    ues = [(x, y, 1.0) for x, y in ue_xy]
    return Scene(
        room_length_m=room[0],
        room_width_m=room[1],
        ceiling_height_m=room[2],
        ap_position_m=(0.0, 0.0, 2.0),
        ue_positions_m=ues,
    )


def make_bands(centers_ghz, width_ghz=50.0, psd=3.981071705534986e-21):
    return [
        SubBand(center_hz=c * 1e9, bandwidth_hz=width_ghz * 1e9, noise_psd_w_per_hz=psd)
        for c in centers_ghz
    ]


def random_scene(rng, u_count, room=(8.0, 5.0, 3.0)):
    xy = [
        (float(rng.uniform(0.5, room[1] - 0.5)), float(rng.uniform(0.5, room[0] - 0.5)))
        for _ in range(u_count)
    ]
    return make_scene(xy, room)


def assert_zero_verdict(sol):
    """An infeasible point: nothing assigned, one round, an empty trace."""
    assert sol.winners.dtype.kind == "i" and np.all(sol.winners == 0)
    assert np.all(sol.powers == 0.0) and np.all(sol.rates == 0.0)
    assert sol.converged
    assert sol.rounds == 1
    assert sol.rate_trace == []


def test_single_ue_single_band_closed_form():
    scene = make_scene([(4.0, 6.0)])
    band = make_bands([300.0])[0]
    placement = IrsPlacement(2.0, 3.0, 8, 0.005)
    sol = inner_solve(scene, placement, [band], 1.0, 0.0, MU)
    assert sol.feasible
    d = path_length(placement, scene, 0)
    k = float(absorption_coefficient(band.center_hz, MU))
    g2 = abs(cascaded_gain(band.center_hz, d, k)) ** 2
    expect = band.bandwidth_hz * np.log2(1.0 + 64.0 * g2 / band.noise_power_w)
    np.testing.assert_allclose(sol.sum_rate_bps, expect, rtol=1e-9)
    np.testing.assert_allclose(float(sol.powers.sum()), 1.0, rtol=1e-12)


def test_trace_monotone_on_random_two_ue_instances():
    rng = np.random.default_rng(7)
    for _ in range(6):
        scene = random_scene(rng, 2)
        bands = make_bands([225.0, 275.0, 334.8])
        placement = IrsPlacement(
            float(rng.uniform(0.5, 4.5)), float(rng.uniform(0.5, 4.0)), 8, 0.005
        )
        sol = inner_solve(scene, placement, bands, 1.0, 1e9, MU)
        if not sol.feasible:
            continue
        trace = np.asarray(sol.rate_trace)
        assert trace.size >= 1
        drops = np.diff(trace)
        assert np.all(drops >= -1e-9 * np.maximum(trace[:-1], 1.0))


def test_inner_converges_and_flags_it():
    scene = make_scene([(1.0, 2.0), (4.0, 6.5)])
    bands = make_bands([225.0, 275.0])
    sol = inner_solve(scene, IrsPlacement(2.5, 3.0, 8, 0.005), bands, 1.0, 0.0, MU)
    assert sol.feasible and sol.converged
    assert sol.rounds <= 30
    assert sol.sum_rate_bps == pytest.approx(float(np.sum(sol.rates)), rel=1e-12)


def test_inner_solve_ends_on_an_allocation_with_no_power(monkeypatch):
    # UEs tens of km down a humid hall, on bands beside the 380 GHz water
    # line: 1/kappa is past 1e200 W, so the whole 1 W budget rounds away
    # against it (or the gain underflows to zero).  With no rate floors the
    # exact allocation is then feasible with every power at zero, which
    # leaves the phase stage no link to restore: its rows would be empty.
    def no_phase_stage(vectors, targets, anchor):
        raise AssertionError("phase stage called with nothing to restore")

    monkeypatch.setattr(bcs, "sca_phase_optimize", no_phase_stage)
    rng = np.random.default_rng(14)
    bands = make_bands([375.0, 385.0], width_ghz=10.0)
    for _ in range(4):
        hall = float(rng.uniform(2e4, 6e4))
        ues = [(float(rng.uniform(0.5, 4.5)), hall - float(rng.uniform(1.0, 10.0)))
               for _ in range(int(rng.integers(1, 3)))]
        scene = make_scene(ues, room=(hall, 5.0, 3.0))
        sol = inner_solve(scene, IrsPlacement(2.0, 3.0, 4, 0.005), bands, 1.0, 0.0, MU)
        assert sol.feasible and sol.converged
        assert np.all(sol.powers == 0.0) and np.all(sol.rates == 0.0)
        assert sol.rounds == 1 and sol.rate_trace == [0.0]
        assert sol.validate(scene, bands, 1.0, 0.0, MU) == 0.0


def test_phase_stage_repairs_a_bad_start(monkeypatch):
    # floor needs most of the coherent gain, so a deliberately scrambled
    # profile starts infeasible and only phase restoration can save it
    scene = make_scene([(4.0, 6.0)])
    band = make_bands([300.0])[0]
    placement = IrsPlacement(2.0, 3.0, 8, 0.005)
    matched = inner_solve(scene, placement, [band], 1.0, 0.0, MU)
    floor = 0.8 * matched.sum_rate_bps
    bad = PhaseVector(np.linspace(0.3, 5.9, 8))

    # a given profile is frozen, so nothing repairs it
    frozen = inner_solve(scene, placement, [band], 1.0, floor, MU, phases=bad)
    assert not frozen.feasible and frozen.sum_rate_bps == 0.0
    assert_zero_verdict(frozen)

    # the same profile as the solver's own start is repaired
    monkeypatch.setattr(bcs, "PhaseVector", lambda angles: bad)
    repaired = inner_solve(scene, placement, [band], 1.0, floor, MU)
    assert repaired.feasible
    assert float(repaired.rates[0]) >= floor * (1 - 1e-9)


def test_candidate_grid_count_and_bounds():
    scene = make_scene([(2.0, 2.0)])
    for dx, dy, n in [(0.25, 0.25, 8), (0.5, 1.0, 20), (2.0, 2.0, 8)]:
        pts = candidate_grid(scene, n, 0.005, dx, dy)
        y_hi = admissible_y_span(scene, n, 0.005)
        nx, ny = int(np.floor(5.0 / dx)), int(np.floor(y_hi / dy))
        assert pts.shape == (nx * ny, 2)
        xs, ys = pts[:, 0], pts[:, 1]
        assert np.all((xs > 0) & (xs <= 5.0))
        assert np.all((ys > 0) & (ys + (n - 1) * 0.005 <= 8.0))
        # bit for bit the (x, y) pairs of the two step ladders, x-major
        pairs = [(float(x), float(y)) for x in dx * np.arange(1, nx + 1)
                 for y in dy * np.arange(1, ny + 1)]
        assert [(x.hex(), y.hex()) for x, y in pts.tolist()] == [
            (x.hex(), y.hex()) for x, y in pairs]
    # a room narrower than one step, along either axis, holds no point
    assert candidate_grid(scene, 8, 0.005, 6.0, 0.25).shape == (0, 2)
    assert candidate_grid(scene, 8, 0.005, 0.25, 9.0).shape == (0, 2)


def test_bcs_reports_grid_work_and_dominates_minidis():
    rng = np.random.default_rng(11)
    bands = make_bands([225.0, 275.0])
    for _ in range(3):
        scene = random_scene(rng, 2)
        res = bcs_solve(scene, bands, 8, 0.005, 1.0, 1e9, MU,
                        grid_step_x=1.0, grid_step_y=1.0)
        mini = baseline_mini_dis(scene, bands, 8, 0.005, 1.0, 1e9, MU)
        # only the lattice points the bound leaves open are inner-solved; the
        # full sweep's answer is checked against tests/search_oracle.py below
        assert res.points_evaluated <= len(candidate_grid(scene, 8, 0.005, 1.0, 1.0))
        assert len(res.best_trace) == res.points_evaluated + 1
        if mini.feasible:
            assert res.solution.feasible
            assert res.solution.sum_rate_bps >= mini.sum_rate_bps * (1 - 1e-9)
        # the cumulative best never decreases along the visit order
        trace = np.asarray(res.best_trace)
        assert np.all(np.diff(trace) >= 0)


def test_finer_grid_never_loses():
    scene = make_scene([(1.5, 1.0), (3.5, 3.5)], room=(4.0, 4.0, 3.0))
    bands = make_bands([225.0, 275.0])
    coarse = bcs_solve(scene, bands, 8, 0.005, 1.0, 0.0, MU,
                       grid_step_x=2.0, grid_step_y=2.0)
    fine = bcs_solve(scene, bands, 8, 0.005, 1.0, 0.0, MU,
                     grid_step_x=1.0, grid_step_y=1.0)
    assert fine.solution.sum_rate_bps >= coarse.solution.sum_rate_bps * (1 - 1e-12)


def test_impossible_floor_returns_zero_sentinel():
    scene = make_scene([(2.0, 3.0), (4.0, 6.0)])
    bands = make_bands([225.0, 275.0])
    res = bcs_solve(scene, bands, 8, 0.005, 1.0, 1e13, MU,
                    grid_step_x=2.0, grid_step_y=2.0)
    assert not res.solution.feasible
    assert res.solution.sum_rate_bps == 0.0
    assert np.all(np.asarray(res.best_trace) == 0.0)
    assert res.solution.validate(scene, bands, 1.0, 1e13, MU) == 0.0
    # these fields go into report.json as they are
    assert_zero_verdict(res.solution)


def test_random_baselines_are_seed_deterministic():
    scene = make_scene([(1.0, 2.0), (4.0, 6.5)])
    bands = make_bands([225.0, 275.0])
    args = (scene, bands, 8, 0.005, 1.0, 1e9, MU)
    a = baseline_ran_loc(*args, rng=SplitMix64(99))
    b = baseline_ran_loc(*args, rng=SplitMix64(99))
    c = baseline_ran_loc(*args, rng=SplitMix64(100))
    assert a.placement == b.placement
    assert a.sum_rate_bps == b.sum_rate_bps
    assert c.placement != a.placement

    p = baseline_ran_phi(*args, rng=SplitMix64(99), grid_step_x=2.0, grid_step_y=2.0)
    q = baseline_ran_phi(*args, rng=SplitMix64(99), grid_step_x=2.0, grid_step_y=2.0)
    assert p.solution.sum_rate_bps == q.solution.sum_rate_bps
    np.testing.assert_array_equal(p.solution.phases.angles, q.solution.phases.angles)


def test_single_element_phase_is_irrelevant():
    # with one element the received power ignores the phase, so the frozen
    # random profile matches a fully optimized sweep of the same lattice
    scene = make_scene([(2.0, 3.0)])
    bands = make_bands([275.0])
    ranphi = baseline_ran_phi(scene, bands, 1, 0.005, 1.0, 0.0, MU,
                              rng=SplitMix64(5), grid_step_x=1.0, grid_step_y=1.0)
    per_point = [
        inner_solve(scene, IrsPlacement(x, y, 1, 0.005), bands, 1.0, 0.0, MU)
        for x, y in candidate_grid(scene, 1, 0.005, 1.0, 1.0)
    ]
    best = max(s.sum_rate_bps for s in per_point)
    np.testing.assert_allclose(ranphi.solution.sum_rate_bps, best, rtol=1e-12)


def test_ran_phi_without_lattice_points_takes_the_min_distance_point():
    scene = make_scene([(0.5, 0.5)], room=(1.0, 1.0, 3.0))
    bands = make_bands([300.0])
    res = baseline_ran_phi(scene, bands, 4, 0.005, 1.0, 0.0, MU, SplitMix64(3),
                           grid_step_x=2.0, grid_step_y=2.0)
    mini = baseline_mini_dis(scene, bands, 4, 0.005, 1.0, 0.0, MU)
    assert res.points_evaluated == 1
    assert res.solution.placement == mini.placement
    res.solution.validate(scene, bands, 1.0, 0.0, MU)


def test_validate_catches_tampering():
    scene = make_scene([(1.0, 2.0), (4.0, 6.5)])
    bands = make_bands([225.0, 275.0])
    sol = baseline_mini_dis(scene, bands, 8, 0.005, 1.0, 1e9, MU)
    assert sol.feasible
    sol.validate(scene, bands, 1.0, 1e9, MU)

    bumped = Solution(**{**sol.__dict__, "sum_rate_bps": sol.sum_rate_bps * 1.01})
    with pytest.raises(ValueError):
        bumped.validate(scene, bands, 1.0, 1e9, MU)

    hot = Solution(**{**sol.__dict__, "powers": sol.powers * 1.5})
    with pytest.raises(ValueError):
        hot.validate(scene, bands, 1.0, 1e9, MU)

    crossed = Solution(**{**sol.__dict__, "winners": sol.winners * 0 + 9})
    with pytest.raises(ValueError):
        crossed.validate(scene, bands, 1.0, 1e9, MU)

    ghost = Solution(**{**sol.__dict__, "feasible": False})
    with pytest.raises(ValueError):
        ghost.validate(scene, bands, 1.0, 1e9, MU)

    # an infeasible verdict assigns nothing and spends nothing
    verdict = {**sol.__dict__, "feasible": False, "winners": np.zeros(2, dtype=int),
               "powers": np.zeros(2), "rates": np.zeros(2), "sum_rate_bps": 0.0}
    assert Solution(**verdict).validate(scene, bands, 1.0, 1e9, MU) == 0.0
    spent = Solution(**{**verdict, "winners": np.array([1, 1]), "powers": np.array([0.5, 0.5])})
    with pytest.raises(ValueError, match="infeasible solution"):
        spent.validate(scene, bands, 1.0, 1e9, MU)

    # a NaN fails every comparison, so none may let a stored figure through
    nan = float("nan")
    for tamper in ({"rates": sol.rates * nan, "sum_rate_bps": nan},
                   {"sum_rate_bps": nan},
                   {"powers": np.array([nan, sol.powers[1]])},
                   {"rates": np.array([sol.rates[0], np.inf])},
                   {**verdict, "sum_rate_bps": nan}):
        with pytest.raises(ValueError, match="must be finite"):
            Solution(**{**sol.__dict__, **tamper}).validate(scene, bands, 1.0, 1e9, MU)
    for p_max, rate_floor in ((nan, 1e9), (1.0, [1e9, nan])):
        with pytest.raises(ValueError):
            sol.validate(scene, bands, p_max, rate_floor, MU)


@pytest.mark.parametrize("floors, match", [
    (np.nan, "rate requirements must be numbers"),
    ([0.0, np.nan], "rate requirements must be numbers"),
    (-5.0, "rate requirements must be non-negative"),
    ([1e9, -1.0], "rate requirements must be non-negative"),
    ([0.0, 0.0, 0.0], r"need one rate requirement or one per UE, got shape \(3,\)"),
    ([[0.0, 0.0]], r"need one rate requirement or one per UE, got shape \(1, 2\)"),
])
def test_rate_floors_are_refused_alike_by_validate_and_inner_solve(floors, match):
    # the floors pass through one normaliser wherever they are read, so a
    # stored answer never validates against floors the allocation refuses
    scene = make_scene([(1.0, 2.0), (4.0, 6.5)])
    bands = make_bands([225.0, 275.0])
    sol = inner_solve(scene, IrsPlacement(2.5, 3.0, 8, 0.005), bands, 1.0, 0.0, MU)
    assert sol.feasible
    with pytest.raises(ValueError, match=match):
        sol.validate(scene, bands, 1.0, floors, MU)
    with pytest.raises(ValueError, match=match):
        inner_solve(scene, IrsPlacement(2.5, 3.0, 8, 0.005), bands, 1.0, floors, MU)
    with pytest.raises(ValueError, match=match):
        solve_allocation(np.ones((2, 2)), bands, 1.0, floors)


def test_grid_rejects_bad_steps_and_oversized_array():
    scene = make_scene([(2.0, 2.0)])
    with pytest.raises(ValueError):
        candidate_grid(scene, 8, 0.005, 0.0, 0.25)
    with pytest.raises(ValueError):
        candidate_grid(scene, 8, 0.005, 0.25, -1.0)
    with pytest.raises(ValueError):
        admissible_y_span(scene, 20000, 0.005)


def test_every_search_inner_solves_each_position_once(monkeypatch):
    # the benchmark counts positions as inner solves, so no search may repeat
    # one or inner-solve a point it does not count; bcs counts the lattice
    # points it inner-solves, ranphi scores the lattice in one batched pass
    # and inner-solves only its winner
    scene = make_scene([(1.0, 2.0), (4.0, 6.5)])
    bands = make_bands([225.0, 275.0])
    args = (scene, bands, 8, 0.005, 1.0, 1e9, MU)
    calls = []
    original = bcs.inner_solve

    def counted(*a, **kw):
        calls.append(a[1])
        return original(*a, **kw)

    monkeypatch.setattr(bcs, "inner_solve", counted)
    searches = {
        "bcs": (lambda: bcs_solve(*args, grid_step_x=2.0, grid_step_y=2.0),
                lambda res: res.points_evaluated + 1),
        "minidis": (lambda: baseline_mini_dis(*args), lambda res: 1),
        "ranloc": (lambda: baseline_ran_loc(*args, rng=SplitMix64(4)), lambda res: 1),
        "ranphi": (lambda: baseline_ran_phi(*args, rng=SplitMix64(4),
                                            grid_step_x=2.0, grid_step_y=2.0),
                   lambda res: res.points_evaluated),
    }
    for name, (search, expected) in searches.items():
        calls.clear()
        positions = expected(search())
        assert len(calls) == positions, name
        assert len(set(calls)) == positions, name
        if name == "ranphi":
            assert positions == 1


def test_only_solved_points_get_a_placement(monkeypatch):
    # the lattice travels as an anchor array: a search builds one placement
    # for each point it inner-solves, counted or solved ahead, and for no other
    built, solved, started = [], [], []

    class Counted(IrsPlacement):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    original, steps = bcs.inner_solve, bcs._inner_steps

    def recorded(scene, placement, *args, **kwargs):
        solved.append(placement)
        return original(scene, placement, *args, **kwargs)

    def begun(scene, placement, *args):
        started.append(placement)
        return steps(scene, placement, *args)

    monkeypatch.setattr(bcs, "IrsPlacement", Counted)
    monkeypatch.setattr(bcs, "inner_solve", recorded)
    monkeypatch.setattr(bcs, "_inner_steps", begun)
    # all defaults: 620 lattice points scored, the winner's placement alone built
    winner = run_single(ExperimentConfig(), "ranphi", 7)
    assert built == solved == started == [winner.placement]
    assert built[0] is winner.placement

    scene, n, floor = small_case(6)
    monkeypatch.setattr(bcs, "LOOKAHEAD_MIN_OPEN", 0)
    for lookahead, solved_ahead in ((1, 0), (bcs.LOOKAHEAD_POINTS, 7)):
        monkeypatch.setattr(bcs, "LOOKAHEAD_POINTS", lookahead)
        built.clear()
        solved.clear()
        started.clear()
        res = bcs_solve(scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5)
        # the min-distance anchor, then one per lattice point the search
        # counts, and one per point it solved ahead and dropped
        assert len(solved) == res.points_evaluated + 1
        assert len(built) == len(started) == len(set(built))
        assert all(a is b for a, b in zip(built, started))
        assert all(any(a is b for b in built) for a in solved)
        assert len(started) - len(solved) == solved_ahead
        assert res.points_evaluated < len(candidate_grid(scene, n, 0.005, 0.5, 0.5))


def assert_same_bits(got, want):
    """Two solutions agree bit for bit in every field a report stores."""
    assert got.placement == want.placement
    for name in ("winners", "powers", "rates"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.phases.angles.tobytes() == want.phases.angles.tobytes()
    assert got.sum_rate_bps.hex() == want.sum_rate_bps.hex()
    assert (got.feasible, got.converged, got.rounds) == (want.feasible, want.converged,
                                                         want.rounds)
    assert [r.hex() for r in got.rate_trace] == [r.hex() for r in want.rate_trace]


SMALL_BANDS = make_bands([225.0, 275.0, 305.0])


def small_case(seed):
    """Random 4 m x 3 m room with U = 1..4 UEs and N in {1, 4, 8} elements.

    Its floor is drawn log-uniformly across the range where lattice points
    start to miss it, so some seeds mix feasible and infeasible points.
    """
    rng = np.random.default_rng(seed)
    u_count = int(rng.integers(1, 5))
    n = int((1, 4, 8)[rng.integers(0, 3)])
    floor = float(10 ** rng.uniform(9.5, 11.7))
    ues = [(float(rng.uniform(0.25, 2.75)), float(rng.uniform(0.25, 3.75)), 1.0)
           for _ in range(u_count)]
    return Scene(4.0, 3.0, 3.0, (0.0, 0.0, 2.0), ues), n, floor


def _count_calls(monkeypatch, *names):
    """Count the calls of ``names`` from the library search and from its
    oracle, each module's calls of the names it holds."""
    calls = {"library": 0, "reference": 0}
    for module, key in ((bcs, "library"), (search_oracle, "reference")):
        for name in names:
            if not hasattr(module, name):
                continue

            def counted(*args, _original=getattr(module, name), _key=key, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def test_one_repair_pass_loses_no_rescue(monkeypatch):
    # the repair makes one phase-stage pass; the reference makes up to
    # MAX_REPAIRS, and no later pass of it meets floors the first one missed
    calls = _count_calls(monkeypatch, "sca_phase_optimize")
    # whether each reference pass returned its own anchor
    reference_passes = []

    def logged(rows, targets, anchor, _original=search_oracle.sca_phase_optimize):
        result = _original(rows, targets, anchor)
        reference_passes.append(result.phases.angles.tobytes() == anchor.tobytes())
        return result

    monkeypatch.setattr(search_oracle, "sca_phase_optimize", logged)
    absorb = _band_absorption(tuple(b.center_hz for b in SMALL_BANDS), MU)
    repairs = agreed = 0
    for seed in range(60):
        scene, n, floor = small_case(seed)
        placement = lattice_placements(scene, n, 0.005, 1.0, 1.0)[0]
        rate_req = np.full(scene.ue_count, floor)
        vectors = effective_vector(SMALL_BANDS, placement, scene, absorb)
        phases = reference_start_phases(scene, placement, SMALL_BANDS, rate_req)
        gains = np.abs(vectors @ phases.coefficients) ** 2
        if solve_allocation(gains, SMALL_BANDS, 1.0, rate_req).feasible:
            continue
        calls.update(library=0)
        reference_passes.clear()
        plan = allocation._BandPlan(SMALL_BANDS, 1.0, rate_req, scene.ue_count)
        repaired = bcs.sca_phase_optimize(*bcs._repair_request(vectors, phases, plan)).phases
        repaired_gains = np.abs(vectors @ repaired.coefficients) ** 2
        got = (repaired, repaired_gains,
               solve_allocation(repaired_gains, SMALL_BANDS, 1.0, rate_req))
        want = reference_repair_feasibility(vectors, phases, SMALL_BANDS, 1.0, rate_req)
        assert calls["library"] == 1, seed
        same = (got[0].angles.tobytes() == want[0].angles.tobytes()
                and got[1].tobytes() == want[1].tobytes()
                and all(getattr(got[2], name).tobytes() == getattr(want[2], name).tobytes()
                        for name in ("winners", "powers", "rates"))
                and (got[2].objective, got[2].feasible, got[2].candidates_tried) == (
                    want[2].objective, want[2].feasible, want[2].candidates_tried))
        # a pass that returns its own anchor repeats the one before, so a
        # fixed point on pass 1 or 2 leaves the reference with pass 1's answer
        if want[2].feasible or any(reference_passes[:2]):
            assert same, seed
        else:
            assert not got[2].feasible and len(reference_passes) == MAX_REPAIRS, seed
        repairs += 1
        agreed += same
    # a restoration stops at its first met incumbent, so fewer reference
    # passes hand back their anchor and fewer cases end at a fixed point
    assert (repairs, agreed) == (33, 22)


def test_inner_solve_skips_only_work_that_repeats(monkeypatch):
    # rounds whose phase stage hands back its anchor reuse their allocation,
    # and so does a repair that hands back its start; the reference
    # re-solves every round.  The library's cold allocation comes from its
    # start builder, the rounds' from solve_allocation: both are counted
    calls = _count_calls(monkeypatch, "solve_allocation", "_cold_allocations")
    solved = 0
    for seed in range(24):
        scene, n, floor = small_case(seed)
        for placement in lattice_placements(scene, n, 0.005, 1.5, 1.5)[:2]:
            args = (scene, placement, SMALL_BANDS, 1.0, floor, MU)
            assert_same_bits(inner_solve(*args), reference_inner_solve(*args))
            solved += 1
    assert solved == 48
    assert (calls["library"], calls["reference"]) == (77, 106)


def test_repair_stops_at_the_first_iterate_that_meets_its_targets(monkeypatch):
    # small case 0 starts short of its floors; the repair's first SGD step
    # leaves a surrogate slack below 0 and its second meets every target
    scene, n, floor = small_case(0)
    placement = lattice_placements(scene, n, 0.005, 1.0, 1.0)[0]
    rate_req = np.full(scene.ue_count, floor)
    absorb = _band_absorption(tuple(b.center_hz for b in SMALL_BANDS), MU)
    vectors = effective_vector(SMALL_BANDS, placement, scene, absorb)
    start = reference_start_phases(scene, placement, SMALL_BANDS, rate_req)
    gains = np.abs(vectors @ start.coefficients) ** 2
    assert not solve_allocation(gains, SMALL_BANDS, 1.0, rate_req).feasible

    solves = []

    def recorded(surr, targets, max_iters=500, constants=None, _original=phase_opt.sgd_solve):
        result = _original(surr, targets, max_iters, constants)
        solves.append((surr, targets, result))
        return result

    monkeypatch.setattr(phase_opt, "sgd_solve", recorded)
    plan = allocation._BandPlan(SMALL_BANDS, 1.0, rate_req, scene.ue_count)
    repaired = bcs.sca_phase_optimize(*bcs._repair_request(vectors, start, plan)).phases
    monkeypatch.undo()

    def worst(surr, targets, angles):
        return float(np.min(surrogate_values(surr, angles) - targets))

    # SCA stops after the one pass whose incumbent meets the targets
    assert len(solves) == 1
    surr, targets, result = solves[0]
    assert worst(surr, targets, surr.anchor) < 0
    assert (result.iterations, result.converged, result.feasible) == (2, False, True)
    assert worst(surr, targets, result.phases.angles) >= 0
    earlier = sgd_solve(surr, targets, max_iters=result.iterations - 1)
    assert worst(surr, targets, earlier.phases.angles) < 0
    # the surrogate is a minorant, so the true targets are met too
    assert np.array_equal(repaired.angles, result.phases.angles)
    assert np.min(exact_values(surr.vectors, repaired.angles) - targets) >= 0


def test_inner_rounds_never_take_the_restoring_exit(monkeypatch):
    # an inner round asks for the anchor's own received powers, so its slack
    # there is 0 up to rounding, sometimes just below: the phase stage keeps
    # going after a first incumbent that meets every target
    rounds = []

    def recorded(rows, targets, anchor, _original=bcs.sca_phase_optimize):
        result = _original(rows, targets, anchor)
        rounds.append((rows, targets, anchor, result))
        return result

    monkeypatch.setattr(bcs, "sca_phase_optimize", recorded)
    for seed in range(24):
        scene, n, floor = small_case(seed)
        for placement in lattice_placements(scene, n, 0.005, 1.5, 1.5)[:2]:
            inner_solve(scene, placement, SMALL_BANDS, 1.0, floor, MU)
    monkeypatch.undo()

    went_on = below_zero = 0
    for rows, targets, anchor, result in rounds:
        start = float(np.min(exact_values(rows, anchor) - targets))
        if abs(start) > 1e-12 * targets.max():
            continue  # a repair, short of its floors
        monkeypatch.setattr(phase_opt, "MAX_OUTER", 1)
        first = sca_phase_optimize(rows, targets, anchor).phases.angles
        monkeypatch.undo()
        if np.min(exact_values(rows, first) - targets) >= 0 and result.outer_iterations > 1:
            went_on += 1
            below_zero += start < 0
    assert (went_on, below_zero) == (9, 8)


# seeds 68, 70, 248, 310, 375 and 384 mix lattice points the ceiling rules
# out with open ones; at 70 the anchor misses the floor and a lattice point wins
SWEEP_CASES = [
    *[(seed, 0.0) for seed in range(6)],
    *[(seed, None) for seed in (6, 7, 68, 70, 248, 310, 375, 384)],
    *[(seed, 1e13) for seed in range(2)],
]


def _assert_matches_the_full_sweep(seed, floor):
    scene, n, drawn = small_case(seed)
    args = (scene, SMALL_BANDS, n, 0.005, 1.0, drawn if floor is None else floor, MU, 1.0, 1.0)
    want = full_sweep_bcs(*args)
    res = bcs_solve(*args)
    assert_same_bits(res.solution, want.solution)
    assert_same_bits(res.anchor, want.anchor)
    assert res.points_evaluated <= want.points_evaluated
    assert len(res.best_trace) == res.points_evaluated + 1
    assert res.best_trace[0] == want.best_trace[0]
    assert res.best_trace[-1] == want.best_trace[-1]
    assert np.all(np.diff(res.best_trace) >= 0)


@pytest.mark.parametrize("seed, floor", SWEEP_CASES)
def test_best_first_search_matches_the_full_sweep(seed, floor):
    _assert_matches_the_full_sweep(seed, floor)


@pytest.mark.parametrize("lookahead", [1, 3, bcs.LOOKAHEAD_POINTS])
@pytest.mark.parametrize("seed, floor", SWEEP_CASES)
def test_best_first_search_matches_the_full_sweep_at_any_window(monkeypatch, seed, floor,
                                                                lookahead):
    # that many points solved together, at any open-point count
    monkeypatch.setattr(bcs, "LOOKAHEAD_POINTS", lookahead)
    monkeypatch.setattr(bcs, "LOOKAHEAD_MIN_OPEN", 0)
    _assert_matches_the_full_sweep(seed, floor)


def _traced_search(monkeypatch, lookahead, args):
    """``bcs_solve(*args)`` with ``lookahead`` points in flight, the gate
    open, and every ``bcs.inner_solve`` call and look-ahead start recorded."""
    monkeypatch.setattr(bcs, "LOOKAHEAD_POINTS", lookahead)
    monkeypatch.setattr(bcs, "LOOKAHEAD_MIN_OPEN", 0)
    calls, started = [], []
    original, steps = bcs.inner_solve, bcs._inner_steps

    def counted(scene, placement, *rest, **kwargs):
        calls.append((placement.x_m, placement.y_m))
        return original(scene, placement, *rest, **kwargs)

    def begun(scene, placement, *rest):
        started.append(placement)
        return steps(scene, placement, *rest)

    monkeypatch.setattr(bcs, "inner_solve", counted)
    monkeypatch.setattr(bcs, "_inner_steps", begun)
    res = bcs_solve(*args)
    monkeypatch.undo()
    return res, calls, len(started) - len(calls)


def test_lookahead_window_leaves_every_answer_unchanged(monkeypatch):
    # the points solved together finish in another order, so every answer,
    # trace, count and counted inner-solve call must match one at a time
    solved_ahead = {}
    for seed in (6, 68, 70, 248):
        scene, n, floor = small_case(seed)
        args = (scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5)
        want, want_calls, ahead = _traced_search(monkeypatch, 1, args)
        assert ahead == 0
        for lookahead in (2, 3, bcs.LOOKAHEAD_POINTS):
            res, calls, ahead = _traced_search(monkeypatch, lookahead, args)
            assert_same_bits(res.solution, want.solution)
            assert_same_bits(res.anchor, want.anchor)
            assert [r.hex() for r in res.best_trace] == [r.hex() for r in want.best_trace]
            assert res.points_evaluated == want.points_evaluated
            assert calls == want_calls
            solved_ahead[seed, lookahead] = ahead
    # points solved ahead and then dropped, pinned for the default window
    assert [solved_ahead[seed, bcs.LOOKAHEAD_POINTS] for seed in (6, 68, 70, 248)] == [7, 0, 6, 9]


def _assert_same_allocation(got, want):
    for name in ("winners", "powers", "rates"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.objective.hex() == want.objective.hex()
    assert (got.feasible, got.candidates_tried) == (want.feasible, want.candidates_tried)


def test_batched_starts_match_the_lone_starts():
    # the look-ahead starts its next open points in one pass: every link
    # row, matched profile, gain and cold allocation, and the inner solve
    # run from them, is the lone start's bit for bit, at any chunk size
    shapes, repairs = set(), 0
    for seed in range(30):
        scene, n, floor = small_case(seed)
        shapes.add((scene.ue_count, n))
        rate_req = np.full(scene.ue_count, floor)
        plan = allocation._BandPlan(SMALL_BANDS, 1.0, rate_req, scene.ue_count)
        absorb = _band_absorption(tuple(b.center_hz for b in SMALL_BANDS), MU)
        points = candidate_grid(scene, n, 0.005, 0.5, 0.5)
        anchors = np.column_stack((points, np.full(len(points), scene.ceiling_height_m)))
        offsets = np.arange(n) * 0.005
        for size in (1, 5, bcs.LOOKAHEAD_POINTS):
            starts = []
            for lo in range(0, len(points), size):
                starts += bcs._cold_starts(scene, anchors[lo:lo + size], offsets, plan, absorb)
            assert len(starts) == len(points)
            for (x, y), (vectors, phases, gains, alloc) in zip(points.tolist(), starts):
                placement = IrsPlacement(x, y, n, 0.005)
                lone_vectors = effective_vector(SMALL_BANDS, placement, scene, absorb)
                lone_phases = reference_start_phases(scene, placement, SMALL_BANDS, rate_req)
                lone_gains = np.abs(lone_vectors @ lone_phases.coefficients) ** 2
                assert vectors.tobytes() == lone_vectors.tobytes()
                assert phases.angles.tobytes() == lone_phases.angles.tobytes()
                assert gains.tobytes() == lone_gains.tobytes()
                _assert_same_allocation(
                    alloc, solve_allocation(lone_gains, SMALL_BANDS, 1.0, rate_req))
            if size == bcs.LOOKAHEAD_POINTS:
                # the whole solve at the first two points the cold allocation
                # leaves feasible and the first two it leaves to the repair
                picked = {True: 0, False: 0}
                for (x, y), start in zip(points.tolist(), starts):
                    repaired = not start[3].feasible
                    if picked[repaired] == 2:
                        continue
                    picked[repaired] += 1
                    repairs += repaired
                    placement = IrsPlacement(x, y, n, 0.005)
                    args = (scene, placement, SMALL_BANDS, 1.0, floor, MU)
                    batched = phase_opt._drive(
                        bcs._inner_steps(scene, placement, plan, MU, None, start),
                        lambda rows, targets, anchor, _: sca_phase_optimize(rows, targets, anchor))
                    assert_same_bits(batched, inner_solve(*args))
    assert {u for u, _ in shapes} == {1, 2, 3, 4} and {n for _, n in shapes} == {1, 4, 8}
    assert repairs > 0


def _claims(monkeypatch, args, **patches):
    """The (x, y) of each ``bcs.inner_solve`` call of ``bcs_solve(*args)``
    under ``patches`` (bcs attributes), and its result or error."""
    calls = []
    original = bcs.inner_solve

    def counted(scene, placement, *rest, **kwargs):
        calls.append((placement.x_m, placement.y_m))
        return original(scene, placement, *rest, **kwargs)

    for name, value in {"inner_solve": counted, **patches}.items():
        monkeypatch.setattr(bcs, name, value)
    try:
        outcome = bcs_solve(*args)
    except ValueError as error:
        outcome = error
    monkeypatch.undo()
    return calls, outcome


def test_a_failed_start_pass_starts_each_point_alone(monkeypatch):
    # a start pass that raises leaves each of its points to start alone,
    # once: the answer holds, and a point's own error is raised at its claim
    scene, n, floor = small_case(70)
    args = (scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5)
    gate = {"LOOKAHEAD_MIN_OPEN": 0}
    want_calls, want = _claims(monkeypatch, args, **gate)
    passes, starts = [], {}
    steps, cold_starts = bcs._inner_steps, bcs._cold_starts

    def broken_at(bad):
        # a lone start is a start pass of one point: only wider passes
        # break, and a lone start at ``bad``
        def broken(scene, anchors, *rest):
            if len(anchors) > 1:
                passes.append(anchors.tolist())
                raise ValueError("start pass")
            if tuple(anchors[0, :2].tolist()) == bad:
                raise ValueError("bad point")
            return cold_starts(scene, anchors, *rest)
        return broken

    def begun(scene, placement, *rest):
        starts.setdefault((placement.x_m, placement.y_m), []).append(rest[-1])
        return steps(scene, placement, *rest)

    calls, res = _claims(monkeypatch, args, _cold_starts=broken_at(None), _inner_steps=begun,
                         **gate)
    assert calls == want_calls
    assert_same_bits(res.solution, want.solution)
    assert [r.hex() for r in res.best_trace] == [r.hex() for r in want.best_trace]
    # one pass for each chunk of LOOKAHEAD_POINTS points, none tried twice,
    # and each point of a failed pass started once, alone
    tried = [tuple(anchor[:2]) for chunk in passes for anchor in chunk]
    assert len(passes) > 1 and len(set(tried)) == len(tried)
    started = [point for point in tried if point in starts]
    assert started and all(starts[point] == [None] for point in started)

    # the third lattice point claimed fails alone; the search raises there
    bad = want_calls[3]
    want_calls, want = _claims(monkeypatch, args, _cold_starts=broken_at(bad),
                               LOOKAHEAD_MIN_OPEN=10**9)
    calls, res = _claims(monkeypatch, args, _cold_starts=broken_at(bad), **gate)
    assert calls == want_calls == want_calls[:3] + [bad]
    assert str(res) == str(want) == "bad point"


def test_the_last_unsolved_point_leaves_the_pool(monkeypatch):
    # the only unsolved flight, the anchor's too, none able to join it, has
    # one way out of the pool: _SgdPool.finish takes each of its problems
    # out and finishes it alone, in phase_opt.sgd_solve from its stage's
    # constants before its first pool step, in the lone loop after; answers
    # match the one-at-a-time search
    finished, solved, resumed, in_flight = [], [], [], [False]
    finish, loop = phase_opt._SgdPool.finish, phase_opt._sgd_loop

    def counted(surr, targets, max_iters=500, constants=None, _original=phase_opt.sgd_solve):
        assert constants is not None
        solved.append(surr)
        return _original(surr, targets, max_iters, constants)

    def counted_finish(pool):
        finished.append(pool)
        in_flight[0] = not pool.joining
        try:
            return finish(pool)
        finally:
            in_flight[0] = False

    def counted_loop(*state):
        # the lone loop that finish resumes a problem in flight with
        if in_flight[0]:
            resumed.append(state)
        return loop(*state)

    for seed in (6, 68, 70, 248):
        scene, n, floor = small_case(seed)
        args = (scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5)
        want, _, _ = _traced_search(monkeypatch, 1, args)
        monkeypatch.setattr(phase_opt, "sgd_solve", counted)
        monkeypatch.setattr(phase_opt._SgdPool, "finish", counted_finish)
        monkeypatch.setattr(phase_opt, "_sgd_loop", counted_loop)
        res, _, _ = _traced_search(monkeypatch, bcs.LOOKAHEAD_POINTS, args)
        assert_same_bits(res.solution, want.solution)
        assert_same_bits(res.anchor, want.anchor)
        assert [r.hex() for r in res.best_trace] == [r.hex() for r in want.best_trace]
    # every problem out of the look-ahead's pool went through finish
    assert solved and resumed and len(finished) == len(solved) + len(resumed)


def test_a_lone_row_leaves_the_pool_mid_solve(monkeypatch):
    # once one point is left unsolved and none can join it, its problem
    # leaves the pool even mid-solve: no pool step ever runs one live
    # problem, and the answers match the one-at-a-time search
    live_counts, left, in_flight = [], [], [False]
    step, finish, loop = phase_opt._SgdPool.step, phase_opt._SgdPool.finish, phase_opt._sgd_loop

    def counted_step(pool):
        live_counts.append(len(pool.joining) + sum(row is not None for row in pool.rows))
        return step(pool)

    def counted_finish(pool):
        in_flight[0] = not pool.joining
        try:
            return finish(pool)
        finally:
            in_flight[0] = False

    def counted_loop(*state):
        # the lone loop that finish resumes a problem in flight with
        if in_flight[0]:
            left.append(state[9])  # the iteration it resumes from
        return loop(*state)

    for seed in (6, 68, 70, 248):
        scene, n, floor = small_case(seed)
        args = (scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5)
        want, want_calls, _ = _traced_search(monkeypatch, 1, args)
        monkeypatch.setattr(phase_opt._SgdPool, "step", counted_step)
        monkeypatch.setattr(phase_opt._SgdPool, "finish", counted_finish)
        monkeypatch.setattr(phase_opt, "_sgd_loop", counted_loop)
        res, calls, _ = _traced_search(monkeypatch, bcs.LOOKAHEAD_POINTS, args)
        assert_same_bits(res.solution, want.solution)
        assert [r.hex() for r in res.best_trace] == [r.hex() for r in want.best_trace]
        assert calls == want_calls
    assert live_counts and min(live_counts) >= 2
    # problems left the pool after some of their steps
    assert len(left) >= 2 and min(left) > 0


def test_the_anchor_flies_with_the_first_lattice_points(monkeypatch):
    # the min-distance anchor is the look-ahead's first flight: its phase
    # stages share pool steps with the first lattice points, none goes to
    # sca_phase_optimize, and its Solution is baseline_mini_dis's bit for
    # bit; a point whose bound falls below the best held is dropped, and
    # the loop never claims it
    shared, lone_stages, dropped = [], [], []
    claim, step, drop = bcs._Lookahead.claim, phase_opt._SgdPool.step, phase_opt._SgdPool.drop
    claiming = [None]

    def claimed(ahead, placement):
        claiming[0] = placement
        return claim(ahead, placement)

    def counted_step(pool):
        if claiming[0] is anchor_placement:
            shared.append(len(pool.joining) + sum(row is not None for row in pool.rows))
        return step(pool)

    def counted_drop(pool, gone):
        dropped.append(pool)
        return drop(pool, gone)

    def stage(rows, targets, anchor, _original=bcs.sca_phase_optimize):
        lone_stages.append(rows)
        return _original(rows, targets, anchor)

    searched = 0
    for seed in range(40):
        scene, n, floor = small_case(seed)
        args = (scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5)
        want = baseline_mini_dis(*args[:7])
        anchor_placement = want.placement
        monkeypatch.setattr(bcs, "LOOKAHEAD_MIN_OPEN", 0)
        monkeypatch.setattr(bcs._Lookahead, "claim", claimed)
        monkeypatch.setattr(phase_opt._SgdPool, "step", counted_step)
        monkeypatch.setattr(phase_opt._SgdPool, "drop", counted_drop)
        monkeypatch.setattr(bcs, "sca_phase_optimize", stage)
        monkeypatch.setattr(bcs, "_min_distance_placement", lambda *_: anchor_placement)
        res = bcs_solve(*args)
        monkeypatch.undo()
        assert_same_bits(res.anchor, want)
        assert res.anchor.placement is anchor_placement
        assert_same_bits(res.solution, full_sweep_bcs(*args).solution)
        searched += 1
    assert searched == 40 and not lone_stages
    assert shared and max(shared) > 2 and dropped


def test_lookahead_census_of_per_problem_work(monkeypatch):
    # on look-ahead searches each pooled SGD problem builds its surrogate
    # rows once, each phase stage computes its SGD constants once, and each
    # search sets its allocation plan up once: its lattice pass, start
    # passes, lone starts and inner solves all run on that plan, and no
    # allocation call repeats the set-up
    counts = {}

    def count(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(phase_opt, "Surrogate", "surrogate rows")
    count(phase_opt._SgdPool, "add", "pooled problems")
    count(bcs, "_sca_steps", "stages")
    count(phase_opt, "_sgd_constants", "constants")
    count(allocation, "_rate_floors", "allocation set-ups")
    count(bcs, "_inner_steps", "inner solves")
    count(bcs, "_cold_starts", "cold starts")
    count(bcs, "_lattice_scores", "lattice passes")
    count(bcs, "solve_allocation", "allocations")
    count(bcs, "_cold_allocations", "start allocations")
    steps = bcs._inner_steps

    def begun(scene, placement, plan, mu, phases=None, start=None):
        # an inner solve without a start builds its own: a lone start
        counts["lone starts"] = counts.get("lone starts", 0) + (start is None)
        return steps(scene, placement, plan, mu, phases, start)

    monkeypatch.setattr(bcs, "_inner_steps", begun)
    monkeypatch.setattr(bcs, "LOOKAHEAD_MIN_OPEN", 0)
    for seed in (6, 68, 70, 248, 310):
        scene, n, floor = small_case(seed)
        bcs_solve(scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5)
    assert counts["surrogate rows"] == counts["pooled problems"] > counts["stages"]
    assert counts["constants"] == counts["stages"]
    # the look-ahead's start passes of many points, apart from the lone starts
    start_passes = counts["cold starts"] - counts["lone starts"]
    assert counts["lone starts"] > 0 and start_passes > 0
    assert counts["lattice passes"] == 5
    assert counts["allocation set-ups"] == 5
    # so the lattice pass, the starts and the rounds' allocations set nothing up
    assert counts["inner solves"] > 5 and counts["allocations"] > 0
    assert counts["start allocations"] == counts["cold starts"]


# small cases whose lattices (0.5 m steps) hold 1 to 42 ceilings that meet
# every floor; at 139 fewer than half of its 42 bounds reach the sum rate the
# anchor holds at its first phase stage
GATE_SEEDS = (28, 43, 54, 68, 70, 82, 85, 87, 118, 139)


def test_the_lookahead_opens_exactly_when_enough_ceilings_meet_the_floors():
    # one gate: bcs_solve builds a _Lookahead exactly when at least
    # LOOKAHEAD_MIN_OPEN ceiling bounds are >= 0.0, however few of them
    # reach the sum rate the anchor holds.  With one, every phase stage runs
    # in its SGD pool and none reaches bcs.sca_phase_optimize; without one,
    # every stage does.  Either way the answer is the full sweep's, and the
    # trace is that of the search under the other gate
    cases = []
    for seed in GATE_SEEDS:
        scene, n, floor = small_case(seed)
        plan = allocation._BandPlan(SMALL_BANDS, 1.0, floor, scene.ue_count)
        absorb = _band_absorption(tuple(b.center_hz for b in SMALL_BANDS), MU)
        points = candidate_grid(scene, n, 0.005, 0.5, 0.5)
        bounds = bcs._ceiling_bounds(scene, points, np.arange(n) * 0.005, plan, absorb)
        cases.append(((scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5),
                      np.count_nonzero(bounds >= 0.0)))
    # the median count: the search at that count opens, and so do those above
    counts = sorted(count for _, count in cases)
    gate = counts[len(counts) // 2]
    assert counts[0] < gate < counts[-1]

    built, pooled, lone, short = [], [], [], []

    class Counted(bcs._Lookahead):
        def __init__(self, order, bounds, *rest):
            built.append(self)
            super().__init__(order, bounds, *rest)
            # a search whose anchor holds a rate that too few bounds reach
            short.append(np.count_nonzero(bounds >= self._best) < bcs.LOOKAHEAD_MIN_OPEN)

    def pooled_stage(*args, _original=bcs._sca_steps):
        pooled.append(args)
        return _original(*args)

    def lone_stage(*args, _original=bcs.sca_phase_optimize):
        lone.append(args)
        return _original(*args)

    opened = closed = 0
    for args, count in cases:
        want = full_sweep_bcs(*args)
        traces = {}
        for min_open in (gate, 0 if count < gate else 10**9):
            del built[:], pooled[:], lone[:]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(bcs, "LOOKAHEAD_MIN_OPEN", min_open)
                patch.setattr(bcs, "_Lookahead", Counted)
                patch.setattr(bcs, "_sca_steps", pooled_stage)
                patch.setattr(bcs, "sca_phase_optimize", lone_stage)
                res = bcs_solve(*args)
            assert len(built) == (count >= min_open)
            stages, others = (pooled, lone) if built else (lone, pooled)
            assert stages and not others
            assert_same_bits(res.solution, want.solution)
            assert res.best_trace[-1].hex() == want.best_trace[-1].hex()
            traces[min_open] = [r.hex() for r in res.best_trace]
        assert len(set(map(tuple, traces.values()))) == 1
        opened += count >= gate
        closed += count < gate
    assert opened and closed and any(short)


def test_a_start_pass_takes_only_points_the_rule_may_admit(monkeypatch):
    # a start pass covers the admitted point and the next open points whose
    # bounds still reach the best held, at most LOOKAHEAD_POINTS of them
    passes, admitted = [], []
    init = bcs._Lookahead.__init__

    def recording(ahead, order, bounds, best, placement_of, inner_steps, starts_of):
        def starts(chunk):
            passes.append((ahead._best, [bounds[i] for i in chunk]))
            return starts_of(chunk)

        def begun(placement, start):
            admitted.append(placement)
            return inner_steps(placement, start)

        init(ahead, order, bounds, best, placement_of, begun, starts)

    monkeypatch.setattr(bcs._Lookahead, "__init__", recording)
    monkeypatch.setattr(bcs, "LOOKAHEAD_MIN_OPEN", 0)
    for seed in (6, 68, 70, 248, 310):
        scene, n, floor = small_case(seed)
        bcs_solve(scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5)
    assert passes and all(len(chunk) <= bcs.LOOKAHEAD_POINTS for _, chunk in passes)
    assert all(bound >= best for best, chunk in passes for bound in chunk[1:])
    assert len(admitted) <= sum(len(chunk) for _, chunk in passes)


def test_bcs_answers_a_budget_whose_ceiling_snr_overflows():
    # at 3e306 W the coherent ceiling's SNR overflows at some lattice points,
    # and so does the own SNR of one of them; minidis and ranphi answer, and
    # so must bcs, with no less than minidis
    config = ExperimentConfig(p_max_w=3e306)
    scene = config.scene_for(draw_ue_positions(config, 1, config.ue_count))
    bands = resolve_bands(config)
    absorb = _band_absorption(tuple(b.center_hz for b in bands), config.mixing_ratio())
    points = candidate_grid(scene, config.element_count, config.spacing_m,
                            config.grid_step_x_m, config.grid_step_y_m)
    offsets = np.arange(config.element_count) * config.spacing_m
    plan = allocation._BandPlan(bands, config.p_max_w, config.rate_floor_bps, scene.ue_count)
    bounds = bcs._ceiling_bounds(scene, points, offsets, plan, absorb)
    anchors = np.column_stack((points, np.full(len(points), scene.ceiling_height_m)))
    vectors = bcs._link_rows(bands, anchors, offsets, scene, absorb)
    over = ~_snr_per_watt(np.sum(np.abs(vectors), axis=-1) ** 2 * (1.0 + bcs.BOUND_MARGIN),
                          plan)[1].all(axis=(1, 2))
    assert 0 < over.sum() < len(points)
    # a point whose ceiling overflows is never pruned; every other keeps its bound
    assert (bounds[over] == np.inf).all()
    for (x, y) in points[~over][::40].tolist():
        want = ceiling_bound(scene, IrsPlacement(x, y, config.element_count, config.spacing_m),
                             bands, config.p_max_w, config.rate_floor_bps, absorb)
        assert bounds[(points == (x, y)).all(axis=1)][0] == want
    # the allocation refuses the budget at (0.75, 0.5) itself, which bcs passes over
    with pytest.raises(ValueError, match="SNR at the full budget overflows"):
        inner_solve(scene, IrsPlacement(0.75, 0.5, config.element_count, config.spacing_m),
                    bands, config.p_max_w, config.rate_floor_bps, config.mixing_ratio())
    minidis = run_single(config, "minidis", 1)
    assert run_single(config, "ranphi", 1).feasible
    got = run_single(config, "bcs", 1)
    assert got.feasible and got.sum_rate_bps >= minidis.sum_rate_bps


def test_bcs_keeps_a_point_whose_restored_snr_overflows(monkeypatch):
    # at 1e307 W and seed 2, some points start from a feasible
    # allocation whose SNR stays finite and are then restored to a profile
    # whose SNR overflows; they keep the allocation they held, in the pool
    # as in the lone solve, and bcs answers no less than any of them
    config = ExperimentConfig(p_max_w=1e307)
    real_steps, real_allocation = bcs._inner_steps, bcs.solve_allocation
    current, overflowed, solved = [None], set(), {}

    def tracked(scene, placement, *args):
        steps, reply = real_steps(scene, placement, *args), None
        while True:
            current[0] = placement
            try:
                request = steps.send(reply)
            except StopIteration as stop:
                solved[placement] = stop.value
                return stop.value
            reply = yield request

    def recording(gains, *args, warm_winners=None):
        try:
            return real_allocation(gains, *args, warm_winners=warm_winners)
        except _SnrOverflow:
            if warm_winners is not None:
                overflowed.add(current[0])
            raise

    monkeypatch.setattr(bcs, "_inner_steps", tracked)
    monkeypatch.setattr(bcs, "solve_allocation", recording)
    got = run_single(config, "bcs", 2)
    assert overflowed and overflowed <= set(solved)
    monkeypatch.undo()
    scene = config.scene_for(draw_ue_positions(config, 2, config.ue_count))
    bands = resolve_bands(config)
    for placement in overflowed:
        kept = solved[placement]
        assert kept.feasible and not kept.converged
        assert got.feasible and got.sum_rate_bps >= kept.sum_rate_bps
        assert_same_bits(kept, inner_solve(scene, placement, bands, config.p_max_w,
                                           config.rate_floor_bps, config.mixing_ratio()))


@pytest.mark.parametrize("ue_ys, floor", [((2.0,), 0.0), ((1.0, 3.0), 1e9)])
def test_mirror_twins_tie_exactly_and_the_earlier_one_wins(ue_ys, floor):
    # AP and UEs on the room's axis x = 2.25, so lattice columns x = 1.5 and
    # x = 3.0 are mirror images with bit-identical sum rates
    scene = Scene(4.0, 3.0, 3.0, (2.25, 0.0, 2.0), [(2.25, y, 1.0) for y in ue_ys])
    args = (scene, SMALL_BANDS[:2], 4, 0.005, 1.0, floor, MU, 1.5, 1.0)
    want = full_sweep_bcs(*args)
    won = want.solution.placement
    twin = inner_solve(scene, IrsPlacement(4.5 - won.x_m, won.y_m, 4, 0.005),
                       SMALL_BANDS[:2], 1.0, floor, MU)
    assert won.x_m == 1.5 and twin.sum_rate_bps == want.solution.sum_rate_bps
    assert_same_bits(bcs_solve(*args).solution, want.solution)


@pytest.mark.parametrize("anchor_rate, winner", [(1.0, "anchor"), (0.5, 0)])
def test_ties_go_to_the_anchor_then_the_earliest_lattice_point(monkeypatch, anchor_rate,
                                                               winner):
    # bounds that visit the lattice back to front, and a flat sum rate: only
    # the tie rule can bring the search back to the full sweep's answer
    scene = make_scene([(2.0, 3.0)])
    bands = make_bands([275.0])
    points = candidate_grid(scene, 4, 0.005, 2.0, 2.0)
    anchor = bcs._min_distance_placement(scene, 4, 0.005)

    def flat(scene, placement, *args, **kwargs):
        rate = anchor_rate if placement == anchor else 1.0
        return Solution(placement, PhaseVector(np.zeros(4)), np.zeros(1, dtype=int),
                        np.ones(1), np.array([rate]), rate, True, True, 1, [rate])

    monkeypatch.setattr(bcs, "inner_solve", flat)
    monkeypatch.setattr(bcs, "_ceiling_bounds",
                        lambda scene, lattice, *args: 2.0 + np.arange(len(lattice)))
    res = bcs_solve(scene, bands, 4, 0.005, 1.0, 0.0, MU, grid_step_x=2.0, grid_step_y=2.0)
    assert res.points_evaluated == len(points) > 1
    assert res.solution.placement == (
        anchor if winner == "anchor" else IrsPlacement(*points[winner].tolist(), 4, 0.005))


@pytest.mark.parametrize("u_count, n, floor", [
    (1, 1, 0.0), (1, 8, 5e10), (2, 4, 0.0), (2, 8, 1e11),
    (3, 4, 2e10), (3, 8, 0.0), (4, 1, 1e9), (4, 8, 2e10),
])
def test_ceiling_bound_caps_the_inner_solve(u_count, n, floor):
    # relies on bcs.BOUND_MARGIN = 1e-9 relative on the ceiling gains; with
    # N = 1 the phase cannot move the gains, the ceiling is exact and only
    # that margin keeps the bound above the rounded inner-solve answer
    assert bcs.BOUND_MARGIN == 1e-9
    rng = np.random.default_rng(1000 * u_count + n)
    scene = random_scene(rng, u_count)
    bands = SMALL_BANDS
    absorb = _band_absorption(tuple(b.center_hz for b in bands), MU)
    points = candidate_grid(scene, n, 0.005, 1.0, 1.0)
    chosen = points[rng.choice(len(points), size=4, replace=False)]
    plan = allocation._BandPlan(bands, 1.0, floor, u_count)
    bounds = bcs._ceiling_bounds(scene, chosen, np.arange(n) * 0.005, plan, absorb)
    for (x, y), bound in zip(chosen.tolist(), bounds.tolist()):
        sol = inner_solve(scene, IrsPlacement(x, y, n, 0.005), bands, 1.0, floor, MU)
        if bound == -np.inf:
            assert not sol.feasible
        else:
            assert sol.sum_rate_bps <= bound


LATTICE_BANDS = make_bands([225.0, 275.0, 305.0, 355.0])
LATTICE_SIZES = ("one", "block", "block+1", "several", "none")


@st.composite
def frozen_lattices(draw, size):
    """A 3 m x 4 m room whose lattice is one row of points along x, sized
    against a block of 1-3 points: one point, exactly one block, one block
    and one point, several blocks with a partial last one, or none.  The
    drawn seed sets U, I, N, the block and the UE positions; the floor is
    zero, drawn log-uniformly or out of reach."""
    floor_kind = draw(st.sampled_from(["zero", "drawn", "impossible"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    u_count, i_count = (int(k) for k in rng.integers(1, 5, size=2))
    n = int(rng.choice([1, 4, 8, 20]))
    per_block = int(rng.integers(1, 4))
    count = dict(zip(LATTICE_SIZES, (1, per_block, per_block + 1, 3 * per_block + 1, 0)))[size]
    floor = {"zero": 0.0, "drawn": float(10 ** rng.uniform(9.0, 11.0)), "impossible": 1e13}[
        floor_kind]
    ues = [(float(rng.uniform(0.25, 2.75)), float(rng.uniform(0.25, 3.75)), 1.0)
           for _ in range(u_count)]
    scene = Scene(4.0, 3.0, 3.0, (0.0, 0.0, 2.0), ues)
    # one lattice row (a y step of 3/4 of the span) holding `count` points
    # along x; a step wider than the room leaves none
    step_x = 3.0 / count if count else 4.0
    step_y = 0.75 * admissible_y_span(scene, n, 0.005)
    return (scene, LATTICE_BANDS[:i_count], n, floor, step_x, step_y, count,
            per_block * u_count**i_count, int(rng.integers(0, 2**32)))


def _lattice_answers(scene, bands, n, floor, step_x, step_y, seed):
    """ranphi's search result and the ceiling bounds of the same lattice."""
    absorb = _band_absorption(tuple(b.center_hz for b in bands), MU)
    points = candidate_grid(scene, n, 0.005, step_x, step_y)
    return (baseline_ran_phi(scene, bands, n, 0.005, 1.0, floor, MU, SplitMix64(seed),
                             step_x, step_y),
            bcs._ceiling_bounds(scene, points, np.arange(n) * 0.005,
                                allocation._BandPlan(bands, 1.0, floor, scene.ue_count), absorb))


@pytest.mark.parametrize("size", LATTICE_SIZES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_lattice_passes_match_the_per_point_oracles(size, data):
    # ranphi and the ceiling bounds score the lattice in blocks of points;
    # each point must come out as the per-point inner solve and allocation
    scene, bands, n, floor, step_x, step_y, count, block_rows, seed = data.draw(
        frozen_lattices(size))
    points = lattice_placements(scene, n, 0.005, step_x, step_y)
    assert len(points) == count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bcs, "BLOCK_ROWS", block_rows)
        got, bounds = _lattice_answers(scene, bands, n, floor, step_x, step_y, seed)
    want = frozen_sweep_ran_phi(scene, bands, n, 0.005, 1.0, floor, MU, SplitMix64(seed),
                                step_x, step_y)
    assert_same_bits(got.solution, want.solution)
    assert [r.hex() for r in got.best_trace] == [r.hex() for r in want.best_trace]
    assert got.points_evaluated == 1
    absorb = _band_absorption(tuple(b.center_hz for b in bands), MU)
    oracle = [ceiling_bound(scene, p, bands, 1.0, floor, absorb) for p in points]
    # -inf marks a point whose ceiling misses a floor, where the oracle says None
    assert [b.hex() for b in bounds.tolist()] == [
        (-np.inf if b is None else b).hex() for b in oracle]


@pytest.mark.parametrize("block_rows", [1, 7])
def test_block_size_leaves_every_answer_unchanged(monkeypatch, block_rows):
    # U = 1 plans have one assignment, so 7 rows make 7-point blocks; the
    # U >= 2 plans of small_case drop to one point per block
    cases = [(make_scene([(2.0, 3.0)], room=(4.0, 3.0, 3.0)), 4, 1e10)]
    cases += [small_case(seed) for seed in (6, 68, 70)]
    want = [_lattice_answers(scene, SMALL_BANDS, n, floor, 0.5, 0.5, 3)
            for scene, n, floor in cases]
    blocks = []
    original = bcs.score_allocations

    def recorded(gains, *args):
        blocks.append(gains.shape)
        return original(gains, *args)

    monkeypatch.setattr(bcs, "score_allocations", recorded)
    monkeypatch.setattr(bcs, "BLOCK_ROWS", block_rows)
    for (scene, n, floor), (ranphi, bounds) in zip(cases, want):
        blocks.clear()
        got_ranphi, got_bounds = _lattice_answers(scene, SMALL_BANDS, n, floor, 0.5, 0.5, 3)
        assert_same_bits(got_ranphi.solution, ranphi.solution)
        assert got_ranphi.best_trace == ranphi.best_trace
        assert got_bounds.tobytes() == bounds.tobytes()
        # the ceiling pass, run second, covers the lattice in full blocks of
        # the allowed size and one shorter tail; ranphi's pass scores each
        # point once at most, no call holding more than one block of points
        size = max(1, block_rows // scene.ue_count ** len(SMALL_BANDS))
        lattice = len(bounds)
        ceiling = [size] * (lattice // size) + [lattice % size] * (lattice % size > 0)
        ranphi_blocks = [shape[0] for shape in blocks[:-len(ceiling)]]
        assert [shape[0] for shape in blocks[-len(ceiling):]] == ceiling
        assert ranphi_blocks and max(ranphi_blocks) <= size and sum(ranphi_blocks) <= lattice


# one row of 12 lattice points along x (x = 0.25 .. 3 m, y = 3 m) in a 4 m x
# 3 m room, for a one-element array, whose frozen profile leaves its gains
# alone; the AP and two UEs sit at the far end of the row (gains rise along
# it) or across its middle (they peak at the sixth point)
ROW = dict(n=1, step_x=0.25, step_y=3.0)
ROW_BANDS = make_bands([275.0, 305.0])


def _row_scene(x):
    return Scene(4.0, 3.0, 3.0, (x, 0.0, 2.0), [(x, 3.0, 1.0), (x - 0.1, 3.5, 1.0)])


def _ranphi_and_oracle(scene, p_max, floor, block_rows, seed=5):
    """ranphi and its per-point oracle on the row lattice, and the number of
    points in each of ranphi's scoring calls.  An overflowing point makes
    both raise; it returns the error each raised."""
    args = (scene, ROW_BANDS, ROW["n"], 0.005, p_max, floor, MU)
    grid = (ROW["step_x"], ROW["step_y"])
    calls = []
    original = bcs.score_allocations

    def recorded(gains, *rest):
        calls.append(len(gains))
        return original(gains, *rest)

    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bcs, "BLOCK_ROWS", block_rows)
        patch.setattr(bcs, "score_allocations", recorded)
        for solve in (baseline_ran_phi, frozen_sweep_ran_phi):
            try:
                outcomes.append(solve(*args, SplitMix64(seed), *grid))
            except _SnrOverflow as error:
                outcomes.append(error)
    return (*outcomes, calls)


def _assert_same_search(got, want):
    assert_same_bits(got.solution, want.solution)
    assert [r.hex() for r in got.best_trace] == [r.hex() for r in want.best_trace]
    assert len(got.best_trace) == 12


def test_ranphi_scores_every_point_of_rising_rates():
    # every point beats all before it, so none is skipped: the pass scores
    # the lattice in full blocks of 2 points (4 assignments each, 8 rows)
    got, want, calls = _ranphi_and_oracle(_row_scene(3.0), 1.0, 0.0, 8)
    _assert_same_search(got, want)
    assert all(np.diff(want.best_trace) > 0)
    assert calls == [2] * 6


def test_ranphi_skips_the_points_that_cannot_set_a_record():
    # rates peak at the sixth point and fall after it: each later point's
    # bound falls below that peak, so only the first blocks are scored
    got, want, calls = _ranphi_and_oracle(_row_scene(1.5), 1.0, 0.0, 8)
    _assert_same_search(got, want)
    assert want.solution.placement.x_m == 1.5
    assert calls and max(calls) <= 2 and sum(calls) < 12


@pytest.mark.parametrize("block_rows, first_block", [(32, True), (8, False)])
def test_ranphi_with_an_overflowing_point(block_rows, first_block):
    # one UE under the row at each x of ue_xs, so the rates peak twice, and
    # a budget that overflows the SNR at the fifth point alone, the top of
    # the first peak: ranphi and its oracle pass over it, and the best of
    # the rest lies on the second peak.  Had the overflow's +inf set the
    # pass's running best, the second peak would be skipped: in 2-point
    # blocks (8 rows) in the first scene, in 8-point blocks in the second
    per_block = block_rows // 4
    assert (4 < per_block) == first_block
    for ue_xs, ap_x in (((1.0, 2.5), 1.74), ((0.75, 3.0), 1.85)):
        scene = Scene(4.0, 3.0, 3.0, (ap_x, 0.0, 2.0), [(x, 3.0, 1.0) for x in ue_xs])
        placements = lattice_placements(scene, ROW["n"], 0.005, ROW["step_x"], ROW["step_y"])
        absorb = _band_absorption(tuple(b.center_hz for b in ROW_BANDS), MU)
        gains = np.array([np.abs(effective_vector(ROW_BANDS, p, scene, absorb)[..., 0]) ** 2
                          for p in placements])
        kappa = (gains / np.array([b.noise_power_w for b in ROW_BANDS])).max(axis=(1, 2))
        p_max = np.finfo(float).max / kappa.max() * (1.0 + 1e-9)
        plan = allocation._BandPlan(ROW_BANDS, p_max, 0.0, 2)
        assert (~_snr_per_watt(gains, plan)[1].all(axis=(1, 2))).nonzero()[0].tolist() == [4]
        with pytest.raises(_SnrOverflow):
            inner_solve(scene, placements[4], ROW_BANDS, p_max, 0.0, MU,
                        phases=PhaseVector(np.zeros(1)))

        got, want, calls = _ranphi_and_oracle(scene, p_max, 0.0, block_rows)
        _assert_same_search(got, want)
        assert got.solution.placement.x_m > 2.0
        assert got.solution.validate(scene, ROW_BANDS, p_max, 0.0, MU) == got.solution.sum_rate_bps
        # the passed-over point repeats the running best and is never scored
        assert want.best_trace[4] == want.best_trace[3] > 0.0
        assert calls and max(calls) <= per_block and sum(calls) < 12

        # a budget that overflows every point leaves nothing to keep: both raise
        got, want, _ = _ranphi_and_oracle(
            scene, np.finfo(float).max / kappa.min() * (1.0 + 1e-9), 0.0, block_rows)
        assert isinstance(got, _SnrOverflow) and str(got) == str(want)


def test_ranphi_scores_a_point_whose_bound_alone_overflows(monkeypatch):
    # a budget between the overflow of the sixth point's bound gains and that
    # of its exact gains: its bound is never below the best, so it is chosen
    # like any other point, its own gains decide its verdict, and it is
    # scored with the oracle's answer and trace
    scene = _row_scene(1.5)
    plan = allocation._BandPlan(ROW_BANDS, 1.0, 0.0, 2)
    absorb = _band_absorption(tuple(b.center_hz for b in ROW_BANDS), MU)
    anchors = np.array([[x, 3.0, 3.0] for x in 0.25 * np.arange(1, 13)])
    coefficients = np.ones(1, dtype=complex)
    exact = np.abs(phase_opt._link_rows(plan, anchors, np.zeros(1), scene, absorb)
                   @ coefficients) ** 2
    bound = bcs._frozen_gain_bounds(scene, anchors, 0.005, coefficients, plan, absorb)
    kappa_exact, kappa_bound = ((g / plan.noise).max(axis=(1, 2)) for g in (exact, bound))
    p_max = np.finfo(float).max / np.sqrt(kappa_exact[5] * kappa_bound[5])
    for gains, overflowing in ((exact, []), (bound, [5])):
        finite = _snr_per_watt(gains, allocation._BandPlan(ROW_BANDS, p_max, 0.0, 2))[1]
        assert (~finite.all(axis=(1, 2))).nonzero()[0].tolist() == overflowing

    built = []
    link_rows = bcs._link_rows

    def rows(plan, anchors, *args):
        built.append(anchors[:, 0].tolist())
        return link_rows(plan, anchors, *args)

    monkeypatch.setattr(bcs, "_link_rows", rows)
    got, want, calls = _ranphi_and_oracle(scene, p_max, 0.0, 8)
    _assert_same_search(got, want)
    assert want.solution.placement.x_m == 1.5 and want.best_trace[5] > want.best_trace[4]
    assert got.solution.validate(scene, ROW_BANDS, p_max, 0.0, MU) == got.solution.sum_rate_bps
    # one block of link rows per scoring call, the sixth point's among them
    assert [len(points) for points in built] == calls
    assert 1.5 in (x for points in built for x in points)


def test_ranphi_builds_link_rows_only_for_the_points_it_scores(monkeypatch):
    # all defaults at seed 7: of the 620 lattice points, the pass scores the
    # first block's 64 and builds link rows for those 64 alone
    built, scored = [], []
    link_rows, score = bcs._link_rows, bcs.score_allocations

    def rows(plan, anchors, *args):
        built.append(anchors[:, :2].tolist())
        return link_rows(plan, anchors, *args)

    def counted(gains, *rest):
        scored.append(len(gains))
        return score(gains, *rest)

    monkeypatch.setattr(bcs, "_link_rows", rows)
    monkeypatch.setattr(bcs, "score_allocations", counted)
    config = ExperimentConfig()
    run_single(config, "ranphi", 7)
    points = candidate_grid(config.scene_for(draw_ue_positions(config, 7, config.ue_count)),
                            config.element_count, config.spacing_m, config.grid_step_x_m,
                            config.grid_step_y_m)
    assert len(points) == 620
    assert scored == [64]
    assert built == [points[:64].tolist()]


def test_ranphi_on_a_lattice_with_no_feasible_point():
    # no rate is above 0.0, so no bound falls below the best: every point is
    # scored, and the first point's infeasible verdict is the answer
    got, want, calls = _ranphi_and_oracle(_row_scene(1.5), 1.0, 1e13, 8)
    _assert_same_search(got, want)
    assert not want.solution.feasible and want.best_trace == [0.0] * 12
    assert want.solution.placement.x_m == 0.25
    assert calls == [2] * 6


def test_ranphi_on_a_one_block_lattice_scores_it_in_one_call():
    # the whole lattice fits one block: before any point is scored no bound
    # is below the best, so one call scores every point
    got, want, calls = _ranphi_and_oracle(_row_scene(1.5), 1.0, 0.0, 48)
    _assert_same_search(got, want)
    assert calls == [12]


# bands across the whole model window, so the steering phase reaches its largest
BOUND_BANDS = make_bands([205.0, 260.0, 330.0, 395.0], width_ghz=10.0)


def _random_arrays(n):
    """Seeded N-element arrays at 100 random anchors each, in rooms from 8 m
    to 400 m long and at spacings up to the largest each room admits:
    yields (rng, scene, anchors, spacing, plan, absorb) on ``BOUND_BANDS``,
    the rng to draw more from before the next case."""
    rng = np.random.default_rng(n)
    for length, width, height in ((8.0, 5.0, 3.0), (60.0, 40.0, 6.0), (400.0, 300.0, 20.0)):
        widest = 0.999 * length / max(n - 1, 1)
        for spacing in (0.005, *10 ** rng.uniform(np.log10(0.005), np.log10(widest), 2), widest):
            u_count = int(rng.integers(1, 4))
            ues = [(rng.uniform(0, width), rng.uniform(0, length), rng.uniform(0, 0.9 * height))
                   for _ in range(u_count)]
            ap = (rng.uniform(0, width), rng.uniform(0, length), rng.uniform(0, 0.9 * height))
            scene = Scene(length, width, height, ap, ues)
            y_hi = admissible_y_span(scene, n, spacing)
            anchors = np.column_stack((rng.uniform(0, width, 100), rng.uniform(0, y_hi, 100),
                                       np.full(100, height)))
            plan = allocation._BandPlan(BOUND_BANDS, 1.0, 0.0, u_count)
            absorb = _band_absorption(tuple(b.center_hz for b in BOUND_BANDS), MU)
            yield rng, scene, anchors, spacing, plan, absorb


@pytest.mark.parametrize("n", [1, 2, 20, 64, 200])
def test_frozen_gain_bounds_cover_the_exact_gains(n):
    # at dense random anchors and profiles, in rooms from 8 m to 400 m long
    # and at spacings up to the largest each room admits, ranphi's link-free
    # gain bounds are at least the gains of the exact link rows under the
    # frozen product; the raw error |S_exact| - |S_Horner|, in element
    # amplitudes, stays within delta = 8 eps N (beta + N + 2), beta =
    # |k s| (N - 1) spacing the largest steering phase, and the bound
    # exceeds the exact amplitude by 2 delta at most
    eps = np.finfo(float).eps
    worst = (0.0, 1.0)
    for rng, scene, anchors, spacing, plan, absorb in _random_arrays(n):
        coefficients = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        exact = np.abs(phase_opt._link_rows(plan, anchors, np.arange(n) * spacing, scene,
                                            absorb) @ coefficients) ** 2
        bound = bcs._frozen_gain_bounds(scene, anchors, spacing, coefficients, plan, absorb)
        assert (bound >= exact).all()

        f = np.array([b.center_hz for b in BOUND_BANDS])
        lengths, slope = _two_hop(anchors, scene)
        amplitude = _path_amplitude(f, lengths[..., None], absorb)
        beta = np.abs(2.0 * np.pi * f / SPEED_OF_LIGHT * slope[..., None]) * (n - 1) * spacing
        delta = 8.0 * eps * n * (beta + n + 2)
        slack = (np.sqrt(bound) - np.sqrt(exact)) / amplitude      # delta - raw error
        raw = delta - slack
        assert (slack <= 2.0 * delta).all()
        i = np.argmax(raw / delta)
        if raw.flat[i] / delta.flat[i] > worst[0] / worst[1]:
            worst = (raw.flat[i], delta.flat[i])
    print(f"N = {n}: largest raw error {worst[0]:.3g} against delta {worst[1]:.3g}")
    assert worst[0] <= worst[1]


@pytest.mark.parametrize("n", [1, 2, 20, 64, 200])
def test_ceiling_gains_match_the_rows_and_cover_every_profile(n, monkeypatch):
    # at _random_arrays' dense random anchors, the gains _ceiling_bounds scores,
    # (N |g|)^2 from the two-hop lengths alone, are within 1e-12 of the link
    # rows' coherent ceiling (sum_n |e_uin|)^2, and once inflated they are at
    # least |e . phi|^2 for a random profile and for the profile matched to
    # each row
    scored = []
    lattice_scores = bcs._lattice_scores

    def recorded(gains, plan):
        scored.append(gains)
        return lattice_scores(gains, plan)

    monkeypatch.setattr(bcs, "_lattice_scores", recorded)
    for rng, scene, anchors, spacing, plan, absorb in _random_arrays(n):
        offsets = np.arange(n) * spacing
        del scored[:]
        bcs._ceiling_bounds(scene, anchors[:, :2], offsets, plan, absorb)
        gains, = scored
        vectors = phase_opt._link_rows(plan, anchors, offsets, scene, absorb)
        rows = np.sum(np.abs(vectors), axis=-1) ** 2
        assert np.abs(gains / (1.0 + bcs.BOUND_MARGIN) / rows - 1.0).max() <= 1e-12
        coefficients = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        assert (gains >= np.abs(vectors @ coefficients) ** 2).all()
        matched = np.abs(np.sum(vectors * np.exp(-1j * np.angle(vectors)), axis=-1)) ** 2
        assert (gains >= matched).all()


def test_the_ceiling_pass_builds_no_link_rows(monkeypatch):
    # bcs_solve's bounds come from the two-hop lengths alone: no link row is
    # built while _ceiling_bounds runs, though the inner solves build theirs
    inside, built = [False], []
    link_rows, ceiling_bounds = bcs._link_rows, bcs._ceiling_bounds

    def rows(*args):
        built.append(inside[0])
        return link_rows(*args)

    def bounds(*args):
        inside[0] = True
        try:
            return ceiling_bounds(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(bcs, "_link_rows", rows)
    monkeypatch.setattr(bcs, "_ceiling_bounds", bounds)
    for seed in (6, 68):
        scene, n, floor = small_case(seed)
        bcs_solve(scene, SMALL_BANDS, n, 0.005, 1.0, floor, MU, 0.5, 0.5)
    assert built and not any(built)
