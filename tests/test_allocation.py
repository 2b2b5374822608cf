import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocation_oracle import (
    LN2,
    best_exact_solve,
    brute_force_allocation,
    exact_solve_at,
    reference_solve_allocation,
)
from thzirs.allocation import (
    ENUMERATION_CAP,
    _assignment_table,
    _BandPlan,
    _cold_allocations,
    _warm_first_table,
    score_allocations,
    solve_allocation,
    sum_rate_bounds,
)
from thzirs.bcs import BOUND_MARGIN
from thzirs.channel import SubBand


def make_bands(widths, noise=1e-20):
    return [
        SubBand(center_hz=250e9 + 60e9 * j, bandwidth_hz=w, noise_psd_w_per_hz=noise)
        for j, w in enumerate(widths)
    ]


def random_instance(rng, max_u=3, max_i=4, with_floors=False):
    u = int(rng.integers(1, max_u + 1))
    i = int(rng.integers(1, max_i + 1))
    gains = 10.0 ** rng.uniform(-10.0, -7.5, (u, i))
    widths = rng.choice([25e9, 50e9], size=i)
    bands = make_bands(widths, noise=10.0 ** rng.uniform(-20.5, -19.5))
    floors = np.zeros(u)
    if with_floors:
        # witness point: round-robin bands at an equal power split
        winners = np.arange(i) % u
        powers = np.full(i, 1.0 / i)
        kappa = gains / np.array([b.noise_power_w for b in bands])
        per_band = widths * np.log2(1.0 + kappa[winners, np.arange(i)] * powers)
        witness = np.bincount(winners, weights=per_band, minlength=u)
        floors = 0.4 * witness
    return gains, bands, floors


def test_single_band_single_ue_gets_everything():
    bands = make_bands([50e9])
    gains = np.array([[2e-9]])
    res = solve_allocation(gains, bands, 1.0, 0.0)
    assert res.feasible
    np.testing.assert_allclose(res.powers, [1.0], rtol=1e-12)
    kappa = 2e-9 / bands[0].noise_power_w
    np.testing.assert_allclose(res.objective, 50e9 * np.log2(1.0 + kappa), rtol=1e-12)


def test_two_band_waterfill_equalizes_marginal_rate():
    bands = make_bands([50e9, 50e9])
    gains = np.array([[4e-9, 1e-9]])
    res = solve_allocation(gains, bands, 1.0, 0.0)
    kappa = gains[0] / np.array([b.noise_power_w for b in bands])
    np.testing.assert_allclose(res.powers.sum(), 1.0, rtol=1e-12)
    # both bands active: d/dp of B log2(1 + kappa p) must match
    marginal = kappa / (1.0 + kappa * res.powers)
    np.testing.assert_allclose(marginal[0], marginal[1], rtol=1e-9)
    # stronger band carries more power by exactly the inverse-gain offset
    np.testing.assert_allclose(
        res.powers[0] - res.powers[1], 1.0 / kappa[1] - 1.0 / kappa[0], rtol=1e-9
    )


def test_assignment_matrix_is_exact_partition():
    rng = np.random.default_rng(31)
    for _ in range(25):
        gains, bands, floors = random_instance(rng, with_floors=bool(rng.integers(2)))
        res = solve_allocation(gains, bands, 1.0, floors)
        assert res.winners.shape == (gains.shape[1],)
        assert res.winners.dtype.kind == "i"
        assert np.all((res.winners >= 0) & (res.winners < gains.shape[0]))
        assert float(res.powers.sum()) <= 1.0  # exact cap, no tolerance


def test_matches_brute_force_objective():
    rng = np.random.default_rng(32)
    for trial in range(12):
        gains, bands, floors = random_instance(rng, with_floors=trial % 2 == 0)
        res = solve_allocation(gains, bands, 1.0, floors)
        ref = brute_force_allocation(gains, bands, 1.0, floors, power_grid_step=0.02)
        if ref.feasible:
            assert res.feasible
            assert res.objective >= 0.98 * ref.objective, (
                f"trial {trial}: {res.objective:.4e} vs brute {ref.objective:.4e}"
            )


def test_kkt_stationarity_of_returned_point():
    rng = np.random.default_rng(33)
    for _ in range(15):
        gains, bands, floors = random_instance(rng, with_floors=True)
        res = solve_allocation(gains, bands, 1.0, floors)
        if not res.feasible:
            continue
        bw = np.array([b.bandwidth_hz for b in bands])
        noise = np.array([b.noise_power_w for b in bands])
        kappa = (gains / noise)[res.winners, np.arange(len(bands))]
        _, _, lam, mu = exact_solve_at(res.winners, gains, bands, 1.0, floors)
        weight = 1.0 + mu[res.winners]
        active = res.powers > 1e-12
        grad = weight * bw * kappa / ((1.0 + kappa * res.powers) * LN2)
        # active bands sit at the common level, inactive ones below it
        np.testing.assert_allclose(grad[active], lam, rtol=1e-6)
        assert np.all(grad[~active] <= lam * (1 + 1e-6))
        # complementary slackness on the rate floors
        for u in range(gains.shape[0]):
            if mu[u] > 1e-9:
                np.testing.assert_allclose(res.rates[u], floors[u], rtol=1e-6)
            else:
                assert res.rates[u] >= floors[u] * (1 - 1e-9)


def test_rate_floors_are_respected():
    rng = np.random.default_rng(34)
    for _ in range(20):
        gains, bands, floors = random_instance(rng, with_floors=True)
        res = solve_allocation(gains, bands, 1.0, floors)
        assert res.feasible
        assert np.all(res.rates >= floors * (1 - 1e-9) - 1e-9)


def test_over_budget_verdict_counts_every_assignment():
    # each floor is reachable alone, but no assignment meets both within
    # the budget, so all 2**3 assignments are evaluated and rejected
    res = solve_allocation(np.full((2, 3), 1e-9), make_bands([50e9] * 3), 1.0, 5.4e10)
    assert not res.feasible
    assert res.candidates_tried == 8


def test_unreachable_floor_certified_infeasible():
    bands = make_bands([50e9])
    gains = np.array([[1e-15], [1e-15]])
    for floor in (1e12, float("inf")):
        res = solve_allocation(gains, bands, 1.0, floor)
        assert not res.feasible
        assert res.objective == 0.0
        assert np.all(res.powers == 0.0)
        assert res.candidates_tried == 0


def test_warm_start_wins_exact_ties():
    # two identical UEs: both monopolies earn the same objective, the warm
    # assignment must be the one returned
    bands = make_bands([50e9, 50e9])
    gains = np.array([[2e-9, 1e-9], [2e-9, 1e-9]])
    warm = np.array([1, 1])
    res = solve_allocation(gains, bands, 1.0, 0.0, warm_winners=warm)
    np.testing.assert_array_equal(res.winners, warm)


def test_deterministic_repeat():
    rng = np.random.default_rng(35)
    gains, bands, floors = random_instance(rng, with_floors=True)
    a = solve_allocation(gains, bands, 1.0, floors)
    b = solve_allocation(gains, bands, 1.0, floors)
    np.testing.assert_array_equal(a.winners, b.winners)
    np.testing.assert_array_equal(a.powers, b.powers)
    assert a.objective == b.objective


def test_brute_force_refuses_large_instances():
    bands = make_bands([50e9] * 5)
    with pytest.raises(ValueError):
        brute_force_allocation(np.ones((2, 5)) * 1e-9, bands, 1.0, 0.0)
    with pytest.raises(ValueError):
        brute_force_allocation(np.ones((4, 2)) * 1e-9, make_bands([50e9, 50e9]), 1.0, 0.0)


def test_input_validation():
    bands = make_bands([50e9, 50e9])
    with pytest.raises(ValueError):
        solve_allocation(np.ones((1, 3)) * 1e-9, bands, 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_allocation(np.ones((1, 2)) * 1e-9, bands, -1.0, 0.0)
    with pytest.raises(ValueError):
        solve_allocation(np.ones((1, 2)) * 1e-9, bands, 1.0, -5.0)
    with pytest.raises(ValueError):
        solve_allocation(np.array([[1e-9, -1e-9]]), bands, 1.0, 0.0)
    gains = np.full((2, 2), 1e-9)
    for floors in (float("nan"), [1e9, float("nan")]):
        with pytest.raises(ValueError, match="rate requirements must be numbers"):
            solve_allocation(gains, bands, 1.0, floors)
    for floors in ([1e9, 1e9, 1e9], [[1e9, 1e9]], [[1e9], [1e9]]):
        with pytest.raises(ValueError, match="one rate requirement or one per UE"):
            solve_allocation(gains, bands, 1.0, floors)
    for warm in ([0.5, 1], [2, 0], [-1, 0], [float("nan"), 0]):
        with pytest.raises(ValueError, match="warm start must be integer UE indices below 2"):
            solve_allocation(gains, bands, 1.0, 0.0, warm_winners=warm)
    for warm in ([0, 1, 0], [[0], [1]]):
        with pytest.raises(ValueError, match="warm start must name one UE per band"):
            solve_allocation(gains, bands, 1.0, 0.0, warm_winners=warm)
    # integral values of any dtype still name an assignment
    assert solve_allocation(gains, bands, 1.0, 0.0, warm_winners=np.array([1.0, 0.0])).feasible


def floored_instance(rng, u, i):
    """Fixed-size instance with floors at 40% of a round-robin witness."""
    gains = 10.0 ** rng.uniform(-10.0, -7.5, (u, i))
    widths = rng.choice([25e9, 50e9], size=i)
    bands = make_bands(widths, noise=10.0 ** rng.uniform(-20.5, -19.5))
    winners = np.arange(i) % u
    kappa = gains / np.array([b.noise_power_w for b in bands])
    per_band = widths * np.log2(1.0 + kappa[winners, np.arange(i)] / i)
    return gains, bands, 0.4 * np.bincount(winners, weights=per_band, minlength=u)


@pytest.mark.parametrize("u, i", [(3, 5), (4, 5), (4, 6), (2, 8)])
def test_matches_exact_enumeration_beyond_81_assignments(u, i):
    rng = np.random.default_rng(36 + 10 * u + i)
    for trial in range(10):
        gains, bands, floors = floored_instance(rng, u, i)
        res = solve_allocation(gains, bands, 1.0, floors)
        objective, feasible = best_exact_solve(gains, bands, 1.0, floors)
        assert res.feasible == feasible, f"trial {trial}"
        assert res.objective == pytest.approx(objective, rel=1e-9), f"trial {trial}"
        if feasible:
            # powers match the scalar split of the same assignment
            powers, _, _, _ = exact_solve_at(res.winners, gains, bands, 1.0, floors)
            np.testing.assert_allclose(res.powers, powers, rtol=1e-9, atol=1e-15)


def test_refuses_plans_above_the_enumeration_cap():
    assert ENUMERATION_CAP == 4**6
    with pytest.raises(ValueError, match=r"4 UEs over 7 sub-bands give 16384 assignments"
                                         r", above the exact-allocation cap of 4096"):
        solve_allocation(np.ones((4, 7)) * 1e-9, make_bands([50e9] * 7), 1.0, 0.0)


@st.composite
def allocation_instances(draw):
    """Plans of at most 256 assignments with some dead links and some floors."""
    u = draw(st.integers(1, 4))
    i = draw(st.integers(1, {1: 8, 2: 8, 3: 5, 4: 4}[u]))
    exponents = draw(st.lists(st.floats(-11.0, -7.0), min_size=u * i, max_size=u * i))
    dead = draw(st.lists(st.booleans(), min_size=u * i, max_size=u * i))
    gains = np.where(dead, 0.0, 10.0 ** np.array(exponents)).reshape(u, i)
    widths = draw(st.lists(st.sampled_from([10e9, 25e9, 50e9]), min_size=i, max_size=i))
    floors = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e6, 1e11)), min_size=u, max_size=u)))
    p_max = draw(st.sampled_from([0.1, 1.0, 10.0]))
    return gains, make_bands(widths, noise=1e-20), floors, p_max


@settings(derandomize=True, max_examples=300, deadline=None)
@given(allocation_instances())
def test_result_meets_the_allocation_contract(instance):
    gains, bands, floors, p_max = instance
    res = solve_allocation(gains, bands, p_max, floors)
    if res.feasible:
        assert np.all(res.powers >= 0.0)
        assert float(np.sum(res.powers)) <= p_max  # exact, no tolerance
        assert np.all(res.rates >= floors * (1 - 1e-9) - 1e-9)
        assert float(np.sum(res.rates)) == res.objective
    else:
        assert np.all(res.winners == 0)
        assert np.all(res.powers == 0.0)
        assert np.all(res.rates == 0.0)
        assert res.objective == 0.0


def _assert_bitwise_equal(got, ref, case):
    for name in ("winners", "powers", "rates"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (case, name)
    assert type(got.objective) is type(ref.objective), case
    assert np.float64(got.objective).tobytes() == np.float64(ref.objective).tobytes(), case
    assert (got.feasible, got.candidates_tried) == (ref.feasible, ref.candidates_tried), case


def _oracle_instances(rng, u, i, p_max):
    """Instances of each floor kind, with and without a dead gain column."""
    gains, bands, witness_floors = floored_instance(rng, u, i)
    dead = gains.copy()
    dead[:, rng.integers(i)] = 0.0
    bw = np.array([b.bandwidth_hz for b in bands])
    noise = np.array([b.noise_power_w for b in bands])
    for label, g in (("", gains), ("-dead-column", dead)):
        floors = {
            "zero": np.zeros(u),
            "reachable": witness_floors,
            "unreachable": np.full(u, 1e13),
            # each UE meets its floor holding every band alone, never all at once
            "over-budget": 0.9 * (bw * np.log2(1.0 + g / noise * p_max)).sum(axis=1),
        }
        for kind, floor in floors.items():
            yield kind + label, g, bands, floor


@pytest.mark.parametrize("u", [1, 2, 3, 4])
def test_allocation_matches_reference_bit_for_bit(u):
    # every plan size within the cap.  At the unit budget: a cold start and
    # every warm start up to 256 assignments, a seeded sample of 16 beyond.
    # Irregular budgets (cold only) reach the over-budget shave.
    for i in range(1, 7):
        rng = np.random.default_rng(900 + 10 * u + i)
        count = u**i
        rows = range(count) if count <= 256 else rng.choice(count, 16, replace=False)
        warm_starts = [None] + [np.array(np.unravel_index(r, (u,) * i)) for r in rows]
        for p_max in (1.0, *rng.uniform(0.1, 6.0, 4)):
            for kind, gains, bands, floors in _oracle_instances(rng, u, i, p_max):
                for warm in warm_starts if p_max == 1.0 else [None]:
                    case = (u, i, p_max, kind, None if warm is None else warm.tolist())
                    got = solve_allocation(gains, bands, p_max, floors, warm_winners=warm)
                    ref = reference_solve_allocation(gains, bands, p_max, floors,
                                                     warm_winners=warm)
                    _assert_bitwise_equal(got, ref, case)


def test_assignment_table_is_cached_read_only():
    table = _assignment_table(3, 4)
    assert table is _assignment_table(3, 4)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    # a warm start's table: its row first, the rest in lexicographic order
    warm = _warm_first_table(3, 4, 5)
    assert warm is _warm_first_table(3, 4, 5)
    assert not warm.flags.writeable
    np.testing.assert_array_equal(warm, table[[5, *range(5), *range(6, 81)]])
    np.testing.assert_array_equal(table, np.indices((3,) * 4).reshape(4, -1).T)


def test_returned_winners_are_a_private_writable_copy():
    rng = np.random.default_rng(37)
    gains, bands, floors = floored_instance(rng, 2, 3)
    first = solve_allocation(gains, bands, 1.0, floors)
    kept = first.winners.copy()
    assert first.winners.flags.writeable
    assert not np.shares_memory(first.winners, _assignment_table(2, 3))
    first.winners[:] = 1 - first.winners
    again = solve_allocation(gains, bands, 1.0, floors)
    np.testing.assert_array_equal(again.winners, kept)
    assert again.objective == first.objective


def _verdicts(gains, bands, p_max, floors):
    """Feasibility from the single-plan solve and from the batched scorer."""
    single = solve_allocation(gains, bands, p_max, floors)
    plan = _BandPlan(bands, p_max, floors, len(gains))
    feasible, rates = score_allocations(gains[None], plan)
    assert (bool(feasible[0]), float(rates[0])) == (single.feasible, single.objective)
    return single.feasible


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("excess", [1.5e-9, 5e-9, 5e-8])
def test_floor_power_just_over_the_budget_is_infeasible(seed, excess):
    # U = I with a floor on every UE, so each UE holds exactly one band; the
    # cheapest assignment's floor power overshoots the budget by `excess`,
    # between the 1e-9 slack and 1e-6.  High-SNR floors (about 10 bit/Hz)
    # keep the final floor check from catching the overshoot on its own.
    rng = np.random.default_rng(seed)
    u = 2 + seed % 2
    bands = make_bands([50e9] * u)
    noise = np.array([b.noise_power_w for b in bands])
    gains = 10.0 ** rng.uniform(-9.0, -8.0, (u, u))
    floors = rng.uniform(4e11, 6e11, u)
    spend = min(sum((2.0 ** (floors[k] / 50e9) - 1.0) * noise[perm[k]] / gains[k, perm[k]]
                    for k in range(u))
                for perm in itertools.permutations(range(u)))
    assert not _verdicts(gains, bands, spend / (1.0 + excess), floors)
    assert _verdicts(gains, bands, spend * (1.0 + 1e-7), floors)


def _low_snr_floor_plan(seed):
    """Two UEs on two 50 GHz bands: UE 0's floor needs an SNR near 1e-8 on
    band 0, where its floor-level power is the difference of two nearly equal
    numbers; UE 1 is floor-free on a strong band 1."""
    rng = np.random.default_rng(seed)
    bands = make_bands([50e9, 50e9])
    gains = np.array([[10 ** rng.uniform(-18, -16), 10 ** rng.uniform(-18, -16)],
                      [10 ** rng.uniform(-18, -16), 10 ** rng.uniform(-9, -8)]])
    snr = gains[0, 0] / bands[0].noise_power_w * rng.uniform(0.2, 0.6)
    return gains, bands, np.array([50e9 * np.log2(1.0 + snr), 0.0])


def test_floor_shortfall_just_past_the_final_check_falls_back_to_the_next_row():
    # The best assignment (UE 0 on band 0, UE 1 on band 1) meets the budget,
    # but rounding leaves UE 0 short of its floor by a relative 3.3e-9,
    # between the final check's 1e-9 slack and 1e-6.  The check rejects that
    # row and the plan falls back to its next best: UE 0 holds both bands.
    gains, bands, floors = _low_snr_floor_plan(4)
    _, best_rates, _, _ = exact_solve_at(np.array([0, 1]), gains, bands, 1.0, floors)
    assert 1e-9 < 1.0 - best_rates[0] / floors[0] < 1e-6
    assert _verdicts(gains, bands, 1.0, floors)
    res = solve_allocation(gains, bands, 1.0, floors)
    assert res.winners.tolist() == [0, 0]
    assert res.rates[0] > floors[0]
    assert float(np.sum(res.powers)) <= 1.0


def test_every_low_snr_floor_plan_is_feasible():
    # UE 0 holding both bands meets its floor in every one of these 200
    # plans; in 84 of them the best row fails the final floor check and the
    # plan takes a later row that passes it
    fallbacks = 0
    for seed in range(200):
        gains, bands, floors = _low_snr_floor_plan(seed)
        _, best_rates, _, _ = exact_solve_at(np.array([0, 1]), gains, bands, 1.0, floors)
        _, alone_rates, _, _ = exact_solve_at(np.array([0, 0]), gains, bands, 1.0, floors)
        assert alone_rates[0] > floors[0], seed
        assert _verdicts(gains, bands, 1.0, floors), seed
        res = solve_allocation(gains, bands, 1.0, floors)
        assert np.all(res.rates >= floors * (1 - 1e-9) - 1e-9), seed
        assert float(np.sum(res.powers)) <= 1.0, seed
        if best_rates[0] < floors[0] * (1 - 1e-9) - 1e-9:
            fallbacks += 1
            assert res.winners.tolist() != [0, 1], seed
    assert fallbacks == 84


def _warm_start_instances(rng, u, i):
    """Plans with zero, drawn and impossible floors, some with a dead column."""
    gains = 10.0 ** rng.uniform(-10.0, -7.5, (u, i))
    if rng.random() < 0.3:
        gains[:, rng.integers(i)] = 0.0
    bands = make_bands(rng.choice([25e9, 50e9], size=i),
                       noise=10.0 ** rng.uniform(-20.5, -19.5))
    kappa = gains / np.array([b.noise_power_w for b in bands])
    full = (np.array([b.bandwidth_hz for b in bands]) * np.log2(1.0 + kappa)).sum(axis=1)
    for floors in (np.zeros(u), rng.uniform(0.0, 0.6, u) * full / u, np.full(u, 1e13)):
        yield gains, bands, floors


def test_warm_start_from_an_answer_returns_that_answer_bit_for_bit():
    # inner_solve ends its rounds on this: a warm-started allocation on
    # unchanged gains, warmed with its own answer's winners, returns it
    rng = np.random.default_rng(1313)
    cases = feasible = 0
    for u in range(1, 5):
        for i in range(1, 5):
            for _ in range(6):
                for gains, bands, floors in _warm_start_instances(rng, u, i):
                    for warm in (None, rng.integers(0, u, i)):
                        first = solve_allocation(gains, bands, 1.0, floors, warm_winners=warm)
                        again = solve_allocation(gains, bands, 1.0, floors,
                                                 warm_winners=first.winners)
                        _assert_bitwise_equal(again, first, (u, i, floors.tolist()))
                        cases += 1
                        feasible += first.feasible
    assert cases == 16 * 6 * 3 * 2 and 0 < feasible < cases


def test_water_filled_bound_caps_every_scored_sum_rate():
    # ranphi skips a lattice point on this bound, inflated by
    # bcs.BOUND_MARGIN = 1e-9 relative.  With no floors the best UE of each
    # band wins it and the bound is the exact optimum, so rounding puts it
    # a few ulps on either side of the scored rate and only that margin
    # keeps it above; the cases cover U, I = 1..4, floors from none up to
    # out of reach, dead bands and points, and budgets near SNR overflow.
    assert BOUND_MARGIN == 1e-9
    rng = np.random.default_rng(2024)
    tight = feasible = cases = 0
    for u in range(1, 5):
        for i in range(1, 5):
            for _ in range(3):
                gains = 10.0 ** rng.uniform(-10.0, -7.5, (24, u, i))
                gains[:4, :, rng.integers(i)] = 0.0       # a band no UE hears
                gains[4] = 0.0                            # a point that hears nothing
                bands = make_bands(rng.choice([25e9, 50e9], size=i),
                                   noise=10.0 ** rng.uniform(-20.5, -19.5))
                kappa = gains / np.array([b.noise_power_w for b in bands])
                # the largest SNR at the full budget a tenth of the way to overflow
                for p_max in (1.0, 0.1 * np.finfo(float).max / kappa.max()):
                    full = (np.array([b.bandwidth_hz for b in bands])
                            * np.log2(1.0 + kappa * p_max)).sum(axis=2).min()
                    for floors in (np.zeros(u), rng.uniform(0.0, 0.6, u) * full / u,
                                   np.full(u, 1e13), np.full(u, np.inf)):
                        plan = _BandPlan(bands, p_max, floors, u)
                        ok, rates = score_allocations(gains, plan)
                        bounds = sum_rate_bounds(gains, plan)
                        assert np.all(rates <= bounds * (1.0 + BOUND_MARGIN)), (u, i, p_max)
                        assert np.all(bounds[4] == 0.0)
                        tight += np.count_nonzero(rates > bounds)
                        feasible += np.count_nonzero(ok)
                        cases += len(ok)
    assert tight > 0 and 0 < feasible < cases


def test_batched_allocations_refuse_gains_that_do_not_fit_the_plan():
    # a one-UE plan given two-UE gains would have its (1,) floors broadcast
    # to two UEs, and a three-band plan given two-band gains would index
    # past them: every batched allocation names the misfit instead
    bands = make_bands([50e9, 50e9, 50e9])
    one_ue = _BandPlan(bands[:2], 1.0, [1e9], 1)
    three_bands = _BandPlan(bands, 1.0, 0.0, 2)
    gains = np.full((4, 2, 2), 1e-9)
    for plan in (one_ue, three_bands):
        for batched in (score_allocations, _cold_allocations, sum_rate_bounds):
            with pytest.raises(ValueError, match=r"gains of shape \(4, 2, 2\) do not fit a plan "
                                                 rf"of {plan.u_count} UEs over {len(plan)} sub-bands"):
                batched(gains, plan)
    # gains of the plan's own shape are scored
    feasible, rates = score_allocations(gains[:, :1], one_ue)
    assert feasible.all() and len(sum_rate_bounds(gains[:, :1], one_ue)) == 4
