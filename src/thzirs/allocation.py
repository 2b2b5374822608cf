"""Sub-band assignment and transmit power control.

Each sub-band goes to exactly one UE and the total power is capped; every UE
carries a minimum-rate constraint.  For a fixed assignment the optimal power
split is multi-level water-filling: per-UE levels are raised just enough to
meet each rate floor, and a common base level spends the rest of the budget.
``solve_allocation`` evaluates that closed form for every assignment at once,
with sorts and cumulative sums along the band axis, and keeps the best
feasible one, so the search is exact.  An infeasible verdict always comes
with all-zero winners, powers and rates.  Plans with more than
``ENUMERATION_CAP`` assignments are refused.  ``score_allocations`` runs the
same rows for P plans of one shape in one pass (an allocation row per point
and assignment) and returns each plan's feasibility and sum rate;
``_cold_allocations`` returns each plan's full ``AllocationResult``, and
``solve_allocation`` is the single-plan case of both.  ``sum_rate_bounds``
caps each plan's sum rate from above at the cost of one water-filling, so a
caller can skip the plans that cannot beat a rate it holds.  These three
take a ``_BandPlan``, which carries the sub-bands, budget and rate floors
checked and set up, in place of all three; ``solve_allocation`` takes one
in place of the sub-bands.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# largest number of assignments (U ** I) the exact search enumerates
ENUMERATION_CAP = 4**6


@dataclass
class AllocationResult:
    winners: np.ndarray        # (I,) UE index owning each band
    powers: np.ndarray         # (I,)
    rates: np.ndarray          # (U,)
    objective: float
    feasible: bool
    candidates_tried: int = 0  # assignments evaluated


def _failure(u_count, i_count, candidates_tried=0) -> AllocationResult:
    """The infeasible verdict: nothing assigned, no power, no rate."""
    return AllocationResult(
        winners=np.zeros(i_count, dtype=int),
        powers=np.zeros(i_count),
        rates=np.zeros(u_count),
        objective=0.0,
        feasible=False,
        candidates_tried=candidates_tried,
    )


@lru_cache(maxsize=64)
def _assignment_table(u_count, i_count):
    """Every assignment as an (U ** I, I) row, lexicographic; read-only."""
    table = np.indices((u_count,) * i_count).reshape(i_count, -1).T
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _warm_first_table(u_count, i_count, first):
    """``_assignment_table`` with row ``first`` moved to the front; read-only."""
    table = _assignment_table(u_count, i_count)
    table = np.concatenate([table[first:first + 1], table[:first], table[first + 1:]])
    table.flags.writeable = False
    return table


def _warm_row(warm_winners, u_count, i_count):
    """The lexicographic row of the warm assignment; raises unless it names one."""
    warm = np.asarray(warm_winners, dtype=float)
    if warm.shape != (i_count,):
        raise ValueError(f"warm start must name one UE per band, got {warm_winners}")
    first = 0
    for d in warm.tolist():
        if not (d.is_integer() and 0 <= d < u_count):
            raise ValueError(f"warm start must be integer UE indices below {u_count}, "
                             f"got {warm_winners}")
        first = first * u_count + int(d)
    return first


def _rate_levels(assignments, kappa, bw, rate_req):
    """Smallest water level per (assignment, point, UE) that meets the UE's floor.

    A UE's rate sum_k bw_k log2(max(1, nu bw_k kappa_k)) is log-linear in nu
    between band activations.  Counting only the first m of its bands in
    activation order, with no max(1, .), gives a rate that never exceeds the
    true one and equals it on the segment where exactly those bands are
    active; its closed-form level therefore never undershoots, and the
    smallest one over m is the level.  ``kappa`` is (P, U, I); the result is
    (A, P, U), inf where the floor is out of reach, 0 where there is none.
    Runs under the caller's ``np.errstate``.
    """
    # the array method and ufunc forms of argsort and cumsum skip the Python
    # wrappers of np.argsort and np.cumsum, a fixed cost on every call
    ues = np.arange(kappa.shape[1])[:, None]
    order = (1.0 / (bw * kappa)).argsort(axis=2, kind="stable")
    b = bw[order]                                   # (P, U, I) in activation order
    kap = kappa[np.arange(kappa.shape[0])[:, None, None], ues, order]
    live = kap > 0
    blog = np.where(live, b * np.log2(b * kap), 0.0)
    own = (assignments[:, order] == ues) & live     # (A, P, U, I)
    bsum = np.add.accumulate(np.where(own, b, 0.0), axis=3)
    ssum = np.add.accumulate(np.where(own, blog, 0.0), axis=3)
    nu = np.where(own, np.exp2((rate_req[:, None] - ssum) / bsum), np.inf)
    return np.where(rate_req > 0, nu.min(axis=3), 0.0)


def _budget_levels(bw, floors, min_levels, consts, spend, p_max):
    """Common water level per assignment row that spends exactly p_max.

    Band i takes max(consts_i, nu bw_i - floors_i), convex piecewise linear
    in nu with its breakpoint at max(floors_i / bw_i, min_levels_i).  Taking
    the first m breakpoints in order as passed under-counts the spend, so its
    closed-form level never undershoots and the smallest one is the level.
    ``spend`` is each row's sum of ``consts``.
    """
    bstar = np.maximum(floors / bw, min_levels)
    order = bstar.argsort(axis=1, kind="stable")
    rows = np.arange(order.shape[0])[:, None]
    b_acc = np.add.accumulate(bw[order], axis=1)
    fl_acc = np.add.accumulate(floors[rows, order], axis=1)
    c_out = spend[:, None] - np.add.accumulate(consts[rows, order], axis=1)
    nu = (p_max - c_out + fl_acc) / b_acc
    return np.where(np.isfinite(bstar[rows, order]), nu, np.inf).min(axis=1)


def _none_feasible(u_count, i_count):
    """No feasible point: empty indices, winners, powers and rates."""
    return (np.zeros(0, dtype=int), np.zeros((0, i_count), dtype=int), np.zeros((0, i_count)),
            np.zeros((0, u_count)))


def _allocate(kappa, bw, p_max, rate_req, assignments):
    """Best assignment and power split at each of P points, all at once.

    ``kappa`` is (P, U, I) SNR per watt and ``assignments`` the (A, I) rows in
    tie order: the first best row wins.  A point is tried only when its
    ``certified`` flag holds: some floor out of reach even with every band at
    the full budget simultaneously rules out every assignment at once.
    A best row that fails the final floor check gives way to the point's
    next best row.  Returns ``certified`` (P,), the indices of the feasible
    points (in no set order), and their winners (F, I), powers (F, I) and
    rates (F, U).
    """
    u_count, i_count = kappa.shape[1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        optimistic = (bw * np.log2(1.0 + kappa * p_max)).sum(axis=2)
        certified = (optimistic >= rate_req).all(axis=1)
        tried = certified.nonzero()[0]
        p_count = tried.size
        if not p_count:
            return certified, *_none_feasible(u_count, i_count)
        if p_count < certified.size:
            kappa = kappa[tried]

        # the points share one table: drop the assignments none of them can use
        nu_rate = _rate_levels(assignments, kappa, bw, rate_req).swapaxes(0, 1)
        open_rows = np.isfinite(nu_rate).all(axis=2)       # (P, A)
        used = open_rows.any(axis=0)
        if not used.all():
            assignments, nu_rate, open_rows = assignments[used], nu_rate[:, used], open_rows[:, used]
        a_count = assignments.shape[0]

        # one allocation row per (point, assignment), point-major
        kap_w = kappa[:, assignments, np.arange(i_count)].reshape(-1, i_count)
        live = kap_w > 0
        floors = 1.0 / kap_w                               # inf on bands that earn nothing
        min_levels = nu_rate[:, np.arange(a_count)[:, None], assignments].reshape(-1, i_count)
        consts = np.maximum(0.0, min_levels * bw - floors)
        spend = consts.sum(axis=1)
        nu_base = _budget_levels(bw, floors, min_levels, consts, spend, p_max)
        split = np.where(live, np.maximum(consts, nu_base[:, None] * bw - floors), 0.0)
        split *= p_max / np.maximum(split.sum(axis=1), p_max)[:, None]
        objective = (bw * np.log2(1.0 + kap_w * split)).sum(axis=1)

    # each point keeps its first best row among those whose floors fit the
    # budget and whose rounded rates pass the final floor check
    fits = (spend <= p_max * (1 + 1e-9)).reshape(p_count, a_count) & open_rows
    score = np.where(fits, objective.reshape(p_count, a_count), -np.inf)
    pending = fits.any(axis=1).nonzero()[0]
    kept = []
    while pending.size:
        first = score[pending].argmax(axis=1)
        best = pending * a_count + first
        winners, powers = assignments[first], split[best]
        # rounding can leave a sum a few ulps over budget; shave each row's
        # largest entry until its cap holds under exact comparison
        excess = powers.sum(axis=1) - p_max
        over = (excess > 0).nonzero()[0]
        while over.size:
            powers[over, powers[over].argmax(axis=1)] -= excess[over]
            excess = powers.sum(axis=1) - p_max
            over = (excess > 0).nonzero()[0]
        per_band = bw * np.log2(1.0 + kap_w[best] * powers)
        rates = np.zeros((pending.size, u_count))
        np.add.at(rates, (np.arange(pending.size)[:, None], winners), per_band)
        met = (rates >= rate_req * (1 - 1e-9) - 1e-9).all(axis=1)
        if met.all():
            kept.append((pending, winners, powers, rates))
            break
        kept.append((pending[met], winners[met], powers[met], rates[met]))
        # a floor that needs a very low SNR puts its floor-level power at the
        # difference of two nearly equal numbers, and the rounded rate can
        # fall a few 1e-9 short; such a point falls back to its next best row
        pending, first = pending[~met], first[~met]
        fits[pending, first] = False
        score[pending, first] = -np.inf
        pending = pending[fits[pending].any(axis=1)]
    if not kept:
        return certified, *_none_feasible(u_count, i_count)
    points, winners, powers, rates = (
        kept[0] if len(kept) == 1 else (np.concatenate(part) for part in zip(*kept)))
    return certified, tried[points], winners, powers, rates


def _results(allocated, u_count, i_count, a_count):
    """``_allocate``'s output as one ``AllocationResult`` per point, in point
    order; a certified point counts its ``a_count`` assignments as tried."""
    certified, points, winners, powers, rates = allocated
    results = [None] * certified.size
    for f, p in enumerate(points.tolist()):
        results[p] = AllocationResult(
            winners=winners[f],
            powers=powers[f],
            rates=rates[f],
            objective=float(rates[f].sum()),
            feasible=True,
            candidates_tried=a_count,
        )
    return [_failure(u_count, i_count, a_count if tried else 0) if result is None else result
            for result, tried in zip(results, certified.tolist())]


def _rate_floors(rate_requirements, u_count):
    """One rate floor or one per UE as a fresh (U,) array; raises unless
    every floor is a non-negative number."""
    rate_req = np.asarray(rate_requirements, dtype=float)
    if rate_req.shape not in ((), (1,), (u_count,)):
        raise ValueError(f"need one rate requirement or one per UE, got shape {rate_req.shape}")
    rate_req = np.full(u_count, rate_req)
    if not (rate_req >= 0).all():
        if np.isnan(rate_req).any():
            raise ValueError(f"rate requirements must be numbers, got {rate_req}")
        raise ValueError("rate requirements must be non-negative")
    return rate_req


class _SnrOverflow(ValueError):
    """The SNR at the full budget overflows: no allocation has a finite rate."""


class _BandPlan(tuple):
    """The sub-bands of one plan with the set-up every allocation on them
    shares at one budget and one set of rate floors: the floors as a
    read-only (U,) array, the bandwidths and the noise powers, each checked
    once.  The batched allocations take it alone and refuse gains of
    another UE or band count; ``solve_allocation(gains, plan, plan.p_max,
    plan.floors)`` takes it in place of the sub-bands, and with any other
    budget, floors or UE count sets the plan up afresh."""

    def __new__(cls, sub_bands, p_max, rate_requirements, u_count):
        plan = super().__new__(cls, sub_bands)
        if p_max <= 0 or not np.isfinite(p_max):
            raise ValueError(f"power budget must be positive, got {p_max}")
        plan.p_max, plan.u_count = p_max, u_count
        plan.floors = _rate_floors(rate_requirements, u_count)
        plan.floors.flags.writeable = False
        if u_count**len(plan) > ENUMERATION_CAP:
            raise ValueError(
                f"{u_count} UEs over {len(plan)} sub-bands give {u_count**len(plan)} assignments, "
                f"above the exact-allocation cap of {ENUMERATION_CAP}")
        plan.bw = np.array([b.bandwidth_hz for b in plan])
        plan.noise = np.array([b.noise_power_w for b in plan])
        return plan

    @classmethod
    def of(cls, sub_bands, p_max, rate_requirements, u_count):
        """``sub_bands`` itself when it is a plan of that budget, floors
        object and UE count, else a plan set up afresh."""
        if (isinstance(sub_bands, cls) and sub_bands.p_max == p_max
                and sub_bands.floors is rate_requirements and sub_bands.u_count == u_count):
            return sub_bands
        return cls(sub_bands, p_max, rate_requirements, u_count)


def _checked_inputs(gains, plan):
    """``_snr_per_watt`` of valid gains; raises unless they are finite and
    non-negative and their SNR at the full budget is finite."""
    if (gains < 0).any() or not np.isfinite(gains).all():
        raise ValueError("channel power gains must be finite and non-negative")
    kappa, finite = _snr_per_watt(gains, plan)
    if not finite.all():
        raise _SnrOverflow(f"SNR at the full budget overflows: gains / noise * p_max is not "
                           f"finite at p_max = {plan.p_max}")
    return kappa


def _snr_per_watt(gains, plan):
    """(SNR per watt, whether the SNR at the full budget is finite) for each
    entry of (..., U, I) ``gains`` on the ``_BandPlan`` ``plan``; raises
    unless the gains hold its UE and band counts.  The allocation refuses a
    plan with a non-finite entry: its SNR overflows."""
    if gains.shape[-2:] != (plan.u_count, len(plan)):
        raise ValueError(f"gains of shape {gains.shape} do not fit a plan of {plan.u_count} "
                         f"UEs over {len(plan)} sub-bands")
    with np.errstate(over="ignore"):
        kappa = gains / plan.noise
        return kappa, np.isfinite(kappa * plan.p_max)


def solve_allocation(
    channel_power_gains,
    sub_bands,
    p_max: float,
    rate_requirements,
    warm_winners=None,
) -> AllocationResult:
    """Assign sub-bands and split power, exactly, by evaluating every assignment.

    Args:
        channel_power_gains: (U, I) array of |h|^2.
        sub_bands: list of SubBand (bandwidth and noise density are used).
        p_max: total transmit power budget, W.
        rate_requirements: scalar or (U,) per-UE rate floors, bit/s.
        warm_winners: optional assignment evaluated first, so it wins exact
            ties; other ties go to the lexicographically smallest assignment.

    Raises ValueError on invalid inputs and when U ** I exceeds
    ``ENUMERATION_CAP``.
    """
    gains = np.atleast_2d(np.asarray(channel_power_gains, dtype=float))
    plan = _BandPlan.of(sub_bands, p_max, rate_requirements, gains.shape[0])
    kappa = _checked_inputs(gains, plan)
    u_count, i_count = gains.shape
    # every assignment in lexicographic order, the warm one moved to the front
    if warm_winners is None:
        assignments = _assignment_table(u_count, i_count)
    else:
        assignments = _warm_first_table(u_count, i_count, _warm_row(warm_winners, u_count, i_count))
    return _results(_allocate(kappa[None], plan.bw, p_max, plan.floors, assignments), u_count,
                    i_count, assignments.shape[0])[0]


def _cold_allocations(channel_power_gains, plan):
    """``solve_allocation`` without a warm start for each of P (U, I) plans
    on the ``_BandPlan`` ``plan`` in one pass: its ``AllocationResult`` bit
    for bit, one per plan."""
    gains = np.asarray(channel_power_gains, dtype=float)
    kappa = _checked_inputs(gains, plan)
    assignments = _assignment_table(plan.u_count, len(plan))
    return _results(_allocate(kappa, plan.bw, plan.p_max, plan.floors, assignments),
                    plan.u_count, len(plan), assignments.shape[0])


def score_allocations(channel_power_gains, plan):
    """Feasibility and optimal sum rate of P separate plans in one pass.

    ``channel_power_gains`` is (P, U, I) on the ``_BandPlan`` ``plan``.
    Point p's (feasible, sum rate) is bit for bit the ``feasible`` and
    ``objective`` that ``solve_allocation`` returns for its (U, I) gains:
    the same rows, the same first-best tie rule, budget shave and final
    floor check.  Returns two (P,) arrays, the sum rate 0.0 where
    infeasible.  Raises as ``solve_allocation`` does.
    """
    gains = np.asarray(channel_power_gains, dtype=float)
    kappa = _checked_inputs(gains, plan)
    assignments = _assignment_table(plan.u_count, len(plan))
    _, points, _, _, rates = _allocate(kappa, plan.bw, plan.p_max, plan.floors, assignments)
    feasible = np.zeros(len(gains), dtype=bool)
    sum_rates = np.zeros(len(gains))
    feasible[points] = True
    sum_rates[points] = rates.sum(axis=1)
    return feasible, sum_rates


def sum_rate_bounds(channel_power_gains, plan):
    """Upper bound on ``score_allocations``' sum rate at each of P plans.

    Every band goes to the UE with its largest SNR and the budget is
    water-filled over the bands with no rate floors: no assignment, power
    split or floor earns more.  ``channel_power_gains`` is (P, U, I) on the
    ``_BandPlan`` ``plan``; returns a (P,) array, of no meaning where the
    SNR at the full budget overflows.  Rounding may leave it a few ulps
    under the true bound, so a caller that prunes on it inflates it.
    """
    gains = np.asarray(channel_power_gains, dtype=float)
    kappa = _snr_per_watt(gains, plan)[0].max(axis=1)             # (P, I)
    bw = plan.bw
    live = kappa > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        floors = 1.0 / kappa                                       # inf on bands that earn nothing
        none = np.zeros_like(kappa)
        nu = _budget_levels(bw, floors, none, none, none[:, 0], plan.p_max)
        split = np.where(live, np.maximum(0.0, nu[:, None] * bw - floors), 0.0)
        return (bw * np.log2(1.0 + kappa * split)).sum(axis=1)
