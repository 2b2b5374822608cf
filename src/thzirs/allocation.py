"""Sub-band assignment and transmit power control.

Each sub-band goes to exactly one UE and the total power is capped; every UE
carries a minimum-rate constraint.  For a fixed assignment the optimal power
split is multi-level water-filling: per-UE levels are raised just enough to
meet each rate floor, and a common base level spends the rest of the budget.
``solve_allocation`` evaluates that closed form for every assignment at once,
with sorts and cumulative sums along the band axis, and keeps the best
feasible one, so the search is exact.  An infeasible verdict always comes
with all-zero winners, powers and rates.  Plans with more than
``ENUMERATION_CAP`` assignments are refused.
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


def _rate_levels(assignments, kappa, bw, rate_req):
    """Smallest water level per (assignment, UE) that meets the UE's floor.

    A UE's rate sum_k bw_k log2(max(1, nu bw_k kappa_k)) is log-linear in nu
    between band activations.  Counting only the first m of its bands in
    activation order, with no max(1, .), gives a rate that never exceeds the
    true one and equals it on the segment where exactly those bands are
    active; its closed-form level therefore never undershoots, and the
    smallest one over m is the level.  (A, U); inf where the floor is out of
    reach, 0 where there is none.  Runs under the caller's ``np.errstate``.
    """
    ues = np.arange(kappa.shape[0])[:, None]
    order = np.argsort(1.0 / (bw * kappa), axis=1, kind="stable")
    b = bw[order]                                   # (U, I) in activation order
    kap = kappa[ues, order]
    live = kap > 0
    blog = np.where(live, b * np.log2(np.where(live, b * kap, 1.0)), 0.0)
    own = (assignments[:, order] == ues) & live     # (A, U, I)
    bsum = np.cumsum(np.where(own, b, 0.0), axis=2)
    ssum = np.cumsum(np.where(own, blog, 0.0), axis=2)
    nu = np.where(own, np.exp2((rate_req[:, None] - ssum) / bsum), np.inf)
    return np.where(rate_req > 0, nu.min(axis=2), 0.0)


def _budget_levels(bw, floors, min_levels, consts, p_max):
    """Common water level per assignment that spends exactly p_max.

    Band i takes max(consts_i, nu bw_i - floors_i), convex piecewise linear
    in nu with its breakpoint at max(floors_i / bw_i, min_levels_i).  Taking
    the first m breakpoints in order as passed under-counts the spend, so its
    closed-form level never undershoots and the smallest one is the level.
    """
    bstar = np.maximum(floors / bw, min_levels)
    order = np.argsort(bstar, axis=1, kind="stable")
    rows = np.arange(order.shape[0])[:, None]
    b_acc = np.cumsum(bw[order], axis=1)
    fl_acc = np.cumsum(floors[rows, order], axis=1)
    c_out = consts.sum(axis=1, keepdims=True) - np.cumsum(consts[rows, order], axis=1)
    nu = (p_max - c_out + fl_acc) / b_acc
    return np.where(np.isfinite(bstar[rows, order]), nu, np.inf).min(axis=1)


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
    u_count, i_count = gains.shape
    if len(sub_bands) != i_count:
        raise ValueError(f"{len(sub_bands)} sub-bands for {i_count} gain columns")
    if p_max <= 0 or not np.isfinite(p_max):
        raise ValueError(f"power budget must be positive, got {p_max}")
    if (gains < 0).any() or not np.isfinite(gains).all():
        raise ValueError("channel power gains must be finite and non-negative")
    rate_req = np.broadcast_to(np.asarray(rate_requirements, dtype=float), (u_count,)).copy()
    if np.isnan(rate_req).any():
        raise ValueError(f"rate requirements must be numbers, got {rate_req}")
    if (rate_req < 0).any():
        raise ValueError("rate requirements must be non-negative")
    if u_count**i_count > ENUMERATION_CAP:
        raise ValueError(
            f"{u_count} UEs over {i_count} sub-bands give {u_count**i_count} assignments, "
            f"above the exact-allocation cap of {ENUMERATION_CAP}")
    if warm_winners is not None:
        warm = np.asarray(warm_winners)
        if not np.array_equal(warm, warm.astype(int)):
            raise ValueError(f"warm start must be integer UE indices, got {warm_winners}")
        first = int(np.ravel_multi_index(warm.astype(int), (u_count,) * i_count))

    bw = np.array([b.bandwidth_hz for b in sub_bands])
    noise = np.array([b.noise_power_w for b in sub_bands])
    kappa = gains / noise  # SNR per watt

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Certificate: when a floor is out of reach even with every band at
        # the full budget simultaneously, no assignment can meet it.
        optimistic = (bw * np.log2(1.0 + kappa * p_max)).sum(axis=1)
        if (optimistic < rate_req).any():
            return _failure(u_count, i_count)

        # every assignment in lexicographic order, the warm one moved to the front
        assignments = _assignment_table(u_count, i_count)
        if warm_winners is not None:
            assignments = np.concatenate(
                [assignments[first:first + 1], assignments[:first], assignments[first + 1:]])
        tried = assignments.shape[0]

        nu_rate = _rate_levels(assignments, kappa, bw, rate_req)
        reachable = np.isfinite(nu_rate).all(axis=1)
        if not reachable.all():
            assignments, nu_rate = assignments[reachable], nu_rate[reachable]

        kap_w = kappa[assignments, np.arange(i_count)]   # (A, I)
        live = kap_w > 0
        floors = 1.0 / kap_w                              # inf on bands that earn nothing
        min_levels = nu_rate[np.arange(assignments.shape[0])[:, None], assignments]
        consts = np.maximum(0.0, min_levels * bw - floors)
        nu_base = _budget_levels(bw, floors, min_levels, consts, p_max)
        powers = np.where(live, np.maximum(consts, nu_base[:, None] * bw - floors), 0.0)
        powers *= p_max / np.maximum(powers.sum(axis=1), p_max)[:, None]
        objective = (bw * np.log2(1.0 + kap_w * powers)).sum(axis=1)

    feasible = consts.sum(axis=1) <= p_max * (1 + 1e-9)
    if not feasible.any():
        return _failure(u_count, i_count, tried)
    best = int(np.where(feasible, objective, -np.inf).argmax())

    winners, powers = assignments[best], powers[best].copy()
    # rounding can leave the sum a few ulps over budget; shave the largest
    # entry until the cap holds under exact comparison
    excess = float(powers.sum()) - p_max
    while excess > 0:
        powers[int(powers.argmax())] -= excess
        excess = float(powers.sum()) - p_max
    per_band = bw * np.log2(1.0 + kap_w[best] * powers)
    rates = np.bincount(winners, weights=per_band, minlength=u_count)
    if not (rates >= rate_req * (1 - 1e-9) - 1e-9).all():
        return _failure(u_count, i_count, tried)
    return AllocationResult(
        winners=winners.copy(),
        powers=powers,
        rates=rates,
        objective=float(rates.sum()),
        feasible=True,
        candidates_tried=tried,
    )
