"""Reference solvers for the allocation tests.

``_exact_power_solve`` is the scalar, one-assignment form of the power split
that ``solve_allocation`` computes for every assignment at once; walking it
over all assignments gives an independent exact optimum.
``brute_force_allocation`` grids the power split instead and so checks the
water-filling itself.  ``reference_solve_allocation`` is ``solve_allocation``
as it stood before its per-call bookkeeping was trimmed (a fresh assignment
table per call, ``np.take_along_axis`` gathers, the reachable-row filter on
every call); the library does the same arithmetic in the same order, so
every field of every result must agree bit for bit.
"""

import numpy as np

from thzirs.allocation import ENUMERATION_CAP, AllocationResult, _failure

LN2 = np.log(2.0)


def _rate_level(bw, kappa, required):
    """Smallest water level nu with sum_k bw_k log2(max(1, nu bw_k kappa_k))
    at least ``required``.

    Between band activations the rate is log-linear in nu, so each segment
    has a closed form; the first one whose solution stays inside the segment
    wins.  Returns inf when no finite level reaches the requirement.
    """
    if required <= 0:
        return 0.0
    live = kappa > 0
    if not np.any(live):
        return np.inf
    b = bw[live]
    k = kappa[live]
    act = 1.0 / (b * k)
    order = np.argsort(act)
    b, k, act = b[order], k[order], act[order]
    logs = np.log2(b * k)
    bsum = np.cumsum(b)
    ssum = np.cumsum(b * logs)
    for m in range(b.size):
        exponent = (required - ssum[m]) / bsum[m]
        nu = np.inf if exponent > 1023 else 2.0 ** exponent
        hi = act[m + 1] if m + 1 < b.size else np.inf
        if nu <= hi:
            return float(nu)
    return np.inf


def _budget_level(bw, floors, min_levels, consts, p_max):
    """Common water level that spends exactly p_max.

    Band i contributes max(consts_i, nu bw_i - floors_i), a convex piecewise
    linear increasing function of nu with one breakpoint per band, so the
    total is solved segment by segment.
    """
    bstar = np.maximum(floors / bw, min_levels)
    order = np.argsort(bstar)
    b_acc = 0.0
    fl_acc = 0.0
    c_out = float(np.sum(consts))
    nu = float(bstar[order[0]])
    for pos, idx in enumerate(order):
        if not np.isfinite(bstar[idx]):
            break
        b_acc += bw[idx]
        fl_acc += floors[idx]
        c_out -= consts[idx]
        nu = (p_max - c_out + fl_acc) / b_acc
        nxt = bstar[order[pos + 1]] if pos + 1 < order.size else np.inf
        if nu <= nxt:
            return float(nu)
    return float(nu)


def _exact_power_solve(winners, kappa, bw, p_max, rate_req):
    """Exact power split for a fixed assignment.

    Per-UE water levels are raised just enough to meet each rate floor, a
    common base level then spends the remaining budget, and the multipliers
    fall out of the two levels, so the KKT system holds to rounding error.
    Returns None when the assignment cannot meet the rate floors.
    """
    u_count, i_count = kappa.shape
    winners = np.asarray(winners, dtype=int)
    cols = np.arange(i_count)

    nu_rate = np.zeros(u_count)
    for u in range(u_count):
        mask = winners == u
        nu_rate[u] = _rate_level(bw[mask], kappa[u, mask], float(rate_req[u]))
        if not np.isfinite(nu_rate[u]):
            return None

    kap_w = kappa[winners, cols]
    if not np.any(kap_w > 0):
        # nothing to gain from power; feasible only with zero rate floors
        return np.zeros(i_count), np.zeros(u_count), 0.0, np.zeros(u_count)

    with np.errstate(divide="ignore"):
        floors = np.where(kap_w > 0, 1.0 / np.where(kap_w > 0, kap_w, 1.0), np.inf)
    min_levels = nu_rate[winners]
    consts = np.maximum(0.0, min_levels * bw - floors)
    if float(np.sum(consts)) > p_max * (1 + 1e-9):
        return None

    nu_base = _budget_level(bw, floors, min_levels, consts, p_max)
    powers = np.maximum(consts, nu_base * bw - floors)
    total = float(np.sum(powers))
    if total > p_max:
        powers *= p_max / total
    # rounding can leave the sum a few ulps over budget; shave the largest
    # entry until the cap holds under exact comparison
    excess = float(np.sum(powers)) - p_max
    while excess > 0:
        powers[int(np.argmax(powers))] -= excess
        excess = float(np.sum(powers)) - p_max

    per_band = bw * np.log2(1.0 + kap_w * powers)
    rates = np.zeros(u_count)
    np.add.at(rates, winners, per_band)

    lam = 1.0 / (nu_base * LN2)
    mu = np.maximum(0.0, nu_rate / nu_base - 1.0)
    return powers, rates, lam, mu


def exact_solve_at(winners, channel_power_gains, sub_bands, p_max, rate_requirements):
    """``_exact_power_solve`` for one assignment, with ``solve_allocation``'s
    arguments."""
    gains = np.atleast_2d(np.asarray(channel_power_gains, dtype=float))
    rate_req = np.broadcast_to(np.asarray(rate_requirements, dtype=float), gains.shape[:1])
    bw = np.array([b.bandwidth_hz for b in sub_bands])
    kappa = gains / np.array([b.noise_power_w for b in sub_bands])
    return _exact_power_solve(winners, kappa, bw, p_max, rate_req)


def best_exact_solve(channel_power_gains, sub_bands, p_max, rate_requirements):
    """Best sum rate of ``_exact_power_solve`` over every assignment.

    Returns (objective, feasible); (0.0, False) when no assignment meets the
    rate floors.
    """
    u_count, i_count = np.shape(channel_power_gains)
    best = None
    for winners in np.indices((u_count,) * i_count).reshape(i_count, -1).T:
        solved = exact_solve_at(winners, channel_power_gains, sub_bands, p_max, rate_requirements)
        if solved is not None and (best is None or float(np.sum(solved[1])) > best):
            best = float(np.sum(solved[1]))
    return (0.0, False) if best is None else (best, True)


def _compositions(units: int, parts: int) -> np.ndarray:
    """All non-negative integer tuples of length ``parts`` summing to ``units``."""
    if parts == 1:
        return np.array([[units]], dtype=np.int32)
    rows = []
    for first in range(units + 1):
        rest = _compositions(units - first, parts - 1)
        head = np.full((rest.shape[0], 1), first, dtype=np.int32)
        rows.append(np.hstack([head, rest]))
    return np.vstack(rows)


def brute_force_allocation(
    channel_power_gains,
    sub_bands,
    p_max: float,
    rate_requirements,
    power_grid_step: float = 0.01,
) -> AllocationResult:
    """Exhaustive reference: every assignment times a gridded power split.

    Desk-scale only; refuses instances beyond U = 3, I = 4 because the grid
    has (p_max/step + I - 1 choose I - 1) splits per assignment.
    """
    gains = np.atleast_2d(np.asarray(channel_power_gains, dtype=float))
    u_count, i_count = gains.shape
    if u_count > 3 or i_count > 4:
        raise ValueError(f"instance too large to enumerate: U={u_count}, I={i_count}")
    rate_req = np.broadcast_to(np.asarray(rate_requirements, dtype=float), (u_count,)).copy()
    bw = np.array([b.bandwidth_hz for b in sub_bands])
    noise = np.array([b.noise_power_w for b in sub_bands])
    kappa = gains / noise

    units = int(round(p_max / power_grid_step))
    grid = _compositions(units, i_count).astype(float) * power_grid_step  # (M, I)

    # Rate earned by band i under UE u across all grid rows, cached lazily.
    cache: dict = {}

    def column(u, i):
        key = (u, i)
        if key not in cache:
            cache[key] = bw[i] * np.log2(1.0 + kappa[u, i] * grid[:, i])
        return cache[key]

    best = None
    assignments = np.stack(
        np.meshgrid(*[np.arange(u_count)] * i_count, indexing="ij"), axis=-1
    ).reshape(-1, i_count)
    for winners in assignments:
        per_ue = np.zeros((grid.shape[0], u_count))
        for i in range(i_count):
            per_ue[:, winners[i]] += column(winners[i], i)
        feas = np.all(per_ue >= rate_req[None, :], axis=1)
        if not np.any(feas):
            continue
        totals = np.where(feas, per_ue.sum(axis=1), -np.inf)
        row = int(np.argmax(totals))
        if best is None or totals[row] > best[0]:
            best = (float(totals[row]), winners.copy(), grid[row].copy(), per_ue[row].copy())

    if best is None:
        return AllocationResult(
            winners=np.zeros(i_count, dtype=int),
            powers=np.zeros(i_count),
            rates=np.zeros(u_count),
            objective=0.0,
            feasible=False,
        )
    objective, winners, powers, rates = best
    return AllocationResult(
        winners=winners,
        powers=powers,
        rates=rates,
        objective=objective,
        feasible=True,
    )


# -- reference form of solve_allocation --------------------------------------

def _rate_levels(assignments, kappa, bw, rate_req):
    """Smallest water level per (assignment, UE) that meets the UE's floor.

    A UE's rate sum_k bw_k log2(max(1, nu bw_k kappa_k)) is log-linear in nu
    between band activations.  Counting only the first m of its bands in
    activation order, with no max(1, .), gives a rate that never exceeds the
    true one and equals it on the segment where exactly those bands are
    active; its closed-form level therefore never undershoots, and the
    smallest one over m is the level.  (A, U); inf where the floor is out of
    reach, 0 where there is none.
    """
    u_count = kappa.shape[0]
    with np.errstate(divide="ignore"):
        order = np.argsort(1.0 / (bw * kappa), axis=1, kind="stable")
    b = bw[order]                                   # (U, I) in activation order
    kap = np.take_along_axis(kappa, order, axis=1)
    live = kap > 0
    blog = np.where(live, b * np.log2(np.where(live, b * kap, 1.0)), 0.0)
    own = (assignments[:, order] == np.arange(u_count)[:, None]) & live  # (A, U, I)
    bsum = np.cumsum(np.where(own, b, 0.0), axis=2)
    ssum = np.cumsum(np.where(own, blog, 0.0), axis=2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    b_acc = np.cumsum(bw[order], axis=1)
    fl_acc = np.cumsum(np.take_along_axis(floors, order, axis=1), axis=1)
    c_out = consts.sum(axis=1, keepdims=True) - np.cumsum(
        np.take_along_axis(consts, order, axis=1), axis=1)
    nu = (p_max - c_out + fl_acc) / b_acc
    return np.where(np.isfinite(np.take_along_axis(bstar, order, axis=1)), nu, np.inf).min(axis=1)


def reference_solve_allocation(
    channel_power_gains,
    sub_bands,
    p_max: float,
    rate_requirements,
    warm_winners=None,
) -> AllocationResult:
    """``solve_allocation`` as first written: every assignment, exactly.

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
    if np.any(gains < 0) or not np.all(np.isfinite(gains)):
        raise ValueError("channel power gains must be finite and non-negative")
    rate_req = np.broadcast_to(np.asarray(rate_requirements, dtype=float), (u_count,)).copy()
    if np.any(rate_req < 0):
        raise ValueError("rate requirements must be non-negative")
    if u_count**i_count > ENUMERATION_CAP:
        raise ValueError(
            f"{u_count} UEs over {i_count} sub-bands give {u_count**i_count} assignments, "
            f"above the exact-allocation cap of {ENUMERATION_CAP}")

    bw = np.array([b.bandwidth_hz for b in sub_bands])
    noise = np.array([b.noise_power_w for b in sub_bands])
    kappa = gains / noise  # SNR per watt

    # Certificate: when a floor is out of reach even with every band at the
    # full budget simultaneously, no assignment can meet it.
    optimistic = np.sum(bw * np.log2(1.0 + kappa * p_max), axis=1)
    if np.any(optimistic < rate_req):
        return _failure(u_count, i_count)

    # every assignment in lexicographic order, the warm one moved to the front
    assignments = np.indices((u_count,) * i_count).reshape(i_count, -1).T
    if warm_winners is not None:
        first = int(np.ravel_multi_index(np.asarray(warm_winners, dtype=int), (u_count,) * i_count))
        assignments = np.concatenate(
            [assignments[first:first + 1], assignments[:first], assignments[first + 1:]])
    tried = assignments.shape[0]

    nu_rate = _rate_levels(assignments, kappa, bw, rate_req)
    reachable = np.all(np.isfinite(nu_rate), axis=1)
    assignments, nu_rate = assignments[reachable], nu_rate[reachable]

    cols = np.arange(i_count)
    kap_w = kappa[assignments, cols]                 # (A, I)
    live = kap_w > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        floors = 1.0 / kap_w                         # inf on bands that earn nothing
        min_levels = np.take_along_axis(nu_rate, assignments, axis=1)
        consts = np.maximum(0.0, min_levels * bw - floors)
        nu_base = _budget_levels(bw, floors, min_levels, consts, p_max)
        powers = np.where(live, np.maximum(consts, nu_base[:, None] * bw - floors), 0.0)
    powers *= p_max / np.maximum(powers.sum(axis=1), p_max)[:, None]
    objective = np.sum(bw * np.log2(1.0 + kap_w * powers), axis=1)

    feasible = consts.sum(axis=1) <= p_max * (1 + 1e-9)
    if not np.any(feasible):
        return _failure(u_count, i_count, tried)
    best = int(np.argmax(np.where(feasible, objective, -np.inf)))

    winners, powers = assignments[best], powers[best].copy()
    # rounding can leave the sum a few ulps over budget; shave the largest
    # entry until the cap holds under exact comparison
    excess = float(np.sum(powers)) - p_max
    while excess > 0:
        powers[int(np.argmax(powers))] -= excess
        excess = float(np.sum(powers)) - p_max
    per_band = bw * np.log2(1.0 + kap_w[best] * powers)
    rates = np.bincount(winners, weights=per_band, minlength=u_count)
    if not np.all(rates >= rate_req * (1 - 1e-9) - 1e-9):
        return _failure(u_count, i_count, tried)
    return AllocationResult(
        winners=winners.copy(),
        powers=powers,
        rates=rates,
        objective=float(np.sum(rates)),
        feasible=True,
        candidates_tried=tried,
    )
