"""Reference solvers for the allocation tests.

``_exact_power_solve`` is the scalar, one-assignment form of the power split
that ``solve_allocation`` computes for every assignment at once; walking it
over all assignments gives an independent exact optimum.
``brute_force_allocation`` grids the power split instead and so checks the
water-filling itself.
"""

import numpy as np

from thzirs.allocation import AllocationResult

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
