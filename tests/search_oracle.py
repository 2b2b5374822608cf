"""Per-point references for the placement searches.

``full_sweep_bcs`` is the placement search as it stood before it learned to
skip points: the minimum-total-distance anchor, then every lattice point
inner-solved in lattice order, keeping the first strict best (feasible
beats infeasible, then a strictly larger sum rate).  The best-first search
must return the same solution bit for bit.

``frozen_sweep_ran_phi`` and ``ceiling_bound`` are the lattice passes as they
stood before the batched scorer: one ``inner_solve`` with the frozen profile,
or one ``solve_allocation`` on the coherent-ceiling gains, per lattice point.
The batched ``baseline_ran_phi`` and ``_ceiling_bounds`` must agree with them
bit for bit.  A lattice point whose SNR at the full budget overflows, which
the allocation refuses, is one ``frozen_sweep_ran_phi`` passes over.

``reference_repair_feasibility`` is the feasibility repair as it stood
before it became one pass: it re-runs the phase stage for up to
``MAX_REPAIRS`` passes until an allocation meets the floors, re-solving the
allocation every pass even when the phase stage handed back its anchor
unchanged.  Wherever it ends feasible or at a fixed point, the profile the
phase stage returns for ``bcs._repair_request``, with its gains and cold
allocation, must be the same answer bit for bit.
``reference_start_phases`` is the inner solve's starting profile as it
stood before the look-ahead's batched start builder became the only one:
the closed-form single-UE profile of ``geometry.optimal_single_ue_phases``
for the hardest requirement at the plan's center.  ``bcs._cold_starts`` must
give the same angles bit for bit.
``reference_inner_solve`` is the inner alternation as it stood before it
learned to skip repeated work, with a one-pass repair: every round re-solves
the allocation.  ``bcs.inner_solve`` must return the same answers bit for
bit.
"""

import numpy as np

from thzirs.allocation import _SnrOverflow, solve_allocation
from thzirs.bcs import (
    BOUND_MARGIN,
    MAX_ROUNDS,
    ROUND_TOLERANCE,
    SearchResult,
    Solution,
    _ceiling_gains,
    _min_distance_placement,
    baseline_mini_dis,
    candidate_grid,
    inner_solve,
)
from thzirs.channel import _band_absorption
from thzirs.geometry import IrsPlacement, PhaseVector, _two_hop, optimal_single_ue_phases
from thzirs.phase_opt import effective_vector, sca_phase_optimize

# repair passes the reference makes at most
MAX_REPAIRS = 4


def reference_start_phases(scene, placement, sub_bands, rate_req) -> PhaseVector:
    """Matched profile for the hardest requirement at the plan's center:
    the UE with the largest rate floor, ties broken toward the longest path."""
    hardest = int(np.lexsort((_two_hop(placement.anchor_position(scene), scene)[0], rate_req))[-1])
    lo = min(b.lo_hz for b in sub_bands)
    hi = max(b.hi_hz for b in sub_bands)
    return optimal_single_ue_phases(0.5 * (lo + hi), placement, scene, hardest)


def lattice_placements(scene, element_count, spacing_m, grid_step_x, grid_step_y):
    """One ``IrsPlacement`` per ``candidate_grid`` row, in lattice order."""
    return [IrsPlacement(x, y, element_count, spacing_m) for x, y in
            candidate_grid(scene, element_count, spacing_m, grid_step_x, grid_step_y).tolist()]


def _first_strict_best(solutions):
    """The first solution no later one strictly beats, and the running best
    rates; a None entry is passed over and repeats the rate before it, or
    reads 0.0 first."""
    best, trace = None, []
    for candidate in solutions:
        if candidate is None:
            trace.append(trace[-1] if trace else 0.0)
            continue
        if best is None:
            best = candidate
        elif candidate.feasible != best.feasible:
            best = candidate if candidate.feasible else best
        elif candidate.sum_rate_bps > best.sum_rate_bps:
            best = candidate
        trace.append(best.sum_rate_bps)
    return best, trace


def full_sweep_bcs(scene, sub_bands, element_count, spacing_m, p_max, rate_requirements,
                   mixing_ratio, grid_step_x, grid_step_y) -> SearchResult:
    """Inner-solve the anchor and every lattice point; keep the first strict best."""
    anchor = baseline_mini_dis(scene, sub_bands, element_count, spacing_m, p_max,
                               rate_requirements, mixing_ratio)
    points = lattice_placements(scene, element_count, spacing_m, grid_step_x, grid_step_y)
    best, trace = _first_strict_best(
        [anchor] + [inner_solve(scene, placement, sub_bands, p_max, rate_requirements,
                                mixing_ratio) for placement in points])
    return SearchResult(solution=best, best_trace=trace, points_evaluated=len(points),
                        anchor=anchor)


def frozen_sweep_ran_phi(scene, sub_bands, element_count, spacing_m, p_max, rate_requirements,
                         mixing_ratio, rng, grid_step_x, grid_step_y) -> SearchResult:
    """Inner-solve every lattice point with one frozen random profile; keep the first
    strict best.  ``best_trace`` has one entry per point.  A point whose SNR at the
    full budget overflows, which the allocation refuses, is passed over; when every
    point does, the first one's refusal is raised."""
    phases = PhaseVector(np.array([rng.uniform(0.0, 2.0 * np.pi) for _ in range(element_count)]))
    points = (lattice_placements(scene, element_count, spacing_m, grid_step_x, grid_step_y)
              or [_min_distance_placement(scene, element_count, spacing_m)])
    refusals = []

    def frozen_solve(placement):
        try:
            return inner_solve(scene, placement, sub_bands, p_max, rate_requirements,
                               mixing_ratio, phases=phases)
        except _SnrOverflow as error:
            refusals.append(error)
            return None

    best, trace = _first_strict_best([frozen_solve(placement) for placement in points])
    if best is None:
        raise refusals[0]
    return SearchResult(solution=best, best_trace=trace, points_evaluated=len(points))


def ceiling_bound(scene, placement, sub_bands, p_max, rate_requirements, absorb):
    """The allocation of one point's inflated coherent-ceiling gains, or None."""
    vectors = effective_vector(sub_bands, placement, scene, absorb)
    gains = _ceiling_gains(vectors) * (1.0 + BOUND_MARGIN)
    alloc = solve_allocation(gains, sub_bands, p_max, rate_requirements)
    return alloc.objective if alloc.feasible else None


def reference_repair_feasibility(vectors, phases, sub_bands, p_max, rate_req,
                                 passes=MAX_REPAIRS):
    """Every repair pass, until an allocation meets the floors or ``passes``
    run out; returns the last (phases, gains, allocation) triple."""
    u_count, i_count, _ = vectors.shape
    bw = np.array([b.bandwidth_hz for b in sub_bands])
    noise = np.array([b.noise_power_w for b in sub_bands])
    p_eq = p_max / i_count
    need = noise * (np.exp2(np.minimum(rate_req[:, None] / bw, 1023.0)) - 1.0)
    ceiling = p_eq * _ceiling_gains(vectors)

    floored = np.flatnonzero(rate_req > 0)
    headroom = ceiling[floored] / need[floored]
    order = floored[np.argsort(np.max(headroom, axis=1), kind="stable")]
    pairs_u, pairs_i = [], []
    taken = np.zeros(i_count, dtype=bool)
    for u in order:
        open_bands = np.flatnonzero(~taken)
        if open_bands.size == 0:
            break
        pick = int(open_bands[np.argmax(ceiling[u, open_bands] / need[u, open_bands])])
        pairs_u.append(int(u))
        pairs_i.append(pick)
        taken[pick] = True
    rows = np.sqrt(p_eq) * vectors[pairs_u, pairs_i]
    targets = np.minimum(1.5 * need[pairs_u, pairs_i], 0.9 * ceiling[pairs_u, pairs_i])

    for _ in range(passes):
        phases = sca_phase_optimize(rows, targets, phases.angles).phases
        gains = np.abs(vectors @ phases.coefficients) ** 2
        alloc = solve_allocation(gains, sub_bands, p_max, rate_req)
        if alloc.feasible:
            break
    return phases, gains, alloc


def reference_inner_solve(scene, placement, sub_bands, p_max, rate_requirements,
                          mixing_ratio) -> Solution:
    """Alternate allocation and phase restoration, re-solving every round."""
    rate_req = np.broadcast_to(
        np.asarray(rate_requirements, dtype=float), (scene.ue_count,)
    ).copy()
    absorb = _band_absorption(tuple(b.center_hz for b in sub_bands), mixing_ratio)
    vectors = effective_vector(sub_bands, placement, scene, absorb)
    phases = reference_start_phases(scene, placement, sub_bands, rate_req)

    gains = np.abs(vectors @ phases.coefficients) ** 2
    alloc = solve_allocation(gains, sub_bands, p_max, rate_req)
    if not alloc.feasible and np.any(rate_req > 0):
        phases, gains, alloc = reference_repair_feasibility(vectors, phases, sub_bands, p_max,
                                                            rate_req, passes=1)
    trace = [alloc.objective] if alloc.feasible else []
    converged = not alloc.feasible
    while not converged and len(trace) < MAX_ROUNDS:
        active = np.flatnonzero(alloc.powers > 0)
        if active.size == 0:
            converged = True
            break
        rows = np.sqrt(alloc.powers[active])[:, None] * vectors[alloc.winners[active], active]
        targets = alloc.powers[active] * gains[alloc.winners[active], active]
        restored = sca_phase_optimize(rows, targets, phases.angles).phases
        restored_gains = np.abs(vectors @ restored.coefficients) ** 2
        following = solve_allocation(
            restored_gains, sub_bands, p_max, rate_req, warm_winners=alloc.winners
        )
        if not following.feasible:
            converged = True
            break
        phases, gains, alloc = restored, restored_gains, following
        trace.append(alloc.objective)
        converged = abs(trace[-1] - trace[-2]) <= ROUND_TOLERANCE * max(trace[-2], 1.0)

    return Solution(
        placement=placement,
        phases=phases,
        winners=alloc.winners,
        powers=alloc.powers,
        rates=alloc.rates,
        sum_rate_bps=alloc.objective,
        feasible=alloc.feasible,
        converged=converged,
        rounds=max(len(trace), 1),
        rate_trace=trace,
    )
