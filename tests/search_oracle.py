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
bit for bit.
"""

import numpy as np

from thzirs.allocation import solve_allocation
from thzirs.bcs import (
    BOUND_MARGIN,
    SearchResult,
    _ceiling_gains,
    _lattice,
    _min_distance_placement,
    baseline_mini_dis,
    inner_solve,
)
from thzirs.geometry import PhaseVector
from thzirs.phase_opt import effective_vector


def _first_strict_best(solutions):
    """The first solution no later one strictly beats, and the running best rates."""
    best, trace = None, []
    for candidate in solutions:
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
    points = _lattice(scene, element_count, spacing_m, grid_step_x, grid_step_y)
    best, trace = _first_strict_best(
        [anchor] + [inner_solve(scene, placement, sub_bands, p_max, rate_requirements,
                                mixing_ratio) for placement in points])
    return SearchResult(solution=best, best_trace=trace, points_evaluated=len(points),
                        anchor=anchor)


def frozen_sweep_ran_phi(scene, sub_bands, element_count, spacing_m, p_max, rate_requirements,
                         mixing_ratio, rng, grid_step_x, grid_step_y) -> SearchResult:
    """Inner-solve every lattice point with one frozen random profile; keep the first
    strict best.  ``best_trace`` has one entry per point."""
    phases = PhaseVector(np.array([rng.uniform(0.0, 2.0 * np.pi) for _ in range(element_count)]))
    points = (_lattice(scene, element_count, spacing_m, grid_step_x, grid_step_y)
              or [_min_distance_placement(scene, element_count, spacing_m)])
    best, trace = _first_strict_best(
        inner_solve(scene, placement, sub_bands, p_max, rate_requirements, mixing_ratio,
                    phases=phases) for placement in points)
    return SearchResult(solution=best, best_trace=trace, points_evaluated=len(points))


def ceiling_bound(scene, placement, sub_bands, p_max, rate_requirements, absorb):
    """The allocation of one point's inflated coherent-ceiling gains, or None."""
    vectors = effective_vector(sub_bands, placement, scene, absorb)
    gains = _ceiling_gains(vectors) * (1.0 + BOUND_MARGIN)
    alloc = solve_allocation(gains, sub_bands, p_max, rate_requirements)
    return alloc.objective if alloc.feasible else None
