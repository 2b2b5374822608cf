"""Full-sweep reference for the best-first ``bcs_solve``.

``full_sweep_bcs`` is the placement search as it stood before it learned to
skip points: the minimum-total-distance anchor, then every lattice point
inner-solved in lattice order, keeping the first strict best (feasible
beats infeasible, then a strictly larger sum rate).  The best-first search
must return the same solution bit for bit.
"""

from thzirs.bcs import SearchResult, _lattice, baseline_mini_dis, inner_solve


def full_sweep_bcs(scene, sub_bands, element_count, spacing_m, p_max, rate_requirements,
                   mixing_ratio, grid_step_x, grid_step_y) -> SearchResult:
    """Inner-solve the anchor and every lattice point; keep the first strict best."""
    anchor = baseline_mini_dis(scene, sub_bands, element_count, spacing_m, p_max,
                               rate_requirements, mixing_ratio)
    points = _lattice(scene, element_count, spacing_m, grid_step_x, grid_step_y)
    best = anchor
    trace = [best.sum_rate_bps]
    for placement in points:
        candidate = inner_solve(scene, placement, sub_bands, p_max, rate_requirements,
                                mixing_ratio)
        if candidate.feasible != best.feasible:
            better = candidate.feasible
        else:
            better = candidate.sum_rate_bps > best.sum_rate_bps
        if better:
            best = candidate
        trace.append(best.sum_rate_bps)
    return SearchResult(solution=best, best_trace=trace, points_evaluated=len(points),
                        anchor=anchor)
