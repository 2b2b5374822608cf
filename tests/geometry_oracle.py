"""Reference forms of the min-distance objective and of its descent.

``reference_distance_terms`` is the array form the library replaced with
``thzirs.geometry._distance_terms``: the gradient and Hessian are summed as
small NumPy arrays, one endpoint at a time.  The library sums the same terms
in Python floats in the same order, so the objective, gradient and Hessian,
and so every iterate of a placement solve driven by either, agree bit for bit.

``reference_projected_descent`` is the placement solve the library replaced
with projected Newton: a projected gradient with backtracking, capped at
``DESCENT_MAX_ITERS`` steps and stopped at a projected-gradient norm of
``DESCENT_TOLERANCE``, then a Newton polish that runs only in the interior.
It keeps its own constants, so it stays that descent whatever the library's
tolerance.  The library's anchor must meet the library's tighter KKT
residual, at an objective no higher than this descent's beyond rounding.
"""

import numpy as np

from thzirs.geometry import _distance_terms

DESCENT_MAX_ITERS = 800
DESCENT_TOLERANCE = 1e-8


def reference_distance_terms(xy, endpoints, weights, height):
    """Objective, gradient and Hessian of sum_k w_k * dist((X,Y,H), endpoint_k)."""
    f = 0.0
    g = np.zeros(2)
    h = np.zeros((2, 2))
    for (ex, ey, ez), w in zip(endpoints, weights):
        dx, dy = xy[0] - ex, xy[1] - ey
        hz2 = (height - ez) ** 2
        q = dx * dx + dy * dy + hz2
        dist = np.sqrt(q)
        if dist == 0:
            raise ValueError("degenerate geometry: anchor coincides with an endpoint")
        f += w * dist
        g += w * np.array([dx, dy]) / dist
        h += (w / q ** 1.5) * np.array([[dy * dy + hz2, -dx * dy], [-dx * dy, dx * dx + hz2]])
    return f, g, h


def reference_projected_descent(endpoints, weights, height, lo, hi, x0):
    """Projected gradient with backtracking, then guarded Newton polish."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g, _ = _distance_terms(x, endpoints, weights, height)
    step = 1.0
    for _ in range(DESCENT_MAX_ITERS):
        pg = x - np.clip(x - g, lo, hi)
        if np.linalg.norm(pg) <= DESCENT_TOLERANCE:
            break
        t = step
        for _ in range(60):
            cand = np.clip(x - t * g, lo, hi)
            fc, gc, _ = _distance_terms(cand, endpoints, weights, height)
            if fc <= f - 1e-4 * float(g @ (x - cand)):
                break
            t *= 0.5
        x, f, g = cand, fc, gc
        step = min(2.0 * t, 4.0)

    for _ in range(30):
        interior = np.all(x > lo + 1e-12) and np.all(x < hi - 1e-12)
        if not interior:
            break
        _, g, h = _distance_terms(x, endpoints, weights, height)
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        if det <= 1e-30:
            break
        d = np.array(
            [h[1, 1] * g[0] - h[0, 1] * g[1], -h[1, 0] * g[0] + h[0, 0] * g[1]]
        ) / det
        cand = np.clip(x - d, lo, hi)
        fc, _, _ = _distance_terms(cand, endpoints, weights, height)
        if fc > f + 1e-15:
            break
        x, f = cand, fc
        if np.linalg.norm(d) < 1e-14:
            break
    return x
