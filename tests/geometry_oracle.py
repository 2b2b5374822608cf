"""Reference form of the min-distance objective, accumulated in NumPy arrays.

``reference_distance_terms`` is the array form the library replaced with
``thzirs.geometry._distance_terms``: the gradient and Hessian are summed as
small NumPy arrays, one endpoint at a time.  The library sums the same terms
in Python floats in the same order, so the objective, gradient, Hessian and
every iterate of the projected descent must agree bit for bit.
"""

import numpy as np


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
