"""Room geometry, array steering phases, and reflecting-surface placement.

Coordinates: x across the room width W, y along the room length L, z up.
The reflecting array hangs on the ceiling plane z = H with its elements laid
out along +y from the anchor element at (X, Y, H).
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_LIGHT


@dataclass(frozen=True)
class Scene:
    """Static layout: room box, access point, and user terminals."""

    room_length_m: float
    room_width_m: float
    ceiling_height_m: float
    ap_position_m: np.ndarray
    ue_positions_m: np.ndarray

    def __post_init__(self):
        # private read-only copies, so a validated scene cannot change later
        ap = np.array(self.ap_position_m, dtype=float)
        ues = np.atleast_2d(np.array(self.ue_positions_m, dtype=float))
        ap.flags.writeable = ues.flags.writeable = False
        object.__setattr__(self, "ap_position_m", ap)
        object.__setattr__(self, "ue_positions_m", ues)
        L, W, H = self.room_length_m, self.room_width_m, self.ceiling_height_m
        if not (L > 0 and W > 0 and H > 0):
            raise ValueError(f"room dimensions must be positive, got L={L} W={W} H={H}")
        if ap.shape != (3,):
            raise ValueError(f"AP position must be a 3-vector, got shape {ap.shape}")
        if not (0 <= ap[0] <= W and 0 <= ap[1] <= L and 0 <= ap[2] <= H):
            raise ValueError(f"AP position {ap} outside the room box")
        if ues.ndim != 2 or ues.shape[1] != 3 or ues.shape[0] < 1:
            raise ValueError(f"UE positions must be (U, 3), got {ues.shape}")
        for k, p in enumerate(ues):
            if not (0 <= p[0] <= W and 0 <= p[1] <= L and 0 <= p[2] < H):
                raise ValueError(f"UE {k} at {p} outside the room box (z must stay below H)")

    @property
    def ue_count(self) -> int:
        return self.ue_positions_m.shape[0]


@dataclass(frozen=True)
class IrsPlacement:
    """Anchor location and layout of the reflecting array on the ceiling."""

    x_m: float
    y_m: float
    element_count: int
    spacing_m: float

    def __post_init__(self):
        if int(self.element_count) != self.element_count or self.element_count < 1:
            raise ValueError(f"element count must be a positive integer, got {self.element_count}")
        if not np.isfinite(self.spacing_m) or self.spacing_m <= 0:
            raise ValueError(f"element spacing must be positive, got {self.spacing_m}")
        if not (np.isfinite(self.x_m) and np.isfinite(self.y_m)):
            raise ValueError("placement coordinates must be finite")

    @property
    def span_m(self) -> float:
        """Extent of the array along y."""
        return (self.element_count - 1) * self.spacing_m

    @property
    def offsets_m(self) -> np.ndarray:
        """Distance of each element from the anchor along +y."""
        return np.arange(self.element_count) * self.spacing_m

    def fits_room(self, scene: Scene) -> bool:
        return (
            0 <= self.x_m <= scene.room_width_m
            and 0 <= self.y_m
            and self.y_m + self.span_m <= scene.room_length_m
        )

    def anchor_position(self, scene: Scene) -> np.ndarray:
        return np.array([self.x_m, self.y_m, scene.ceiling_height_m])


@dataclass
class PhaseVector:
    """Per-element phase shifts stored as angles, so unit modulus is exact."""

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("phase angles must be finite")

    @property
    def coefficients(self) -> np.ndarray:
        return np.exp(1j * self.angles)

    def distance(self, other) -> float:
        """Euclidean distance between the complex coefficient vectors,
        safe against angle wrapping."""
        o = np.asarray(getattr(other, "angles", other), dtype=float)
        return float(np.linalg.norm(self.coefficients - np.exp(1j * o)))


def _two_hop(placement: IrsPlacement, scene: Scene):
    """Two-hop length AP -> anchor -> UE and steering slope of every UE, each (U,).

    Element n (1-based) of the array sits (n-1) spacings along +y from the
    anchor.  Its incident plus departure steering phase at wavenumber k is
    k * slope * (n-1) * spacing: the projection of that offset onto the AP
    and UE directions.
    """
    anchor = placement.anchor_position(scene)
    r0 = anchor - scene.ap_position_m
    ru = scene.ue_positions_m - anchor
    # vecdot is the 1-D dot np.linalg.norm takes, so lengths match it bit for bit
    n0 = np.sqrt(np.vecdot(r0, r0))
    nu = np.sqrt(np.vecdot(ru, ru))
    if n0 == 0 or np.any(nu == 0):
        raise ValueError("AP or UE coincides with the array anchor")
    lengths = n0 + nu
    if not np.all(np.isfinite(lengths)):
        raise ValueError(f"two-hop path lengths must be finite, got {lengths}")
    ap_y, ue_y = scene.ap_position_m[1], scene.ue_positions_m[:, 1]
    slope = (placement.y_m - ap_y) / n0 + (ue_y - placement.y_m) / nu
    return lengths, slope


def path_length(placement: IrsPlacement, scene: Scene, ue_index: int) -> float:
    """Total two-hop distance AP -> anchor -> UE."""
    return float(_two_hop(placement, scene)[0][ue_index])


def steering_phase_profile(
    frequency_hz: float, placement: IrsPlacement, scene: Scene, ue_index: int
) -> np.ndarray:
    """theta_n + vartheta_n for all N elements at once."""
    k = 2.0 * np.pi * frequency_hz / SPEED_OF_LIGHT
    return k * _two_hop(placement, scene)[1][ue_index] * placement.offsets_m


def optimal_single_ue_phases(
    frequency_hz: float, placement: IrsPlacement, scene: Scene, ue_index: int
) -> PhaseVector:
    """Phases that align every element response for one UE, giving the full
    N^2 array power gain."""
    return PhaseVector(steering_phase_profile(frequency_hz, placement, scene, ue_index))


def _distance_terms(xy, endpoints, weights, height):
    """Objective, gradient and Hessian of sum_k w_k * dist((X,Y,H), endpoint_k).

    The sums run in Python floats: on two coordinates and at most a few
    endpoints, NumPy's per-call overhead would cost more than the arithmetic.
    """
    x, y = xy.tolist()
    f = g0 = g1 = h00 = h01 = h11 = 0.0
    for (ex, ey, ez), w in zip(endpoints, weights):
        dx, dy = x - ex, y - ey
        hz2 = (height - ez) ** 2
        q = dx * dx + dy * dy + hz2
        dist = math.sqrt(q)
        if dist == 0:
            raise ValueError("degenerate geometry: anchor coincides with an endpoint")
        f += w * dist
        g0 += w * dx / dist
        g1 += w * dy / dist
        c = w / q ** 1.5
        h00 += c * (dy * dy + hz2)
        h01 += c * (-dx * dy)
        h11 += c * (dx * dx + hz2)
    return f, np.array([g0, g1]), np.array([[h00, h01], [h01, h11]])


def _projected_descent(endpoints, weights, height, lo, hi, x0, tol, max_iters=800):
    """Projected gradient with backtracking, then guarded Newton polish.

    The objective (a weighted sum of point-to-plane-point distances) is convex,
    so the stationary point inside the box is the global minimum.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g, _ = _distance_terms(x, endpoints, weights, height)
    step = 1.0
    for _ in range(max_iters):
        pg = x - np.clip(x - g, lo, hi)
        if np.linalg.norm(pg) <= tol:
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

    # Newton polish while the iterate stays interior; quadratic convergence
    # pushes the residual to machine precision.
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


def solve_single_ue_placement(scene: Scene, ue_index: int, tolerance: float = 1e-8, y_max=None):
    """Anchor (X, Y) on the ceiling minimizing the two-hop distance to one UE.

    The minimand D0 + Du is convex in (X, Y); with the optimum interior it
    matches mirroring the UE across the ceiling plane.  ``y_max`` shrinks the
    admissible y range when the array span must fit inside the room.
    """
    lo = np.array([0.0, 0.0])
    hi = np.array([scene.room_width_m, scene.room_length_m if y_max is None else y_max])
    if hi[1] <= 0:
        raise ValueError("array does not fit the room along y")
    ap = scene.ap_position_m
    ue = scene.ue_positions_m[ue_index]
    x0 = 0.5 * (ap[:2] + ue[:2])
    xy = _projected_descent(
        [ap.tolist(), ue.tolist()], [1.0, 1.0], scene.ceiling_height_m, lo, hi, x0, tolerance
    )
    return float(xy[0]), float(xy[1])


def solve_min_total_distance(scene: Scene, tolerance: float = 1e-8, y_max=None):
    """Anchor (X, Y) minimizing the summed two-hop distance over all UEs.

    Each UE link shares the AP leg, so the AP endpoint carries weight U.
    """
    lo = np.array([0.0, 0.0])
    hi = np.array([scene.room_width_m, scene.room_length_m if y_max is None else y_max])
    if hi[1] <= 0:
        raise ValueError("array does not fit the room along y")
    u = scene.ue_count
    endpoints = [scene.ap_position_m.tolist()] + scene.ue_positions_m.tolist()
    weights = [float(u)] + [1.0] * u
    x0 = np.mean([e[:2] for e in endpoints], axis=0)
    xy = _projected_descent(endpoints, weights, scene.ceiling_height_m, lo, hi, x0, tolerance)
    return float(xy[0]), float(xy[1])
