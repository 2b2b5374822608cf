"""Room geometry, array steering phases, and reflecting-surface placement.

Coordinates: x across the room width W, y along the room length L, z up.
The reflecting array hangs on the ceiling plane z = H with its elements laid
out along +y from the anchor element at (X, Y, H).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import SPEED_OF_LIGHT

# the placement solve stops at this projected-gradient (KKT) residual; the step
# cap is only a safety bound, as every endpoint lies below the ceiling
DESCENT_TOLERANCE = 1e-10
DESCENT_MAX_ITERS = 800


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
        if not (0 <= ap[0] <= W and 0 <= ap[1] <= L and 0 <= ap[2] < H):
            raise ValueError(f"AP position {ap} outside the room box (z must stay below H)")
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
    def offsets_m(self) -> np.ndarray:
        """Distance of each element from the anchor along +y."""
        return np.arange(self.element_count) * self.spacing_m

    def anchor_position(self, scene: Scene) -> np.ndarray:
        return np.array([self.x_m, self.y_m, scene.ceiling_height_m])


@dataclass
class PhaseVector:
    """Per-element phase shifts stored as angles, so unit modulus is exact."""

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float).reshape(-1)
        if not np.isfinite(self.angles).all():
            raise ValueError("phase angles must be finite")

    @property
    def coefficients(self) -> np.ndarray:
        return np.exp(1j * self.angles)

    def distance(self, other) -> float:
        """Euclidean distance between the complex coefficient vectors,
        safe against angle wrapping."""
        o = np.asarray(getattr(other, "angles", other), dtype=float)
        return float(np.linalg.norm(self.coefficients - np.exp(1j * o)))


def _two_hop(anchor, scene: Scene):
    """Two-hop length AP -> anchor -> UE and steering slope of every UE.

    ``anchor`` is one (3,) anchor position, giving two (U,) arrays, or a
    (P, 3) stack of P anchors, giving two (P, U) arrays.  Element n
    (1-based) of the array sits (n-1) spacings along +y from the anchor.
    Its incident plus departure steering phase at wavenumber k is
    k * slope * (n-1) * spacing: the projection of that offset onto the AP
    and UE directions.
    """
    r0 = anchor - scene.ap_position_m
    ru = scene.ue_positions_m - anchor[..., None, :]
    # vecdot is the 1-D dot np.linalg.norm takes, so lengths match it bit for bit
    n0 = np.sqrt(np.vecdot(r0, r0))[..., None]
    nu = np.sqrt(np.vecdot(ru, ru))
    if (n0 == 0).any() or (nu == 0).any():
        raise ValueError("AP or UE coincides with the array anchor")
    lengths = n0 + nu
    if not np.isfinite(lengths).all():
        raise ValueError(f"two-hop path lengths must be finite, got {lengths}")
    y = anchor[..., 1:2]
    ap_y, ue_y = scene.ap_position_m[1], scene.ue_positions_m[:, 1]
    slope = (y - ap_y) / n0 + (ue_y - y) / nu
    return lengths, slope


def path_length(placement: IrsPlacement, scene: Scene, ue_index: int) -> float:
    """Total two-hop distance AP -> anchor -> UE."""
    return float(_two_hop(placement.anchor_position(scene), scene)[0][ue_index])


def steering_phase_profile(
    frequency_hz: float, placement: IrsPlacement, scene: Scene, ue_index: int
) -> np.ndarray:
    """theta_n + vartheta_n for all N elements at once."""
    k = 2.0 * np.pi * frequency_hz / SPEED_OF_LIGHT
    return k * _two_hop(placement.anchor_position(scene), scene)[1][ue_index] * placement.offsets_m


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


def _clip(a, lo, hi):
    """``np.clip(a, lo, hi)`` bit for bit, without the wrapper's fixed cost."""
    return np.minimum(np.maximum(a, lo), hi)


def _projected_descent(endpoints, weights, height, lo, hi, x0):
    """Projected Newton on the box (Bertsekas, SIAM J. Control Optim. 1982).

    The weighted distance sum is strictly convex and smooth, as the AP and
    every UE lie below the ceiling, so its KKT point is the global minimum.  A coordinate at a bound
    whose gradient points out of the box is held, the others take a Newton
    step, and an Armijo search backtracks along the projected arc.
    """
    x = _clip(np.asarray(x0, dtype=float), lo, hi)
    f, g, h = _distance_terms(x, endpoints, weights, height)
    if not math.isfinite(f):
        raise ValueError(f"placement objective must be finite, got {f}")
    pg = x - _clip(x - g, lo, hi)
    residual = math.sqrt(pg.dot(pg))
    for _ in range(DESCENT_MAX_ITERS):
        if residual <= DESCENT_TOLERANCE:
            break
        held = ((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        if held.any() or not det > 0:
            # one coordinate free, or a Hessian singular to rounding
            d = np.where(held, 0.0, g / h.diagonal())
        else:
            d = np.array([h[1, 1] * g[0] - h[0, 1] * g[1], h[0, 0] * g[1] - h[1, 0] * g[0]]) / det
        t = 1.0
        while True:
            # t underflows to 0 after 1075 halvings, which bounds one search
            cand = _clip(x - t * d, lo, hi)
            if t == 0 or (cand == x).all():
                return x
            fc, gc, hc = _distance_terms(cand, endpoints, weights, height)
            pg = cand - _clip(cand - gc, lo, hi)
            rc = math.sqrt(pg.dot(pg))
            # near an edge optimum the decrease left can be below an ulp of f,
            # so a change within rounding (an ulp per term) counts if rc falls
            if abs(fc - f) <= len(weights) * math.ulp(f):
                if rc < residual:
                    break
            elif fc < f and f - fc >= 1e-4 * float(g @ (x - cand)):
                break
            t *= 0.5
        x, f, g, h, residual = cand, fc, gc, hc, rc
    return x


def solve_single_ue_placement(scene: Scene, ue_index: int, *, y_max=None):
    """Anchor (X, Y) on the ceiling minimizing the two-hop distance to one UE.

    The minimand D0 + Du is convex in (X, Y); with the optimum interior it
    matches mirroring the UE across the ceiling plane.  ``y_max`` shrinks the
    admissible y range when the array span must fit inside the room.  This
    is the min-total-distance placement of the scene holding only that UE.
    """
    alone = replace(scene, ue_positions_m=scene.ue_positions_m[[ue_index]])
    return solve_min_total_distance(alone, y_max=y_max)


def solve_min_total_distance(scene: Scene, *, y_max=None):
    """Anchor (X, Y) minimizing the summed two-hop distance over all UEs.

    Each UE link shares the AP leg, so the AP endpoint carries weight U.  The
    anchor is the projected-Newton minimum over [0, W] x [0, y_max] to a KKT
    residual of ``DESCENT_TOLERANCE``; ``y_max=inf`` leaves y uncapped.
    """
    lo = np.array([0.0, 0.0])
    hi = np.array([scene.room_width_m, scene.room_length_m if y_max is None else y_max])
    if hi[1] <= 0:
        raise ValueError("array does not fit the room along y")
    u = scene.ue_count
    endpoints = [scene.ap_position_m.tolist()] + scene.ue_positions_m.tolist()
    weights = [float(u)] + [1.0] * u
    x0 = np.mean([e[:2] for e in endpoints], axis=0)
    xy = _projected_descent(endpoints, weights, scene.ceiling_height_m, lo, hi, x0)
    return float(xy[0]), float(xy[1])
