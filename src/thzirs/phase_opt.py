"""Common phase profile for many (user, sub-band) targets at once.

Each allocated pair (u, i) demands |e_ui . phi|^2 >= t_ui where e_ui is the
power-and-gain scaled steering row of that link and phi the unit-modulus
reflection coefficients.  The quadratic form is minorized by its first-order
expansion around an anchor, and the resulting linear constraints are handled
with a priced (multiplier-weighted) penalty whose phase update is closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_LIGHT, cascaded_gain
from .geometry import IrsPlacement, PhaseVector, _two_hop

# SGD and SCA stop once the profile moves less than this between iterates
TOLERANCE = 1e-4
# SGD steps without a better worst slack before an infeasible solve gives up
STALL_LIMIT = 100
# surrogate rebuilds per SCA solve
MAX_OUTER = 50


def effective_vector(sub_bands, placement, scene, absorption_per_m) -> np.ndarray:
    """Unit-power link rows of every (UE, sub-band) pair, shape (U, I, N).

    Row (u, i) is the e for which e . phi is UE u's received amplitude on
    band i at unit transmit power.  Entry n carries g exp(-j(theta_n +
    vartheta_n)); the first entry has zero steering phase.
    ``absorption_per_m`` is K(f) at the band centers, one value per band or
    one for all.  A sequence of P placements of one array layout, in place
    of a single ``placement``, gives the rows of each, shape (P, U, I, N).
    """
    if isinstance(placement, IrsPlacement):
        layout = placement
    else:
        layout = placement[0]
        if any((p.element_count, p.spacing_m) != (layout.element_count, layout.spacing_m)
               for p in placement):
            raise ValueError("placements of one batch must share one array layout")
    f = np.array([b.center_hz for b in sub_bands], dtype=float)
    lengths, slope = _two_hop(placement, scene)
    k = 2.0 * np.pi * f / SPEED_OF_LIGHT
    beta = (k * slope[..., None])[..., None] * layout.offsets_m
    g = cascaded_gain(f, lengths[..., None], absorption_per_m)
    return g[..., None] * np.exp(-1j * beta)


@dataclass
class PhaseProblem:
    """Bundle of active links: one effective row and one target per (u, i)."""

    vectors: np.ndarray   # (K, N) complex
    targets: np.ndarray   # (K,)
    anchor: np.ndarray    # (N,) phase angles

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        self.targets = np.asarray(self.targets, dtype=float).reshape(-1)
        self.anchor = np.asarray(self.anchor, dtype=float).reshape(-1)
        if self.vectors.shape[0] != self.targets.shape[0]:
            raise ValueError("one target per effective vector required")
        if self.vectors.shape[1] != self.anchor.shape[0]:
            raise ValueError("anchor length must match vector width")
        if self.targets.shape[0] == 0:
            raise ValueError("need at least one target")
        if not np.all(np.isfinite(self.targets)):
            raise ValueError("targets must be finite")
        if np.any(self.targets < 0):
            raise ValueError("targets must be non-negative")
        if not (np.all(np.isfinite(self.vectors)) and np.all(np.isfinite(self.anchor))):
            raise ValueError("effective vectors and anchor must be finite")


@dataclass
class Surrogate:
    """Linear minorant data of |e . phi|^2 anchored at one phase profile."""

    theta: np.ndarray     # (K, N) rows conj(e.phi_hat) * e
    psi: np.ndarray       # (K,) |e.phi_hat|^2
    anchor: np.ndarray    # (N,) angles
    vectors: np.ndarray   # (K, N) kept for exact-value checks


def _complex_rows(vectors) -> np.ndarray:
    """``vectors`` as a 2-D complex array, passed through when it is one."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2 and vectors.dtype == complex:
        return vectors
    return np.atleast_2d(np.asarray(vectors, dtype=complex))


def surrogate(vectors: np.ndarray, anchor_angles: np.ndarray) -> Surrogate:
    """Build the minorant 2 Re{theta . phi} - psi <= |e . phi|^2 at the anchor."""
    vectors = _complex_rows(vectors)
    anchor_angles = np.asarray(anchor_angles, dtype=float).reshape(-1)
    phi_hat = np.exp(1j * anchor_angles)
    w = vectors @ phi_hat
    theta = w.conj()[:, None] * vectors
    psi = np.abs(w) ** 2
    return Surrogate(theta=theta, psi=psi, anchor=anchor_angles.copy(), vectors=vectors)


def surrogate_values(surr: Surrogate, angles: np.ndarray) -> np.ndarray:
    """2 Re{theta . phi} - psi per constraint at the given phases."""
    phi = np.exp(1j * np.asarray(angles, dtype=float))
    return 2.0 * (surr.theta @ phi).real - surr.psi


def exact_values(vectors: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """|e . phi|^2 per constraint at the given phases."""
    phi = np.exp(1j * np.asarray(angles, dtype=float))
    return np.abs(_complex_rows(vectors) @ phi) ** 2


@dataclass
class SgdResult:
    phases: PhaseVector
    converged: bool
    feasible: bool
    iterations: int


def sgd_solve(surr: Surrogate, targets: np.ndarray, max_iters: int = 500) -> SgdResult:
    """Alternate the closed-form phase update with priced subgradient steps.

    Returns the iterate with the best minimum constraint slack seen (the
    anchor itself counts as iterate zero).  Prices start at one; steps decay
    as tau0/sqrt(t) with tau0 set from the largest achievable constraint
    level.

    Each step sets phi_n = -angle(v_n) for v = 2 rho . theta, the entrywise
    maximizer of the priced surrogate, then takes a projected subgradient
    step on the prices; all prices at zero leave the penalty flat and end
    the loop.  The loop is kept bit-identical to the step-by-step form in
    ``tests/phase_oracle.py``.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1)
    k = targets.shape[0]
    if k == 0 or surr.theta.shape[0] != k:
        raise ValueError(f"need one target per surrogate row ({surr.theta.shape[0]}), got {k}")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")

    scale = float(np.max((np.sum(np.abs(surr.vectors), axis=1)) ** 2))
    if not (math.isfinite(scale) and np.all(np.isfinite(surr.anchor))):
        raise ValueError("effective vectors and anchor must be finite")
    if scale <= 0:
        raise ValueError("all effective vectors are zero")
    tau0 = 1.0 / scale
    gap = 1e-15 * scale
    feas_tol = 1e-6 * max(np.max(targets), np.finfo(float).tiny)

    # doubling is exact, so theta2 products equal 2.0 * (theta products)
    theta2 = 2.0 * surr.theta
    psi = surr.psi
    prices = np.ones(k)
    slacks = np.empty(k)
    best_angles = surr.anchor.copy()
    prev_coeff = np.exp(1j * best_angles)
    best_slack = float(((theta2 @ prev_coeff).real - psi - targets).min())

    converged = False
    stall = 0
    it = 0
    some_price_positive = True
    for it in range(1, max_iters + 1):
        if not (some_price_positive or (prices > 0).any()):
            break
        v = prices @ theta2
        # a fresh array every step: best_angles may keep it
        angles = -np.arctan2(v.imag, v.real)
        coeff = np.exp(1j * angles)
        np.subtract((theta2 @ coeff).real, psi, out=slacks)
        slacks -= targets
        worst = float(np.minimum.reduce(slacks))
        if worst > best_slack + gap:
            best_slack = worst
            best_angles = angles
            stall = 0
        else:
            stall += 1
        # prices = max(0, prices - step * slacks), one IEEE operation at a time
        step = tau0 / math.sqrt(it)
        slacks *= step
        np.subtract(prices, slacks, out=prices)
        np.maximum(0.0, prices, out=prices)
        # step * worst is bit for bit the worst row's product above; when it
        # is negative that row's price p - x, with p >= 0 and x < 0, rounds
        # to a positive number, so the next collapse test can be skipped
        some_price_positive = step * worst < 0.0
        # np.linalg.norm's own formula for a complex vector
        d = coeff - prev_coeff
        if math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag)) <= TOLERANCE:
            converged = True
            break
        prev_coeff = coeff
        if stall >= STALL_LIMIT and best_slack < -feas_tol:
            break

    return SgdResult(
        phases=PhaseVector(best_angles),
        converged=converged,
        feasible=best_slack >= -feas_tol,
        iterations=it,
    )


@dataclass
class ScaResult:
    phases: PhaseVector
    outer_iterations: int


def sca_phase_optimize(problem: PhaseProblem) -> ScaResult:
    """Minorize-maximize loop: rebuild the surrogate at the incumbent and
    re-solve until the phases stop moving.

    The minimum true slack min_k(|e_k . phi|^2 - t_k) of the incumbent never
    decreases: the surrogate underestimates the true value everywhere and
    matches it at the anchor, and the incumbent is always kept as fallback.
    """
    targets = problem.targets
    # 1e-6 of the largest target is both "strictly inside" and "no gain"
    tol = 1e-6 * max(float(np.max(targets)), np.finfo(float).tiny)

    best = problem.anchor.copy()
    best_slack = float(np.min(exact_values(problem.vectors, best) - targets))
    # An anchor already strictly inside the feasible region needs no
    # restoration; a single pass is kept to pick up easy improvement.
    strict_start = best_slack > tol

    outer = 0
    for outer in range(1, MAX_OUTER + 1):
        surr = surrogate(problem.vectors, best)
        res = sgd_solve(surr, targets)
        cand = res.phases.angles
        cand_slack = float(np.min(exact_values(problem.vectors, cand) - targets))
        moved = PhaseVector(cand).distance(best)
        improvement = cand_slack - best_slack
        if improvement > 0:
            best, best_slack = cand, cand_slack
        if strict_start or moved <= TOLERANCE or improvement <= tol:
            break

    return ScaResult(phases=PhaseVector(best), outer_iterations=outer)
