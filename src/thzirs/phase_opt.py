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
# SGD steps without a better worst slack before a solve gives up
STALL_LIMIT = 100
# surrogate rebuilds per SCA solve
MAX_OUTER = 50


def _link_rows(sub_bands, anchors, offsets_m, scene, absorption_per_m) -> np.ndarray:
    """``effective_vector``'s rows at a (P, 3) stack of ``anchors``, shape
    (P, U, I, N), or at one (3,) anchor, shape (U, I, N); every anchor
    shares the N element offsets ``offsets_m`` along +y."""
    f = np.array([b.center_hz for b in sub_bands], dtype=float)
    lengths, slope = _two_hop(anchors, scene)
    k = 2.0 * np.pi * f / SPEED_OF_LIGHT
    beta = (k * slope[..., None])[..., None] * offsets_m
    g = cascaded_gain(f, lengths[..., None], absorption_per_m)
    return g[..., None] * np.exp(-1j * beta)


def effective_vector(sub_bands, placement: IrsPlacement, scene, absorption_per_m) -> np.ndarray:
    """Unit-power link rows of every (UE, sub-band) pair, shape (U, I, N).

    Row (u, i) is the e for which e . phi is UE u's received amplitude on
    band i at unit transmit power.  Entry n carries g exp(-j(theta_n +
    vartheta_n)); the first entry has zero steering phase.
    ``absorption_per_m`` is K(f) at the band centers, one value per band or
    one for all.  This is the one-anchor case of ``_link_rows``, bit for bit.
    """
    return _link_rows(sub_bands, placement.anchor_position(scene), placement.offsets_m, scene,
                      absorption_per_m)


@dataclass
class Surrogate:
    """Linear minorant data of |e . phi|^2 anchored at one phase profile."""

    theta: np.ndarray     # (K, N) rows conj(e.phi_hat) * e
    psi: np.ndarray       # (K,) |e.phi_hat|^2
    anchor: np.ndarray    # (N,) angles
    vectors: np.ndarray   # (K, N) rows e; sgd_solve sizes its step from them


def _complex_rows(vectors) -> np.ndarray:
    """``vectors`` as a 2-D complex array, passed through when it is one."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2 and vectors.dtype == complex:
        return vectors
    return np.atleast_2d(np.asarray(vectors, dtype=complex))


def _product(terms):
    """The product function with ``@``'s bits for sums of ``terms`` terms.

    On contiguous operands np.dot calls the BLAS product that ``@`` calls,
    at about half a microsecond less per call, and it writes into a given
    buffer.  A length-1 operand is a scalar to np.dot, which then rounds
    each complex product once in a fused multiply-add where ``@``'s own
    loop rounds it twice, so one-term products keep np.matmul.
    """
    return np.dot if terms > 1 else np.matmul


def surrogate(vectors: np.ndarray, anchor_angles: np.ndarray) -> Surrogate:
    """Build the minorant 2 Re{theta . phi} - psi <= |e . phi|^2 at the anchor."""
    vectors = _complex_rows(vectors)
    anchor_angles = np.asarray(anchor_angles, dtype=float).reshape(-1)
    phi_hat = np.exp(1j * anchor_angles)
    w = _product(phi_hat.size)(vectors, phi_hat)
    theta = w.conj()[:, None] * vectors
    psi = np.abs(w) ** 2
    return Surrogate(theta=theta, psi=psi, anchor=anchor_angles.copy(), vectors=vectors)


def surrogate_values(surr: Surrogate, angles: np.ndarray) -> np.ndarray:
    """2 Re{theta . phi} - psi per constraint at the given phases.

    The solver does not call this or ``exact_values``; both stay public to
    check the minorant property (acceptance 4/9 does).
    """
    phi = np.exp(1j * np.asarray(angles, dtype=float))
    # x + x is 2.0 * x bit for bit, without a Python scalar to convert
    re = _product(phi.size)(surr.theta, phi).real
    return (re + re) - surr.psi


def exact_values(vectors: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """|e . phi|^2 per constraint at the given phases: a surrogate's psi
    at its anchor, kept public beside ``surrogate_values``."""
    phi = np.exp(1j * np.asarray(angles, dtype=float))
    return np.abs(_product(phi.size)(_complex_rows(vectors), phi)) ** 2


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
    the loop.  The loop also ends after ``STALL_LIMIT`` steps without a
    better worst slack, the only reliable progress signal of a subgradient
    method.  A restoration (an anchor short of its targets) ends at its
    first improving iterate whose worst slack is >= 0: the surrogate is a
    minorant, so that profile meets the true targets too.

    The loop is bit for bit the step-by-step form in ``tests/phase_oracle.py``
    and makes no array per step beyond the copy an improving iterate keeps.
    Each rewrite keeps the oracle's IEEE operations in their order:

    - ``theta2 = 2.0 * theta`` once: doubling is exact, so its products are
      the doubled products of ``theta``.
    - The prices live in the real part of a complex buffer whose imaginary
      part stays +0.0: the operands to which the mixed-type
      ``prices @ theta2`` casts.  Both products write into fixed buffers
      through ``_product``, np.dot wherever it has ``@``'s bits
      (``tests/test_phase_opt.py`` guards that on the host's BLAS).
    - The exponent of ``exp(1j * -a)``, a = atan2(v), is written as
      ``0.0 - a`` into the imaginary part of a buffer whose real part stays
      +0.0.  The imaginary part is the product's 0 + (-a) bit for bit; the
      real part may differ in the sign of a zero, and exp(+0) = exp(-0) = 1.
      Only an improving iterate is negated into ``best_angles``.
    - Slacks, the worst slack and the price step run on Python floats: the
      same subtractions and multiply as the array form.  ``x if x > 0.0
      else 0.0`` is ``np.maximum(0.0, x)`` for every finite x but -0.0, and
      a price difference p - x is -0.0 only for p = -0.0, which neither
      form ever stores.  All prices at zero is ``not any``.
    - The movement test subtracts into a fixed buffer and sums the squares
      of its real and imaginary views, ``np.linalg.norm``'s own formula; the
      current and previous coefficient buffers swap roles each step.
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

    theta2 = 2.0 * surr.theta
    n = theta2.shape[1]
    mix_rows, apply_rows = _product(k), _product(n)
    levels = list(zip(np.broadcast_to(surr.psi, (k,)).tolist(), targets.tolist()))
    cprices = np.ones(k, dtype=complex)
    prices_re = cprices.real
    prices = [1.0] * k
    v = np.empty(n, dtype=complex)
    v_re, v_im = v.real, v.imag
    a = np.empty(n)
    w = np.empty(k, dtype=complex)
    w_re = w.real
    # exp's argument: real part +0.0 throughout, imaginary part 0.0 - a
    zeros = np.zeros(n)
    z = np.zeros(n, dtype=complex)
    z_im = z.imag
    coeff = np.empty(n, dtype=complex)
    d = np.empty(n, dtype=complex)
    d_re, d_im = d.real, d.imag

    best_angles = surr.anchor.copy()
    prev = np.exp(1j * best_angles)
    apply_rows(theta2, prev, out=w)
    best_slack = min([(x - p) - t for x, (p, t) in zip(w_re.tolist(), levels)])
    restoring = best_slack < -feas_tol

    converged = False
    collapsed = False
    stall = 0
    it = 0
    for it in range(1, max_iters + 1):
        if collapsed:
            break
        mix_rows(cprices, theta2, out=v)
        np.arctan2(v_im, v_re, out=a)
        np.subtract(zeros, a, out=z_im)
        np.exp(z, out=coeff)
        apply_rows(theta2, coeff, out=w)
        slacks = [(x - p) - t for x, (p, t) in zip(w_re.tolist(), levels)]
        worst = min(slacks)
        if worst > best_slack + gap:
            best_slack = worst
            best_angles = -a
            stall = 0
            if restoring and worst >= 0.0:
                break
        else:
            stall += 1
        step = tau0 / math.sqrt(it)
        prices = [x if (x := p - step * s) > 0.0 else 0.0 for p, s in zip(prices, slacks)]
        prices_re[:] = prices
        collapsed = not any(prices)
        np.subtract(coeff, prev, out=d)
        if math.sqrt(d_re.dot(d_re) + d_im.dot(d_im)) <= TOLERANCE:
            converged = True
            break
        coeff, prev = prev, coeff
        if stall >= STALL_LIMIT:
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


def sca_phase_optimize(vectors, targets, anchor) -> ScaResult:
    """Minorize-maximize loop: rebuild the surrogate at the incumbent and
    re-solve until the phases stop moving.

    ``vectors`` holds one effective row e_k per link, shape (K, N),
    ``targets`` one received power t_k per row and ``anchor`` the starting
    phase angles.  The minimum true slack min_k(|e_k . phi|^2 - t_k) of the
    incumbent never decreases: the surrogate underestimates the true value
    everywhere and matches it at the anchor, and the incumbent is always
    kept as fallback.  Since psi is the exact value at the anchor, each
    profile's slack is read off the surrogate built there, and an accepted
    candidate's surrogate is the next pass's.  A restoration (an anchor
    short of its targets by more than the tolerance) stops at the first
    incumbent that meets every target.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    anchor = np.asarray(anchor, dtype=float).reshape(-1)
    if vectors.shape[0] != targets.shape[0]:
        raise ValueError("one target per effective vector required")
    if vectors.shape[1] != anchor.shape[0]:
        raise ValueError("anchor length must match vector width")
    if targets.shape[0] == 0:
        raise ValueError("need at least one target")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    if np.any(targets < 0):
        raise ValueError("targets must be non-negative")
    if not (np.all(np.isfinite(vectors)) and np.all(np.isfinite(anchor))):
        raise ValueError("effective vectors and anchor must be finite")
    # 1e-6 of the largest target is both "strictly inside" and "no gain"
    tol = 1e-6 * max(float(np.max(targets)), np.finfo(float).tiny)

    surr = surrogate(vectors, anchor)
    best_slack = float(np.min(surr.psi - targets))
    # An anchor already strictly inside the feasible region needs no
    # restoration; a single pass is kept to pick up easy improvement.
    strict_start = best_slack > tol
    restoring = best_slack < -tol

    outer = 0
    for outer in range(1, MAX_OUTER + 1):
        cand = sgd_solve(surr, targets).phases
        cand_surr = surrogate(vectors, cand.angles)
        cand_slack = float(np.min(cand_surr.psi - targets))
        moved = cand.distance(surr.anchor)
        improvement = cand_slack - best_slack
        if improvement > 0:
            surr, best_slack = cand_surr, cand_slack
        if (strict_start or moved <= TOLERANCE or improvement <= tol
                or (restoring and best_slack >= 0.0)):
            break

    return ScaResult(phases=PhaseVector(surr.anchor), outer_iterations=outer)
