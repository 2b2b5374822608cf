"""Reference forms of the phase stage's surrogate helpers and its priced
subgradient phase restoration.

``reference_surrogate``, ``reference_surrogate_values`` and
``reference_exact_values`` are the helpers of ``thzirs.phase_opt`` written
with ``@`` and fresh arrays.  ``reference_sgd_solve`` is the loop
``thzirs.phase_opt.sgd_solve`` computes, written step by step through
``penalized_phase_update``, ``reference_surrogate_values``,
``price_update`` and ``np.linalg.norm``.  The library computes the same
arithmetic in the same order with ``np.dot`` and reused buffers, so every
value and every output the library keeps must agree bit for bit.

``reference_sca_phase_optimize`` is the minorize-maximize loop of
``thzirs.phase_opt.sca_phase_optimize`` with every profile's slack taken
from ``exact_values`` and the surrogate rebuilt at each incumbent.  The
library reads the slacks off the surrogates it builds anyway, whose psi is
the exact value at their anchor, so both loops must return the same phase
bits after the same number of passes.
"""

from dataclasses import dataclass

import numpy as np

from thzirs import phase_opt
from thzirs.geometry import PhaseVector
from thzirs.phase_opt import ScaResult, Surrogate, exact_values, sgd_solve, surrogate


@dataclass
class ReferenceSgdResult:
    """Everything the step-by-step loop knows when it stops."""

    phases: PhaseVector
    converged: bool
    feasible: bool
    infeasible: bool
    iterations: int
    min_slack: float
    prices: np.ndarray
    prices_collapsed: bool


def reference_surrogate(vectors, anchor_angles) -> Surrogate:
    """Minorant 2 Re{theta . phi} - psi <= |e . phi|^2 at the anchor."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    anchor_angles = np.asarray(anchor_angles, dtype=float).reshape(-1)
    phi_hat = np.exp(1j * anchor_angles)
    w = vectors @ phi_hat
    theta = w.conj()[:, None] * vectors
    psi = np.abs(w) ** 2
    return Surrogate(theta=theta, psi=psi, anchor=anchor_angles.copy(), vectors=vectors,
                     coefficients=phi_hat)


def reference_surrogate_values(surr: Surrogate, angles) -> np.ndarray:
    """2 Re{theta . phi} - psi per constraint at the given phases."""
    phi = np.exp(1j * np.asarray(angles, dtype=float))
    return 2.0 * (surr.theta @ phi).real - surr.psi


def reference_exact_values(vectors, angles) -> np.ndarray:
    """|e . phi|^2 per constraint at the given phases."""
    phi = np.exp(1j * np.asarray(angles, dtype=float))
    return np.abs(np.atleast_2d(np.asarray(vectors, dtype=complex)) @ phi) ** 2


def penalized_phase_update(surr: Surrogate, prices: np.ndarray):
    """Unit-modulus maximizer of sum_k 2 rho_k Re{theta_k . phi}.

    Each entry independently maximizes Re{v_n exp(j phi_n)} for
    v = 2 rho . theta, so phi_n = -angle(v_n).  With all prices at zero the
    penalty is flat and the anchor is returned with a flag.
    """
    prices = np.asarray(prices, dtype=float)
    if np.any(prices < 0):
        raise ValueError("prices must be non-negative")
    if not np.any(prices > 0):
        return surr.anchor.copy(), True
    v = 2.0 * (prices @ surr.theta)
    return -np.angle(v), False


def price_update(prices: np.ndarray, slacks: np.ndarray, step: float) -> np.ndarray:
    """Projected subgradient step on the prices.

    Satisfied constraints (positive slack) see their price shrink toward
    zero, violated ones grow.
    """
    return np.maximum(0.0, prices - step * np.asarray(slacks, dtype=float))


def reference_sgd_solve(
    surr: Surrogate,
    targets: np.ndarray,
    tolerance: float = 1e-4,
    max_iters: int = 500,
    stall_limit: int = 100,
) -> ReferenceSgdResult:
    """Alternate the closed-form phase update with priced subgradient steps.

    Returns the iterate with the best minimum constraint slack seen (the
    anchor itself counts as iterate zero).  Prices start at one; steps decay
    as tau0/sqrt(t) with tau0 set from the largest achievable constraint
    level.  Stops after ``stall_limit`` steps without a better worst slack
    and, when the anchor starts short of the targets, at the first improving
    iterate whose worst slack is >= 0.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1)
    prices = np.ones(targets.shape[0])

    scale = float(np.max((np.sum(np.abs(surr.vectors), axis=1)) ** 2))
    if scale <= 0:
        raise ValueError("all effective vectors are zero")
    tau0 = 1.0 / scale
    feas_tol = 1e-6 * max(np.max(targets), np.finfo(float).tiny)

    # Hard certificate: the linear form 2 Re{theta.phi} tops out at
    # 2 sum|theta_n|, so a larger demand can never be met.
    upper = 2.0 * np.sum(np.abs(surr.theta), axis=1) - surr.psi
    certified_infeasible = bool(np.any(targets > upper + feas_tol))

    best_angles = surr.anchor.copy()
    best_slack = float(np.min(reference_surrogate_values(surr, best_angles) - targets))
    restoring = best_slack < -feas_tol
    prev_coeff = np.exp(1j * best_angles)

    converged = False
    collapsed = False
    stall = 0
    it = 0
    for it in range(1, max_iters + 1):
        angles, flat = penalized_phase_update(surr, prices)
        if flat:
            collapsed = True
            break
        slacks = reference_surrogate_values(surr, angles) - targets
        worst = float(np.min(slacks))
        if worst > best_slack + 1e-15 * scale:
            best_slack = worst
            best_angles = angles
            stall = 0
            if restoring and worst >= 0.0:
                break
        else:
            stall += 1
        prices = price_update(prices, slacks, tau0 / np.sqrt(it))
        coeff = np.exp(1j * angles)
        if np.linalg.norm(coeff - prev_coeff) <= tolerance:
            converged = True
            break
        prev_coeff = coeff
        if stall >= stall_limit:
            break

    feasible = best_slack >= -feas_tol
    return ReferenceSgdResult(
        phases=PhaseVector(best_angles),
        converged=converged,
        feasible=feasible,
        infeasible=certified_infeasible or (not feasible and stall >= stall_limit),
        iterations=it,
        min_slack=best_slack,
        prices=prices,
        prices_collapsed=collapsed,
    )


def reference_sca_phase_optimize(vectors, targets, anchor) -> ScaResult:
    """Surrogate at the incumbent, SGD on it, exact slack of the candidate;
    stop once the phases stop moving or the slack stops rising, or once an
    anchor that started short of the targets has an incumbent meeting them.

    Reads ``MAX_OUTER`` and ``TOLERANCE`` from ``thzirs.phase_opt`` at call
    time, so a test that patches them patches both loops.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    tol = 1e-6 * max(float(np.max(targets)), np.finfo(float).tiny)

    best = np.asarray(anchor, dtype=float).reshape(-1).copy()
    best_slack = float(np.min(exact_values(vectors, best) - targets))
    strict_start = best_slack > tol
    restoring = best_slack < -tol

    outer = 0
    for outer in range(1, phase_opt.MAX_OUTER + 1):
        res = sgd_solve(surrogate(vectors, best), targets)
        cand = res.phases.angles
        cand_slack = float(np.min(exact_values(vectors, cand) - targets))
        moved = PhaseVector(cand).distance(best)
        improvement = cand_slack - best_slack
        if improvement > 0:
            best, best_slack = cand, cand_slack
        if strict_start or moved <= phase_opt.TOLERANCE or improvement <= tol:
            break
        if restoring and best_slack >= 0.0:
            break

    return ScaResult(phases=PhaseVector(best), outer_iterations=outer)
