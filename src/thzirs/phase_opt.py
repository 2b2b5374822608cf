"""Common phase profile for many (user, sub-band) targets at once.

Each allocated pair (u, i) demands |e_ui . phi|^2 >= t_ui where e_ui is the
power-and-gain scaled steering row of that link and phi the unit-modulus
reflection coefficients.  The quadratic form is minorized by its first-order
expansion around an anchor, and the resulting linear constraints are handled
with a priced (multiplier-weighted) penalty whose phase update is closed form.
A private pool steps the SGD problems of one width from many phase stages at
once, bit for bit the lone loop, and finishes a problem left alone in it in
the lone loop, mid-solve if need be.
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
    coefficients: np.ndarray  # (N,) phi_hat = exp(j anchor) as ``surrogate`` computes it


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
    return Surrogate(theta=theta, psi=psi, anchor=anchor_angles.copy(), vectors=vectors,
                     coefficients=phi_hat)


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


def _sgd_constants(vectors, targets):
    """What every SGD problem on the rows ``vectors`` with the finite,
    non-empty float ``targets`` shares: (the targets as floats, tau0, the
    improvement gap, the feasibility tolerance).  Raises on rows whose scale
    is not finite or zero, as ``sgd_solve`` does."""
    scale = float((np.abs(vectors).sum(axis=1) ** 2).max())
    if not math.isfinite(scale):
        raise ValueError("effective vectors and anchor must be finite")
    if scale <= 0:
        raise ValueError("all effective vectors are zero")
    return (targets.tolist(), 1.0 / scale, 1e-15 * scale,
            1e-6 * max(targets.max(), np.finfo(float).tiny))


def _sgd_start(surr: Surrogate, targets, constants=None):
    """Set up what one ``sgd_solve`` problem's loop starts from:
    ``theta2 = 2 theta``, the psi and the target of each row as floats,
    tau0, the improvement gap, the feasibility tolerance, the restoring
    floor, the anchor's coefficients and its worst surrogate slack.
    Without ``constants`` (``_sgd_constants`` of its rows and targets) it
    checks the problem first."""
    if constants is None:
        targets = np.asarray(targets, dtype=float).reshape(-1)
        k = targets.shape[0]
        if k == 0 or surr.theta.shape[0] != k:
            raise ValueError(f"need one target per surrogate row ({surr.theta.shape[0]}), got {k}")
        if not np.isfinite(targets).all():
            raise ValueError("targets must be finite")
        if not np.isfinite(surr.anchor).all():
            raise ValueError("effective vectors and anchor must be finite")
        constants = _sgd_constants(surr.vectors, targets)
    target_levels, tau0, gap, feas_tol = constants
    k = len(target_levels)

    theta2 = 2.0 * surr.theta
    psi = surr.psi if np.shape(surr.psi) == (k,) else np.broadcast_to(surr.psi, (k,))
    psi = psi.tolist()
    prev = surr.coefficients.copy()
    w = _product(theta2.shape[1])(theta2, prev)
    best_slack = min([(x - p) - t for x, p, t in zip(w.real.tolist(), psi, target_levels)])
    # a restoration ends at its first improving iterate with worst slack >= 0
    floor = 0.0 if best_slack < -feas_tol else math.inf
    return theta2, psi, target_levels, tau0, gap, feas_tol, floor, prev, best_slack


def sgd_solve(surr: Surrogate, targets: np.ndarray, max_iters: int = 500,
              constants=None) -> SgdResult:
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
    minorant, so that profile meets the true targets too.  The loop is
    ``_sgd_loop``, started at iteration zero.  ``constants``, the
    ``_sgd_constants`` of the problem's rows and targets that an SCA stage
    holds, skip the problem's checks and their recomputation.
    """
    theta2, psi, targets, tau0, gap, feas_tol, floor, prev, best_slack = _sgd_start(
        surr, targets, constants)
    return _sgd_loop(theta2, list(zip(psi, targets)), [1.0] * len(psi), best_slack,
                     best_slack + gap, gap, tau0, feas_tol, floor, 0, 0, max_iters, prev,
                     surr.anchor.copy())


def _sgd_loop(theta2, levels, prices, best_slack, thresh, gap, tau0, feas_tol, floor, it, stall,
              max_iters, prev, best_angles) -> SgdResult:
    """``sgd_solve``'s loop from the end of iteration ``it`` to its exit.

    The state is a fresh problem's (``it`` = 0) or that of a problem an
    ``_SgdPool`` hands out mid-solve (``_SgdPool.leave``): the prices as
    floats, the best worst slack, the threshold ``best_slack + gap`` an
    iterate must beat, tau0, the feasibility tolerance, the restoring floor
    (0.0, or inf when not restoring), the stall count, the iteration cap,
    the previous coefficients (a buffer the loop writes into) and the best
    iterate's angles.

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
    - The threshold is ``best_slack + gap``, added when the best changes.
    - The movement test subtracts into a fixed buffer and sums the squares
      of its real and imaginary views, ``np.linalg.norm``'s own formula; the
      current and previous coefficient buffers swap roles each step.
    """
    k, n = theta2.shape
    mix_rows, apply_rows = _product(k), _product(n)
    cprices = np.array(prices, dtype=complex)
    prices_re = cprices.real
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
    restoring = floor == 0.0

    converged = False
    collapsed = False
    for it in range(it + 1, max_iters + 1):
        if collapsed:
            break
        mix_rows(cprices, theta2, out=v)
        np.arctan2(v_im, v_re, out=a)
        np.subtract(zeros, a, out=z_im)
        np.exp(z, out=coeff)
        apply_rows(theta2, coeff, out=w)
        slacks = [(x - p) - t for x, (p, t) in zip(w_re.tolist(), levels)]
        worst = min(slacks)
        if worst > thresh:
            best_slack = worst
            thresh = worst + gap
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


class _SgdRow:
    """One ``sgd_solve`` problem joining an ``_SgdPool``, as its loop starts it.

    Seating writes its state into a row of the pool's arrays, which hold it
    from then on; the record keeps its token, K and ``theta2``.  ``levels``
    is its (2, K) psi and target rows, ``scalars`` the columns of
    ``_SgdPool.scalars``; iterations count in the pool's ticks: the
    problem is at iteration ``tick - start``, stalls out ``STALL_LIMIT``
    ticks after its ``last`` improvement and reaches ``max_iters`` at tick
    ``cap``.  ``prev`` is its anchor's coefficients and ``best`` the best
    iterate's ``a``, the angles negated; its prices all start at 1.0.
    """

    __slots__ = ("token", "problem", "k", "theta2", "levels", "scalars", "prev", "best")

    def __init__(self, token, surr, targets, max_iters, tick, constants):
        self.problem = (surr, targets, max_iters, constants)
        theta2, psi, targets, tau0, gap, feas_tol, floor, prev, best_slack = _sgd_start(
            surr, targets, constants)
        self.token, self.k, self.theta2 = token, len(psi), theta2
        self.levels = np.array((psi, targets))
        self.scalars = (best_slack, best_slack + gap, gap, tau0, feas_tol, floor, tick, tick,
                        tick + max_iters)
        self.prev, self.best = prev, -surr.anchor

    def result(self, best, best_slack, feas_tol, converged, iterations):
        return self.token, SgdResult(
            phases=PhaseVector(-best[0]),
            converged=converged,
            feasible=best_slack >= -feas_tol,
            iterations=iterations,
        )


def _square_limit(tol):
    """The largest double m with sqrt(m) <= ``tol``: sqrt rounds correctly
    and never decreases, so ``sqrt(x) <= tol`` is ``x <= m`` for every x."""
    m = tol * tol
    while math.sqrt(m) > tol:
        m = math.nextafter(m, 0.0)
    while math.sqrt(math.nextafter(m, math.inf)) <= tol:
        m = math.nextafter(m, math.inf)
    return m


class _SgdPool:
    """``sgd_solve`` for many problems of one width N in flight at once.

    ``step`` takes every problem one step further, one row each of stacked
    arrays.  Rows run in blocks of equal K, in increasing K, and each block
    makes its two products with its (P_k, K, N) slice of the pool's
    (P, K_cap, N) ``theta2``, so no padding enters a product.  Every other
    step runs once over all rows, on (P, K_cap) slack and price arrays: a
    row's unused columns hold target -inf, so their slack is +inf, which no
    minimum takes, and their price stays 0.0, which no product reads.  Each
    problem keeps its own iteration count, tau0, gap, stall count,
    restoring flag and exits in its row, and meets ``sgd_solve``'s
    arithmetic in its order, so its result is ``sgd_solve``'s bit for bit:
    the stacked ``np.matmul`` products give every slice the bits of
    ``sgd_solve``'s own product, and so does the stacked movement norm over
    the same strided views (``tests/test_phase_opt.py`` guards both on the
    host's BLAS).  The pool's width is its first problem's; it refuses a
    problem of another.

    A problem added between steps joins at the next and leaves on the step
    it exits, its row free for the next problem that joins; until then the
    row idles (``_idle``) and ``alive`` keeps it out of the exits.  A joiner
    takes a free row of its K, or else any free row, moved to the end of its
    K's block (``_move``): the rows between shift by one, so the blocks stay
    one per K.  Only a joiner that finds no free row or outgrows K_cap, or
    free rows outnumbering live ones, makes the next step regroup: the live
    rows are gathered from the arrays, the joiners added, the free rows
    dropped.  The per-row scalars are the columns of one (P, 9) array:
    best_slack, thresh (best_slack + gap), gap, tau0, feas_tol, floor,
    start, last and cap.  The only problem in the pool can also leave
    between steps (``leave``) and finish alone (``finish``).
    """

    def __init__(self):
        self.rows, self.joining, self.vacated, self.tick, self.n = [], [], [], 0.0, None
        self.square_limit = _square_limit(TOLERANCE)

    def add(self, token, surr: Surrogate, targets, max_iters: int = 500, constants=None):
        """Queue ``sgd_solve(surr, targets, max_iters)``, ``max_iters`` >= 1,
        under ``token``; raises its ValueError at once, and one for a
        problem of another width than the pool's.  ``constants``, the
        ``_sgd_constants`` of the problem's rows and targets, skip the
        checks."""
        row = _SgdRow(token, surr, targets, max_iters, self.tick, constants)
        n = row.theta2.shape[1]
        self.n = self.n or n
        if n != self.n:
            raise ValueError(f"the pool holds problems of width {self.n}, not {n}")
        self.joining.append(row)

    def _settle(self):
        """Seat the joiners in free rows, or regroup."""
        self.vacated = []
        free = [r for r, row in enumerate(self.rows) if row is None]
        if (len(free) < len(self.joining) or 2 * (len(free) - len(self.joining)) > len(self.rows)
                or any(row.k > self.k_cap for row in self.joining)):
            self._regroup()
            return
        joining, self.joining = self.joining, []
        for row in joining:
            r = next((r for r in free if self.ks[r] == row.k), None)
            if r is None:
                r = self._move(free[0], row.k)
                free = [r for r, row in enumerate(self.rows) if row is None]
            free.remove(r)
            self._put(r, row)
        for r in free:
            if self.alive[r]:
                self._idle(r)

    def _move(self, r, k):
        """Move the free row r to the end of K's block, shifting the rows
        between by one; returns its new index."""
        ks, alive = self.ks, self.alive[r]
        t = sum(1 for q, kq in enumerate(ks) if kq <= k and q != r)
        if t != r:
            # the rows from r's neighbour to t take one place toward r
            dst, src = ((slice(r, t), slice(r + 1, t + 1)) if t > r
                        else (slice(t + 1, r + 1), slice(t, r)))
            for arr in (self.theta2, self.scalars, self.psi, self.targets, self.prices,
                        self.coeffs[self.parity ^ 1], self.best, self.alive):
                arr[dst] = arr[src].copy()
            self.rows[dst] = self.rows[src]
            ks[dst] = ks[src]
            self.rows[t], self.alive[t] = None, alive
        ks[t] = k
        # the row's columns past its new K are padding
        self.psi[t, k:], self.targets[t, k:], self.prices[t, k:] = 0.0, -math.inf, 0.0
        self._blocks()
        return t

    def _blocks(self):
        """Each block's views: theta2, prices, v, coefficients, w."""
        self.blocks, ks, lo = [], self.ks, 0
        while lo < len(ks):
            k, hi = ks[lo], lo + 1
            while hi < len(ks) and ks[hi] == k:
                hi += 1
            self.blocks.append((self.theta2[lo:hi, :k], self.cprices[lo:hi, :, :k], self.v[lo:hi],
                                tuple(c[lo:hi].transpose(0, 2, 1) for c in self.coeffs),
                                self.w[lo:hi, :k]))
            lo = hi

    def _idle(self, r):
        """Leave row r with nothing to improve, stall, cap or collapse: a
        zero ``theta2`` makes its coefficients 1.0, which its previous ones
        are set to, so the row counts as converged at every step."""
        k = self.ks[r]
        self.theta2[r] = 0.0
        self.psi[r, :k], self.targets[r, :k] = 0.0, 1.0
        self.scalars[r] = (math.inf, math.inf, 0.0, 1.0, 0.0, math.inf, 0.0, math.inf, math.inf)
        self.coeffs[self.parity ^ 1][r] = 1.0
        self.alive[r] = False
        self.idle_rows += 1

    def _put(self, r, row):
        """Write the joining ``row``'s state into row r."""
        self.theta2[r, :row.k] = row.theta2
        self.prices[r, :row.k] = 1.0
        self.psi[r, :row.k], self.targets[r, :row.k] = row.levels
        self.scalars[r] = row.scalars
        self.coeffs[self.parity ^ 1][r, 0] = row.prev
        self.best[r, 0] = row.best
        self.idle_rows -= not self.alive[r]
        self.alive[r] = True
        self.rows[r] = row
        _, _, _, _, _, floor, _, last, cap = row.scalars
        self.next_due = min(self.next_due, last + STALL_LIMIT, cap)
        self.restoring = self.restoring or floor == 0.0

    def _regroup(self):
        """New arrays for the live rows, gathered from the old ones, and the
        joiners, in K order; free rows are dropped."""
        live = [r for r, row in enumerate(self.rows) if row is not None]
        old = [self.rows[r] for r in live] + self.joining
        # stable, so that each K's live rows stay ahead of its joiners
        order = sorted(range(len(old)), key=lambda j: old[j].k)
        rows = [old[j] for j in order]
        self.rows, self.joining, self.vacated = rows, [], []
        if not rows:
            return
        p, n, m = len(rows), self.n, len(live)
        k_cap = max(rows[-1].k, self.k_cap if m else 0)
        # the new row of each live row, then of each joiner
        where = np.empty(p, dtype=int)
        where[order] = np.arange(p)
        theta2 = np.zeros((p, k_cap, n), dtype=complex)
        scalars = np.empty((p, 9))
        psi, targets, prices = np.zeros((3, p, k_cap))
        targets[:] = -math.inf
        prev, best = np.empty((p, 1, n), dtype=complex), np.empty((p, 1, n))
        if m:
            moved, width = where[:m], self.k_cap
            theta2[moved, :width] = self.theta2[live]
            scalars[moved] = self.scalars[live]
            psi[moved, :width] = self.psi[live]
            targets[moved, :width] = self.targets[live]
            prices[moved, :width] = self.prices[live]
            prev[moved] = self.coeffs[self.parity ^ 1][live]
            best[moved] = self.best[live]
        self.theta2, self.k_cap, self.ks = theta2, k_cap, [row.k for row in rows]
        self.scalars, self.psi, self.targets, self.prices = scalars, psi, targets, prices
        # the prices as the complex operands the products take, imaginary parts +0.0
        self.cprices, self.best = np.zeros((p, 1, k_cap), dtype=complex), best
        (self.best_slack, self.thresh, self.gap, self.tau0, self.feas_tol, self.floor,
         self.start, self.last, self.cap) = scalars.T
        self.coeffs = (prev, np.empty((p, 1, n), dtype=complex))
        self.parity = 1  # coeffs[parity] takes this step's coefficients
        self.alive = np.ones(p, dtype=bool)
        self.idle_rows, self.next_due, self.restoring = 0, math.inf, False
        for r, row in zip(where[m:].tolist(), old[m:]):
            self._put(r, row)
        self.restoring = bool((self.floor == 0.0).any())
        self.next_due = self._next_due()
        # exp's argument: real part +0.0 throughout, imaginary part 0.0 - a
        v, z, d = np.zeros((3, p, 1, n), dtype=complex)
        a, zeros = np.zeros((2, p, 1, n))
        w = np.zeros((p, k_cap, 1), dtype=complex)
        self.v, self.w = v, w
        worst, its, steps, moved_im, priced = np.empty((5, p))
        moved = np.empty((p, 1, 1))
        improved, converged = np.empty((2, p), dtype=bool)
        self._blocks()
        self.views = (
            self.cprices.real[:, 0], v, v.real, v.imag, a, zeros, z, z.imag, w.real[:, :, 0], psi,
            targets, np.empty((p, k_cap)), worst, improved, improved[:, None, None],
            its, steps, steps[:, None], prices, np.ones(k_cap), priced, d, d.real,
            d.real.transpose(0, 2, 1), d.imag, d.imag.transpose(0, 2, 1), moved,
            moved_im[:, None, None], moved[:, 0, 0], converged,
        )

    def leave(self):
        """Take the pool's only problem, in flight, out mid-solve: returns
        its token and the ``_sgd_loop`` arguments that finish it, bit for
        bit the result the pool would give.  Its row is vacated as at an
        exit."""
        r = next(r for r, row in enumerate(self.rows) if row is not None)
        row, self.rows[r] = self.rows[r], None
        self.vacated.append(r)
        levels = np.array((self.psi[r, :row.k], self.targets[r, :row.k]))
        best_slack, thresh, gap, tau0, feas_tol, floor, start, last, cap = self.scalars[r].tolist()
        return row.token, (
            row.theta2, list(zip(*levels.tolist())), self.prices[r, :row.k].tolist(), best_slack,
            thresh, gap, tau0, feas_tol, floor, int(self.tick - start), int(self.tick - last),
            int(cap - start), self.coeffs[self.parity ^ 1][r, 0].copy(), -self.best[r, 0])

    def finish(self):
        """Take the pool's only problem out and finish it alone: its token
        and its ``SgdResult``, bit for bit the pool's.  A problem that has
        taken no step yet is ``sgd_solve``'s, from its stage's constants;
        one in flight resumes in ``_sgd_loop`` from where it left."""
        if self.joining:
            row = self.joining.pop()
            surr, targets, max_iters, constants = row.problem
            # looked up at each call, so that a replaced phase_opt.sgd_solve serves it
            return row.token, sgd_solve(surr, targets, max_iters, constants=constants)
        token, state = self.leave()
        return token, _sgd_loop(*state)

    def drop(self, gone):
        """Remove every problem whose token ``gone(token)`` is true."""
        self.joining = [row for row in self.joining if not gone(row.token)]
        for r, row in enumerate(self.rows):
            if row is not None and gone(row.token):
                self.rows[r] = None
                self.vacated.append(r)

    def _next_due(self):
        """The first tick at which a row may stall out or reach its cap."""
        return float(np.minimum(self.last + STALL_LIMIT, self.cap).min())

    def step(self):
        """One step of every problem in the pool; returns (token, SgdResult)
        for each problem that exited, in no promised order."""
        if self.joining or self.vacated:
            self._settle()
        if not self.rows:
            return []
        self.tick += 1.0
        tick, parity = self.tick, self.parity
        coeff, prev = self.coeffs[parity], self.coeffs[parity ^ 1]
        blocks = self.blocks
        (cprices_re, v, v_re, v_im, a, zeros, z, z_im, w_re, psi, targets, slacks, worst,
         improved, improved_rows, its, steps, steps_col, prices, ones, priced, d, d_re, d_re_t,
         d_im, d_im_t, moved, moved_im, moved_sq, converged) = self.views
        cprices_re[...] = prices
        # ufuncs take their output positionally, which skips the keyword's parsing
        for theta2, cprices, v_rows, _, _ in blocks:
            np.matmul(cprices, theta2, out=v_rows)
        np.arctan2(v_im, v_re, a)
        np.subtract(zeros, a, z_im)
        np.exp(z, coeff)
        for theta2, _, _, coeff_cols, w_rows in blocks:
            np.matmul(theta2, coeff_cols[parity], out=w_rows)
        np.subtract(w_re, psi, slacks)
        np.subtract(slacks, targets, slacks)
        np.minimum.reduce(slacks, axis=1, out=worst)
        np.greater(worst, self.thresh, improved)
        restored = None
        if np.count_nonzero(improved):
            np.copyto(self.best_slack, worst, where=improved)
            np.add(self.best_slack, self.gap, self.thresh)
            np.copyto(self.best, a, where=improved_rows)
            np.copyto(self.last, tick, where=improved)
            if self.restoring:
                restored = improved & (worst >= self.floor)
        np.subtract(tick, self.start, its)
        np.sqrt(its, steps)
        np.divide(self.tau0, steps, steps)
        np.multiply(steps_col, slacks, slacks)
        np.subtract(prices, slacks, slacks)
        np.maximum(0.0, slacks, out=prices)
        np.subtract(coeff, prev, d)
        np.matmul(d_re, d_re_t, out=moved)
        np.matmul(d_im, d_im_t, out=moved_im)
        np.add(moved, moved_im, moved)
        np.less_equal(moved_sq, self.square_limit, converged)
        # prices are >= 0, so a row's sum is 0.0 exactly when all are: collapsed
        np.matmul(prices, ones, out=priced)
        self.parity = parity ^ 1
        if (tick < self.next_due and np.count_nonzero(converged) == self.idle_rows
                and np.count_nonzero(priced) == len(priced)
                and (restored is None or not np.count_nonzero(restored))):
            return []

        timed_out = (tick - self.last >= STALL_LIMIT) | (tick >= self.cap)
        exited = (converged | timed_out | (priced == 0.0)) & self.alive
        if restored is not None:
            exited |= restored
            timed_out |= restored
        self.next_due = self._next_due()
        done = []
        for r in exited.nonzero()[0].tolist():
            # a restoration's exit is no convergence; a collapse alone ends
            # the loop at the next step's check
            conv = bool(converged[r]) and not (restored is not None and restored[r])
            late = not (conv or timed_out[r])
            done.append(self.rows[r].result(self.best[r], self.best_slack[r], self.feas_tol[r],
                                            conv, int(tick - self.start[r]) + late))
            self.rows[r] = None
            self.vacated.append(r)
        return done


def _drive(steps, serve):
    """Run the generator ``steps`` to its end, answering every request it
    yields with ``serve(*request)``; returns the generator's value."""
    reply = None
    while True:
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = serve(*request)


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
    incumbent that meets every target.  The loop is ``_sca_steps``, each of
    its SGD problems solved by ``sgd_solve`` from the stage's constants.
    """
    # looked up at each call, so that a replaced phase_opt.sgd_solve serves it
    return _drive(_sca_steps(vectors, targets, anchor),
                  lambda surr, targets, constants: sgd_solve(surr, targets, constants=constants))


def _sca_steps(vectors, targets, anchor):
    """``sca_phase_optimize`` as a generator: yields each SGD problem as
    (surrogate, targets, constants), takes its ``SgdResult``, returns the
    ``ScaResult``.  The stage checks its input and computes the
    ``_sgd_constants`` of its rows and targets once; every problem it
    yields shares them.  A candidate's slack and movement need only its
    products with the rows, so its surrogate rows are built only when the
    next problem starts from it: one ``theta`` per problem yielded."""
    vectors = _complex_rows(vectors)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    anchor = np.asarray(anchor, dtype=float).reshape(-1)
    if vectors.shape[0] != targets.shape[0]:
        raise ValueError("one target per effective vector required")
    if vectors.shape[1] != anchor.shape[0]:
        raise ValueError("anchor length must match vector width")
    if targets.shape[0] == 0:
        raise ValueError("need at least one target")
    if not np.isfinite(targets).all():
        raise ValueError("targets must be finite")
    if (targets < 0).any():
        raise ValueError("targets must be non-negative")
    if not np.isfinite(anchor).all():
        raise ValueError("effective vectors and anchor must be finite")
    # a non-finite entry makes the scale non-finite, so this checks the rows too
    constants = _sgd_constants(vectors, targets)
    # 1e-6 of the largest target is both "strictly inside" and "no gain"
    tol = constants[3]

    surr = surrogate(vectors, anchor)
    best_slack = float((surr.psi - targets).min())
    # An anchor already strictly inside the feasible region needs no
    # restoration; a single pass is kept to pick up easy improvement.
    strict_start = best_slack > tol
    restoring = best_slack < -tol

    outer = 0
    product = _product(vectors.shape[1])
    kept = surr.anchor
    for outer in range(1, MAX_OUTER + 1):
        angles = (yield surr, targets, constants).phases.angles
        # ``surrogate(vectors, angles)``'s products, its rows left unbuilt
        coefficients = np.exp(1j * angles)
        w = product(vectors, coefficients)
        psi = np.abs(w) ** 2
        cand_slack = float((psi - targets).min())
        # PhaseVector.distance, np.linalg.norm's own formula without its wrapper
        d = coefficients - surr.coefficients
        moved = math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag))
        improvement = cand_slack - best_slack
        if improvement > 0:
            best_slack, kept = cand_slack, angles.copy()
        if (strict_start or moved <= TOLERANCE or improvement <= tol
                or (restoring and best_slack >= 0.0)):
            break
        # improvement > tol > 0: the candidate is the next problem's anchor
        surr = Surrogate(theta=w.conj()[:, None] * vectors, psi=psi, anchor=kept,
                         vectors=vectors, coefficients=coefficients)

    return ScaResult(phases=PhaseVector(kept), outer_iterations=outer)
