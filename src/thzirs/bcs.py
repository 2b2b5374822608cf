"""Joint array placement, phase, assignment and power optimization.

``inner_solve`` alternates the exact sub-band allocation with a
successive-convex phase restoration at one fixed array position; the sum rate
never drops between rounds because the next allocation may always keep the
previous assignment and powers, and the phase stage never accepts a profile
whose worst received-power slack falls below the incumbent.  ``bcs_solve``
sweeps candidate positions over a coordinate lattice (block-coordinate
search) best first: a coherent-ceiling allocation bounds every lattice
point's answer from above, points are inner-solved in decreasing bound order,
and the search stops at the first bound below the incumbent.  With enough
lattice points whose ceilings meet the floors, the min-distance anchor and
the next points in bound order are solved together ahead of the loop
(``_Lookahead``): their link rows, matched profiles and cold allocations are
built for a chunk of points in one pass, their phase stages' SGD steps are
stacked into one pooled step, a point whose bound falls below the best sum
rate held is dropped, and the last one unsolved with none to join it takes
its problems out of the pool to finish them alone.  The loop still counts
and keeps exactly the points it reaches.
The reference strategies inner-solve one placement:
MinDis and RanLoc their own, RanPhi the lattice point that scores best under
its frozen phase profile.

Both lattice passes, the ceiling bounds and RanPhi's frozen-profile scores,
keep only the points' power gains and run the exact allocation for a block
of points at once, in one walk over the lattice (``_lattice_scores``); a
block holds at most ``BLOCK_ROWS`` allocation rows (points times
assignments), so memory stays flat at any plan size the allocation accepts.
Neither builds link rows to bound a point.  Every element of a link's row
carries the path amplitude |g| of its two-hop length, so the ceiling pass
takes the coherent ceiling (N |g|)^2 from the lengths alone and scores
every point.  RanPhi bounds every point's frozen-profile gains in closed
form (``_frozen_gain_bounds``), and the walk builds link rows for and
scores exactly only the points whose water-filled bound
(``sum_rate_bounds``) reaches the best sum rate scored before them, the
only ones that can change its answer or its running best (branch and
bound: Land and Doig, 1960).  Each search sets its allocation plan up once
(a ``_BandPlan``), and every helper below the public entry points takes the
sub-bands, budget and rate floors from that plan alone.
"""

from collections import deque
from dataclasses import dataclass, field
from itertools import islice, takewhile
from typing import Optional

import numpy as np

from .allocation import (
    _BandPlan,
    _cold_allocations,
    _rate_floors,
    _snr_per_watt,
    _SnrOverflow,
    score_allocations,
    solve_allocation,
    sum_rate_bounds,
)
# absorption_coefficient stays importable here for perfbench/tracer.py
from .channel import (  # noqa: F401
    SPEED_OF_LIGHT,
    _band_absorption,
    _path_amplitude,
    absorption_coefficient,
)
from .geometry import (
    IrsPlacement,
    PhaseVector,
    Scene,
    _two_hop,
    solve_min_total_distance,
)
from .phase_opt import (
    _drive,
    _link_rows,
    _sca_steps,
    _SgdPool,
    effective_vector,
    sca_phase_optimize,
)
from .rng import SplitMix64

# allocation/phase rounds per inner solve, and the relative sum-rate change
# between consecutive rounds that ends them
MAX_ROUNDS = 30
ROUND_TOLERANCE = 1e-3
# relative drift a stored Solution may show against its recomputed figures
VALIDATE_TOLERANCE = 1e-6
# relative inflation of the coherent-ceiling gains and of RanPhi's water-filled
# bounds, so that rounding never lets a point's bound fall below its answer
BOUND_MARGIN = 1e-9
# allocation rows (lattice points x assignments) scored in one batched pass;
# a block holds one point at least
BLOCK_ROWS = 512
# open lattice points bcs_solve solves at once beside the min-distance anchor,
# when at least LOOKAHEAD_MIN_OPEN ceilings meet every rate floor; with fewer
# the pool runs so few problems per step that one point at a time is cheaper
LOOKAHEAD_POINTS = 16
LOOKAHEAD_MIN_OPEN = 8


@dataclass
class Solution:
    """One fully specified operating point of the downlink."""

    placement: IrsPlacement
    phases: PhaseVector
    winners: np.ndarray       # (I,) UE index per band
    powers: np.ndarray        # (I,)
    rates: np.ndarray         # (U,)
    sum_rate_bps: float
    feasible: bool
    converged: bool
    rounds: int
    rate_trace: list = field(default_factory=list)

    def validate(self, scene, sub_bands, p_max, rate_requirements, mixing_ratio) -> float:
        """Recompute every rate from placement, phases, winners and powers.

        Raises ValueError when a stored array has the wrong length, or a
        stored figure is not finite or drifts past ``VALIDATE_TOLERANCE``;
        returns the recomputed sum rate.  Every comparison is written so that
        a NaN fails it.
        """
        u_count = scene.ue_count
        i_count = len(sub_bands)
        for name, stored, length in (("phases", self.phases.angles, self.placement.element_count),
                                     ("winners", self.winners, i_count),
                                     ("powers", self.powers, i_count),
                                     ("rates", self.rates, u_count)):
            if stored.shape != (length,):
                raise ValueError(f"stored {name} have shape {stored.shape}, expected ({length},)")
        rate_req = _rate_floors(rate_requirements, u_count)
        if not (np.isfinite(self.powers).all() and np.isfinite(self.rates).all()
                and np.isfinite(self.sum_rate_bps)):
            raise ValueError("stored powers, rates and sum rate must be finite")
        if not np.all(self.powers >= 0):
            raise ValueError("negative transmit power stored")
        total = float(np.sum(self.powers))
        if not total <= p_max * (1 + VALIDATE_TOLERANCE):
            raise ValueError(f"power budget exceeded: {total} > {p_max}")
        if np.any(self.winners < 0) or np.any(self.winners >= u_count):
            raise ValueError("assignment points at a UE outside the scene")

        if not self.feasible:
            # the infeasible verdict assigns nothing and spends nothing
            if (self.sum_rate_bps != 0.0 or np.any(self.winners != 0)
                    or np.any(self.powers != 0) or np.any(self.rates != 0)):
                raise ValueError("infeasible solution carries a nonzero winner, power or rate")
            return 0.0

        absorb = _band_absorption(tuple(b.center_hz for b in sub_bands), mixing_ratio)
        vectors = effective_vector(sub_bands, self.placement, scene, absorb)
        gains = np.abs(vectors @ self.phases.coefficients) ** 2
        cols = np.arange(i_count)
        bw = np.array([b.bandwidth_hz for b in sub_bands])
        noise = np.array([b.noise_power_w for b in sub_bands])
        per_band = bw * np.log2(1.0 + gains[self.winners, cols] * self.powers / noise)
        rates = np.zeros(u_count)
        np.add.at(rates, self.winners, per_band)

        scale = max(float(np.max(rates)), 1.0)
        if not np.max(np.abs(rates - self.rates)) <= VALIDATE_TOLERANCE * scale:
            raise ValueError("stored per-UE rates do not match the geometry")
        if not abs(float(np.sum(rates)) - self.sum_rate_bps) <= VALIDATE_TOLERANCE * scale:
            raise ValueError("stored sum rate does not match the geometry")
        if not np.all(rates >= rate_req * (1 - VALIDATE_TOLERANCE) - VALIDATE_TOLERANCE * scale):
            raise ValueError("rate floor violated by a solution marked feasible")
        return float(np.sum(rates))


@dataclass
class SearchResult:
    """Best solution of a placement search plus its trajectory.

    ``points_evaluated`` counts the lattice points inner-solved: those its
    bound leaves open for ``bcs``, the winning point alone for ``ranphi``.
    ``best_trace`` is the running best sum rate, in visit order led by the
    anchor's for ``bcs`` and in lattice order, one entry per point, from the
    batched scores for ``ranphi``, the same as if every point were scored.
    """

    solution: Solution
    best_trace: list
    points_evaluated: int
    anchor: Optional[Solution] = None


def _cold_starts(scene, anchors, offsets_m, plan, absorb):
    """``_inner_steps``'s start at each of a (P, 3) stack of ``anchors`` on
    the ``_BandPlan`` ``plan``: (link rows, matched profile, gains, cold
    allocation).

    The profile is matched to the UE with the largest rate floor (ties
    broken toward the longest path) at the plan's center frequency: that UE
    is the one most likely to miss its floor, so the first allocation starts
    from the profile that protects it best.  Each point's start is bit for
    bit the one this pass gives that point alone.
    """
    vectors = _link_rows(plan, anchors, offsets_m, scene, absorb)
    lengths, slope = _two_hop(anchors, scene)
    hardest = np.lexsort((lengths, np.broadcast_to(plan.floors, lengths.shape)))[:, -1]
    lo = min(b.lo_hz for b in plan)
    hi = max(b.hi_hz for b in plan)
    k = 2.0 * np.pi * (0.5 * (lo + hi)) / SPEED_OF_LIGHT
    profiles = [PhaseVector(k * s * offsets_m)
                for s in slope[np.arange(len(anchors)), hardest].tolist()]
    # one product per point, so that a point's gains keep their bits at any P
    gains = np.array([np.abs(v @ phases.coefficients) ** 2 for v, phases in zip(vectors, profiles)])
    return list(zip(vectors, profiles, gains, _cold_allocations(gains, plan)))


def _same_bits(a: PhaseVector, b: PhaseVector) -> bool:
    """Whether two profiles hold the same angles bit for bit."""
    return a.angles.tobytes() == b.angles.tobytes()


def _repair_request(vectors, phases, plan):
    """The phase-stage request that steers the profile toward the ``_BandPlan``
    ``plan``'s rate floors when no allocation meets them: (rows, targets,
    anchor angles).

    Gives every floored UE its highest-headroom free band (hardest UE
    first) and asks for the received powers those floors need at an even
    budget split.  The floors may still be out of reach at the profile the
    phase stage hands back; one pass is all the repair makes, since a second
    rescued none of 3,386 repairs counted when it existed.
    """
    i_count = len(plan)
    rate_req = plan.floors
    p_eq = plan.p_max / i_count
    # received power needed to hit each floor on each band, and the coherent
    # ceiling an even split could ever deliver there
    need = plan.noise * (np.exp2(np.minimum(rate_req[:, None] / plan.bw, 1023.0)) - 1.0)
    ceiling = p_eq * np.sum(np.abs(vectors), axis=-1) ** 2

    floored = np.flatnonzero(rate_req > 0)
    headroom = ceiling[floored] / need[floored]
    order = floored[np.argsort(np.max(headroom, axis=1), kind="stable")]
    pairs_u, pairs_i = [], []
    taken = np.zeros(i_count, dtype=bool)
    for u in order:
        open_bands = np.flatnonzero(~taken)
        if open_bands.size == 0:
            break
        pick = int(open_bands[np.argmax(ceiling[u, open_bands] / need[u, open_bands])])
        pairs_u.append(int(u))
        pairs_i.append(pick)
        taken[pick] = True
    rows = np.sqrt(p_eq) * vectors[pairs_u, pairs_i]
    targets = np.minimum(1.5 * need[pairs_u, pairs_i], 0.9 * ceiling[pairs_u, pairs_i])

    return rows, targets, phases.angles


def inner_solve(
    scene: Scene,
    placement: IrsPlacement,
    sub_bands,
    p_max: float,
    rate_requirements,
    mixing_ratio: float,
    phases: Optional[PhaseVector] = None,
    *,
    _lookahead=None,
) -> Solution:
    """Alternate allocation and phase restoration at one array position.

    Without ``phases`` the solve starts from a matched profile and
    alternates until ``ROUND_TOLERANCE`` or ``MAX_ROUNDS`` ends it.  A given
    ``phases`` profile is frozen: the allocation is already exact for it and
    a single round suffices.  An infeasible point comes back as the
    allocation's all-zero verdict after one round.  A restored profile
    whose SNR at the full budget overflows is not taken: the rounds end on
    the feasible allocation held.  The rounds are ``_inner_steps`` on
    ``_BandPlan.of`` the sub-bands, each phase stage solved by
    ``sca_phase_optimize``; ``bcs_solve`` passes ``_lookahead`` to take the
    point's answer from the lattice points it solves together instead.
    """
    if _lookahead is not None:
        return _lookahead.claim(placement)
    plan = _BandPlan.of(sub_bands, p_max, rate_requirements, scene.ue_count)
    steps = _inner_steps(scene, placement, plan, mixing_ratio, phases)
    # looked up at each call, so that a replaced bcs.sca_phase_optimize serves it
    return _drive(steps, lambda rows, targets, anchor, _: sca_phase_optimize(rows, targets, anchor))


def _inner_steps(scene, placement, plan, mixing_ratio, phases=None, start=None):
    """``inner_solve`` as a generator: yields each phase-stage request as
    (rows, targets, anchor angles, sum rate held), takes its ``ScaResult``,
    returns the ``Solution``.  The rate held is the allocation's before the
    request, 0.0 before a feasible one; the rounds never lower it.  Every
    allocation of the solve runs on the ``_BandPlan`` ``plan``, whose
    budget and rate floors it takes.  The solve starts from ``start``, its
    point's rows, matched profile, gains and cold allocation from
    ``_cold_starts``; without one it runs ``_cold_starts`` on its own
    point, and a frozen ``phases`` profile takes the rows and allocation of
    that profile."""
    rate_req = plan.floors
    frozen = phases is not None
    if start is None:
        absorb = _band_absorption(tuple(b.center_hz for b in plan), mixing_ratio)
        if frozen:
            vectors = effective_vector(plan, placement, scene, absorb)
            gains = np.abs(vectors @ phases.coefficients) ** 2
            start = vectors, phases, gains, solve_allocation(gains, plan, plan.p_max, rate_req)
        else:
            start, = _cold_starts(scene, placement.anchor_position(scene)[None],
                                  placement.offsets_m, plan, absorb)
    vectors, phases, gains, alloc = start
    if not alloc.feasible and not frozen and np.any(rate_req > 0):
        # the starting profile may simply point the wrong way; let the phase
        # stage chase the floors before writing the point off.  An unmoved
        # profile keeps its gains and cold allocation, bit for bit.
        repaired = (yield *_repair_request(vectors, phases, plan), 0.0).phases
        if not _same_bits(repaired, phases):
            phases = repaired
            gains = np.abs(vectors @ phases.coefficients) ** 2
            alloc = solve_allocation(gains, plan, plan.p_max, rate_req)
    trace = [alloc.objective] if alloc.feasible else []
    converged = frozen or not alloc.feasible
    while not converged and len(trace) < MAX_ROUNDS:
        active = (alloc.powers > 0).nonzero()[0]
        if active.size == 0:
            # a feasible allocation spends nothing when no band earns
            # anything for the budget, so there is no link to restore
            converged = True
            break
        rows = np.sqrt(alloc.powers[active])[:, None] * vectors[alloc.winners[active], active]
        targets = alloc.powers[active] * gains[alloc.winners[active], active]
        restored = (yield rows, targets, phases.angles, alloc.objective).phases
        if _same_bits(restored, phases):
            # unchanged gains: the warm-started allocation would return this
            # round's own allocation, the warm row winning every tie, and
            # the repeated sum rate would end the rounds
            trace.append(alloc.objective)
            converged = True
            break
        restored_gains = np.abs(vectors @ restored.coefficients) ** 2
        try:
            following = solve_allocation(
                restored_gains, plan, plan.p_max, rate_req, warm_winners=alloc.winners
            )
        except _SnrOverflow:
            # the restored gains' SNR overflows the budget where the held
            # ones did not: no finite rate to move to, so keep the held one
            break
        if not following.feasible:
            # cannot happen when the slack chain holds; keep the last
            # consistent state rather than propagate a numerical glitch
            converged = True
            break
        phases, gains, alloc = restored, restored_gains, following
        trace.append(alloc.objective)
        converged = abs(trace[-1] - trace[-2]) <= ROUND_TOLERANCE * max(trace[-2], 1.0)

    return Solution(
        placement=placement,
        phases=phases,
        winners=alloc.winners,
        powers=alloc.powers,
        rates=alloc.rates,
        sum_rate_bps=alloc.objective,
        feasible=alloc.feasible,
        converged=converged,
        rounds=max(len(trace), 1),
        rate_trace=trace,
    )


def admissible_y_span(scene: Scene, element_count: int, spacing_m: float) -> float:
    """Largest anchor y so the whole array stays inside the room."""
    y_hi = scene.room_length_m - (element_count - 1) * spacing_m
    if y_hi <= 0:
        raise ValueError("array does not fit the room along y")
    return y_hi


def candidate_grid(scene: Scene, element_count: int, spacing_m: float, grid_step_x: float,
                   grid_step_y: float) -> np.ndarray:
    """Interior lattice of admissible anchor positions: a (P, 2) array of
    (x, y) rows in x-major order, (0, 2) when a step outgrows the room."""
    if grid_step_x <= 0 or grid_step_y <= 0:
        raise ValueError("grid steps must be positive")
    y_hi = admissible_y_span(scene, element_count, spacing_m)
    nx = int(np.floor(scene.room_width_m / grid_step_x + 1e-9))
    ny = int(np.floor(y_hi / grid_step_y + 1e-9))
    xs = grid_step_x * np.arange(1, nx + 1)
    ys = grid_step_y * np.arange(1, ny + 1)
    return np.column_stack((np.repeat(xs, ny), np.tile(ys, nx)))


def _min_distance_placement(scene, element_count, spacing_m):
    y_hi = admissible_y_span(scene, element_count, spacing_m)
    x, y = solve_min_total_distance(scene, y_max=y_hi)
    return IrsPlacement(x, y, element_count, spacing_m)


def _frozen_gain_bounds(scene, anchors, spacing_m, coefficients, plan, absorb):
    """(P, U, I) upper bounds on the frozen-profile gains
    ``np.abs(_link_rows(...) @ coefficients) ** 2`` at a (P, 3) stack of
    ``anchors`` on the ``_BandPlan`` ``plan``, elements ``spacing_m`` apart,
    built without link rows.

    Element n sits n spacings along +y, so e_uin = g_ui z_ui^n with
    z_ui = exp(-j a_ui spacing), a_ui = k_i s_u (``_link_rows``' bits), and
    e_ui . phi = g_ui S_ui with S_ui = sum_n phi_n z_ui^n, summed by Horner
    in N in-place steps: one complex exp per (point, UE, band).  The bound
    is (|g_ui| (|S_ui| + delta_ui))^2 with, in element amplitudes,

        delta = 8 eps N (beta + N + 2),  beta = |a| (N - 1) spacing,

    beta the largest steering phase.  To first order in u = eps / 2, the
    exact rows' argument rounding (2u beta_n per element), their exps,
    products and N-term sum stray u N (beta + 1.5 N + 7) from the true sum,
    and Horner's rounded z, its powers and its steps u N (beta / 2 + 2.7 N + 1);
    |g|, the abs and the squares add under 8 u N.  delta is u N (16 beta +
    16 N + 32), at least twice that sum.
    """
    f = np.array([b.center_hz for b in plan], dtype=float)
    lengths, slope = _two_hop(anchors, scene)
    a = 2.0 * np.pi * f / SPEED_OF_LIGHT * slope[..., None]
    z = np.exp(-1j * (a * spacing_m))
    total = np.full(z.shape, coefficients[-1])
    for c in coefficients[-2::-1]:
        total *= z
        total += c
    n = len(coefficients)
    delta = 8.0 * np.finfo(float).eps * n * (np.abs(a) * ((n - 1) * spacing_m) + (n + 2))
    return (_path_amplitude(f, lengths[..., None], absorb) * (np.abs(total) + delta)) ** 2


def _lattice_scores(gains, plan, exact_gains=None):
    """Feasibility and exact-allocation sum rate at each of P lattice points
    on the ``_BandPlan`` ``plan``, from their (P, U, I) power ``gains``.

    The points are walked in lattice order, a block at a time: a block holds
    at most ``BLOCK_ROWS`` allocation rows (points times assignments), one
    point at least, and so does each ``score_allocations`` call.  Each
    scored point's pair is bit for bit the ``feasible`` and ``objective`` of
    ``solve_allocation`` on its own gains.  Returns two (P,) arrays, the sum
    rate 0.0 where infeasible.  A point in a block whose SNR at the full
    budget overflows, which the allocation refuses, reads (True, +inf) and
    is not scored, so its +inf never sets the best below.

    Without ``exact_gains`` the ``gains`` are the points' own, and every
    point is scored.  With it they are bounds on the true gains, which
    ``exact_gains`` returns for a block of lattice indices, and a block takes
    only the next points whose ``sum_rate_bounds`` bound, inflated by
    ``BOUND_MARGIN``, is not below the best sum rate scored before them (as
    known after the last block).  A point passed over reads (False, 0.0):
    its true sum rate is below an earlier one, so the running maximum of the
    scored rates and the first point of the largest feasible one are those
    of the full pass.  A NaN or infinite bound never passes a point over.
    Where the bound gains' SNR overflows the bound is one of those, or the
    water-filled bound of finite splits, which still holds.
    """
    per_block = max(1, BLOCK_ROWS // plan.u_count ** len(plan))
    if exact_gains is None:
        bounds, exact_gains = np.full(len(gains), np.inf), lambda chosen: gains[chosen]
    else:
        bounds = sum_rate_bounds(gains, plan) * (1.0 + BOUND_MARGIN)
    feasible = np.zeros(len(gains), dtype=bool)
    rates = np.zeros(len(gains))
    start, best = 0, -np.inf
    while True:
        chosen = start + np.flatnonzero(~(bounds[start:] < best))[:per_block]
        if not chosen.size:
            return feasible, rates
        block = exact_gains(chosen)
        finite = _snr_per_watt(block, plan)[1].all(axis=(1, 2))
        over, scored = chosen[~finite], chosen[finite]
        feasible[over], rates[over] = True, np.inf
        if scored.size:
            feasible[scored], rates[scored] = score_allocations(block[finite], plan)
            best = max(best, rates[scored].max())
        start = chosen[-1] + 1


def _ceiling_bounds(scene, points, offsets_m, plan, absorb):
    """Upper bound on ``inner_solve``'s sum rate at each lattice point on the
    ``_BandPlan`` ``plan``, or -inf.

    Every element of a link's row carries the path amplitude |g| of its
    two-hop length, so no unit-modulus profile lifts the link's power gain
    above the coherent ceiling (sum_n |e_uin|)^2 = (N |g|)^2, and the exact
    allocation's optimum only rises with the gains: the allocation of the
    (slightly inflated) ceiling gains bounds every answer the inner solve
    can reach there.  The gains take the two-hop lengths alone, no link
    rows.  -inf when even the ceiling misses a rate floor: no profile makes
    the point feasible.  +inf where the ceiling's SNR at the full budget
    overflows, which the allocation cannot score: such a point is never
    pruned.  Every point is scored.
    """
    f = np.array([b.center_hz for b in plan], dtype=float)
    anchors = np.column_stack((points, np.full(len(points), scene.ceiling_height_m)))
    amplitude = _path_amplitude(f, _two_hop(anchors, scene)[0][..., None], absorb)
    gains = (len(offsets_m) * amplitude) ** 2 * (1.0 + BOUND_MARGIN)
    feasible, rates = _lattice_scores(gains, plan)
    return np.where(feasible, rates, -np.inf)


def _sgd_requests(steps, held):
    """Serve the phase-stage requests of the ``_inner_steps`` generator
    ``steps`` with ``_sca_steps``: yields their SGD problems as (surrogate,
    targets), passes each request's rate held to ``held``, and returns the
    inner solve's ``Solution``."""
    reply = None
    while True:
        try:
            *request, rate = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        held(rate)
        reply = yield from _sca_steps(*request)


class _Lookahead:
    """The min-distance anchor and the open lattice points of one
    ``bcs_solve``, solved together in bound order (iteration-level
    batching: Yu et al., OSDI 2022).

    ``bcs_solve`` builds one only when at least ``LOOKAHEAD_MIN_OPEN``
    ceilings meet every floor.  The anchor is the first flight.  The next
    open point is admitted while fewer than ``LOOKAHEAD_POINTS`` lattice
    points are unsolved and its bound is at least the best sum rate held so
    far: the anchor's, a solved point's, or the allocation an unsolved
    flight's rounds already hold, which they never lower.  Points are
    admitted in bound order, so that best stays at or below the best-first
    loop's incumbent at every point the loop has yet to reach, and the loop
    reaches no point the rule passed over; ``claim`` would start one all
    the same.  For the same reason an unsolved point whose bound falls below
    the best held is one the loop stops before, and it is dropped
    (``_prune``).  Each flight runs ``_inner_steps``, and the SGD problems
    of all of them share one ``_SgdPool``: a flight whose problem exits
    sends its next one before the next pool step.  ``claim`` steps the pool until the claimed flight
    is solved; ``bcs_solve`` claims the anchor first and then the lattice
    points in bound order, and the points still unclaimed when it stops are
    dropped.  An error is kept with its flight and raised when the flight is
    claimed, where the lone solve would raise it.

    A point admitted without a start computes its own and those of the next
    ``LOOKAHEAD_POINTS - 1`` open points in one pass (``starts_of``, given
    lattice indices); should that pass raise, each of them starts alone.
    A start pass covers the admitted point and the next open points whose
    bounds reach the best held, the only ones the rule may still admit.
    The only unsolved flight, with no open point able to join it, has one
    way out of the pool: ``_SgdPool.finish`` takes each of its problems out,
    still joining or in flight, and finishes it alone, the same answers at
    less cost than pool steps of one row.
    """

    def __init__(self, order, bounds, anchor, placement_of, inner_steps, starts_of):
        self._open = deque(order)
        self._bounds = bounds
        self._best = 0.0
        self._placement_of = placement_of
        self._inner_steps = inner_steps
        self._starts_of = starts_of
        # lattice point -> its precomputed start, None to start alone
        self._starts = {}
        self._placements = {}
        # flights not yet claimed, by the id of their placement (the anchor
        # may sit on a lattice point): [Solution, error, or None unsolved]
        self._flights = {}
        # admitted lattice points' (bound, outcome), in bound order, until pruned
        self._admitted = []
        self._unsolved = 0
        self._pool = _SgdPool()
        self._anchor = self._fly(anchor, None)

    def placement(self, i):
        """Lattice point ``i``'s placement, built once."""
        if i not in self._placements:
            self._placements[i] = self._placement_of(i)
        return self._placements[i]

    def _fly(self, placement, start):
        outcome = self._flights[id(placement)] = [None]
        self._unsolved += 1
        self._advance(outcome, _sgd_requests(self._inner_steps(placement, start), self._hold), None)
        return outcome

    def _start(self, i):
        if i not in self._starts:
            # the open points after i that the rule may still admit
            reach = takewhile(lambda j: self._bounds[j] >= self._best, self._open)
            chunk = [i, *islice(reach, LOOKAHEAD_POINTS - 1)]
            try:
                self._starts.update(zip(chunk, self._starts_of(chunk)))
            except Exception:  # noqa: BLE001 - each point starts alone and raises at its claim
                self._starts.update(dict.fromkeys(chunk))
        self._admitted.append((self._bounds[i], self._fly(self.placement(i), self._starts.pop(i))))

    def _hold(self, rate):
        self._best = max(self._best, rate)

    def _joinable(self):
        """Whether the next open point is admitted now."""
        points = self._unsolved - (self._anchor[0] is None)
        return (self._open and points < LOOKAHEAD_POINTS
                and self._bounds[self._open[0]] >= self._best)

    def _prune(self):
        """Drop the unsolved points whose bounds fell below the best held.

        A point's held rate never exceeds its bound, and points are
        admitted in bound order, so a best above a point's bound comes from
        the anchor or from a point the loop claims first; the loop's
        incumbent then passes that bound, and the loop stops before it."""
        dropped = set()
        while self._admitted and self._admitted[-1][0] < self._best:
            _, outcome = self._admitted.pop()
            if outcome[0] is None:
                outcome[0] = RuntimeError("a point dropped from the look-ahead was claimed")
                self._unsolved -= 1
                dropped.add(id(outcome))
        if dropped:
            self._pool.drop(lambda token: id(token[0]) in dropped)

    def _advance(self, outcome, requests, reply):
        try:
            surr, targets, constants = requests.send(reply)
            self._pool.add((outcome, requests), surr, targets, constants=constants)
        except StopIteration as stop:
            outcome[0] = stop.value
            self._unsolved -= 1
            self._hold(stop.value.sum_rate_bps)
        except Exception as error:  # noqa: BLE001 - raised again by claim
            outcome[0] = error
            self._unsolved -= 1

    def claim(self, placement) -> Solution:
        """The inner solve of ``placement``: the anchor, or the next open
        point in bound order."""
        if id(placement) not in self._flights:
            self._start(self._open.popleft())
        outcome = self._flights.pop(id(placement))
        exited = True
        while outcome[0] is None:
            if exited:
                # the best held and the flights change only when a problem exits
                self._prune()
                while self._joinable():
                    self._start(self._open.popleft())
            if self._unsolved == 1:
                # its problem, alone in the pool, is finished alone
                (waiting, requests), result = self._pool.finish()
                self._advance(waiting, requests, result)
                exited = True
                continue
            done = self._pool.step()
            exited = bool(done)
            for (waiting, requests), result in done:
                self._advance(waiting, requests, result)
        if isinstance(outcome[0], Exception):
            raise outcome[0]
        return outcome[0]


def bcs_solve(
    scene: Scene,
    sub_bands,
    element_count: int,
    spacing_m: float,
    p_max: float,
    rate_requirements,
    mixing_ratio: float,
    grid_step_x: float,
    grid_step_y: float,
) -> SearchResult:
    """Best-first search over anchor positions with the full inner solver.

    The minimum-total-distance point is an extra candidate, claimed first
    (outside the lattice counter), so the search never returns less than
    the distance heuristic it refines.  Every lattice point then gets its
    coherent-ceiling bound, all in one batched pass (``_ceiling_bounds``);
    points whose ceiling misses a floor are skipped, the rest are
    inner-solved in decreasing bound order (ties in lattice order) until a
    bound falls below the incumbent's sum rate.  A point whose ceiling's SNR
    at the full budget overflows is never pruned; should its own SNR
    overflow before it holds a feasible allocation, the allocation refuses
    it and the search passes over it as a point with no sum rate to keep.
    The best is kept by
    (feasible, sum rate, earliest in lattice order, anchor first), so the
    answer is the one a full sweep of the anchor and then the lattice keeps.
    ``points_evaluated`` counts the lattice points inner-solved, one
    ``inner_solve`` call each.  When at least ``LOOKAHEAD_MIN_OPEN``
    points' ceilings meet every floor, the anchor's and the lattice points'
    ``inner_solve`` calls take their answers from a ``_Lookahead``, up to
    ``LOOKAHEAD_POINTS`` points solved at once beside the anchor; with
    fewer, each point is solved alone.  The points it solves ahead and the
    loop never reaches are not counted.  One ``_BandPlan`` serves the
    bounds, the start passes and every inner solve.
    """
    anchor_placement = _min_distance_placement(scene, element_count, spacing_m)
    points = candidate_grid(scene, element_count, spacing_m, grid_step_x, grid_step_y)
    absorb = _band_absorption(tuple(b.center_hz for b in sub_bands), mixing_ratio)
    offsets = anchor_placement.offsets_m
    plan = _BandPlan(sub_bands, p_max, rate_requirements, scene.ue_count)
    bounds = _ceiling_bounds(scene, points, offsets, plan, absorb)
    order = np.argsort(-bounds, kind="stable").tolist()

    def place(i):
        return IrsPlacement(*points[i].tolist(), element_count, spacing_m)

    anchors = np.column_stack((points, np.full(len(points), scene.ceiling_height_m)))
    ahead = _Lookahead(
        order, bounds, anchor_placement, place,
        lambda placement, start: _inner_steps(scene, placement, plan, mixing_ratio, None, start),
        lambda chunk: _cold_starts(scene, anchors[chunk], offsets, plan, absorb),
    ) if np.count_nonzero(bounds >= 0.0) >= LOOKAHEAD_MIN_OPEN else None
    anchor = inner_solve(scene, anchor_placement, plan, plan.p_max, plan.floors, mixing_ratio,
                         _lookahead=ahead)

    best = anchor
    # the anchor stands before every lattice point
    best_key = (anchor.feasible, anchor.sum_rate_bps, 1)
    trace = [anchor.sum_rate_bps]
    for i in order:
        # an infeasible incumbent's 0.0 never ends the search
        if bounds[i] < best.sum_rate_bps:
            break
        placement = place(i) if ahead is None else ahead.placement(i)
        try:
            candidate = inner_solve(scene, placement, plan, plan.p_max, plan.floors,
                                    mixing_ratio, _lookahead=ahead)
        except _SnrOverflow:
            if bounds[i] != np.inf:
                raise
            # the point overflowed the budget before holding a sum rate: none to keep
            candidate = None
        if candidate is not None:
            key = (candidate.feasible, candidate.sum_rate_bps, -i)
            if key > best_key:
                best, best_key = candidate, key
        trace.append(best.sum_rate_bps)
    return SearchResult(solution=best, best_trace=trace, points_evaluated=len(trace) - 1,
                        anchor=anchor)


def baseline_mini_dis(
    scene: Scene,
    sub_bands,
    element_count: int,
    spacing_m: float,
    p_max: float,
    rate_requirements,
    mixing_ratio: float,
) -> Solution:
    """Array at the minimum-total-distance point, full inner optimization."""
    placement = _min_distance_placement(scene, element_count, spacing_m)
    return inner_solve(scene, placement, sub_bands, p_max, rate_requirements, mixing_ratio)


def baseline_ran_loc(
    scene: Scene,
    sub_bands,
    element_count: int,
    spacing_m: float,
    p_max: float,
    rate_requirements,
    mixing_ratio: float,
    rng: SplitMix64,
) -> Solution:
    """Uniformly random admissible placement (x then y), full inner loop."""
    y_hi = admissible_y_span(scene, element_count, spacing_m)
    x = rng.uniform(0.0, scene.room_width_m)
    y = rng.uniform(0.0, y_hi)
    placement = IrsPlacement(x, y, element_count, spacing_m)
    return inner_solve(scene, placement, sub_bands, p_max, rate_requirements, mixing_ratio)


def baseline_ran_phi(
    scene: Scene,
    sub_bands,
    element_count: int,
    spacing_m: float,
    p_max: float,
    rate_requirements,
    mixing_ratio: float,
    rng: SplitMix64,
    grid_step_x: float,
    grid_step_y: float,
) -> SearchResult:
    """Same lattice as the full search but one frozen random phase profile
    and no phase restoration.  The batched walk (``_lattice_scores``) takes
    every point's gain bounds, built without link rows
    (``_frozen_gain_bounds``), and scores, in lattice order, every point
    whose bound reaches the best scored before it, building link rows for
    those alone; the first strict best (feasible beats infeasible, then a
    larger sum rate) is then inner-solved with the frozen profile, on the
    pass's band plan.  A point whose SNR at the full budget overflows,
    which the allocation refuses, is passed over: its ``best_trace`` entry
    repeats the one before it, or reads 0.0 first, and the search raises
    only when every point overflows.
    A lattice step wider than the room leaves no lattice point; the sweep
    then takes the minimum-total-distance point, the extra candidate of the
    full search."""
    phases = PhaseVector(np.array([rng.uniform(0.0, 2.0 * np.pi) for _ in range(element_count)]))
    points = candidate_grid(scene, element_count, spacing_m, grid_step_x, grid_step_y)
    if not len(points):
        fallback = _min_distance_placement(scene, element_count, spacing_m)
        points = np.array([[fallback.x_m, fallback.y_m]])
    absorb = _band_absorption(tuple(b.center_hz for b in sub_bands), mixing_ratio)
    plan = _BandPlan(sub_bands, p_max, rate_requirements, scene.ue_count)
    anchors = np.column_stack((points, np.full(len(points), scene.ceiling_height_m)))
    offsets = np.arange(element_count) * spacing_m
    coefficients = phases.coefficients
    feasible, rates = _lattice_scores(
        _frozen_gain_bounds(scene, anchors, spacing_m, coefficients, plan, absorb), plan,
        lambda chosen: np.abs(_link_rows(plan, anchors[chosen], offsets, scene, absorb)
                              @ coefficients) ** 2)
    # an overflowing point scores +inf and is passed over: it adds no rate
    # to the trace and, at -2.0, ranks below every other point.  An
    # infeasible point scores 0.0 and a feasible one at least that, so -1.0
    # puts every feasible point first; argmax keeps the first best
    over = rates == np.inf
    best = int(np.argmax(np.where(over, -2.0, np.where(feasible, rates, -1.0))))
    trace = np.maximum.accumulate(np.where(over, 0.0, rates)).tolist()
    placement = IrsPlacement(*points[best].tolist(), element_count, spacing_m)
    solution = inner_solve(scene, placement, plan, plan.p_max, plan.floors, mixing_ratio,
                           phases=phases)
    return SearchResult(solution=solution, best_trace=trace, points_evaluated=1)
