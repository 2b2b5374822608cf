"""End-to-end acceptance gate.

Nine checks cover the whole pipeline: the absorption spectrum shape,
closed-form channel identities, placement and surrogate soundness, oracle
equivalence of the restoration and allocation stages, inner-loop
monotonicity, the qualitative algorithm ordering of the Monte-Carlo study,
and byte-level determinism of its outputs.  Each check prints a single
PASS/FAIL verdict line and enforces its own wallclock budget.
"""

import functools
import os
import sys
import tempfile
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_VERDICTS

from allocation_oracle import brute_force_allocation
from thzirs.allocation import solve_allocation
from thzirs.bcs import candidate_grid, inner_solve
from thzirs.channel import (
    Atmosphere,
    SubBand,
    absorption_coefficient,
    cascaded_gain,
    reflected_channel,
    water_vapor_mixing_ratio,
)
from thzirs.config import ExperimentConfig
from thzirs.experiment import run_experiment
from thzirs.geometry import (
    IrsPlacement,
    Scene,
    optimal_single_ue_phases,
    path_length,
    solve_single_ue_placement,
)
from thzirs.phase_opt import (
    exact_values,
    sgd_solve,
    surrogate,
    surrogate_values,
)

ATMOSPHERE = Atmosphere(temperature_c=23.0, pressure_hpa=1013.25,
                        relative_humidity_pct=50.0)
MIX = water_vapor_mixing_ratio(ATMOSPHERE)

# reference study setup: four 50 GHz sub-bands between the absorption
# peaks, 8 elements, 1.25 Gbit/s floors, 19 dB receiver noise figure
STUDY = dict(
    element_count=8,
    band_centers_ghz=(225.0, 275.0, 305.0, 355.0),
    noise_figure_db=19.0,
    rate_floor_bps=1.25e9,
    grid_step_x_m=2.0,
    grid_step_y_m=2.0,
    seeds=tuple(range(1, 21)),
    ue_counts=(1, 2, 3, 4),
)

ALGOS = ("bcs", "minidis", "ranloc", "ranphi")


def verdict(tag, budget_s):
    """Record one PASS/FAIL line per check for the terminal summary."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                assert dt < budget_s, f"{tag} exceeded budget: {dt:.1f}s >= {budget_s}s"
            except BaseException:
                ACCEPTANCE_VERDICTS.append(f"{tag}: FAIL")
                print(f"{tag}: FAIL", file=sys.stderr, flush=True)
                raise
            ACCEPTANCE_VERDICTS.append(f"{tag}: PASS  ({dt:.1f}s)")
            print(f"{tag}: PASS  ({dt:.1f}s)", file=sys.stderr, flush=True)
        return run
    return wrap


@verdict("acceptance 1/9 absorption peak census", budget_s=1.0)
def test_absorption_has_exactly_two_peaks():
    f = np.arange(200e9, 400e9 + 0.05e9, 0.1e9)
    k = absorption_coefficient(f, MIX)
    interior = (k[1:-1] > k[:-2]) & (k[1:-1] > k[2:])
    peaks = f[1:-1][interior]
    assert peaks.size == 2, f"expected two maxima, found {peaks / 1e9}"
    assert 315e9 <= peaks[0] <= 335e9
    assert 370e9 <= peaks[1] <= 390e9


@verdict("acceptance 2/9 matched-phase array gain identity", budget_s=1.0)
def test_matched_phases_reach_squared_array_gain():
    rng = np.random.default_rng(101)
    for i in range(100):
        n = (1, 4, 20)[i % 3]
        scene = Scene(8.0, 5.0, 3.0,
                      (rng.uniform(0.5, 4.5), rng.uniform(0.5, 7.5), rng.uniform(1.5, 2.8)),
                      [(rng.uniform(0.5, 4.5), rng.uniform(0.5, 7.5), 1.0)])
        placement = IrsPlacement(rng.uniform(0.2, 4.8), rng.uniform(0.2, 7.5), n, 0.005)
        band = SubBand(center_hz=rng.uniform(200e9, 400e9), bandwidth_hz=50e9,
                       noise_psd_w_per_hz=1e-20)
        absorb = float(absorption_coefficient(band.center_hz, MIX))
        phases = optimal_single_ue_phases(band.center_hz, placement, scene, 0)
        h = reflected_channel(band, placement, phases, scene, 0, absorb)
        g = cascaded_gain(band.center_hz, path_length(placement, scene, 0), absorb)
        ratio = abs(h) ** 2 / (n ** 2 * abs(g) ** 2)
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-9)


@verdict("acceptance 3/9 single-terminal placement vs mirror form", budget_s=5.0)
def test_interior_placement_matches_mirror_reflection():
    rng = np.random.default_rng(202)
    h_ceil = 3.0
    done = 0
    while done < 100:
        ap = np.array([rng.uniform(0.5, 4.5), rng.uniform(0.5, 7.5), rng.uniform(1.5, 2.5)])
        ue = np.array([rng.uniform(0.5, 4.5), rng.uniform(0.5, 7.5), rng.uniform(0.5, 1.4)])
        s = (h_ceil - ap[2]) / (2 * h_ceil - ue[2] - ap[2])
        mirror = ap[:2] + s * (ue[:2] - ap[:2])
        if not (0.05 < mirror[0] < 4.95 and 0.05 < mirror[1] < 7.95):
            continue
        scene = Scene(8.0, 5.0, h_ceil, ap, [ue])
        got = np.array(solve_single_ue_placement(scene, 0))
        assert np.linalg.norm(got - mirror) <= 1e-6, (mirror, got)
        done += 1


@verdict("acceptance 4/9 first-order surrogate soundness", budget_s=1.0)
def test_surrogate_underestimates_with_anchor_equality():
    rng = np.random.default_rng(303)
    for _ in range(10000):
        n = int(rng.integers(1, 9))
        vec = (rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n)))
        anchor = rng.uniform(0.0, 2 * np.pi, n)
        probe = rng.uniform(0.0, 2 * np.pi, n)
        surr = surrogate(vec, anchor)
        approx = float(surrogate_values(surr, probe)[0])
        exact = float(exact_values(vec, probe)[0])
        assert approx <= exact + 1e-12
        at_anchor = float(surrogate_values(surr, anchor)[0])
        exact_anchor = float(exact_values(vec, anchor)[0])
        # assert_allclose's own criterion written out: its ~58 us/call would eat the budget
        assert abs(at_anchor - exact_anchor) <= 1e-300 + 1e-12 * abs(exact_anchor), (
            f"at anchor: surrogate {at_anchor!r} != exact {exact_anchor!r}")


@verdict("acceptance 5/9 phase restoration on grid-certified targets", budget_s=60.0)
def test_restoration_meets_oracle_certified_targets():
    rng = np.random.default_rng(512)
    for case in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        vecs = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))

        # exhaustive 8-level phase grid: the independent feasibility oracle
        digits = np.indices((8,) * n).reshape(n, -1).T
        grid = np.exp(1j * (np.pi / 4.0) * digits)
        values = np.abs(vecs @ grid.T) ** 2
        norm = values / np.max(values, axis=1, keepdims=True)
        star = int(np.argmax(np.min(norm, axis=0)))
        witness = (np.pi / 4.0) * digits[star]
        targets = rng.uniform(0.5, 1.0, k) * values[:, star]
        assert np.all(values[:, star] >= targets), "oracle certificate broken"

        res = sgd_solve(surrogate(vecs, witness), targets)
        assert res.feasible, f"case {case} reported infeasible"
        got = exact_values(vecs, res.phases.angles)
        violation = np.max((targets - got) / np.maximum(targets, 1e-300))
        assert violation <= 1e-6, f"case {case} violates by {violation:.3e}"


@verdict("acceptance 6/9 allocation vs gridded exhaustion", budget_s=120.0)
def test_allocation_tracks_brute_force():
    rng = np.random.default_rng(2024)
    for case in range(50):
        u = int(rng.integers(1, 4))
        i = int(rng.integers(1, 5))
        gains = 10.0 ** rng.uniform(-10.0, -7.5, (u, i))
        widths = rng.choice([25e9, 50e9], size=i)
        noise = 10.0 ** rng.uniform(-20.5, -19.5)
        bands = [SubBand(center_hz=250e9 + 60e9 * j, bandwidth_hz=w,
                         noise_psd_w_per_hz=noise) for j, w in enumerate(widths)]
        winners = np.arange(i) % u
        powers = np.full(i, 1.0 / i)
        kappa = gains / np.array([b.noise_power_w for b in bands])
        per_band = widths * np.log2(1.0 + kappa[winners, np.arange(i)] * powers)
        floors = 0.4 * np.bincount(winners, weights=per_band, minlength=u)

        ours = solve_allocation(gains, bands, 1.0, floors)
        ref = brute_force_allocation(gains, bands, 1.0, floors, power_grid_step=0.01)
        assert ours.feasible and ref.feasible, f"case {case} infeasible"
        assert ours.objective >= 0.98 * ref.objective, (
            f"case {case}: {ours.objective:.6e} < 98% of {ref.objective:.6e}")
        # every band exclusively owned, budget respected exactly
        assert ours.winners.shape == (i,)
        assert np.all((ours.winners >= 0) & (ours.winners < u))
        assert np.all(ours.powers >= 0.0)
        assert float(np.sum(ours.powers)) <= 1.0


@verdict("acceptance 7/9 inner-loop rate monotonicity", budget_s=600.0)
def test_inner_rate_trace_never_decreases():
    rng = np.random.default_rng(808)
    config = ExperimentConfig(**STUDY)
    noise = config.noise_psd_w_per_hz()
    bands = [SubBand(center_hz=c * 1e9, bandwidth_hz=50e9, noise_psd_w_per_hz=noise)
             for c in config.band_centers_ghz]
    traces = 0
    for _ in range(20):
        scene = Scene(8.0, 5.0, 3.0, (0.0, 0.0, 2.0),
                      [(rng.uniform(0.25, 4.75), rng.uniform(0.25, 7.75), 1.0)
                       for _ in range(2)])
        for x, y in candidate_grid(scene, 8, 0.005, 0.5, 0.5):
            sol = inner_solve(scene, IrsPlacement(x, y, 8, 0.005), bands,
                              1.0, config.rate_floor_bps, MIX)
            if not sol.feasible:
                continue
            trace = np.asarray(sol.rate_trace)
            assert trace.size >= 1
            drops = np.diff(trace)
            assert np.all(drops >= -1e-9 * np.maximum(trace[:-1], 1.0)), trace
            traces += 1
    assert traces >= 20 * 100, f"too few feasible traces to be meaningful: {traces}"


_STUDY_RUNS: dict = {}
_STUDY_ROOT: list = []


@pytest.fixture(scope="module", autouse=True)
def _study_outputs():
    """Keep the study outputs in one temporary directory removed with this module."""
    with tempfile.TemporaryDirectory(prefix="study_") as root:
        _STUDY_ROOT.append(root)
        yield
        _STUDY_ROOT.clear()
        _STUDY_RUNS.clear()


def _study_run(label: str):
    if label not in _STUDY_RUNS:
        out = os.path.join(_STUDY_ROOT[0], label)
        config = ExperimentConfig(**STUDY)
        _STUDY_RUNS[label] = (run_experiment(config, out_dir=out, workers=1), out)
    return _STUDY_RUNS[label]


@verdict("acceptance 8/9 algorithm ordering study", budget_s=1800.0)
def test_search_orderings_hold_across_the_batch():
    report, _ = _study_run("a")
    by = {}
    for seed, algo, u, rate, feasible in report.rows:
        by[(algo, u, seed)] = rate

    means = {
        (algo, u): np.mean([by[(algo, u, s)] for s in STUDY["seeds"]])
        for algo in ALGOS for u in STUDY["ue_counts"]
    }
    for u in STUDY["ue_counts"]:
        chain = [means[(a, u)] for a in ALGOS]
        assert chain[0] >= chain[1] >= chain[2] >= chain[3], (u, chain)

    wins = 0
    total = 0
    for u in STUDY["ue_counts"]:
        for s in STUDY["seeds"]:
            total += 1
            best = by[("bcs", u, s)]
            if all(best >= by[(a, u, s)] * (1 - 1e-9) for a in ALGOS[1:]):
                wins += 1
    assert wins >= 0.9 * total, f"search tops the field on only {wins}/{total}"

    bcs_by_u = [means[("bcs", u)] for u in STUDY["ue_counts"]]
    for fewer, more in zip(bcs_by_u, bcs_by_u[1:]):
        assert more <= fewer * (1 + 1e-12), bcs_by_u


@verdict("acceptance 9/9 batch determinism", budget_s=1800.0)
def test_repeated_batch_is_byte_identical():
    _, out_a = _study_run("a")
    _, out_b = _study_run("b")
    # report.json carries no wall time, so it replays byte for byte too
    for name in ("summary.csv", "aggregate.csv", "report.json"):
        with open(os.path.join(out_a, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            second = fh.read()
        assert first == second, f"{name} differs between identical runs"
