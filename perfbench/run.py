"""Benchmark for thzirs: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload lattice-coarse --seed 7 --seconds 40 --trace 0

The run solves the workload's units (see ``workloads.py``) one after another
with a single worker until ``--seconds``, counted from the start of the
process and so including the set-up measurement, is used up; it always
solves at least one.  It checks every answer.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it gives host facts, provenance, sample counts, process CPU time next
to wall time, and the results digest.  ``attempted`` counts (seed, U,
algorithm) solves; ``failed`` counts those that raised, aborted or failed a
check.

The CPU speed of a small shared host drifts by tens of percent within a
minute, with wall time equal to CPU time, so it is not preemption.  The run
therefore times a speed probe (``speed_probe``: a fixed NumPy/Python loop of
the solver's grain that calls no thzirs code) before the first unit and
after every unit, and scales each unit's times by ``PROBE_REF_S`` over the
mean of the probes on either side.  The timings below are these scaled
times: seconds on a host where the probe takes ``PROBE_REF_S``.  A change to
thzirs does not move the probe, so the scaled times move with the program
and not with the host.  The info line gives the raw wall times and the
probe times next to them.

``--trace 0`` reports the end-to-end metrics, measured untraced:

setup_s         median over fresh interpreters of the time from the first
                import through config loading, band planning and scene
                building, up to the first solve (each scaled by the probes
                around it)
run_s           median time of one unit (time to solution)
cell_p95_s      95th percentile time of one (seed, U, algorithm) solve
peak_rss_mb     peak resident memory of the run process
feasible_ratio  feasible solves over solves attempted

``--trace 1`` ignores ``--seconds`` and solves a fixed number of units
(``TRACE_UNITS``), so that its counters repeat exactly for a seed and
compare across commits.  It solves them untraced, then sets the workload up
again and solves them under the span tracer (``tracer.py``).  It reports
the per-layer metrics, the mean sum rate and the tracing overhead (scaled
traced time over scaled untraced time; layer times are not scaled).  Both
passes must give the same results digest.  The spans are written to
``.perfbench_out/`` at the repository root.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, before numpy and thzirs load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# units a traced run solves: fixed, so that its counters compare across commits
TRACE_UNITS = {"lattice-coarse": 6, "study-reference": 6, "frozen-phase-sweep": 8}
WORKLOAD_NAMES = tuple(TRACE_UNITS)
SETUP_REPEATS = 9
PROBE_STEPS = 8000
# the probe time that defines the scaled times' unit: seconds on a host where
# speed_probe takes this long.  On the 2-vCPU x86_64 baseline host (Python
# 3.11, NumPy with scipy-openblas) the probe's median ran from 0.07 s in its
# fast spells to 0.15 s in its slow ones.
PROBE_REF_S = 0.08
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cell_p95_s": "s",
    "peak_rss_mb": "MB",
    "feasible_ratio": "ratio",
}
PER_LAYER_EXTRA = ("sum_rate_gbps", "trace_overhead_ratio")


def _require_source():
    """Put the checkout's ``src`` first on the path; exit if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "thzirs", "__init__.py")):
        sys.exit(f"perfbench: no thzirs sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import thzirs

    if not os.path.abspath(thzirs.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported thzirs from {thzirs.__file__}, not from {SRC}")


def unit_of(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_gbps"):
        return "Gbit/s"
    return "count"


def per_layer_names():
    from perfbench.tracer import layer_metric_names

    return layer_metric_names() + list(PER_LAYER_EXTRA)


def speed_probe():
    """Seconds taken by a fixed loop of small complex NumPy operations.

    It resembles the solver's inner loops (20-element vectors, one NumPy call
    per step) but calls no thzirs code, so it measures the host, not the
    program.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    v = numpy.ones(20, dtype=complex)
    t0 = time.perf_counter()
    for _ in range(PROBE_STEPS):
        v = a @ v
        v = v / numpy.abs(v).max()
        phase = numpy.exp(1j * numpy.angle(v))
        float((phase.conj() @ v).real)
    return time.perf_counter() - t0


def run_units(workload, budget_s=None, count=None):
    """Solve units 0, 1, ... until ``budget_s`` is spent or ``count`` are done.

    A unit that raises is recorded as None and counts all its cells failed.
    Each unit's ``speed`` is ``PROBE_REF_S`` over the mean of the probes
    timed just before and just after it.  Returns the units, the error
    messages and all probe times.
    """
    units, messages, probes = [], [], [speed_probe()]
    t0 = time.perf_counter()
    while count is None or len(units) < count:
        try:
            unit = workload.run_unit(len(units))
        except Exception:  # noqa: BLE001 - one failed unit must not end the run
            unit = None
            messages.append(traceback.format_exc())
        probes.append(speed_probe())
        if unit is not None:
            unit.speed = PROBE_REF_S / ((probes[-2] + probes[-1]) / 2)
        units.append(unit)
        if count is None:
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(units) > budget_s:
                break
    return units, messages, probes


def _tally(units, cells_per_unit):
    attempted = failed = 0
    errors = []
    for unit in units:
        attempted += cells_per_unit
        if unit is None:
            failed += cells_per_unit
        else:
            failed += unit.failed
            errors.extend(unit.errors)
    return attempted, failed, errors


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure_setup(workload, seed):
    """Median set-up time over fresh interpreters, import to first solve.

    Each time is scaled by the probes timed just before and after it; the
    raw times are returned too.
    """
    scaled, raw, probe = [], [], speed_probe()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw.append(float(proc.stdout.split()[-1]))
        after = speed_probe()
        scaled.append(raw[-1] * PROBE_REF_S / ((probe + after) / 2))
        probe = after
    return statistics.median(scaled), raw


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def host_facts():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def _digest(units):
    return hashlib.sha256(
        ",".join(u.digest if u else "failed" for u in units).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print the seconds it took, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _require_source()
    from perfbench import workloads

    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    if args.setup_probe:
        workloads.make(args.workload, args.seed, work_dir)
        print(time.perf_counter() - _START)
        return 0

    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.trace == 0:
            result, info = _untraced(args, workloads, work_dir)
        else:
            result, info = _traced(args, workloads, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    info["host"] = host_facts()
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _untraced(args, workloads, work_dir):
    setup_s, setup_raw = measure_setup(args.workload, args.seed)
    workload = workloads.make(args.workload, args.seed, work_dir)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    # the set-up measurement counts against --seconds, so a run lasts about --seconds
    units, messages, probes = run_units(
        workload, budget_s=args.seconds - (time.perf_counter() - _START))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    attempted, failed, errors = _tally(units, workload.cells_per_unit)
    done = [u for u in units if u is not None]
    cells = [c for u in done for c in u.cells]
    cell_s = [c[0] * u.speed for u in done for c in u.cells]
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(u.wall_s * u.speed for u in done) if done else None,
        "cell_p95_s": _quantile(cell_s, 0.95) if cells else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "feasible_ratio": sum(c[2] for c in cells) / attempted,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }
    info = _info(args, units, cells, wall, cpu, failed, attempted, errors + messages)
    info["samples"] = {"setup_s": SETUP_REPEATS, "run_s": len(done), "cell": len(cells)}
    info["raw"] = {
        "setup_s": statistics.median(setup_raw),
        "run_s": statistics.median(u.wall_s for u in done) if done else None,
        "cell_p95_s": _quantile([c[0] for c in cells], 0.95) if cells else None,
    }
    info["probe_s"] = _probe_summary(probes)
    return result, info


def _traced(args, workloads, work_dir):
    from perfbench.tracer import Tracer

    workload = workloads.make(args.workload, args.seed, work_dir)
    plain, messages, plain_probes = run_units(workload, count=TRACE_UNITS[args.workload])
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with Tracer() as tracer:
        traced_workload = workloads.make(args.workload, args.seed, work_dir)
        traced, traced_messages, traced_probes = run_units(traced_workload, count=len(plain))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for unit in traced:
        if unit is not None:
            tracer.count("experiment.report_bytes", unit.report_bytes)

    attempted, failed, errors = _tally(plain + traced, workload.cells_per_unit)
    mismatched = [p.drop_seed for p, t in zip(plain, traced)
                  if p and t and p.digest != t.digest]
    if mismatched:
        failed += len(mismatched)
        errors.append(f"traced results differ from untraced ones on drops {mismatched}")

    done = [u for u in traced if u is not None]
    cells = [c for u in done for c in u.cells]
    values = tracer.layer_metrics()
    values["sum_rate_gbps"] = _mean_rate_gbps(cells)
    pairs = [(p, t) for p, t in zip(plain, traced) if p and t]
    values["trace_overhead_ratio"] = (sum(t.wall_s * t.speed for _, t in pairs)
                                      / sum(p.wall_s * p.speed for p, _ in pairs)
                                      if pairs else None)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
    tracer.write_spans(spans_path)
    info = _info(args, traced, cells, wall, cpu, failed, attempted,
                 errors + messages + traced_messages)
    info["untraced_digest"] = _digest(plain)
    info["probe_s"] = _probe_summary(plain_probes + traced_probes)
    info["spans"] = {"count": len(tracer.spans), "file": os.path.relpath(spans_path, ROOT)}
    return result, info


def _probe_summary(probes):
    return {"median": statistics.median(probes), "min": min(probes), "max": max(probes),
            "n": len(probes), "ref": PROBE_REF_S}


def _mean_rate_gbps(cells):
    return sum(c[1] for c in cells) / len(cells) / 1e9 if cells else None


def _info(args, units, cells, wall, cpu, failed, attempted, errors):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "drop_seeds": [u.drop_seed for u in units if u is not None],
        "unit_wall_s": [u.wall_s for u in units if u is not None],
        "unit_speed": [u.speed for u in units if u is not None],
        "units": len(units),
        "wall_s": wall,
        "cpu_s": cpu,
        "error_ratio": failed / attempted,
        "sum_rate_gbps": _mean_rate_gbps(cells),
        "feasible_cells": sum(c[2] for c in cells),
        "digest": _digest(units),
        "errors": errors[:20],
    }


if __name__ == "__main__":
    sys.exit(main())
