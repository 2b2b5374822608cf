"""Span tracer for the benchmark's traced run.

The tracer replaces library functions at the module attribute where the
library looks them up (``thzirs.bcs.solve_allocation``, not
``thzirs.allocation.solve_allocation``), so calls nested inside other library
functions are caught.  Each call becomes an in-memory span
``[name, start, end, parent]``; work counters are read from the objects the
functions return.  Nothing in the library is edited: leaving the ``with``
block restores every original function.
"""

import inspect
import json
import time
from collections import defaultdict

# layer name (<module>.<function>) and the stats reported for it
LAYERS = (
    ("phase_opt.sgd_solve", ("calls", "total_s", "iterations", "capped_feasible")),
    ("phase_opt.sca_phase_optimize", ("calls", "total_s", "self_s", "outer_iterations")),
    ("allocation.solve_allocation", ("calls", "total_s", "candidates", "infeasible", "cold_calls")),
    ("phase_opt.effective_vector", ("calls", "total_s")),
    ("bcs.inner_solve", ("calls", "total_s", "self_s", "rounds")),
    ("bcs.bcs_solve", ("total_s",)),
    ("bcs.baseline_mini_dis", ("total_s",)),
    ("bcs.baseline_ran_loc", ("total_s",)),
    ("bcs.baseline_ran_phi", ("total_s",)),
    ("geometry.solve_min_total_distance", ("calls", "total_s")),
    ("channel.absorption_coefficient", ("calls", "total_s")),
    ("experiment.resolve_bands", ("total_s",)),
    ("experiment.run_experiment", ("total_s",)),
    ("experiment.load_report", ("total_s",)),
    ("config.load_config", ("total_s",)),
)
# counters that belong to no single span
COUNTERS = ("bcs.positions", "experiment.report_bytes")
TIME_STATS = ("total_s", "self_s")


def _sgd_stats(counters, result, arg):
    counters["phase_opt.sgd_solve.iterations"] += result.iterations
    # ran to the iteration cap although the best iterate already met every target
    if result.feasible and not result.converged and result.iterations == arg("max_iters"):
        counters["phase_opt.sgd_solve.capped_feasible"] += 1


def _sca_stats(counters, result, arg):
    counters["phase_opt.sca_phase_optimize.outer_iterations"] += result.outer_iterations


def _allocation_stats(counters, result, arg):
    counters["allocation.solve_allocation.candidates"] += result.candidates_tried
    counters["allocation.solve_allocation.infeasible"] += not result.feasible
    counters["allocation.solve_allocation.cold_calls"] += arg("warm_winners") is None


def _inner_stats(counters, result, arg):
    counters["bcs.inner_solve.rounds"] += result.rounds


def _search_positions(counters, result, arg):
    # lattice points plus the min-distance anchor when the search has one
    counters["bcs.positions"] += result.points_evaluated + (result.anchor is not None)


def _one_position(counters, result, arg):
    counters["bcs.positions"] += 1


def _wrap_table():
    from thzirs import bcs, config, experiment, phase_opt

    return (
        (phase_opt, "sgd_solve", "phase_opt.sgd_solve", _sgd_stats),
        (bcs, "sca_phase_optimize", "phase_opt.sca_phase_optimize", _sca_stats),
        (bcs, "solve_allocation", "allocation.solve_allocation", _allocation_stats),
        (bcs, "effective_vector", "phase_opt.effective_vector", None),
        (bcs, "inner_solve", "bcs.inner_solve", _inner_stats),
        (bcs, "solve_min_total_distance", "geometry.solve_min_total_distance", None),
        (bcs, "absorption_coefficient", "channel.absorption_coefficient", None),
        (experiment, "absorption_coefficient", "channel.absorption_coefficient", None),
        (experiment, "bcs_solve", "bcs.bcs_solve", _search_positions),
        (experiment, "baseline_mini_dis", "bcs.baseline_mini_dis", _one_position),
        (experiment, "baseline_ran_loc", "bcs.baseline_ran_loc", _one_position),
        (experiment, "baseline_ran_phi", "bcs.baseline_ran_phi", _search_positions),
        (experiment, "resolve_bands", "experiment.resolve_bands", None),
        (experiment, "run_experiment", "experiment.run_experiment", None),
        (experiment, "load_report", "experiment.load_report", None),
        (config, "load_config", "config.load_config", None),
    )


def layer_metric_names():
    names = [f"{layer}.{stat}" for layer, stats in LAYERS for stat in stats]
    return names + list(COUNTERS)


class Tracer:
    """Records spans and counters while installed as a context manager."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = defaultdict(int)
        self._stack = []
        self._patched = []

    def count(self, name, amount=1):
        self.counters[name] += amount

    def _wrap(self, module, attr, name, stats):
        original = getattr(module, attr)
        signature = inspect.signature(original)
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(sid)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = time.perf_counter()
            if stats is not None:
                def arg(param):
                    if param in kwargs:
                        return kwargs[param]
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    return bound.arguments[param]

                stats(counters, result, arg)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def __enter__(self):
        for module, attr, name, stats in _wrap_table():
            self._wrap(module, attr, name, stats)
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    def layer_metrics(self):
        """Every name of ``layer_metric_names()`` with its value."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[sid]

        out = {}
        for layer, stats in LAYERS:
            for stat in stats:
                key = f"{layer}.{stat}"
                out[key] = totals[layer][stat] if stat in totals[layer] else self.counters[key]
        for key in COUNTERS:
            out[key] = self.counters[key]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
            fh.write("\n")
