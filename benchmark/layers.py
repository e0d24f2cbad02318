"""Per-layer counts and times, taken from outside the program.

``Tracer.install`` replaces fracreg functions with timing wrappers at the
names their callers look them up by (``from .x import f`` binds ``f`` in the
caller's module, so each binding is wrapped where it is used).  Where
wrapped calls nest, a layer's ``busy`` time is self time: its span minus the
spans of the wrapped calls inside it.  A name that a later version of the
program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (module, name) bindings wrapped, with the span each one records.  The
# mild_solver layer is wrapped at ``_picard_solve``, the one function that
# every forward and regularized solve runs through.
BINDINGS = (
    ("mittag_leffler", "ml_values", "ml_values"),
    ("mild_solver", "ml_values", "ml_values"),
    ("mittag_leffler", "calibrate_growth_constants", "calibrate"),
    ("experiments", "calibrate_growth_constants", "calibrate"),
    ("mild_solver", "_picard_solve", "solve"),
    ("regularizer", "_picard_solve", "solve"),
    ("experiments", "observe", "observe"),
    ("experiments", "replicate_seed", "seed"),
    ("noise_model", "replicate_seed", "seed"),
    ("experiments", "regularized_solve", "regularized_solve"),
    ("experiments", "choose_params", "params"),
    ("experiments", "admissibility_scan", "params"),
    ("experiments", "theory_bound_l2", "bounds"),
    ("experiments", "theory_bound_hq", "bounds"),
    ("experiments", "hq_norm", "norm"),
    ("noise_model", "hq_norm", "norm"),
    ("cli", "illposed_demo", "experiment"),
    ("cli", "convergence_table", "experiment"),
    ("cli", "mise_check", "experiment"),
    ("cli", "emit", "emit"),
    ("experiments", "illposed_demo", "experiment"),
    ("experiments", "emit", "emit"),
)

# name -> unit of every per-layer metric, in report order.
UNITS = {
    "mittag_leffler.args": "count",
    "mittag_leffler.series_args": "count",
    "mittag_leffler.asymptotic_args": "count",
    "mittag_leffler.busy_s": "s",
    "mittag_leffler.args_per_s": "1/s",
    "mittag_leffler.calibrate_s": "s",
    "mild_solver.solves": "count",
    "mild_solver.sweeps": "count",
    "mild_solver.busy_s": "s",
    "mild_solver.cold_solves": "count",
    "mild_solver.cold_solve_s": "s",
    "mild_solver.warm_solve_s": "s",
    "mild_solver.cold_peak_mb": "MB",
    "noise_model.observations": "count",
    "noise_model.normals": "count",
    "noise_model.busy_s": "s",
    "noise_model.normals_per_s": "1/s",
    "noise_model.seed_s": "s",
    "regularizer.solve_s": "s",
    "regularizer.params_s": "s",
    "regularizer.bounds_s": "s",
    "spectral.norms": "count",
    "spectral.busy_s": "s",
    "experiments.self_s": "s",
    "cli.emit_s": "s",
    "cli.report_bytes": "bytes",
    "trace.run_s": "s",
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Tracer:
    """Span bookkeeping for one traced round."""

    def __init__(self):
        self._open: list[float] = []  # per open span: time spent in wrapped calls inside it
        self.self_s: dict[str, float] = defaultdict(float)
        self.span_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.ml_series = 0
        self.ml_asymptotic = 0
        self.sweeps = 0
        self.normals = 0
        self.report_bytes = 0
        self.solve_shapes: set = set()
        self.cold_solve_s = 0.0
        self.cold_peak_bytes = 0
        self.warm_solve_s: list[float] = []
        self._series_switch = 25.0

    def install(self) -> None:
        ml_module = importlib.import_module("fracreg.mittag_leffler")
        self._series_switch = getattr(ml_module, "SERIES_SWITCH_X", self._series_switch)
        for module_name, name, span in BINDINGS:
            module = importlib.import_module(f"fracreg.{module_name}")
            func = getattr(module, name, None)
            if func is not None:
                setattr(module, name, self._wrap(func, span))

    def _wrap(self, func, span: str):
        before = getattr(self, f"_before_{span}", None)
        after = getattr(self, f"_after_{span}", None)

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.self_s[span] += elapsed - inner
                self.span_s[span] += elapsed
                self.calls[span] += 1
            if after:
                after(args, kwargs, result, elapsed, token)
            return result

        return wrapper

    def _after_ml_values(self, args, kwargs, result, elapsed, token):
        beta, z = args[0], np.asarray(args[2], dtype=float)
        series = int(np.count_nonzero(z ** (1.0 / beta) <= self._series_switch))
        self.ml_series += series
        self.ml_asymptotic += z.size - series

    def _before_solve(self, args, kwargs):
        # _picard_solve(spec, lam, u0, u1, M, ...): the kernel-table cache key.
        spec, lam, M = args[0], args[1], args[4]
        shape = (spec.beta, spec.a, lam.tobytes(), M)
        if shape in self.solve_shapes:
            return False
        self.solve_shapes.add(shape)
        tracemalloc.start()
        return True

    def _after_solve(self, args, kwargs, result, elapsed, cold):
        if cold:
            self.cold_peak_bytes = max(self.cold_peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            self.cold_solve_s += elapsed
        else:
            self.warm_solve_s.append(elapsed)
        self.sweeps += len(result.picard_diffs)

    def _after_observe(self, args, kwargs, obs, elapsed, token):
        self.normals += obs.N * (1 if obs.shared_noise else 2)

    def _after_emit(self, args, kwargs, result, elapsed, token):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.report_bytes += os.path.getsize(path)

    def metrics(self, run_s: float) -> dict:
        """Every per-layer metric of the round, by name (units in UNITS)."""
        ml_args = self.ml_series + self.ml_asymptotic
        values = {
            "mittag_leffler.args": ml_args,
            "mittag_leffler.series_args": self.ml_series,
            "mittag_leffler.asymptotic_args": self.ml_asymptotic,
            "mittag_leffler.busy_s": self.self_s["ml_values"],
            "mittag_leffler.args_per_s": _rate(ml_args, self.self_s["ml_values"]),
            "mittag_leffler.calibrate_s": self.span_s["calibrate"],
            "mild_solver.solves": self.calls["solve"],
            "mild_solver.sweeps": self.sweeps,
            "mild_solver.busy_s": self.self_s["solve"],
            "mild_solver.cold_solves": self.calls["solve"] - len(self.warm_solve_s),
            "mild_solver.cold_solve_s": self.cold_solve_s,
            "mild_solver.warm_solve_s": (
                statistics.median(self.warm_solve_s) if self.warm_solve_s else 0.0
            ),
            "mild_solver.cold_peak_mb": self.cold_peak_bytes / 2**20,
            "noise_model.observations": self.calls["observe"],
            "noise_model.normals": self.normals,
            "noise_model.busy_s": self.self_s["observe"],
            "noise_model.normals_per_s": _rate(self.normals, self.self_s["observe"]),
            "noise_model.seed_s": self.self_s["seed"],
            "regularizer.solve_s": self.self_s["regularized_solve"],
            "regularizer.params_s": self.self_s["params"],
            "regularizer.bounds_s": self.self_s["bounds"],
            "spectral.norms": self.calls["norm"],
            "spectral.busy_s": self.self_s["norm"],
            "experiments.self_s": self.self_s["experiment"],
            "cli.emit_s": self.self_s["emit"],
            "cli.report_bytes": self.report_bytes,
            "trace.run_s": run_s,
        }
        return values
