"""Span tracer for the traced benchmark run.

Wraps netcov's public functions at the module attribute its callers look
up (``netcov.tuning.prepare`` is the name ``cross_validate`` resolves, not
``netcov.pipeline.prepare``), records one span per call and keeps the spans
in memory until the unit ends.  A layer's self time is the duration of its
spans minus the time covered by their child spans.  Nothing here changes
netcov's code: the wrappers are installed only for the traced run and are
removed again afterwards.
"""

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The span name is "<layer>.<operation>";
# several attributes may feed one name when different callers import the
# same function.
SPANS = (
    ("netcov.pipeline", "prepare", "pipeline.prepare"),
    ("netcov.tuning", "prepare", "pipeline.prepare"),
    ("netcov.tuning", "holdout_deviance", "pipeline.holdout_deviance"),
    ("netcov.pipeline", "make_groups", "groups.make_groups"),
    ("netcov.cli", "make_groups", "groups.make_groups"),
    ("netcov.pipeline", "expand", "groups.expand"),
    ("netcov.pipeline", "build_design", "data.build_design"),
    ("netcov.cli", "build_design", "data.build_design"),
    ("netcov.simulate", "build_design", "data.build_design"),
    ("netcov.cli", "save_dataset", "data.save"),
    ("netcov.cli", "load_dataset", "data.load"),
    ("netcov.pipeline", "standardize", "preprocess.standardize"),
    ("netcov.pipeline", "residualize_nuisance", "preprocess.residualize"),
    # run_cpm imports residualize_nuisance from netcov.preprocess at call time
    ("netcov.preprocess", "residualize_nuisance", "preprocess.residualize"),
    ("netcov.pipeline", "orthonormalize", "preprocess.orthonormalize"),
    ("netcov.solver", "back_transform", "preprocess.back_transform"),
    ("netcov.solver", "fit_path", "solver.fit_path"),
    ("netcov.tuning", "fit_path", "solver.fit_path"),
    ("netcov.solver", "lambda_max", "solver.lambda_max"),
    ("netcov.tuning", "lambda_max", "solver.lambda_max"),
    ("netcov.cli", "cross_validate", "tuning.cross_validate"),
    ("netcov.cli", "select_and_refit", "tuning.refit"),
    ("netcov.cli", "run_fit", "cli.run_fit"),
    ("netcov.cli", "run_evaluate", "cli.evaluate"),
    ("netcov.cli", "write_groups_csv", "cli.write"),
    ("netcov.cli", "write_cv_csv", "cli.write"),
    ("netcov.cli", "write_path_csv", "cli.write"),
    ("netcov.cli", "write_metrics_csv", "cli.write"),
    ("netcov.cli", "write_roc_csv", "cli.write"),
    ("netcov.cli", "write_cpm_edges", "cli.write"),
    ("netcov.cli", "write_truth_csv", "cli.write"),
    ("netcov.cli", "write_scenario_csv", "cli.write"),
    ("netcov.cli", "write_manifest", "cli.write"),
    ("netcov.cli", "write_run_manifest", "cli.write"),
    ("netcov.cli", "cpm_fit", "baselines.cpm"),
    ("netcov.cli", "cpm_predict", "baselines.cpm"),
    ("netcov.cli", "gen_design_synthetic", "simulate.gen"),
    ("netcov.cli", "groups_for", "simulate.gen"),
    ("netcov.cli", "make_beta", "simulate.gen"),
    ("netcov.cli", "draw_response", "simulate.gen"),
    ("netcov.cli", "scenario_difficulty", "simulate.gen"),
    ("netcov.cli", "roc_along_path", "metrics.roc"),
)

# Span names whose self time is reported, as "<name>_s".
TIMED = (
    "solver.fit_path", "solver.lambda_max",
    "preprocess.orthonormalize", "preprocess.residualize",
    "preprocess.standardize", "preprocess.back_transform",
    "pipeline.prepare", "pipeline.holdout_deviance",
    "data.build_design", "data.save", "data.load",
    "groups.make_groups", "groups.expand",
    "tuning.cross_validate", "tuning.refit",
    "cli.run_fit", "cli.write", "cli.evaluate",
    "baselines.cpm", "simulate.gen", "metrics.roc",
)

# Span names whose call count is reported, as "<name>_calls".
COUNTED = ("preprocess.back_transform", "pipeline.prepare",
           "data.build_design")


class Tracer:
    """Records spans (name, start, end, parent) and solver counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.sweeps = 0
        self.points = 0
        self.retries = 0
        self.kkt_max = 0.0
        self.u_mb = 0.0
        self._saved = []

    def _span(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(None)
            self._stack.append(i)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result)
            return result
        return traced

    def _observe_prepare(self, prepared):
        n, cols = prepared.problem.U.shape
        self.u_mb = max(self.u_mb, n * cols * 8 / 1e6)

    def _count_solve(self, fn, convergence_error):
        # no span here: as a child span, fit_at_lambda would be subtracted
        # from fit_path, and solver.fit_path_s should be the solver's time
        def counted(*args, **kwargs):
            try:
                sol = fn(*args, **kwargs)
            except convergence_error as exc:
                self.retries += 1
                self.sweeps += exc.sweeps
                raise
            self.points += 1
            self.sweeps += sol.n_sweeps
            self.kkt_max = max(self.kkt_max, sol.kkt_residual)
            return sol
        return counted

    def install(self):
        """Replace every traced attribute with its wrapper."""
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            observe = self._observe_prepare if name == "pipeline.prepare" else None
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._span(name, fn, observe))
        solver = importlib.import_module("netcov.solver")
        self._saved.append((solver, "fit_at_lambda", solver.fit_at_lambda))
        solver.fit_at_lambda = self._count_solve(solver.fit_at_lambda,
                                                 solver.ConvergenceError)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self):
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        totals = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child_time[i]
        return totals

    def metrics(self):
        """Per-layer metrics of everything recorded since construction."""
        self_s = self.self_times()
        calls = Counter(self.names)
        out = {f"{name}_s": self_s.get(name, 0.0) for name in TIMED}
        out.update({f"{name}_calls": calls.get(name, 0) for name in COUNTED})
        out["solver.sweeps"] = self.sweeps
        out["solver.points"] = self.points
        out["solver.retries"] = self.retries
        out["solver.kkt_max"] = self.kkt_max
        out["solver.s_per_sweep"] = (out["solver.fit_path_s"] / self.sweeps
                                     if self.sweeps else 0.0)
        out["preprocess.u_mb"] = self.u_mb
        return out
