"""Command-line experiment runner.

Subcommands
-----------
simulate   write seeded synthetic / semi-synthetic datasets for a config grid
fit        cross-validate, select by the one-SE rule and refit one scheme
cpm        fit the connectome-predictive-modeling baseline
evaluate   score a fit directory against a dataset (metrics.csv, roc.csv)
sweep      simulate + fit + evaluate over a whole grid

Configs are flat ``key = value`` files with dotted keys; command-line
flags override file values; every run writes a ``run_manifest`` with all
defaults materialized, which can itself be passed back as ``--config``
to reproduce the outputs byte-for-byte.  ``NETCOV_THREADS`` (a positive
integer, default 1) caps the worker pool used for independent grid cells.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

import argparse
import os
import shutil
import sys
import time
from dataclasses import replace as dc_replace
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np

from . import __version__
from .baselines import CPM_ALPHA, check_cpm_alpha, cpm_fit, cpm_predict
# build_design is unused here but stays importable as netcov.cli.build_design:
# the benchmark's traced run (benchmarks/spans.py) wraps it there, as it wraps
# each writer this module calls
from .data import (build_design, load_dataset, parse_int,  # noqa: F401
                   parse_number, read_manifest, save_dataset, write_manifest)
from .files import (load_truth_csv, read_fit, read_roc_path, read_scenario,
                    write_active_groups_csv, write_cpm_edges, write_cv_csv,
                    write_groups_csv, write_metrics_csv, write_model,
                    write_path_csv, write_roc_csv, write_scenario_csv,
                    write_truth_csv)
from .groups import split_communities
from .metrics import prediction_metrics, roc_along_path, support_metrics
from .pipeline import corrected_rows, make_groups, nuisance_corrected
from .simulate import (ExperimentConfig, PRESET_ACTIVE_GROUPS, draw_response,
                       gen_design_synthetic, gen_semisynthetic, groups_for,
                       make_beta, scenario_difficulty)
from .solver import GRID_SIZE, MIN_RATIO, ConvergenceError
from .tuning import cross_validate, select_and_refit

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config handling

CONFIG_DEFAULTS = {
    "experiment.preset": "",
    "experiment.schemes": "ebg",
    "experiment.families": "gaussian",
    "experiment.n_active": "1",
    "experiment.alphas": "",
    "experiment.alpha_min": "0.01",
    "experiment.alpha_max": "0.5",
    "experiment.alpha_count": "20",
    "experiment.replicates": "10",
    "data.N": "1000",
    "data.K": "10",
    "data.nodes_per_community": "5",
    "data.d": "1",
    "data.design": "synthetic",
    "data.split_communities": "",
    "solver.grid_size": str(GRID_SIZE),
    "solver.min_ratio": repr(MIN_RATIO),
    "solver.folds": "10",
    "sweep.methods": "scheme,lasso",
}

CONFIG_KEYS = set(CONFIG_DEFAULTS) | {"seed"}

# each fit flag and the config key it sets; the key's default, conversion
# and range check apply
FIT_FLAGS = {"--seed": "seed", "--folds": "solver.folds",
             "--grid-size": "solver.grid_size",
             "--min-ratio": "solver.min_ratio",
             "--split-communities": "data.split_communities"}

PRESETS = {
    "experiment-i": {
        "experiment.schemes": "nbg,ebg",
        "experiment.families": "gaussian,binomial",
        "experiment.n_active": "1,5",
        "experiment.replicates": "10",
    },
}


def load_config(path, overrides=None):
    """Read, default, and validate a flat config; returns a :class:`Config`."""
    try:
        raw = read_manifest(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return resolve_config(raw, overrides)


class Config(dict):
    """The resolved config strings, as the run manifest records them, with
    every key converted and range-checked once into ``settings``."""

    def __init__(self, entries):
        super().__init__(entries)
        try:
            self.settings = _convert(self)
        except ValueError as exc:  # a value parse_int or parse_number refused
            raise ConfigError(str(exc)) from None


def resolve_config(raw, overrides=None):
    entries = {**raw, **(overrides or {})}
    unknown = sorted(set(entries) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    preset = entries.get("experiment.preset", "")
    resolved = dict(CONFIG_DEFAULTS)
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        resolved.update(PRESETS[preset])
    resolved.update(entries)
    if "seed" not in resolved or resolved["seed"] == "":
        raise ConfigError("config must set a seed; reproducibility is mandatory")
    return Config(resolved)


def _cfg_list(cfg, key, allowed=None):
    values = [v.strip() for v in cfg[key].split(",") if v.strip()]
    if allowed is not None:
        for v in values:
            if v not in allowed:
                raise ConfigError(f"{key}: {v!r} not in {sorted(allowed)}")
    if not values:
        raise ConfigError(f"{key} must not be empty")
    return values


def _alpha_levels(cfg):
    if cfg["experiment.alphas"]:
        return [parse_number("experiment.alphas", v, 0.0)
                for v in _cfg_list(cfg, "experiment.alphas")]
    lo, hi = (parse_number(key, cfg[key], 0.0)
              for key in ("experiment.alpha_min", "experiment.alpha_max"))
    count = parse_int("experiment.alpha_count",
                      cfg["experiment.alpha_count"], 1)
    return [float(a) for a in np.geomspace(lo, hi, count)]


def _convert(cfg):
    """Every key of a resolved config as the value it stands for; a value
    out of its range is an error naming the key."""
    def integer(key, least):
        return parse_int(key, cfg[key], least)

    s = SimpleNamespace(
        seed=integer("seed", 0),
        schemes=_cfg_list(cfg, "experiment.schemes", {"nbg", "ebg"}),
        families=_cfg_list(cfg, "experiment.families",
                           {"gaussian", "binomial"}),
        n_active=[parse_int("experiment.n_active", v, 1)
                  for v in _cfg_list(cfg, "experiment.n_active")],
        alphas=_alpha_levels(cfg),
        replicates=integer("experiment.replicates", 1),
        design=cfg["data.design"],
        split_communities=(integer("data.split_communities", 2)
                           if cfg["data.split_communities"] else None),
        grid_size=integer("solver.grid_size", 2),
        min_ratio=parse_number("solver.min_ratio", cfg["solver.min_ratio"],
                               0.0, 1.0),
        folds=integer("solver.folds", 2),
        methods=_cfg_list(cfg, "sweep.methods",
                          {"scheme", "nbg", "ebg", "lasso", "cpm"}),
        N=integer("data.N", 1),
        K=integer("data.K", 1),
        nodes_per_community=integer("data.nodes_per_community", 1),
        d=integer("data.d", 0),
    )
    for scheme in s.schemes:
        for k in s.n_active:
            if (scheme.upper(), k) not in PRESET_ACTIVE_GROUPS:
                raise ConfigError(
                    f"no active-group preset for scheme={scheme}, "
                    f"n_active={k} (available: 1 or 5)")
    return s


def enumerate_cells(cfg):
    """Deterministic grid enumeration: scheme x family x n_active x alpha x rep."""
    s = cfg.settings
    cells = []
    index = 0
    for scheme in s.schemes:
        for family in s.families:
            for k in s.n_active:
                for ai, alpha in enumerate(s.alphas):
                    for rep in range(s.replicates):
                        cells.append(SimpleNamespace(
                            scheme=scheme, family=family, n_active=k,
                            alpha=alpha, alpha_index=ai, replicate=rep,
                            index=index,
                            cell_id=(f"{scheme}_{family}_k{k}"
                                     f"_a{ai:02d}_r{rep:02d}"),
                        ))
                        index += 1
    return cells


def _cell_seed(base_seed, cell_index):
    """Stable per-cell seed derived from the run seed and cell position."""
    return int(np.random.SeedSequence((int(base_seed),
                                       int(cell_index))).generate_state(1)[0])


def write_run_manifest(path, subcommand, cfg, extra):
    header = [
        f"netcov {__version__} run manifest",
        f"subcommand: {subcommand}",
    ]
    for key, value in extra.items():
        header.append(f"{key}: {value}")
    entries = {k: cfg[k] for k in sorted(cfg)}
    write_manifest(path, entries, header=header)


# ---------------------------------------------------------------------------
# simulate

def _simulate_cell(cfg, cell, cell_dir):
    s = cfg.settings
    seed = _cell_seed(s.seed, cell.index)
    active = PRESET_ACTIVE_GROUPS[(cell.scheme.upper(), cell.n_active)]
    split = s.split_communities
    exp = ExperimentConfig(
        scheme=cell.scheme.upper(), active_groups=active, alpha=cell.alpha,
        family=cell.family, N=s.N, K=s.K,
        nodes_per_community=s.nodes_per_community, d=s.d, seed=seed)
    if s.design == "synthetic":
        dataset = gen_design_synthetic(exp)
        communities = dataset.communities
        if split is not None:
            communities = split_communities(communities, split, (seed, 97))
        spec = groups_for(exp, communities)
        truth = make_beta(spec, active, cell.alpha)
        y = draw_response(dataset, truth, cell.family, seed, tag=1)
        dataset = dc_replace(dataset, y=y, communities=communities)
    else:
        dataset, truth, communities = gen_semisynthetic(
            s.design, exp, split_target=split)
        dataset = dc_replace(dataset, communities=communities)

    tmp = cell_dir + ".tmp"
    save_dataset(dataset, tmp)
    write_truth_csv(truth, os.path.join(tmp, "truth.csv"))
    metric, value = scenario_difficulty(dataset, truth, cell.family)
    scenario = write_scenario_csv(
        os.path.join(tmp, "scenario.csv"), cell.scheme, cell.family,
        cell.n_active, cell.alpha, metric, value, seed, cell.replicate)
    if os.path.exists(cell_dir):
        shutil.rmtree(cell_dir)
    os.replace(tmp, cell_dir)
    return dataset, truth, scenario


def cmd_simulate(args):
    cfg = load_config(args.config, _flag_overrides(args))
    cells = enumerate_cells(cfg)
    started = time.time()
    os.makedirs(args.out, exist_ok=True)
    for cell in cells:
        _simulate_cell(cfg, cell, os.path.join(args.out, "cells", cell.cell_id))
    write_run_manifest(
        os.path.join(args.out, "run_manifest"), "simulate", cfg,
        extra={"out": args.out, "cells": len(cells),
               "wall_seconds": f"{time.time() - started:.3f}"},
    )
    return 0


# ---------------------------------------------------------------------------
# fit

def _method_name(scheme):
    return "lasso" if scheme == "lasso" else f"netcov:{scheme}"


def run_fit(dataset, scheme, out_dir, settings, seed):
    """Fit ``scheme`` to ``dataset`` with a config's settings and seed."""
    s = settings
    spec, communities = make_groups(dataset, scheme,
                                    split_target=s.split_communities,
                                    seed=(int(seed), 11))
    if s.split_communities is not None:
        dataset = dc_replace(dataset, communities=communities)
    cv = cross_validate(dataset, spec, folds=s.folds, seed=seed,
                        grid_size=s.grid_size, min_ratio=s.min_ratio)
    fit = select_and_refit(cv)
    model = fit.model

    os.makedirs(out_dir, exist_ok=True)
    write_groups_csv(spec, os.path.join(out_dir, "groups.csv"))
    write_cv_csv(cv, os.path.join(out_dir, "cv.csv"))
    write_path_csv(fit.path, out_dir)
    write_model(model, out_dir)
    write_active_groups_csv(fit.path, fit.path.entries[fit.index_hat],
                            os.path.join(out_dir, "active_groups.csv"))
    idx = dataset.index
    info = {
        "family": model.family,
        "scheme": scheme,
        "method": _method_name(scheme),
        "n": idx.n, "d": idx.d, "p": idx.p,
        "intercept": repr(float(model.mu)),
        "lambda_hat": repr(float(fit.lambda_hat)),
        "lambda_index": fit.index_hat,
        "y_mean": "NA" if model.y_mean is None else repr(float(model.y_mean)),
        "y_sd": "NA" if model.y_sd is None else repr(float(model.y_sd)),
        "deviance": repr(float(fit.deviance)),
        "kkt_residual": repr(float(fit.kkt_residual)),
        "seed": seed, "folds": s.folds, "grid_size": s.grid_size,
        "min_ratio": repr(s.min_ratio),
        "split_communities": ("" if s.split_communities is None
                              else s.split_communities),
        "version": __version__,
    }
    write_manifest(os.path.join(out_dir, "fit_info"), info)
    return fit


def cmd_fit(args):
    started = time.time()
    cfg = resolve_config({}, _flag_overrides(args))
    run_fit(load_dataset(args.data), args.scheme, args.out, cfg.settings,
            cfg.settings.seed)
    write_run_manifest(
        os.path.join(args.out, "run_manifest"), "fit",
        {key: cfg[key] for key in FIT_FLAGS.values()},
        extra={"data": args.data, "out": args.out, "scheme": args.scheme,
               "wall_seconds": f"{time.time() - started:.3f}"},
    )
    return 0


# ---------------------------------------------------------------------------
# cpm

def run_cpm(dataset, scenario, out_dir, alpha):
    if dataset.family != "gaussian":
        raise ValueError("CPM supports continuous responses only")
    row = {"method": "cpm", **scenario}
    Z, y, nuisance_model = nuisance_corrected(dataset,
                                              dataset.training_rows())
    idx = dataset.index
    model = cpm_fit(Z, y, idx, alpha=alpha)
    os.makedirs(out_dir, exist_ok=True)
    write_cpm_edges(model, idx, os.path.join(out_dir, "cpm_edges.csv"))

    rows_te = dataset.test_rows
    if rows_te is not None and rows_te.size >= 2:
        Z_te, y_te = corrected_rows(nuisance_model, dataset, rows_te)
        yhat = cpm_predict(model, Z_te, idx)
        pred = prediction_metrics(yhat, y_te, "gaussian")
        row["correlation"] = pred.correlation
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), [row])
    return row


def cmd_cpm(args):
    started = time.time()
    try:
        alpha = check_cpm_alpha(parse_number("alpha", args.alpha))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    run_cpm(load_dataset(args.data), read_scenario(args.data), args.out,
            alpha)
    write_run_manifest(
        os.path.join(args.out, "run_manifest"), "cpm", {},
        extra={"data": args.data, "out": args.out, "alpha": repr(alpha),
               "wall_seconds": f"{time.time() - started:.3f}"},
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate

def run_evaluate(method, model, path, dataset, truth, scenario, out_dir):
    """Score ``model`` on ``dataset``'s test rows and, given the ``truth``,
    its support and each point of ``path``, whose entries carry lam and beta."""
    row = {"method": method, **scenario}
    if truth is not None:
        report = support_metrics(model.beta, truth)
        row["recall"] = report.recall
        row["precision"] = report.precision

    rows_te = dataset.test_rows
    if rows_te is not None and rows_te.size >= 2:
        pred = prediction_metrics(*model.predict(dataset, rows_te),
                                  model.family)
        key = "correlation" if model.family == "gaussian" else "accuracy"
        row[key] = getattr(pred, key)

    os.makedirs(out_dir, exist_ok=True)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), [row])
    roc = os.path.join(out_dir, "roc.csv")
    if truth is not None:
        write_roc_csv(roc, [(method, roc_along_path(path, truth))])
    elif os.path.exists(roc):
        os.remove(roc)  # another run's, with a truth this dataset lacks
    return row


def cmd_evaluate(args):
    dataset = load_dataset(args.data)
    method, model = read_fit(args.fit, dataset)
    scenario = read_scenario(args.data)
    truth_path = os.path.join(args.data, "truth.csv")
    truth = path = None
    if os.path.exists(truth_path):
        truth = load_truth_csv(truth_path, dataset.index.p)
        path = read_roc_path(args.fit, dataset.index.p)
    run_evaluate(method, model, path, dataset, truth, scenario, args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep

def _sweep_cell_job(payload):
    cfg, cell, out_dir = payload
    s = cfg.settings
    cell_dir = os.path.join(out_dir, "cells", cell.cell_id)
    dataset, truth, scenario = _simulate_cell(cfg, cell, cell_dir)
    seed = _cell_seed(s.seed, cell.index)
    rows = []
    for method in s.methods:
        scheme = cell.scheme if method == "scheme" else method
        if scheme == "cpm":
            if cell.family != "gaussian":
                continue
            rows.append(run_cpm(dataset, scenario,
                                os.path.join(cell_dir, "fit_cpm"), CPM_ALPHA))
        else:
            fit = run_fit(dataset, scheme,
                          os.path.join(cell_dir, f"fit_{scheme}"), s, seed)
            rows.append(run_evaluate(
                _method_name(scheme), fit.model, fit.path, dataset, truth,
                scenario, os.path.join(cell_dir, f"eval_{scheme}")))
    return rows


def _worker_count(cells):
    """``NETCOV_THREADS`` (a positive integer, default 1), capped at the
    number of cells: the fork start method launches every worker of a
    pool at its first submit."""
    value = os.environ.get("NETCOV_THREADS", "1")
    if not value.isdigit() or int(value) < 1:
        raise ConfigError(
            f"NETCOV_THREADS must be a positive integer, got {value!r}")
    return min(int(value), cells)


def cmd_sweep(args):
    cfg = load_config(args.config, _flag_overrides(args))
    cells = enumerate_cells(cfg)
    workers = _worker_count(len(cells))
    started = time.time()
    os.makedirs(args.out, exist_ok=True)
    payloads = [(cfg, cell, args.out) for cell in cells]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell_job, payloads))
    else:
        results = [_sweep_cell_job(p) for p in payloads]
    table = [row for rows in results for row in rows]
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), table)
    write_run_manifest(
        os.path.join(args.out, "run_manifest"), "sweep", cfg,
        extra={"out": args.out, "cells": len(cells),
               "wall_seconds": f"{time.time() - started:.3f}"},
    )
    return 0


# ---------------------------------------------------------------------------
# entry point

def _flag_overrides(args):
    """The config entries the command line sets: each given flag whose
    destination is a config key, then each ``--set key=value``."""
    overrides = {key: value for key, value in vars(args).items()
                 if key in CONFIG_KEYS and value is not None}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netcov",
        description="group-sparse prediction from networks with node covariates",
    )
    parser.add_argument("--version", action="version",
                        version=f"netcov {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="write datasets for a config grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="cross-validate and refit one scheme")
    p.add_argument("--data", required=True)
    p.add_argument("--scheme", required=True, choices=["nbg", "ebg", "lasso"])
    p.add_argument("--out", required=True)
    for flag, key in FIT_FLAGS.items():
        p.add_argument(flag, dest=key, required=key == "seed")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cpm", help="connectome predictive modeling baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", default=CPM_ALPHA)
    p.set_defaults(func=cmd_cpm)

    p = sub.add_parser("evaluate", help="score a fit against a dataset")
    p.add_argument("--fit", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="simulate + fit + evaluate over a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except ConfigError as exc:
        print(f"netcov: config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"netcov: numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"netcov: data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
