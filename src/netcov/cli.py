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
import csv
import os
import shutil
import sys
import time
from dataclasses import replace as dc_replace
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np

from . import __version__
from .baselines import cpm_fit, cpm_predict, write_cpm_edges
# build_design is unused here but stays importable as netcov.cli.build_design,
# a name the benchmark's traced run (benchmarks/spans.py) wraps
from .data import (build_design, load_dataset, read_manifest,  # noqa: F401
                   save_dataset, write_manifest)
from .groups import split_communities, write_groups_csv
from .metrics import (prediction_metrics, roc_along_path, support_metrics,
                      write_metrics_csv, write_roc_csv)
from .pipeline import (FittedModel, corrected_rows, make_groups,
                       nuisance_corrected)
from .preprocess import NuisanceModel
from .simulate import (ExperimentConfig, PRESET_ACTIVE_GROUPS, draw_response,
                       gen_design_synthetic, gen_semisynthetic, groups_for,
                       load_truth_csv, make_beta, scenario_difficulty,
                       write_scenario_csv, write_truth_csv)
from .solver import ConvergenceError, write_path_csv
from .tuning import cross_validate, select_and_refit, write_cv_csv

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
    "solver.grid_size": "100",
    "solver.min_ratio": "0.05",
    "solver.folds": "10",
    "sweep.methods": "scheme,lasso",
}

PRESETS = {
    "experiment-i": {
        "experiment.schemes": "nbg,ebg",
        "experiment.families": "gaussian,binomial",
        "experiment.n_active": "1,5",
        "experiment.replicates": "10",
    },
}


def load_config(path, overrides=None):
    """Read, default, and validate a flat config; returns resolved strings."""
    try:
        raw = read_manifest(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return resolve_config(raw, overrides)


def resolve_config(raw, overrides=None):
    entries = dict(raw)
    if overrides:
        entries.update(overrides)
    known = set(CONFIG_DEFAULTS) | {"seed"}
    unknown = sorted(set(entries) - known)
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
    try:
        int(resolved["seed"])
    except ValueError as exc:
        raise ConfigError(f"seed must be an integer: {resolved['seed']!r}") from exc
    return resolved


def _cfg_list(cfg, key, allowed=None):
    values = [v.strip() for v in cfg[key].split(",") if v.strip()]
    if allowed is not None:
        for v in values:
            if v not in allowed:
                raise ConfigError(f"{key}: {v!r} not in {sorted(allowed)}")
    if not values:
        raise ConfigError(f"{key} must not be empty")
    return values


def _cfg_int(cfg, key):
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from exc


def _cfg_float(cfg, key):
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from exc


def _alpha_levels(cfg):
    if cfg["experiment.alphas"]:
        return [float(v) for v in _cfg_list(cfg, "experiment.alphas")]
    lo = _cfg_float(cfg, "experiment.alpha_min")
    hi = _cfg_float(cfg, "experiment.alpha_max")
    count = _cfg_int(cfg, "experiment.alpha_count")
    return list(np.geomspace(lo, hi, count))


def enumerate_cells(cfg):
    """Deterministic grid enumeration: scheme x family x n_active x alpha x rep."""
    schemes = _cfg_list(cfg, "experiment.schemes", {"nbg", "ebg"})
    families = _cfg_list(cfg, "experiment.families", {"gaussian", "binomial"})
    n_active = [int(v) for v in _cfg_list(cfg, "experiment.n_active")]
    alphas = _alpha_levels(cfg)
    replicates = _cfg_int(cfg, "experiment.replicates")
    cells = []
    index = 0
    for scheme in schemes:
        for family in families:
            for k in n_active:
                if (scheme.upper(), k) not in PRESET_ACTIVE_GROUPS:
                    raise ConfigError(
                        f"no active-group preset for scheme={scheme}, "
                        f"n_active={k} (available: 1 or 5)")
                for ai, alpha in enumerate(alphas):
                    for rep in range(replicates):
                        cells.append(SimpleNamespace(
                            scheme=scheme, family=family, n_active=k,
                            alpha=float(alpha), alpha_index=ai, replicate=rep,
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


def write_run_manifest(path, subcommand, cfg, extra=None, timings=None):
    header = [
        f"netcov {__version__} run manifest",
        f"subcommand: {subcommand}",
    ]
    for key, value in (extra or {}).items():
        header.append(f"{key}: {value}")
    for key, value in (timings or {}).items():
        header.append(f"{key}: {value}")
    entries = {k: cfg[k] for k in sorted(cfg)}
    write_manifest(path, entries, header=header)


# ---------------------------------------------------------------------------
# simulate

def _simulate_cell(cfg, cell, cell_dir):
    seed = _cell_seed(cfg["seed"], cell.index)
    active = PRESET_ACTIVE_GROUPS[(cell.scheme.upper(), cell.n_active)]
    split = (_cfg_int(cfg, "data.split_communities")
             if cfg["data.split_communities"] else None)
    exp = ExperimentConfig(
        scheme=cell.scheme.upper(), active_groups=active, alpha=cell.alpha,
        family=cell.family, N=_cfg_int(cfg, "data.N"),
        K=_cfg_int(cfg, "data.K"),
        nodes_per_community=_cfg_int(cfg, "data.nodes_per_community"),
        d=_cfg_int(cfg, "data.d"), seed=seed, replicate=0,
    )
    if cfg["data.design"] == "synthetic":
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
            cfg["data.design"], exp, split_target=split)
        dataset = dc_replace(dataset, communities=communities)

    tmp = cell_dir + ".tmp"
    save_dataset(dataset, tmp)
    write_truth_csv(truth, os.path.join(tmp, "truth.csv"))
    metric, value = scenario_difficulty(dataset, truth, cell.family)
    write_scenario_csv(os.path.join(tmp, "scenario.csv"), cell.scheme,
                       cell.family, cell.n_active, cell.alpha, metric, value,
                       seed, cell.replicate)
    if os.path.exists(cell_dir):
        shutil.rmtree(cell_dir)
    os.replace(tmp, cell_dir)


def cmd_simulate(args):
    cfg = load_config(args.config, _flag_overrides(args))
    cells = enumerate_cells(cfg)
    started = time.time()
    os.makedirs(args.out, exist_ok=True)
    for cell in cells:
        _simulate_cell(cfg, cell, os.path.join(args.out, "cells", cell.cell_id))
    write_run_manifest(
        os.path.join(args.out, "run_manifest"), "simulate", cfg,
        extra={"out": args.out, "cells": len(cells)},
        timings={"wall_seconds": f"{time.time() - started:.3f}"},
    )
    return 0


# ---------------------------------------------------------------------------
# fit

def _method_name(scheme):
    return "lasso" if scheme == "lasso" else f"netcov:{scheme}"


def run_fit(data_dir, scheme, out_dir, folds, grid_size, min_ratio, seed,
            split_communities=None):
    dataset = load_dataset(data_dir)
    spec, communities = make_groups(dataset, scheme,
                                    split_target=split_communities,
                                    seed=(int(seed), 11))
    if split_communities is not None:
        dataset = dc_replace(dataset, communities=communities)
    cv = cross_validate(dataset, spec, folds=folds, seed=seed,
                        grid_size=grid_size, min_ratio=min_ratio)
    fit = select_and_refit(cv)
    model = fit.model

    os.makedirs(out_dir, exist_ok=True)
    write_groups_csv(spec, os.path.join(out_dir, "groups.csv"))
    write_cv_csv(cv, os.path.join(out_dir, "cv.csv"))
    write_path_csv(fit.path, out_dir)
    _write_model(model, out_dir)
    entry = fit.path.entries[fit.index_hat]
    with open(os.path.join(out_dir, "active_groups.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "norm"])
        for name, (s0, s1) in zip(fit.path.group_names, fit.path.slices):
            norm = float(np.linalg.norm(entry.beta_tilde[s0:s1]))
            if norm > 0:
                writer.writerow([name, repr(norm)])
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
        "seed": seed, "folds": folds, "grid_size": grid_size,
        "min_ratio": repr(float(min_ratio)),
        "split_communities": ("" if split_communities is None
                              else split_communities),
        "version": __version__,
    }
    write_manifest(os.path.join(out_dir, "fit_info"), info)
    return fit


def _write_feature_csv(path, header, *columns):
    """One row per feature: its index, then one value from each column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_index"] + header)
        for j, values in enumerate(zip(*columns)):
            writer.writerow([j] + [repr(float(v)) for v in values])


def _require_finite(path, name, values):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: {name} is not finite")


def _read_feature_csv(path, p, defaults):
    """Columns of a :func:`_write_feature_csv` file as length-p arrays; a
    non-finite value is a data error."""
    columns = [np.full(p, value) for value in defaults]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            j = int(row[0])
            if not 0 <= j < p:
                raise ValueError(
                    f"{path}: feature index {j} outside 0..{p - 1}")
            for column, value in zip(columns, row[1:]):
                column[j] = float(value)
    for name, column in zip(header[1:], columns):
        _require_finite(path, name, column)
    return columns


def _write_model(model, out_dir):
    """Write a FittedModel's arrays; its scalars go to ``fit_info``."""
    _write_feature_csv(os.path.join(out_dir, "coefficients.csv"), ["beta"],
                       model.beta)
    _write_feature_csv(os.path.join(out_dir, "standardization.csv"),
                       ["mean", "sd"], model.column_means, model.column_sds)
    if model.nuisance_model is not None:
        _write_nuisance_model(model.nuisance_model,
                              os.path.join(out_dir, "nuisance_model.csv"))


def _read_model(fit_dir, info, p):
    """The FittedModel that :func:`run_fit` wrote to ``fit_dir``; a
    non-finite number, a negative sd or a y_sd not above 0 is a data error
    naming its file."""
    if int(info["p"]) != p:
        raise ValueError(
            f"fit was trained with p={info['p']} but dataset has p={p}")
    beta, = _read_feature_csv(os.path.join(fit_dir, "coefficients.csv"), p,
                              (0.0,))
    std_path = os.path.join(fit_dir, "standardization.csv")
    means, sds = _read_feature_csv(std_path, p, (0.0, 1.0))
    if np.any(sds < 0.0):
        raise ValueError(f"{std_path}: sd is negative")
    mu = float(info["intercept"])
    y_mean, y_sd = (None if info[key] == "NA" else float(info[key])
                    for key in ("y_mean", "y_sd"))
    info_path = os.path.join(fit_dir, "fit_info")
    for key, value in (("intercept", mu), ("y_mean", y_mean), ("y_sd", y_sd)):
        if value is not None:
            _require_finite(info_path, key, value)
    if y_sd is not None and y_sd <= 0.0:
        raise ValueError(f"{info_path}: y_sd is not positive")
    nm_path = os.path.join(fit_dir, "nuisance_model.csv")
    return FittedModel(
        family=info["family"], mu=mu, beta=beta, column_means=means,
        column_sds=sds, y_mean=y_mean, y_sd=y_sd,
        nuisance_model=(_read_nuisance_model(nm_path)
                        if os.path.exists(nm_path) else None),
    )


def _write_nuisance_model(model, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target"] + [f"c{j}" for j in
                                      range(model.feature_coefs.shape[0])])
        for j in range(model.feature_coefs.shape[1]):
            writer.writerow([f"f{j}"] + [repr(float(v))
                                         for v in model.feature_coefs[:, j]])
        if model.y_coefs is not None:
            writer.writerow(["y"] + [repr(float(v)) for v in model.y_coefs])


def _read_nuisance_model(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        feature_cols = []
        y_coefs = None
        for row in reader:
            values = [float(v) for v in row[1:]]
            _require_finite(path, f"row {row[0]}", values)
            if row[0] == "y":
                y_coefs = np.array(values)
            else:
                feature_cols.append(values)
    coefs = np.array(feature_cols).T
    return NuisanceModel(feature_coefs=coefs, y_coefs=y_coefs,
                         q=coefs.shape[0] - 1)


def cmd_fit(args):
    started = time.time()
    run_fit(args.data, args.scheme, args.out, folds=args.folds,
            grid_size=args.grid_size, min_ratio=args.min_ratio,
            seed=args.seed, split_communities=args.split_communities)
    cfg = {
        "seed": str(args.seed),
        "solver.folds": str(args.folds),
        "solver.grid_size": str(args.grid_size),
        "solver.min_ratio": repr(args.min_ratio),
    }
    write_run_manifest(
        os.path.join(args.out, "run_manifest"), "fit", cfg,
        extra={"data": args.data, "out": args.out, "scheme": args.scheme,
               "split_communities": args.split_communities},
        timings={"wall_seconds": f"{time.time() - started:.3f}"},
    )
    return 0


# ---------------------------------------------------------------------------
# cpm

def run_cpm(data_dir, out_dir, alpha=0.01):
    dataset = load_dataset(data_dir)
    if dataset.family != "gaussian":
        raise ValueError("CPM supports continuous responses only")
    Z, y, nuisance_model = nuisance_corrected(dataset,
                                              dataset.training_rows())
    idx = dataset.index
    model = cpm_fit(Z, y, idx, alpha=alpha)
    os.makedirs(out_dir, exist_ok=True)
    write_cpm_edges(model, idx, os.path.join(out_dir, "cpm_edges.csv"))

    row = {"method": "cpm"}
    scen = _read_scenario(data_dir)
    row.update(scen)
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
    run_cpm(args.data, args.out, alpha=args.alpha)
    write_run_manifest(
        os.path.join(args.out, "run_manifest"), "cpm", {},
        extra={"data": args.data, "out": args.out,
               "alpha": repr(args.alpha)},
        timings={"wall_seconds": f"{time.time() - started:.3f}"},
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate

def _read_scenario(data_dir):
    path = os.path.join(data_dir, "scenario.csv")
    if not os.path.exists(path):
        return {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        row = next(reader, None)
    if row is None:
        return {}
    return {
        "scheme": row.get("scheme"), "family": row.get("family"),
        "n_active": row.get("n_active"), "alpha": row.get("alpha"),
        "difficulty_metric": row.get("difficulty_metric"),
        "difficulty": row.get("difficulty"),
    }


def run_evaluate(fit_dir, data_dir, out_dir):
    dataset = load_dataset(data_dir)
    idx = dataset.index
    info = read_manifest(os.path.join(fit_dir, "fit_info"))
    model = _read_model(fit_dir, info, idx.p)
    os.makedirs(out_dir, exist_ok=True)

    row = {"method": info.get("method", info.get("scheme"))}
    row.update(_read_scenario(data_dir))

    truth_path = os.path.join(data_dir, "truth.csv")
    truth = None
    if os.path.exists(truth_path):
        truth = load_truth_csv(truth_path, idx.p)
        report = support_metrics(model.beta, truth)
        row["recall"] = report.recall
        row["precision"] = report.precision

    rows_te = dataset.test_rows
    if rows_te is not None and rows_te.size >= 2:
        yhat, y = model.predict(dataset, rows_te)
        pred = prediction_metrics(yhat, y, model.family)
        if model.family == "gaussian":
            row["correlation"] = pred.correlation
        else:
            row["accuracy"] = pred.accuracy

    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), [row])

    if truth is not None:
        path_like = _load_path_for_roc(fit_dir, idx.p)
        if path_like is not None:
            points = roc_along_path(path_like, truth)
            write_roc_csv(os.path.join(out_dir, "roc.csv"),
                          [(row["method"], points)])
    return row


def _load_path_for_roc(fit_dir, p):
    lams = []
    with open(os.path.join(fit_dir, "path.csv"), newline="") as fh:
        reader = csv.DictReader(fh)
        seen = {}
        for r in reader:
            seen[int(r["lambda_index"])] = float(r["lambda"])
    if not seen:
        return None
    entries = []
    for i in sorted(seen):
        coef = np.loadtxt(os.path.join(fit_dir, f"coef_{i:03d}.csv"),
                          delimiter=",").reshape(-1)
        if coef.size != p:
            raise ValueError(f"coef_{i:03d}.csv has {coef.size} rows, "
                             f"expected {p}")
        entries.append(SimpleNamespace(lam=seen[i], beta=coef))
    return SimpleNamespace(entries=entries)


def cmd_evaluate(args):
    run_evaluate(args.fit, args.data, args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep

def _sweep_cell_job(payload):
    cfg, cell, out_dir = payload
    cell_dir = os.path.join(out_dir, "cells", cell.cell_id)
    _simulate_cell(cfg, cell, cell_dir)
    methods = _cfg_list(cfg, "sweep.methods",
                        {"scheme", "nbg", "ebg", "lasso", "cpm"})
    seed = _cell_seed(cfg["seed"], cell.index)
    rows = []
    for method in methods:
        scheme = cell.scheme if method == "scheme" else method
        if scheme == "cpm":
            if cell.family != "gaussian":
                continue
            rows.append(run_cpm(cell_dir, os.path.join(cell_dir, "fit_cpm"),
                                alpha=0.01))
        else:
            fit_dir = os.path.join(cell_dir, f"fit_{scheme}")
            run_fit(cell_dir, scheme, fit_dir,
                    folds=_cfg_int(cfg, "solver.folds"),
                    grid_size=_cfg_int(cfg, "solver.grid_size"),
                    min_ratio=_cfg_float(cfg, "solver.min_ratio"),
                    seed=seed,
                    split_communities=(
                        _cfg_int(cfg, "data.split_communities")
                        if cfg["data.split_communities"] else None))
            rows.append(run_evaluate(fit_dir, cell_dir,
                                     os.path.join(cell_dir, f"eval_{scheme}")))
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
        extra={"out": args.out, "cells": len(cells)},
        timings={"wall_seconds": f"{time.time() - started:.3f}"},
    )
    return 0


# ---------------------------------------------------------------------------
# entry point

def _flag_overrides(args):
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="cross-validate and refit one scheme")
    p.add_argument("--data", required=True)
    p.add_argument("--scheme", required=True, choices=["nbg", "ebg", "lasso"])
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--grid-size", type=int, default=100)
    p.add_argument("--min-ratio", type=float, default=0.05)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--split-communities", type=int, default=None,
                   metavar="SIZE")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cpm", help="connectome predictive modeling baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(func=cmd_cpm)

    p = sub.add_parser("evaluate", help="score a fit against a dataset")
    p.add_argument("--fit", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="simulate + fit + evaluate over a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
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
