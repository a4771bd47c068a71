"""Every CSV netcov writes or reads outside a dataset directory, each
writer next to its reader.

``netcov fit`` writes ``groups.csv``, ``cv.csv``, ``path.csv`` with one
``coef_<i>.csv`` per path point, ``coefficients.csv``,
``standardization.csv``, ``nuisance_model.csv`` and ``active_groups.csv``;
``evaluate`` reads back ``cv.csv`` and the coef files as the path it
scores and the next three as the fitted model.  ``simulate`` writes
``truth.csv`` and ``scenario.csv``, which ``evaluate`` reads, and
``evaluate`` and ``cpm`` write ``metrics.csv``, ``roc.csv`` and
``cpm_edges.csv``.  The blocks of a dataset directory and the
``key = value`` files (``manifest``, ``fit_info``, ``run_manifest``) belong
to :mod:`netcov.data`.  Numbers are written with ``repr`` (``%.17g`` in
the coef files), which round-trips float64 exactly.  A reader refuses
what no writer writes with a ValueError naming the file.
"""

import csv
import glob
import os
from itertools import pairwise
from types import SimpleNamespace

import numpy as np

from .data import (CSV_FMT, parse_int, parse_number, read_manifest,
                   read_number_csv, require_keys)
from .pipeline import FittedModel
from .preprocess import NuisanceModel
from .simulate import GroundTruth

__all__ = [
    "write_groups_csv", "write_cv_csv", "write_path_csv",
    "read_roc_path", "write_model", "read_fit", "write_active_groups_csv",
    "write_cpm_edges", "write_truth_csv", "load_truth_csv",
    "write_scenario_csv", "read_scenario", "write_metrics_csv",
    "write_roc_csv",
]

# a cell's scenario, copied into each metrics.csv row of that cell
SCENARIO_COLUMNS = ("scheme", "family", "n_active", "alpha",
                    "difficulty_metric", "difficulty")
METRICS_COLUMNS = SCENARIO_COLUMNS + ("method", "recall", "precision",
                                      "correlation", "accuracy")
COEF_NAME = "coef_{}.csv"  # path point i's coefficients: coef_000.csv, ...


def write_csv(path, header, rows):
    """A header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _require_finite(path, name, values):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: {name} is not finite")


def _labelled_row(label, values):
    return [label] + [repr(float(v)) for v in values]


def _read_labelled(path, width=None):
    """A CSV whose lines under the header are a label and numbers, as
    (header, labels, values) with one row of ``values`` per line.  Every
    line, the header too, has ``width`` + 1 fields, or without ``width``
    as many as the header, which must name at least one value; another
    length or a value that is not a number is a data error."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    fields = len(header) if width is None else width + 1
    if fields < 2:
        raise ValueError(f"{path}: the header names no values")
    for line, row in enumerate([header, *rows], 1):
        if len(row) != fields:
            raise ValueError(f"{path}: line {line} has {len(row)} fields, "
                             f"expected {fields}")
    values = np.empty((len(rows), fields - 1))
    for line, (row, out) in enumerate(zip(rows, values), 2):
        try:
            out[:] = [float(v) for v in row[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {line} holds a value that is "
                             "not a number") from None
    return header, [row[0] for row in rows], values


# ---------------------------------------------------------------------------
# per-feature files: coefficients, standardization, truth

def _write_feature_csv(path, header, columns, features=None):
    """One row per feature (every one, or those in ``features``): its
    index, then its value in each of ``columns``."""
    if features is None:
        features = range(len(columns[0]))
    write_csv(path, ["feature_index"] + header,
              (_labelled_row(int(j), [c[j] for c in columns])
               for j in features))


def _read_feature_csv(path, p, width, sparse=False):
    """The ``width`` value columns of a per-feature CSV as length-p
    arrays.  Every feature is listed exactly once, unless the file is
    ``sparse``: then a feature may be left out and its values are 0.0.
    An index that is not an integer, outside 0..p-1 or listed twice, a
    missing feature, or a value that is not a finite number is a data
    error naming the file."""
    header, labels, values = _read_labelled(path, width)
    columns = np.zeros((width, p))
    listed = np.zeros(p, dtype=bool)
    for line, (label, row) in enumerate(zip(labels, values), 2):
        try:
            j = int(label)
        except ValueError:
            raise ValueError(f"{path}: line {line} has feature index "
                             f"{label!r}, not an integer") from None
        if not 0 <= j < p:
            raise ValueError(f"{path}: feature index {j} outside 0..{p - 1}")
        if listed[j]:
            raise ValueError(f"{path}: feature index {j} is listed twice")
        listed[j] = True
        columns[:, j] = row
    if not (sparse or listed.all()):
        missing = np.flatnonzero(~listed)
        raise ValueError(f"{path}: {missing.size} of {p} features are not "
                         f"listed (first few: {missing[:5].tolist()})")
    for name, column in zip(header[1:], columns):
        _require_finite(path, name, column)
    return list(columns)


def write_truth_csv(truth, path):
    """``truth.csv``: each nonzero generative coefficient, once."""
    _write_feature_csv(path, ["beta"], [truth.beta],
                       np.flatnonzero(truth.beta))


def load_truth_csv(path, p):
    """The ground truth :func:`write_truth_csv` wrote."""
    beta, = _read_feature_csv(path, p, 1, sparse=True)
    return GroundTruth(beta=beta, mu=0.0, active_features=np.flatnonzero(beta),
                       active_groups=())


# ---------------------------------------------------------------------------
# fit directory

def write_groups_csv(spec, path):
    """Audit export: one row per (group_name, feature_index), contract order."""
    write_csv(path, ["group", "feature_index"],
              ([name, int(j)] for name, members in zip(spec.names, spec.members)
               for j in members))


def write_cv_csv(cv, path):
    """``cv.csv``: lambda, mean deviance, SE, selection flags."""
    write_csv(path, ["lambda", "mean_deviance", "se", "is_min", "is_one_se"],
              ([repr(float(lam)), repr(float(cv.mean_deviance[i])),
                repr(float(cv.se[i])), int(i == cv.index_min),
                int(i == cv.index_one_se)]
               for i, lam in enumerate(cv.lambdas)))


def _group_norms(path_fit, entry):
    """Each group's coefficient norm at a path entry: one
    ``np.linalg.norm`` per group, whose last bit can differ from the
    solver's reduceat norms."""
    return [float(np.linalg.norm(entry.beta_tilde[s0:s1]))
            for s0, s1 in pairwise(path_fit.offsets.tolist())]


def write_path_csv(path_fit, directory):
    """``path.csv``, each group's norm at each path point, and one
    ``coef_<i>.csv`` per point; another run's coef files go first."""
    for stale in glob.glob(os.path.join(glob.escape(directory),
                                        COEF_NAME.format("[0-9]" * 3 + "*"))):
        os.remove(stale)

    def rows():
        for i, entry in enumerate(path_fit.entries):
            # a set: a test on the tuple would be quadratic in the groups
            active = set(entry.active_groups)
            for name, norm in zip(path_fit.group_names,
                                  _group_norms(path_fit, entry)):
                yield [i, repr(entry.lam), name, int(name in active),
                       repr(norm)]

    write_csv(os.path.join(directory, "path.csv"),
              ["lambda_index", "lambda", "group", "active", "group_norm"],
              rows())
    for i, entry in enumerate(path_fit.entries):
        np.savetxt(os.path.join(directory, COEF_NAME.format(f"{i:03d}")),
                   entry.beta.reshape(-1, 1), fmt=CSV_FMT, delimiter=",")


def read_roc_path(fit_dir, p):
    """The fitted path as ROC input: the lambda grid from ``cv.csv`` (one
    row per point, the values ``path.csv`` repeats per group) and each
    point's coefficients from its ``coef_<i>.csv``."""
    cv_path = os.path.join(fit_dir, "cv.csv")
    with open(cv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        require_keys(cv_path, reader.fieldnames or (), ("lambda",))
        lams = [parse_number(f"{cv_path}: lambda", r["lambda"])
                for r in reader]
    if not lams:
        raise ValueError(f"{cv_path}: lists no lambda")
    entries = []
    for i, lam in enumerate(lams):
        path = os.path.join(fit_dir, COEF_NAME.format(f"{i:03d}"))
        try:
            coef = read_number_csv(path).reshape(-1)
        except ValueError:
            raise ValueError(f"{path} holds a value that is not a "
                             "number") from None
        if coef.size != p:
            raise ValueError(f"{path} has {coef.size} rows, expected {p}")
        _require_finite(path, "beta", coef)
        entries.append(SimpleNamespace(lam=lam, beta=coef))
    return SimpleNamespace(entries=entries)


def write_model(model, out_dir):
    """A FittedModel's arrays; its scalars go to ``fit_info``.  Without a
    nuisance model, another run's ``nuisance_model.csv`` is removed."""
    _write_feature_csv(os.path.join(out_dir, "coefficients.csv"), ["beta"],
                       [model.beta])
    _write_feature_csv(os.path.join(out_dir, "standardization.csv"),
                       ["mean", "sd"], [model.column_means, model.column_sds])
    path = os.path.join(out_dir, "nuisance_model.csv")
    nm = model.nuisance_model
    if nm is None:
        if os.path.exists(path):
            os.remove(path)
        return
    rows = [_labelled_row(f"f{j}", nm.feature_coefs[:, j])
            for j in range(nm.feature_coefs.shape[1])]
    if nm.y_coefs is not None:
        rows.append(_labelled_row("y", nm.y_coefs))
    write_csv(path, ["target"] + [f"c{j}" for j in
                                  range(nm.feature_coefs.shape[0])], rows)


def _read_nuisance_model(path, p, family):
    """The NuisanceModel :func:`write_model` wrote for a fit of ``p``
    features: a header ``target,c0,...,c<q>``, then the rows ``f0`` to
    ``f<p-1>`` in order and, for the gaussian family only, a row ``y``,
    each with q+1 finite numbers."""
    header, labels, values = _read_labelled(path)
    targets = [f"f{j}" for j in range(p)] + ["y"] * (family == "gaussian")
    if len(labels) != len(targets):
        raise ValueError(f"{path}: {len(labels)} rows, expected "
                         f"{len(targets)}: f0 to f{p - 1}"
                         + (" and y" if family == "gaussian" else ""))
    for line, (label, target, row) in enumerate(zip(labels, targets, values),
                                                2):
        if label != target:
            raise ValueError(f"{path}: line {line} is row {label!r}, "
                             f"expected {target!r}")
        _require_finite(path, f"row {target}", row)
    return NuisanceModel(feature_coefs=values[:p].T,
                         y_coefs=values[p] if family == "gaussian" else None,
                         q=len(header) - 2)


def read_fit(fit_dir, dataset):
    """The method and FittedModel that ``netcov fit`` wrote to ``fit_dir``,
    to score on ``dataset``.  A missing ``fit_info`` key, a fit of another
    p or family, a value that is not a finite number, a negative sd or a
    y_sd not above 0 is a data error."""
    info_path = os.path.join(fit_dir, "fit_info")
    info = read_manifest(info_path)
    require_keys(info_path, info, ("family", "p", "intercept", "y_mean",
                                   "y_sd", "method"))
    p = dataset.index.p
    if parse_int(f"{info_path}: p", info["p"], 1) != p:
        raise ValueError(
            f"fit was trained with p={info['p']} but dataset has p={p}")
    if info["family"] != dataset.family:
        raise ValueError(f"fit was trained on the {info['family']} family "
                         f"but dataset is {dataset.family}")
    beta, = _read_feature_csv(os.path.join(fit_dir, "coefficients.csv"), p, 1)
    std_path = os.path.join(fit_dir, "standardization.csv")
    means, sds = _read_feature_csv(std_path, p, 2)
    if np.any(sds < 0.0):
        raise ValueError(f"{std_path}: sd is negative")
    mu = parse_number(f"{info_path}: intercept", info["intercept"])
    y_mean, y_sd = (None if info[key] == "NA"
                    else parse_number(f"{info_path}: {key}", info[key])
                    for key in ("y_mean", "y_sd"))
    if y_sd is not None and y_sd <= 0.0:
        raise ValueError(f"{info_path}: y_sd is not positive")
    nm_path = os.path.join(fit_dir, "nuisance_model.csv")
    return info["method"], FittedModel(
        family=info["family"], mu=mu, beta=beta, column_means=means,
        column_sds=sds, y_mean=y_mean, y_sd=y_sd,
        nuisance_model=(_read_nuisance_model(nm_path, p, dataset.family)
                        if os.path.exists(nm_path) else None),
    )


def write_active_groups_csv(path_fit, entry, path):
    """``active_groups.csv``: each group with a nonzero norm at ``entry``."""
    write_csv(path, ["group", "norm"],
              ([name, repr(norm)] for name, norm in
               zip(path_fit.group_names, _group_norms(path_fit, entry))
               if norm > 0))


# ---------------------------------------------------------------------------
# CPM, scenario and evaluation files

def write_cpm_edges(model, idx, path):
    """``cpm_edges.csv``: selected edges with node pair, r, p and sign."""
    pairs = idx.edge_pairs()
    write_csv(path, ["edge_index", "node_k", "node_l", "r", "p", "sign"],
              ([int(j), int(pairs[0, j]) + 1, int(pairs[1, j]) + 1,
                repr(float(model.r_values[j])),
                repr(float(model.p_values[j])), sign]
               for sign, edges in (("+", model.positive_edges),
                                   ("-", model.negative_edges))
               for j in edges))


def write_scenario_csv(path, scheme, family, n_active, alpha, metric, value,
                       seed, replicate):
    """``scenario.csv``: a cell's scenario columns, seed and replicate.
    Returns the scenario columns as the strings written, which is what
    :func:`read_scenario` gives back."""
    row = [scheme, family, str(n_active), repr(float(alpha)), metric,
           repr(float(value)), str(seed), str(replicate)]
    write_csv(path, SCENARIO_COLUMNS + ("seed", "replicate"), [row])
    return dict(zip(SCENARIO_COLUMNS, row))


def read_scenario(data_dir):
    """The scenario columns of a dataset's ``scenario.csv`` as written, or
    none without that file.  A missing column, anything but exactly one
    row of the header's length under it, or a value no cell can have is a
    data error naming the file (and the key)."""
    path = os.path.join(data_dir, "scenario.csv")
    if not os.path.exists(path):
        return {}
    with open(path, newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if row] or [[]]
    require_keys(path, header, SCENARIO_COLUMNS)
    if len(rows) != 1 or len(rows[0]) != len(header):
        raise ValueError(f"{path}: expected one full row under the header")
    row = dict(zip(header, rows[0]))
    parse_int(f"{path}: n_active", row["n_active"], 1)
    for key in ("alpha", "difficulty"):
        parse_number(f"{path}: {key}", row[key])
    for key, allowed in (("scheme", ("ebg", "nbg")),
                         ("family", ("gaussian", "binomial")),
                         ("difficulty_metric", ("snr", "bayes_error"))):
        if row[key] not in allowed:
            raise ValueError(f"{path}: {key} must be {' or '.join(allowed)}"
                             f", got {row[key]!r}")
    return {key: row[key] for key in SCENARIO_COLUMNS}


def _fmt(value):
    if value is None:
        return "NA"
    if isinstance(value, float) and np.isnan(value):
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return value


def write_metrics_csv(path, rows):
    """Tidy per-cell metrics table; one row per (cell, method)."""
    write_csv(path, METRICS_COLUMNS,
              ([_fmt(row.get(c)) for c in METRICS_COLUMNS] for row in rows))


def write_roc_csv(path, labelled_points):
    """``roc.csv``: method, lambda, fpr, tpr, fdr for each path point."""
    write_csv(path, ["method", "lambda", "fpr", "tpr", "fdr"],
              ([method, _fmt(float(pt["lambda"])), _fmt(pt["fpr"]),
                _fmt(pt["tpr"]), _fmt(pt["fdr"])]
               for method, points in labelled_points for pt in points))
