"""End-to-end preparation of a penalized problem from a dataset.

The chain is always: optional nuisance residualization, column/response
standardization, overlap expansion of the chosen feature groups, then
groupwise orthonormalization into the solver-ready problem.  Only the
training rows are transformed, and their N x p design is never built
whole.  One pass over column chunks of the raw training rows learns the
transforms (the nuisance coefficients, the column means and sds); then
each batch of groups is read from the raw rows and transformed alone.
The transforms are kept as a :class:`FittedModel`, and
:meth:`FittedModel.transform` is the one route by which any rows
(training blocks, held-out folds, test rows, another dataset) reach the
standardized design.
"""

import warnings
from dataclasses import dataclass, replace
from itertools import pairwise

import numpy as np
from scipy.special import expit

from .data import build_design
from .groups import expand, scheme_groups, split_communities
from .preprocess import (apply_nuisance, apply_standardization, orthonormalize,
                         residualize_nuisance, standardize)
from .solver import PenalizedProblem, deviance

__all__ = ["Prepared", "FittedModel", "make_groups", "nuisance_corrected",
           "corrected_rows", "prepare", "holdout_deviance"]


@dataclass(frozen=True)
class Prepared:
    """The solver-ready problem of one set of training rows, the maps back
    to the original features, and the training transforms as a
    :class:`FittedModel` that carries no coefficients yet."""

    problem: PenalizedProblem
    basis: object
    emap: object
    model: "FittedModel"


@dataclass(frozen=True)
class FittedModel:
    """What prediction needs from a fit: the transforms learned on the
    training rows and, once a fit sets them, the coefficients in original
    feature space.  A column constant on the training rows has sd 0, so
    it contributes 0 to every prediction."""

    family: str
    column_means: np.ndarray
    column_sds: np.ndarray
    y_mean: float = None  # response scale; None when y was not standardized
    y_sd: float = None
    nuisance_model: object = None
    mu: float = None
    beta: np.ndarray = None

    def transform(self, dataset, rows, columns=None):
        """(standardized design, observed response) of ``dataset``'s rows:
        all columns of the design, or the design columns ``columns``.

        Both are nuisance-corrected like the training rows; the response
        stays on its original scale.
        """
        Z, y = corrected_rows(self.nuisance_model, dataset, rows, columns)
        at = slice(None) if columns is None else columns
        return (apply_standardization(self.column_means[at],
                                      self.column_sds[at], Z, out=Z), y)

    def predict(self, dataset, rows):
        """(predictions, observed response) on the given dataset rows."""
        Z, y = self.transform(dataset, rows)
        eta = self.mu + Z @ self.beta
        if self.family == "gaussian":
            return self.y_mean + self.y_sd * eta, y
        return expit(eta), y


def make_groups(dataset, scheme, split_target=None, seed=None):
    """Build the GroupSpec for a scheme, optionally after community splitting.

    Returns (spec, community_map_used); the community map differs from
    the dataset's only when ``split_target`` is given, with a ``seed``.
    """
    cm = dataset.communities
    if split_target is not None:
        cm = split_communities(cm, split_target, seed)
    return scheme_groups(scheme, cm, dataset.index), cm


def nuisance_corrected(dataset, train_rows):
    """Raw design and response of the training rows, nuisance-corrected.

    Returns (Z, y, NuisanceModel or None); the correction is fitted on
    these rows.  The response stays 0/1 under the binomial family; only
    the features are corrected there.
    """
    Z, y = build_design(dataset, train_rows), dataset.y[train_rows]
    if dataset.nuisance is None:
        return Z, y, None
    return residualize_nuisance(
        Z, y, dataset.nuisance[train_rows],
        residualize_y=(dataset.family == "gaussian"),
    )


def corrected_rows(nuisance_model, dataset, rows, columns=None):
    """Raw design (all columns, or ``columns``) and response of ``rows``
    under a training-fitted nuisance correction (None: the training rows
    had no nuisance columns)."""
    q_fit = 0 if nuisance_model is None else nuisance_model.q
    q_data = 0 if dataset.nuisance is None else dataset.nuisance.shape[1]
    if q_fit != q_data:
        raise ValueError(
            f"dataset has {q_data} nuisance columns but the fit was trained "
            f"with {q_fit}")
    Z, y = build_design(dataset, rows, columns), dataset.y[rows]
    if nuisance_model is None:
        return Z, y
    if columns is not None:
        nuisance_model = replace(
            nuisance_model, feature_coefs=nuisance_model.feature_coefs[:, columns])
    return apply_nuisance(nuisance_model, Z, dataset.nuisance[rows], y)


# Columns of the raw training rows per pass of prepare's statistics.  The
# passes start at multiples of this and the last takes the remainder with
# it: BLAS runs other kernels on a narrow or misaligned ``P @ Z``, which
# round apart from one product over the whole design.
_PASS_COLUMNS = 4096


def _learn_transforms(dataset, rows):
    """(FittedModel without coefficients, transformed response) of the
    training rows, from one pass over column chunks of their raw design,
    each through ``residualize_nuisance`` and ``standardize``."""
    p = dataset.index.p
    stops = [*range(_PASS_COLUMNS, p - _PASS_COLUMNS + 1, _PASS_COLUMNS), p]
    y = dataset.y[rows]
    nuisance = None if dataset.nuisance is None else dataset.nuisance[rows]
    coefs, stats = [], []
    with warnings.catch_warnings():
        for c0, c1 in pairwise([0, *stops]):
            Z, y_c = build_design(dataset, rows, np.arange(c0, c1)), y
            if nuisance is not None:
                Z, y_c, nuisance_model = residualize_nuisance(
                    Z, y, nuisance, residualize_y=(dataset.family == "gaussian"))
                coefs.append(nuisance_model.feature_coefs)
                # every pass fits the same nuisance matrix: warn once
                warnings.filterwarnings("ignore", "nuisance matrix")
            _, y_std, chunk = standardize(Z, y_c, dataset.family)
            stats.append(chunk)
    model = FittedModel(
        family=dataset.family, nuisance_model=replace(
            nuisance_model, feature_coefs=np.hstack(coefs)) if coefs else None,
        y_mean=chunk["y_mean"], y_sd=chunk["y_sd"],
        column_means=np.concatenate([c["column_means"] for c in stats]),
        column_sds=np.concatenate([c["column_sds"] for c in stats]))
    return model, y_std


class _TrainingBlocks:
    """The standardized design of the training rows as ``orthonormalize``
    reads it: ``.shape``, and ``[:, cols]`` gathers those columns from the
    raw rows and transforms them alone."""

    def __init__(self, model, dataset, rows):
        self.shape = (rows.size, model.column_means.size)
        self._source = model, dataset, rows

    def __getitem__(self, key):
        model, dataset, rows = self._source
        return model.transform(dataset, rows, key[1])[0]


def prepare(dataset, spec, train_rows=None):
    """Residualize, standardize, expand and orthonormalize the training
    rows, one column chunk and then one batch of groups at a time."""
    train_rows = dataset.training_rows(train_rows)
    model, y = _learn_transforms(dataset, train_rows)
    emap = expand(spec)
    U, basis, multipliers = orthonormalize(
        _TrainingBlocks(model, dataset, train_rows), emap, spec.names)
    kept_names = tuple(spec.names[gi] for gi in basis.kept)
    problem = PenalizedProblem(
        U=U, y=y, family=dataset.family,
        offsets=basis.offsets, multipliers=multipliers, names=kept_names,
    )
    return Prepared(problem=problem, basis=basis, emap=emap, model=model)


def holdout_deviance(model, dataset, rows, entries):
    """Per-observation deviance on held-out rows of each path entry, under
    the training transforms of ``model``."""
    Z, y = model.transform(dataset, rows)
    if model.y_mean is not None:
        y = (y - model.y_mean) / model.y_sd
    return np.array([deviance(model.family, y, e.mu + Z @ e.beta) / len(rows)
                     for e in entries])
