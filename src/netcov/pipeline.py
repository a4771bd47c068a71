"""End-to-end preparation of a penalized problem from a dataset.

The chain is always: optional nuisance residualization, column/response
standardization, overlap expansion of the chosen feature groups, then
groupwise orthonormalization into the solver-ready problem.  Only the
training rows are built and transformed.  The transforms learned on them
are kept as a :class:`FittedModel`, and :meth:`FittedModel.transform` is
the one route by which any other rows (held-out folds, test rows, another
dataset) reach a prediction.
"""

from dataclasses import dataclass

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

    def transform(self, dataset, rows):
        """(standardized design, observed response) of ``dataset``'s rows.

        Both are nuisance-corrected like the training rows; the response
        stays on its original scale.
        """
        Z, y = corrected_rows(self.nuisance_model, dataset, rows)
        return apply_standardization(self.column_means, self.column_sds, Z), y

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
    the dataset's only when ``split_target`` is given.
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


def corrected_rows(nuisance_model, dataset, rows):
    """Raw design and response of ``rows`` under a training-fitted nuisance
    correction (None: the training rows had no nuisance columns)."""
    q_fit = 0 if nuisance_model is None else nuisance_model.q
    q_data = 0 if dataset.nuisance is None else dataset.nuisance.shape[1]
    if q_fit != q_data:
        raise ValueError(
            f"dataset has {q_data} nuisance columns but the fit was trained "
            f"with {q_fit}")
    Z, y = build_design(dataset, rows), dataset.y[rows]
    if nuisance_model is None:
        return Z, y
    return apply_nuisance(nuisance_model, Z, dataset.nuisance[rows], y)


def prepare(dataset, spec, train_rows=None):
    """Residualize, standardize, expand and orthonormalize the training rows."""
    train_rows = dataset.training_rows(train_rows)
    Z, y, nuisance_model = nuisance_corrected(dataset, train_rows)
    Z, y, stats = standardize(Z, y, dataset.family)

    emap = expand(spec)
    U, basis, multipliers = orthonormalize(Z, emap, spec.names)
    kept_names = tuple(spec.names[gi] for gi in basis.kept)
    problem = PenalizedProblem(
        U=U, y=y, family=dataset.family,
        slices=basis.u_slices, multipliers=multipliers, names=kept_names,
    )
    model = FittedModel(family=dataset.family, nuisance_model=nuisance_model,
                        **stats)
    return Prepared(problem=problem, basis=basis, emap=emap, model=model)


def holdout_deviance(model, dataset, rows, entries):
    """Per-observation deviance on held-out rows of each path entry, under
    the training transforms of ``model``."""
    Z, y = model.transform(dataset, rows)
    if model.y_mean is not None:
        y = (y - model.y_mean) / model.y_sd
    return np.array([deviance(model.family, y, e.mu + Z @ e.beta) / len(rows)
                     for e in entries])
