"""End-to-end preparation of a penalized problem from a dataset.

The chain is always: optional nuisance residualization (coefficients
from training rows), column/response standardization (training
statistics), overlap expansion of the chosen feature groups, groupwise
orthonormalization (training rows), then the solver-ready problem.
Test rows are transformed with the training-fitted parameters only.
A :class:`FittedModel` carries those parameters with the coefficients
of one fit, so that predictions can be made away from the training data.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .data import build_design
from .groups import expand, scheme_groups, split_communities
from .preprocess import (apply_nuisance, apply_standardization, orthonormalize,
                         residualize_nuisance, standardize)
from .solver import PenalizedProblem, deviance

__all__ = ["Prepared", "FittedModel", "make_groups", "nuisance_corrected",
           "prepare", "inverse_link", "predict_eta",
           "predict_response", "holdout_deviance"]


@dataclass(frozen=True)
class Prepared:
    """Everything needed to fit on the training rows and predict anywhere."""

    problem: PenalizedProblem
    basis: object
    emap: object
    spec: object
    design_std: object   # DesignMatrix over all rows, training statistics
    y_std: np.ndarray    # response aligned with design rows (standardized if gaussian)
    nuisance_model: object
    train_rows: np.ndarray
    dataset: object      # the Dataset prepared from


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
    """Raw design and response with the training-fitted nuisance correction.

    Returns (DesignMatrix, y, NuisanceModel or None).  The response stays
    0/1 under the binomial family; only the features are corrected there.
    """
    design = build_design(dataset)
    if dataset.nuisance is None:
        return design, dataset.y, None
    Z, y, model = residualize_nuisance(
        design.Z, dataset.y, dataset.nuisance, train_rows,
        residualize_y=(dataset.family == "gaussian"),
    )
    return replace(design, Z=Z), y, model


def prepare(dataset, spec, train_rows=None):
    """Residualize, standardize, expand and orthonormalize for one fit."""
    train_rows = dataset.training_rows(train_rows)
    design, y, nuisance_model = nuisance_corrected(dataset, train_rows)
    design_std, y_std = standardize(design, y, train_rows, dataset.family)
    del design  # a full copy of the corrected design, not needed past here
    if y_std is None:
        y_std = np.asarray(y, dtype=np.float64)

    emap = expand(spec)
    U, basis, multipliers = orthonormalize(design_std.Z[train_rows], emap,
                                           spec.names)
    kept_names = tuple(spec.names[gi] for gi in basis.kept)
    problem = PenalizedProblem(
        U=U, y=y_std[train_rows], family=dataset.family,
        slices=basis.u_slices, multipliers=multipliers, names=kept_names,
    )
    return Prepared(problem=problem, basis=basis, emap=emap, spec=spec,
                    design_std=design_std, y_std=y_std,
                    nuisance_model=nuisance_model, train_rows=train_rows,
                    dataset=dataset)


@dataclass(frozen=True)
class FittedModel:
    """What prediction needs from a fit: the coefficients in original
    feature space and the transforms learned on the training rows."""

    family: str
    mu: float
    beta: np.ndarray
    column_means: np.ndarray
    column_sds: np.ndarray
    y_mean: float = None  # response scale; None when y was not standardized
    y_sd: float = None
    nuisance_model: object = None

    def predict(self, dataset, rows):
        """(predictions, observed response) on the given dataset rows.

        The observed response is nuisance-corrected like the training
        response, so the two are on the same scale.
        """
        Z, y = build_design(dataset).Z, dataset.y
        if self.nuisance_model is not None:
            Z, y = apply_nuisance(self.nuisance_model, Z, dataset.nuisance, y)
        eta = self.mu + apply_standardization(self, Z[rows]) @ self.beta
        return inverse_link(self.family, eta, self.y_mean, self.y_sd), y[rows]


def inverse_link(family, eta, y_mean=None, y_sd=None):
    """Response scale: de-standardized mean (gaussian) or probability."""
    if family != "gaussian":
        return expit(eta)
    if y_mean is None:
        return eta
    return y_mean + y_sd * eta


def predict_eta(prepared, mu, beta, rows):
    """Linear predictor for the given rows from original-space coefficients."""
    return mu + prepared.design_std.Z[rows] @ beta


def predict_response(prepared, mu, beta, rows, family):
    """Response-scale predictions: de-standardized mean or probability."""
    eta = predict_eta(prepared, mu, beta, rows)
    design = prepared.design_std
    return inverse_link(family, eta, design.y_mean, design.y_sd)


def holdout_deviance(prepared, mu, beta, rows, family):
    """Per-observation deviance of a fit on held-out rows."""
    eta = predict_eta(prepared, mu, beta, rows)
    return deviance(family, prepared.y_std[rows], eta) / len(rows)
