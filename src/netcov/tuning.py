"""Cross-validated penalty tuning with the one-standard-error rule.

The lambda grid is computed once from the full training set and reused
across folds.  Every fold re-runs the whole preparation chain
(residualization, standardization, orthonormalization) on its own
training part, so held-out rows never influence the transformations
they are evaluated under.  The folds run as independent jobs on one
worker budget (:mod:`netcov.jobs`).  Their out-of-fold deviances, stacked
in fold order, are averaged per observation; the selected penalty is the
largest grid value whose mean deviance is within one standard error of
the minimum, and the model is then refit on the full training set at
that value, reusing the preparation that gave the grid.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .data import seeded_rng
from .jobs import run_jobs
from .pipeline import FittedModel, holdout_deviance, prepare
from .solver import GRID_SIZE, MIN_RATIO, fit_path, lambda_grid, lambda_max

__all__ = ["CVResult", "FitResult", "cross_validate", "select_and_refit",
           "one_se_select"]


@dataclass(frozen=True)
class CVResult:
    """Per-lambda out-of-fold deviance summary and the selected grid points.

    ``prepared`` is the preparation of the full training rows that gave the
    grid; :func:`select_and_refit` fits on it instead of preparing again.
    """

    lambdas: np.ndarray
    mean_deviance: np.ndarray
    se: np.ndarray
    fold_deviance: np.ndarray
    fold_assignment: np.ndarray
    index_min: int
    index_one_se: int
    prepared: object = field(default=None, compare=False, repr=False)

    @property
    def lambda_min(self):
        return float(self.lambdas[self.index_min])

    @property
    def lambda_one_se(self):
        return float(self.lambdas[self.index_one_se])


@dataclass
class FitResult:
    """A tuned fit: the refit model plus the whole path and CV summary."""

    model: FittedModel  # at the one-SE point
    index_hat: int
    path: object
    cv: CVResult

    @property
    def entry(self):
        return self.path.entries[self.index_hat]


def one_se_select(mean_deviance, se):
    """Indices of the minimizing lambda and the one-SE lambda.

    The grid is descending in lambda, so the one-SE choice is the
    smallest index whose mean deviance is within one standard error of
    the minimum.  Ties on the minimum go to the larger lambda.
    """
    mean_deviance = np.asarray(mean_deviance, dtype=np.float64)
    idx_min = int(np.argmin(mean_deviance))
    limit = mean_deviance[idx_min] + se[idx_min]
    idx_one_se = int(np.flatnonzero(mean_deviance <= limit)[0])
    return idx_min, idx_one_se


def _fold_assignment(y, folds, rng, family):
    """Round-robin deal of one seeded permutation of ``y``'s rows, class
    by class (stably) under the binomial family: fold sizes differ by at
    most one, and a class of two rows or more reaches two folds or more."""
    order = rng.permutation(y.size)
    if family == "binomial":
        order = order[np.argsort(y[order], kind="stable")]
    fold = np.empty(y.size, dtype=np.int64)
    fold[order] = np.arange(y.size) % folds
    return fold


def _fold_deviance(job):
    """One fold job: the held-out deviance along a path fit on ``train``."""
    dataset, spec, train, held_out, grid = job
    prep = prepare(dataset, spec, train)
    pf = fit_path(prep.problem, prep.basis, prep.emap, lambdas=grid)
    return holdout_deviance(prep.model, dataset, held_out, pf.entries)


def cross_validate(dataset, spec, folds, *, seed, grid_size=GRID_SIZE,
                   min_ratio=MIN_RATIO):
    """K-fold cross-validation of the penalty level over one lambda grid.

    The folds split the dataset's training rows, and the grid is
    ``lambda_grid(lambda_max(...), grid_size, min_ratio)`` on all of them.
    Deterministic given ``seed``: the folds deal one permutation from the
    fold stream ``(seed, 2)`` round robin, class by class under the
    binomial family.  A binomial class of fewer than two training rows is
    refused before any fit.
    """
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    rows = dataset.training_rows()
    if rows.size < folds:
        raise ValueError(f"{rows.size} training rows cannot fill {folds} folds")
    y = dataset.y[rows]
    if dataset.family == "binomial":
        counts = np.bincount(y.astype(np.int64), minlength=2)
        if counts.min() < 2:
            raise ValueError(f"the binomial training rows hold {counts[0]} "
                             f"of class 0 and {counts[1]} of class 1; "
                             "cross-validation needs 2 of each")

    prep_full = prepare(dataset, spec, rows)
    grid = lambda_grid(lambda_max(prep_full.problem), grid_size=grid_size,
                       min_ratio=min_ratio)
    assignment = _fold_assignment(y, folds, seeded_rng(seed, 2),
                                  dataset.family)

    fold_dev = np.vstack(run_jobs(_fold_deviance, [
        (dataset, spec, rows[assignment != f], rows[assignment == f], grid)
        for f in range(folds)]))

    mean_dev = fold_dev.mean(axis=0)
    se = fold_dev.std(axis=0, ddof=1) / np.sqrt(folds)
    idx_min, idx_one_se = one_se_select(mean_dev, se)
    return CVResult(
        lambdas=grid, mean_deviance=mean_dev, se=se, fold_deviance=fold_dev,
        fold_assignment=assignment, index_min=idx_min,
        index_one_se=idx_one_se, prepared=prep_full,
    )


def select_and_refit(cv):
    """Refit on the full training set at the one-SE lambda.

    Fits the whole path on the preparation that gave the grid, warm-started
    from lambda_max, so that the returned object also carries every grid
    entry for path reports and ROC curves; the headline coefficients are
    those at the one-SE point.  The returned FitResult's ``cv`` drops the
    preparation, so that keeping the summary does not keep the design.
    """
    prep = cv.prepared
    if prep is None:
        raise ValueError("the CV result carries no preparation to refit on")
    pf = fit_path(prep.problem, prep.basis, prep.emap, lambdas=cv.lambdas)
    entry = pf.entries[cv.index_one_se]
    return FitResult(
        model=replace(prep.model, mu=entry.mu, beta=entry.beta),
        index_hat=cv.index_one_se, path=pf, cv=replace(cv, prepared=None))
