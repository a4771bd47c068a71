"""Connectome predictive modeling (CPM) baseline.

CPM is a three-step procedure on edge weights only: marginal screening
of every edge against the response (Pearson correlation with a two-sided
t-test p-value), aggregation of the surviving edges into two per-subject
sums split by correlation sign, and a simple OLS regression of the
response on the two sums.  Node covariates are never read.
"""

from dataclasses import dataclass

import numpy as np
from scipy import stats

__all__ = ["CpmModel", "cpm_fit", "cpm_predict"]

CPM_ALPHA = 0.01  # the default p-value threshold for edge screening


@dataclass(frozen=True)
class CpmModel:
    """Screened edge sets (disjoint, edge coordinates only) and regression fit."""

    positive_edges: np.ndarray
    negative_edges: np.ndarray
    intercept: float
    slope_pos: float
    slope_neg: float
    threshold: float
    r_values: np.ndarray
    p_values: np.ndarray


def _edge_correlations(E, y):
    """Pearson r of every edge column with y; zero-variance columns get r=0."""
    yc = y - y.mean()
    ny = np.linalg.norm(yc)
    Ec = E - E.mean(axis=0)
    ne = np.linalg.norm(Ec, axis=0)
    safe = np.where(ne == 0.0, 1.0, ne)
    r = (Ec.T @ yc) / (safe * ny)
    r[ne == 0.0] = 0.0
    return np.clip(r, -1.0, 1.0)


def check_cpm_alpha(alpha):
    """``alpha`` if it is a number in (0, 1], else a ValueError naming it."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"CPM alpha must be a number in (0, 1], got {alpha!r}")
    return alpha


def cpm_fit(Z, y, idx, alpha=CPM_ALPHA):
    """Fit CPM on a raw training design.

    Parameters
    ----------
    Z : ndarray (N, p)
        Raw (unstandardized) design in canonical order; only the edge
        block is used.
    y : ndarray (N,)
        Continuous response.
    idx : FeatureIndex
        Locates the edge block.
    alpha : float
        Two-sided p-value threshold for edge screening, in (0, 1].
    """
    check_cpm_alpha(alpha)
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    N = y.size
    if N <= 2:
        raise ValueError("CPM needs at least 3 training rows")
    if np.all(y == y[0]):
        raise ValueError("response has zero variance")
    E = Z[:, : idx.n_edges]
    r = _edge_correlations(E, y)
    with np.errstate(divide="ignore"):
        t = r * np.sqrt((N - 2) / np.maximum(1.0 - r * r, 1e-300))
    p = 2.0 * stats.t.sf(np.abs(t), df=N - 2)
    selected = p < alpha
    pos = np.flatnonzero(selected & (r > 0))
    neg = np.flatnonzero(selected & (r < 0))

    columns = [np.ones(N)]
    if pos.size:
        columns.append(E[:, pos].sum(axis=1))
    if neg.size:
        columns.append(E[:, neg].sum(axis=1))
    coefs, *_ = np.linalg.lstsq(np.column_stack(columns), y, rcond=None)
    intercept = float(coefs[0])
    slope_pos = float(coefs[1]) if pos.size else 0.0
    slope_neg = float(coefs[-1]) if neg.size else 0.0
    return CpmModel(
        positive_edges=pos, negative_edges=neg, intercept=intercept,
        slope_pos=slope_pos, slope_neg=slope_neg, threshold=float(alpha),
        r_values=r, p_values=p,
    )


def cpm_predict(model, Z, idx):
    """Predict responses: intercept + slopes on the two sign-split edge sums."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[1] != idx.p:
        raise ValueError(f"design has {Z.shape[1]} columns, expected p={idx.p}")
    E = Z[:, : idx.n_edges]
    yhat = np.full(Z.shape[0], model.intercept)
    if model.positive_edges.size:
        yhat = yhat + model.slope_pos * E[:, model.positive_edges].sum(axis=1)
    if model.negative_edges.size:
        yhat = yhat + model.slope_neg * E[:, model.negative_edges].sum(axis=1)
    return yhat
