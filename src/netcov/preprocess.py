"""Standardization, nuisance residualization, groupwise orthonormalization.

Everything here learns its parameters from training rows only and then
applies them to all rows, so held-out data never leaks into the fitted
transformations.

Columns are standardized to mean 0 and variance 1 under the 1/N
(population) convention.  A continuous response is standardized the same
way; binary responses are left untouched.

Groupwise orthonormalization replaces each group's column block of the
expanded design by an orthonormal basis of its column space (thin SVD
truncated at numerical rank), which turns the group penalty into a
penalty on each group's contribution to the linear predictor and makes
the per-group solver update a closed-form shrinkage.  Rank-deficient
groups get their penalty multiplier scaled by sqrt(rank) instead of
sqrt(size).  :func:`back_transform` inverts both the orthonormalization
and the variable duplication; the linear predictor is preserved exactly.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .groups import fold_back

__all__ = [
    "NuisanceModel",
    "OrthoBasis",
    "standardize",
    "apply_standardization",
    "residualize_nuisance",
    "apply_nuisance",
    "orthonormalize",
    "back_transform",
]

RANK_TOL = 1e-10  # singular value kept iff > RANK_TOL * s_max of its group


def standardize(design, y=None, train_rows=None, family="gaussian"):
    """Standardize columns (and a continuous response) with training stats.

    Parameters
    ----------
    design : DesignMatrix
        Raw design; all rows are transformed, statistics come from
        ``train_rows`` only.
    y : ndarray, optional
        Response vector aligned with the design rows.
    train_rows : ndarray, optional
        0-based training row indices; defaults to all rows.
    family : str
        ``gaussian`` standardizes y too; ``binomial`` leaves it alone.

    Returns
    -------
    (DesignMatrix, ndarray or None)
        A new design with transformed Z and recorded statistics, and the
        transformed response.  Zero-variance training columns are flagged
        in ``constant_columns`` and end up identically zero.
    """
    Z = design.Z
    if train_rows is None:
        train_rows = np.arange(Z.shape[0])
    train_rows = np.asarray(train_rows, dtype=np.int64)
    if train_rows.size < 2:
        raise ValueError("standardization needs at least 2 training rows")
    T = Z[train_rows]
    means = T.mean(axis=0)
    sds = T.std(axis=0)  # 1/N convention
    # numerically constant columns: the tolerance absorbs the float dust a
    # constant column picks up from mean subtraction
    constant = sds <= 1e-10 * np.maximum(1.0, np.abs(means))
    safe = np.where(constant, 1.0, sds)
    Z_std = np.where(constant, 0.0, (Z - means) / safe)

    y_std = y
    y_mean = y_sd = None
    if y is not None and family == "gaussian":
        y = np.asarray(y, dtype=np.float64)
        y_mean = float(y[train_rows].mean())
        y_sd = float(y[train_rows].std())
        if y_sd == 0.0:
            raise ValueError("response is constant on the training rows")
        y_std = (y - y_mean) / y_sd
    out = replace(design, Z=Z_std, column_means=means, column_sds=safe,
                  constant_columns=constant, y_mean=y_mean, y_sd=y_sd)
    return out, y_std


def apply_standardization(design, Z_new):
    """Transform new raw rows with the training statistics of ``design``
    (a standardized DesignMatrix, or a FittedModel)."""
    if design.column_means is None:
        raise ValueError("design carries no standardization statistics")
    return (Z_new - design.column_means) / design.column_sds


@dataclass(frozen=True)
class NuisanceModel:
    """Training-fitted regression of every feature (and y) on nuisance columns.

    ``feature_coefs`` is (q+1, p): intercept row plus one row per
    nuisance column.  ``y_coefs`` is (q+1,) or None when the response was
    not residualized (binary family).
    """

    feature_coefs: np.ndarray
    y_coefs: np.ndarray
    q: int


def _design_with_intercept(nuisance):
    return np.column_stack([np.ones(nuisance.shape[0]), nuisance])


def residualize_nuisance(Z, y, nuisance, train_rows=None, residualize_y=True):
    """Remove nuisance-predicted values from features (and response).

    An OLS model intercept + nuisance -> column is fitted on training
    rows for every feature column (and the response when
    ``residualize_y``); its predictions are subtracted from all rows.

    Returns (Z_corrected, y_corrected, NuisanceModel).
    """
    Z = np.asarray(Z, dtype=np.float64)
    nuisance = np.atleast_2d(np.asarray(nuisance, dtype=np.float64))
    if nuisance.shape[0] != Z.shape[0]:
        raise ValueError("nuisance must have one row per observation")
    if train_rows is None:
        train_rows = np.arange(Z.shape[0])
    train_rows = np.asarray(train_rows, dtype=np.int64)
    q = nuisance.shape[1]
    if q >= train_rows.size:
        raise ValueError(
            f"{q} nuisance columns with only {train_rows.size} training rows"
        )
    M_train = _design_with_intercept(nuisance[train_rows])
    rank = np.linalg.matrix_rank(M_train)
    if rank < q + 1:
        warnings.warn(
            "nuisance matrix is rank-deficient on the training rows; "
            "using the least-norm solution"
        )
    coefs, *_ = np.linalg.lstsq(M_train, Z[train_rows], rcond=None)
    y_coefs = None
    if residualize_y and y is not None:
        y_train = np.asarray(y, dtype=np.float64)[train_rows]
        y_coefs, *_ = np.linalg.lstsq(M_train, y_train, rcond=None)
    model = NuisanceModel(feature_coefs=coefs, y_coefs=y_coefs, q=q)
    Z_corr, y_corr = apply_nuisance(model, Z, nuisance, y)
    return Z_corr, y_corr, model


def apply_nuisance(model, Z_new, nuisance_new, y_new=None):
    """Residualize new rows with a training-fitted nuisance model."""
    M = _design_with_intercept(np.atleast_2d(nuisance_new))
    Z_corr = Z_new - M @ model.feature_coefs
    if y_new is None or model.y_coefs is None:
        return Z_corr, y_new
    return Z_corr, np.asarray(y_new, dtype=np.float64) - M @ model.y_coefs


@dataclass(frozen=True)
class OrthoBasis:
    """Per-group thin SVD factors of the expanded design's column blocks.

    For kept group G: ``Z_star_G = U_G diag(s_G) V_G^T`` with the
    decomposition truncated at numerical rank r_G.  ``kept`` indexes into
    the expansion map's groups; groups of rank zero are dropped.
    ``u_slices`` locates each group's columns in the orthonormalized
    design.
    """

    kept: tuple
    vs: tuple
    sigmas: tuple
    u_slices: tuple
    p_star: int

    @property
    def ranks(self):
        return np.array([s.size for s in self.sigmas])


def orthonormalize(Z_star, emap, group_names=None):
    """Orthonormalize each group's column block of the expanded design.

    Returns
    -------
    (U, OrthoBasis, multipliers)
        ``U`` is the stacked orthonormalized design ``[U_G : G]``;
        ``multipliers[i] = sqrt(r_G)`` is the rank-scaled penalty weight
        of the i-th kept group.  Groups whose block has numerical rank 0
        are dropped with a warning.
    """
    if Z_star.shape[1] != emap.p_star:
        raise ValueError(
            f"expanded design has {Z_star.shape[1]} columns, expected {emap.p_star}"
        )
    kept, vs, sigmas, u_parts, slices = [], [], [], [], []
    start = 0
    for gi, (s0, s1) in enumerate(emap.slices):
        block = Z_star[:, s0:s1]
        U, s, Vt = np.linalg.svd(block, full_matrices=False)
        r = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
        if r == 0:
            name = group_names[gi] if group_names is not None else str(gi)
            warnings.warn(f"dropping group {name!r}: column block has rank 0")
            continue
        kept.append(gi)
        u_parts.append(U[:, :r])
        vs.append(Vt[:r].T.copy())
        sigmas.append(s[:r].copy())
        slices.append((start, start + r))
        start += r
    if not kept:
        raise ValueError("all groups have rank 0; nothing to fit")
    U = np.hstack(u_parts)
    basis = OrthoBasis(kept=tuple(kept), vs=tuple(vs), sigmas=tuple(sigmas),
                       u_slices=tuple(slices), p_star=emap.p_star)
    multipliers = np.sqrt(basis.ranks.astype(np.float64))
    return U, basis, multipliers


def back_transform(beta_tilde, basis, emap):
    """Map coefficients from the orthonormal space back to the p originals.

    Per group, ``beta_star_G = V_G diag(1/s_G) beta_tilde_G``; then the
    duplicated coordinates are folded back by summation.  Predictions are
    preserved: ``U @ beta_tilde == Z_std @ beta`` up to rank truncation.
    """
    beta_tilde = np.asarray(beta_tilde, dtype=np.float64).ravel()
    total = sum(s1 - s0 for s0, s1 in basis.u_slices)
    if beta_tilde.size != total:
        raise ValueError(
            f"coefficient vector has length {beta_tilde.size}, expected {total}"
        )
    beta_star = np.zeros(emap.p_star)
    for gi, V, s, (u0, u1) in zip(basis.kept, basis.vs, basis.sigmas,
                                  basis.u_slices):
        s0, s1 = emap.slices[gi]
        beta_star[s0:s1] = V @ (beta_tilde[u0:u1] / s)
    return fold_back(beta_star, emap)
