"""Standardization, nuisance residualization, groupwise orthonormalization.

Everything here learns its parameters from the training rows it is given;
the ``apply_*`` functions carry them unchanged to any other rows, so
held-out data never leaks into the fitted transformations.

Columns are standardized to mean 0 and variance 1 under the 1/N
(population) convention; a column constant on the training rows is
recorded with sd 0 and zeroed on every row.  A continuous response is
standardized the same way; binary responses are left untouched.

Groupwise orthonormalization replaces each group's column block by an
orthonormal basis of its column space, which turns the group penalty
into a penalty on each group's contribution to the linear predictor and
makes the per-group solver update a closed-form shrinkage.  Each block
is gathered from the standardized design through the overlap expansion
map, so the expanded design is never built.  A block with no more
columns than rows whose Gram matrix is well conditioned is factored by
an eigendecomposition of that Gram matrix; every other block by a thin
SVD truncated at numerical rank.  Rank-deficient groups get their
penalty multiplier scaled by sqrt(rank) instead of sqrt(size).
:func:`back_transform` inverts both the orthonormalization and the
variable duplication; the linear predictor is preserved exactly.
"""

import warnings
from dataclasses import dataclass

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
# A block takes the Gram route iff every Gram eigenvalue exceeds
# GRAM_TOL * lambda_max.  The Gram basis misses orthonormality,
# |U^T U - I|, by about eps / (lambda_min / lambda_max), so this bound
# keeps that error near 1e-12; every singular-value ratio then exceeds
# 1e-2, far above RANK_TOL, so the SVD would keep every column too.
GRAM_TOL = 1e-4


def standardize(Z, y, family):
    """Standardize the training rows and learn their statistics.

    Parameters
    ----------
    Z : ndarray
        Raw training rows, N x p.
    y : ndarray
        Training response aligned with the rows of ``Z``.
    family : str
        ``gaussian`` standardizes y too; ``binomial`` leaves it alone.

    Returns
    -------
    (ndarray, ndarray, dict)
        ``apply_standardization`` of ``Z`` under the learned statistics,
        the transformed response, and the statistics as the
        :class:`~netcov.pipeline.FittedModel` fields ``column_means``,
        ``column_sds``, ``y_mean`` and ``y_sd`` (the last two None unless
        gaussian).  A column constant on these rows gets sd 0.
    """
    N = Z.shape[0]
    if N < 2:
        raise ValueError("standardization needs at least 2 training rows")
    means = Z.mean(axis=0)
    # the 1/N standard deviation, as Z.std(axis=0) computes it, squaring
    # one centered copy in place
    T = Z - means
    T *= T
    sds = np.sqrt(T.sum(axis=0) / N)
    del T
    # numerically constant columns: the tolerance absorbs the float dust a
    # constant column picks up from mean subtraction
    sds[sds <= 1e-10 * np.maximum(1.0, np.abs(means))] = 0.0
    stats = {"column_means": means, "column_sds": sds,
             "y_mean": None, "y_sd": None}
    if family == "gaussian":
        y = np.asarray(y, dtype=np.float64)
        stats["y_mean"] = float(y.mean())
        stats["y_sd"] = float(y.std())
        if stats["y_sd"] == 0.0:
            raise ValueError("response is constant on the training rows")
        y = (y - stats["y_mean"]) / stats["y_sd"]
    return apply_standardization(means, sds, Z), y, stats


def apply_standardization(means, sds, Z):
    """``(Z - means) / sds`` by column; a column with sd 0 (constant on the
    training rows) becomes identically zero."""
    constant = sds == 0.0
    Z_std = Z - means
    Z_std /= np.where(constant, 1.0, sds)
    Z_std[:, constant] = 0.0
    return Z_std


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


def residualize_nuisance(Z, y, nuisance, residualize_y=True):
    """Remove nuisance-predicted values from features (and response).

    An OLS model intercept + nuisance -> column is fitted on these
    training rows for every feature column (and the response when
    ``residualize_y``); its predictions are subtracted from them.

    Returns (Z_corrected, y_corrected, NuisanceModel).
    """
    Z = np.asarray(Z, dtype=np.float64)
    nuisance = np.atleast_2d(np.asarray(nuisance, dtype=np.float64))
    if nuisance.shape[0] != Z.shape[0]:
        raise ValueError("nuisance must have one row per observation")
    M = _design_with_intercept(nuisance)
    q = nuisance.shape[1]
    if q >= M.shape[0]:
        raise ValueError(
            f"{q} nuisance columns with only {M.shape[0]} training rows"
        )
    rank = np.linalg.matrix_rank(M)
    if rank < q + 1:
        warnings.warn(
            "nuisance matrix is rank-deficient on the training rows; "
            "using the least-norm solution"
        )
    coefs, *_ = np.linalg.lstsq(M, Z, rcond=None)
    y_coefs = None
    if residualize_y and y is not None:
        y_coefs, *_ = np.linalg.lstsq(M, np.asarray(y, dtype=np.float64),
                                      rcond=None)
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
    """Per-group factors of the design's column blocks.

    For kept group G with block ``B_G = Z[:, cols_G]`` (its columns of the
    standardized design, duplicated coordinates included):
    ``B_G = U_G diag(s_G) V_G^T``, truncated at numerical rank r_G.
    ``kept`` indexes into the expansion map's groups; groups of rank zero
    are dropped.  ``u_slices`` locates each group's columns in the
    orthonormalized design.
    """

    kept: tuple
    vs: tuple
    sigmas: tuple
    u_slices: tuple
    p_star: int

    @property
    def ranks(self):
        return np.array([s.size for s in self.sigmas])


def _factor_block(B, out):
    """Orthonormal basis of B's column space, written as rows of ``out``.

    Returns (rank, V, s) with ``B V = U diag(s)`` and ``U^T`` in
    ``out[:rank]``.  A block with no more columns than rows goes through
    ``eigh(B^T B)`` when every eigenvalue exceeds ``GRAM_TOL`` times the
    largest; any other block (wide, rank-deficient or ill-conditioned) is
    factored by a thin SVD truncated at ``RANK_TOL``.
    """
    N, m = B.shape
    if 0 < m <= N:
        lam, V = np.linalg.eigh(B.T @ B)
        if lam[0] > GRAM_TOL * lam[-1]:  # false for an all-zero block
            s = np.sqrt(lam[::-1])
            V = np.ascontiguousarray(V[:, ::-1])
            np.dot(V.T, B.T, out=out[:m])
            out[:m] /= s[:, None]
            return m, V, s
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    r = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    out[:r] = U[:, :r].T
    return r, Vt[:r].T.copy(), s[:r].copy()


def orthonormalize(Z, emap, group_names=None):
    """Orthonormalize each group's column block of the standardized design.

    ``Z`` holds the training rows with their original ``emap.p`` columns;
    each group's block is gathered from it through
    ``emap.expanded_to_original``, so overlapping groups share no copy.

    Returns
    -------
    (U, OrthoBasis, multipliers)
        ``U`` is the stacked orthonormalized design ``[U_G : G]``, the
        transpose of a C-ordered array, so ``U.T`` is contiguous;
        ``multipliers[i] = sqrt(r_G)`` is the rank-scaled penalty weight
        of the i-th kept group.  Groups whose block has numerical rank 0
        are dropped with a warning.
    """
    if Z.shape[1] != emap.p:
        raise ValueError(
            f"design has {Z.shape[1]} columns, expected {emap.p}"
        )
    UT = np.empty((emap.p_star, Z.shape[0]))
    kept, vs, sigmas, slices = [], [], [], []
    start = 0
    for gi, (s0, s1) in enumerate(emap.slices):
        block = Z[:, emap.expanded_to_original[s0:s1]]
        r, V, s = _factor_block(block, UT[start:])
        if r == 0:
            name = group_names[gi] if group_names is not None else str(gi)
            warnings.warn(f"dropping group {name!r}: column block has rank 0")
            continue
        kept.append(gi)
        vs.append(V)
        sigmas.append(s)
        slices.append((start, start + r))
        start += r
    if not kept:
        raise ValueError("all groups have rank 0; nothing to fit")
    basis = OrthoBasis(kept=tuple(kept), vs=tuple(vs), sigmas=tuple(sigmas),
                       u_slices=tuple(slices), p_star=emap.p_star)
    multipliers = np.sqrt(basis.ranks.astype(np.float64))
    return UT[:start].T, basis, multipliers


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
