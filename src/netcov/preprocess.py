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
map, so the expanded design is never built.  A block is factored by an
eigendecomposition of its smaller Gram matrix, ``B^T B`` or ``B B^T``,
truncated at numerical rank; only a block whose dropped directions are
not null directions of the block itself falls back to a thin SVD.
A group of one column, each group of the LASSO, skips the eigensolver:
its orthonormal basis is the column scaled by its norm (Simon and
Tibshirani, Stat. Sinica 2012), and it maps back by that one division.
Rank-deficient groups get their penalty multiplier scaled by sqrt(rank)
instead of sqrt(size).
:func:`back_transform` inverts both the orthonormalization and the
variable duplication; the linear predictor is preserved exactly.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

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
# The Gram route keeps the eigenvalues above GRAM_TOL * lambda_max.  A
# basis built as B V / s misses orthonormality by about
# eps / (lambda_min / lambda_max) over the kept ones, near 1e-12; every
# kept singular-value ratio exceeds 1e-2, far above RANK_TOL, so the SVD
# keeps those directions too.
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
    # the least-norm solution under lstsq(rcond=None)'s cutoff, from one
    # pseudo-inverse of the small M instead of a solve per column of Z
    P = np.linalg.pinv(M, rcond=np.finfo(np.float64).eps * max(M.shape))
    y_coefs = None
    if residualize_y and y is not None:
        y_coefs = P @ np.asarray(y, dtype=np.float64)
    model = NuisanceModel(feature_coefs=P @ Z, y_coefs=y_coefs, q=q)
    Z_corr, y_corr = apply_nuisance(model, Z, nuisance, y)
    return Z_corr, y_corr, model


def apply_nuisance(model, Z_new, nuisance_new, y_new=None):
    """Residualize new rows with a training-fitted nuisance model."""
    M = _design_with_intercept(np.atleast_2d(nuisance_new))
    Z_corr = M @ model.feature_coefs
    np.subtract(Z_new, Z_corr, out=Z_corr)  # no second full-size array
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
    are dropped.  The i-th kept group owns columns
    ``offsets[i]:offsets[i + 1]`` of the orthonormalized design.
    """

    kept: tuple
    vs: tuple
    sigmas: tuple
    offsets: np.ndarray

    @property
    def ranks(self):
        return np.diff(self.offsets)

    @cached_property
    def _singles(self):
        """(columns, groups, sigmas, wide): the orthonormal column, the
        expansion map's group and the sigma of each kept group of one
        column, whose V is ``[[1.0]]``, and a mask of the other groups."""
        single = np.array([V.shape[0] == 1 for V in self.vs], dtype=bool)
        at = np.flatnonzero(single)
        return (self.offsets[at], np.asarray(self.kept, dtype=np.int64)[at],
                np.array([self.sigmas[i][0] for i in at.tolist()]), ~single)


def _factor_block(B, out):
    """Orthonormal basis of B's column space, written as rows of ``out``.

    Returns (rank, V, s) with ``B V = U diag(s)`` and ``U^T`` in
    ``out[:rank]``.  The block goes through ``eigh`` of its smaller Gram
    matrix: ``B^T B`` (m <= N), whose eigenvectors give V and
    ``U = B V / s``, or ``B B^T`` (m > N), whose eigenvectors give U and
    ``V = B^T U / s``.  Eigenvalues above ``GRAM_TOL`` times the largest
    are kept.  The dropped eigenvectors must be null directions of B
    itself, ``|B x| <= RANK_TOL * s_max`` over them all, so the SVD would
    drop them too; where they are not, the block is factored by a thin SVD
    truncated at ``RANK_TOL``.  Either way the rank is the SVD's.

    A block of one column skips ``eigh``: LAPACK returns a 1 x 1 matrix's
    entry and the eigenvector 1.0 exactly, so the same Gram product, its
    square root and the same product with V give the general route's bits.
    A column whose Gram entry is not positive (all zero) has rank 0.
    """
    N, m = B.shape
    if m == 1:
        lam = (B.T @ B)[0]
        if not lam[0] > 0:
            return 0, np.empty((1, 0)), np.empty(0)
        s, V = np.sqrt(lam), np.ones((1, 1))
        # the product, not a copy of B: BLAS writes 1.0 * -0.0 as +0.0
        np.dot(V, B.T, out=out[:1])
        out[:1] /= s
        return 1, V, s
    wide = m > N
    lam, E = np.linalg.eigh(B @ B.T if wide else B.T @ B)
    lam, E = lam[::-1], E[:, ::-1]
    r = np.count_nonzero(lam > GRAM_TOL * lam[0])  # 0 for an all-zero block
    if r == lam.size or (np.linalg.norm((B.T if wide else B) @ E[:, r:])
                         <= RANK_TOL * np.sqrt(lam[0])):
        s = np.sqrt(lam[:r])
        if wide:
            out[:r] = E[:, :r].T
            V = B.T @ E[:, :r]
            V /= s
        else:
            V = np.ascontiguousarray(E[:, :r])
            np.dot(V.T, B.T, out=out[:r])
            out[:r] /= s[:, None]
    else:
        U, s, Vt = np.linalg.svd(B, full_matrices=False)
        r = np.count_nonzero(s > RANK_TOL * s[0])
        out[:r] = U[:, :r].T
        V = Vt[:r].T.copy()
        s = s[:r].copy()
    if r < m:  # else B has no all-zero column
        # an all-zero column (constant on the training rows) adds nothing
        # to B V, but a factorization can leave rounding dust (or -0.0) in
        # its row of V, which back_transform would report as that column's
        # coefficient
        V[~B.any(axis=0)] = 0.0
    return r, V, s


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
    kept, vs, sigmas, offsets = [], [], [], [0]
    for gi, (s0, s1) in enumerate(pairwise(emap.offsets.tolist())):
        block = Z[:, emap.expanded_to_original[s0:s1]]
        r, V, s = _factor_block(block, UT[offsets[-1]:])
        if r == 0:
            name = group_names[gi] if group_names is not None else str(gi)
            warnings.warn(f"dropping group {name!r}: column block has rank 0")
            continue
        kept.append(gi)
        vs.append(V)
        sigmas.append(s)
        offsets.append(offsets[-1] + r)
    if not kept:
        raise ValueError("all groups have rank 0; nothing to fit")
    offsets = np.array(offsets, dtype=np.int64)
    offsets.flags.writeable = False
    basis = OrthoBasis(kept=tuple(kept), vs=tuple(vs), sigmas=tuple(sigmas),
                       offsets=offsets)
    multipliers = np.sqrt(basis.ranks.astype(np.float64))
    return UT[:offsets[-1]].T, basis, multipliers


def back_transform(beta_tilde, basis, emap):
    """Map coefficients from the orthonormal space back to the p originals.

    Per group, ``beta_star_G = V_G diag(1/s_G) beta_tilde_G``; then the
    duplicated coordinates are folded back by summation.  Predictions are
    preserved: ``U @ beta_tilde == Z_std @ beta`` up to rank truncation.
    The groups of one column (V is 1.0) map in one vectorized division;
    of the others, only those with a nonzero coefficient are multiplied
    out.  A zero group's product is a signed zero, and the fold-back sum
    starts from +0.0, so neither shortcut changes a bit of the result.
    """
    beta_tilde = np.asarray(beta_tilde, dtype=np.float64).ravel()
    if beta_tilde.size != basis.offsets[-1]:
        raise ValueError(f"coefficient vector has length {beta_tilde.size}, "
                         f"expected {basis.offsets[-1]}")
    beta_star = np.zeros(emap.p_star)
    columns, groups, sigmas, wide = basis._singles
    beta_star[emap.offsets[groups]] = beta_tilde[columns] / sigmas
    if wide.any():
        nonzero = np.logical_or.reduceat(beta_tilde != 0, basis.offsets[:-1])
        starts = emap.offsets.tolist()  # python ints slice faster than numpy's
        offsets = basis.offsets.tolist()
        for i in np.flatnonzero(nonzero & wide).tolist():
            gi, u0, u1 = basis.kept[i], offsets[i], offsets[i + 1]
            beta_star[starts[gi]:starts[gi + 1]] = (
                basis.vs[i] @ (beta_tilde[u0:u1] / basis.sigmas[i]))
    return fold_back(beta_star, emap)
