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
makes the per-group solver update a closed-form shrinkage.  The
standardized design is read one batch of consecutive groups at a time,
the batch's distinct columns in one read, and each block is gathered
from that read through the overlap expansion map: neither the expanded
design nor, when the caller serves the reads from raw rows as
:func:`netcov.pipeline.prepare` does, the standardized design is built
whole.  A block is factored by an eigendecomposition of its smaller Gram
matrix, ``B^T B`` or ``B B^T``, truncated at numerical rank; only a
block whose dropped directions are not null directions of the block
itself falls back to a thin SVD.  A group of one column, each group of
the LASSO, skips the eigensolver, and a run of them is factored in one
step: each orthonormal basis is the column scaled by its norm (Simon and
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
# expanded columns per read of the design in orthonormalize: wide enough
# that the reads of the LASSO's or a split map's narrow groups come in a
# few large pieces, and small next to an atlas-sized design
BATCH_COLUMNS = 1024
_ONE = np.ones((1, 1))  # the V of every one-column group, shared
_ONE.flags.writeable = False


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
    centered = Z - means
    # the 1/N standard deviation, as Z.std(axis=0) computes it
    sds = np.sqrt(np.square(centered).sum(axis=0) / N)
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
    return _scale(sds, centered), y, stats


def apply_standardization(means, sds, Z, out=None):
    """``(Z - means) / sds`` by column, into ``out`` if given (which may be
    ``Z``); a column with sd 0 (constant on the training rows) becomes
    identically zero."""
    return _scale(sds, np.subtract(Z, means, out=out))


def _scale(sds, centered):
    """Divide centered columns by their sds in place; zero those of sd 0."""
    constant = sds == 0.0
    centered /= np.where(constant, 1.0, sds)
    if constant.any():
        centered[:, constant] = 0.0
    return centered


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
    """
    N, m = B.shape
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


def _factor_columns(B, out):
    """Each column of B as a group of its own: one (rank, V, s) per column,
    as :func:`_factor_block` returns for a block, the kept rows in ``out``.

    A one-column block skips ``eigh``: LAPACK returns a 1 x 1 matrix's
    entry and the eigenvector 1.0 exactly, so the general route reduces
    to the Gram entry, its square root and the column over it.  ``np.dot``
    of a contiguous column with itself rounds as the 1 x 1 product
    ``B^T B`` does, and adding 0.0 writes -0.0 as +0.0, as the product
    with V = 1.0 does.  An all-zero column has rank 0.
    """
    columns = np.ascontiguousarray(B.T)
    lam = np.array([np.dot(c, c) for c in columns])
    kept = lam > 0
    s = np.sqrt(lam[kept])
    rows = out[:s.size]
    np.add(columns if kept.all() else columns[kept], 0.0, out=rows)
    rows /= s[:, None]
    sigma = iter(s[:, None])
    return [(1, _ONE, next(sigma)) if k else (0, None, None)
            for k in kept.tolist()]


def orthonormalize(Z, emap, group_names=None):
    """Orthonormalize each group's column block of the standardized design.

    ``Z`` holds the training rows with their original ``emap.p`` columns:
    an array, or any source with ``.shape`` that returns ``Z[:, cols]``
    for ascending ``cols``.  Consecutive groups are read in batches of
    about ``BATCH_COLUMNS`` expanded columns: one read of a batch's
    distinct columns, from which each group's block is gathered through
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
    # U^T starts on a 64-byte boundary: malloc aligns to 16 bytes only, and
    # a U^T 16 bytes past a 32-byte boundary slowed the sweep kernel's
    # vector loads (about 7% on a default-cell path), so path times
    # depended on where the heap put it
    size = emap.p_star * Z.shape[0]
    buf = np.empty(size + 7)
    start = (-buf.ctypes.data % 64) // 8
    UT = buf[start:start + size].reshape(emap.p_star, Z.shape[0])
    kept, vs, sigmas, offsets = [], [], [], [0]
    starts = emap.offsets.tolist()
    wide = np.diff(emap.offsets) > 1
    batch = emap.offsets[:-1] // BATCH_COLUMNS
    # a wide group is a block of its own; a run of one-column groups in one
    # batch is one
    cuts = np.flatnonzero(wide[1:] | wide[:-1] | (batch[1:] > batch[:-1])) + 1
    read = None
    for g0, g1 in pairwise([0, *cuts.tolist(), wide.size]):
        if batch[g0] != read:
            read = batch[g0]
            b0, b1 = np.searchsorted(batch, [read, read + 1]).tolist()
            columns, at = np.unique(
                emap.expanded_to_original[starts[b0]:starts[b1]],
                return_inverse=True)
            read_block, base = Z[:, columns], starts[b0]
        block = read_block[:, at[starts[g0] - base:starts[g1] - base]]
        out = UT[offsets[-1]:]
        factors = ([_factor_block(block, out)] if wide[g0]
                   else _factor_columns(block, out))
        for gi, (r, V, s) in enumerate(factors, start=g0):
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
