import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import make_dataset
from netcov import (CommunityMap, FeatureIndex, ebg_groups, expand,
                    fold_back)
from netcov.groups import ExpansionMap
from netcov.pipeline import nuisance_corrected, prepare
from netcov.preprocess import (RANK_TOL, apply_nuisance,
                               apply_standardization, back_transform,
                               orthonormalize, residualize_nuisance,
                               standardize)
from oracles import expand_design


def standardized(Z):
    # the standardized rows alone; the binomial family leaves y untouched
    Z_std, _, _ = standardize(Z, np.zeros(Z.shape[0]), "binomial")
    return Z_std


class TestStandardize:
    def test_hand_arithmetic(self):
        Z = np.array([[1.0], [2.0], [3.0]])
        out, _, stats = standardize(Z, np.zeros(3), "binomial")
        expected = np.sqrt(1.5)
        np.testing.assert_allclose(out.ravel(),
                                   [-expected, 0.0, expected], atol=1e-12)
        assert stats["column_means"][0] == pytest.approx(2.0)
        assert stats["column_sds"][0] == pytest.approx(np.sqrt(2.0 / 3.0))
        assert stats["y_mean"] is None and stats["y_sd"] is None

    def test_idempotent(self, rng):
        Z = rng.standard_normal((20, 3))
        d1 = standardized(Z)
        np.testing.assert_allclose(standardized(d1), d1, atol=1e-12)

    def test_test_row_at_train_mean_maps_to_zero(self, rng):
        Z = rng.standard_normal((10, 3))
        _, _, stats = standardize(Z, np.zeros(10), "binomial")
        row = apply_standardization(stats["column_means"],
                                    stats["column_sds"],
                                    Z.mean(axis=0)[None, :])
        np.testing.assert_allclose(row, 0.0, atol=1e-12)

    def test_population_variance_convention(self, rng):
        Z = rng.standard_normal((15, 3))
        np.testing.assert_allclose(standardized(Z).std(axis=0), 1.0,
                                   atol=1e-12)

    def test_constant_column_flagged_and_zeroed(self, rng):
        Z = rng.standard_normal((10, 3))
        Z[:, 1] = 4.2
        out, _, stats = standardize(Z, np.zeros(10), "binomial")
        assert (stats["column_sds"] == 0.0).tolist() == [False, True, False]
        np.testing.assert_array_equal(out[:, 1], 0.0)
        # zeroed on rows where the column varies, too
        new = rng.standard_normal((4, 3)) * 100.0
        np.testing.assert_array_equal(
            apply_standardization(stats["column_means"], stats["column_sds"],
                                  new)[:, 1], 0.0)

    def test_needs_two_rows(self, rng):
        Z = rng.standard_normal((1, 3))
        with pytest.raises(ValueError, match="2 training rows"):
            standardize(Z, np.zeros(1), "gaussian")

    def test_response_standardized_gaussian_only(self, rng):
        Z = rng.standard_normal((12, 3))
        y = rng.standard_normal(12) * 3 + 5
        _, y_std, stats = standardize(Z, y, "gaussian")
        assert y_std.mean() == pytest.approx(0.0, abs=1e-12)
        assert y_std.std() == pytest.approx(1.0, abs=1e-12)
        assert stats["y_mean"] == pytest.approx(y.mean())
        assert stats["y_sd"] == pytest.approx(y.std())
        yb = (rng.random(12) < 0.5).astype(float)
        _, yb_out, _ = standardize(Z, yb, "binomial")
        np.testing.assert_array_equal(yb_out, yb)

    def test_stats_from_training_rows_only(self, rng):
        ds = make_dataset(rng, [1, 1, 2, 2], d=1, N=20)
        train = np.arange(12)
        spec = ebg_groups(ds.communities, ds.index)
        prep1 = prepare(ds, spec, train)
        moved = replace(ds, edges=ds.edges.copy())
        moved.edges[12:] += 100.0  # mutate held-out rows only
        prep2 = prepare(moved, spec, train)
        np.testing.assert_array_equal(prep1.model.column_means,
                                      prep2.model.column_means)
        np.testing.assert_array_equal(prep1.model.column_sds,
                                      prep2.model.column_sds)
        np.testing.assert_array_equal(prep1.problem.U, prep2.problem.U)

    def test_apply_standardization_matches(self, rng):
        # one arithmetic: the returned training rows are, bit for bit,
        # apply_standardization of the same raw rows
        Z = rng.standard_normal((10, 4)) * 3.0 + 1.0
        Z[:, 2] = -7.5
        out, _, stats = standardize(Z, rng.standard_normal(10), "gaussian")
        np.testing.assert_array_equal(
            apply_standardization(stats["column_means"], stats["column_sds"],
                                  Z), out)


class TestResidualize:
    def test_intercept_only_is_centering(self, rng):
        Z = rng.standard_normal((15, 4))
        nuisance = np.zeros((15, 0))
        Zc, _, _ = residualize_nuisance(Z, None, nuisance)
        np.testing.assert_allclose(Zc, Z - Z.mean(axis=0), atol=1e-12)

    def test_exactly_linear_feature_zeroed(self, rng):
        nuisance = rng.standard_normal((20, 2))
        Z = np.column_stack([
            3.0 * nuisance[:, 0] - nuisance[:, 1] + 2.0,
            rng.standard_normal(20),
        ])
        Zc, _, _ = residualize_nuisance(Z, None, nuisance)
        assert np.max(np.abs(Zc[:, 0])) < 1e-10

    def test_residuals_orthogonal_to_nuisance(self, rng):
        nuisance = rng.standard_normal((20, 3))
        Z = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        Zc, yc, _ = residualize_nuisance(Z, y, nuisance)
        np.testing.assert_allclose(nuisance.T @ Zc, 0.0, atol=1e-8)
        np.testing.assert_allclose(nuisance.T @ yc, 0.0, atol=1e-8)
        assert abs(Zc.mean(axis=0)).max() < 1e-10

    def test_train_only_coefficients(self, rng):
        ds = make_dataset(rng, [1, 1, 2, 2], d=1, N=20, nuisance_q=2)
        train = np.arange(14)
        _, _, m1 = nuisance_corrected(ds, train)
        moved = replace(ds, edges=ds.edges.copy())
        moved.edges[14:] += 50.0  # mutate held-out rows only
        _, _, m2 = nuisance_corrected(moved, train)
        np.testing.assert_array_equal(m1.feature_coefs, m2.feature_coefs)
        np.testing.assert_array_equal(m1.y_coefs, m2.y_coefs)

    def test_too_many_nuisance_columns(self, rng):
        with pytest.raises(ValueError, match="nuisance columns"):
            residualize_nuisance(rng.standard_normal((5, 2)), None,
                                 rng.standard_normal((5, 5)))

    def test_rank_deficient_warns(self, rng):
        base = rng.standard_normal((15, 1))
        nuisance = np.hstack([base, 2.0 * base])
        with pytest.warns(UserWarning, match="rank-deficient"):
            residualize_nuisance(rng.standard_normal((15, 2)), None, nuisance)

    def test_apply_to_new_rows(self, rng):
        nuisance = rng.standard_normal((20, 2))
        Z = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        Zc, yc, model = residualize_nuisance(Z[:15], y[:15], nuisance[:15])
        # the training rows are the model applied to themselves
        Z_tr, y_tr = apply_nuisance(model, Z[:15], nuisance[:15], y[:15])
        np.testing.assert_array_equal(Z_tr, Zc)
        np.testing.assert_array_equal(y_tr, yc)
        # new rows lose the training OLS prediction
        M = np.column_stack([np.ones(15), nuisance[:15]])
        M_new = np.column_stack([np.ones(5), nuisance[15:]])
        coefs = np.linalg.solve(M.T @ M, M.T @ np.column_stack([Z[:15],
                                                                y[:15]]))
        Z_new, y_new = apply_nuisance(model, Z[15:], nuisance[15:], y[15:])
        np.testing.assert_allclose(Z_new, Z[15:] - M_new @ coefs[:, :3],
                                   atol=1e-12)
        np.testing.assert_allclose(y_new, y[15:] - M_new @ coefs[:, 3],
                                   atol=1e-12)

    def test_commutes_with_standardization(self, rng):
        # standardize(residualize(Z)) == standardize(residualize(standardize(Z)))
        nuisance = rng.standard_normal((25, 2))
        Z = rng.standard_normal((25, 6)) * 3.0 + 1.0
        a, _, _ = residualize_nuisance(Z, None, nuisance)
        da = standardized(a)

        b, _, _ = residualize_nuisance(standardized(Z), None, nuisance)
        db = standardized(b)
        np.testing.assert_allclose(da, db, atol=1e-10)
        for out in (da, db):
            np.testing.assert_allclose(nuisance.T @ out, 0.0, atol=1e-8)
            np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)


def toy_expansion(rng, N=30, rank_deficient=False):
    cm = CommunityMap(assignments=[1, 1, 2, 2])
    idx = FeatureIndex(n=4, d=1)
    Z = rng.standard_normal((N, idx.p))
    if rank_deficient:
        Z[:, 3] = Z[:, 2]  # duplicate a column inside group (1,2)
    spec = ebg_groups(cm, idx)
    emap = expand(spec)
    return standardized(Z), spec, emap


class TestOrthonormalize:
    def test_orthonormal_blocks(self, rng):
        Z_std, spec, emap = toy_expansion(rng)
        U, basis, mult = orthonormalize(Z_std, emap)
        for s0, s1 in basis.u_slices:
            block = U[:, s0:s1]
            np.testing.assert_allclose(block.T @ block,
                                       np.eye(s1 - s0), atol=1e-10)

    def test_reconstruction(self, rng):
        Z_std, spec, emap = toy_expansion(rng)
        Z_star = expand_design(emap, Z_std)
        U, basis, _ = orthonormalize(Z_std, emap)
        for gi, V, s, (u0, u1) in zip(basis.kept, basis.vs, basis.sigmas,
                                      basis.u_slices):
            s0, s1 = emap.slices[gi]
            approx = U[:, u0:u1] @ np.diag(s) @ V.T
            rel = (np.linalg.norm(approx - Z_star[:, s0:s1])
                   / np.linalg.norm(Z_star[:, s0:s1]))
            assert rel < 1e-8

    def test_duplicate_columns_rank_one(self, rng):
        N = 25
        col = rng.standard_normal((N, 1))
        Z = np.hstack([col, col])
        Zs = (Z - Z.mean(0)) / Z.std(0)
        from netcov.groups import ExpansionMap

        emap = ExpansionMap(expanded_to_original=np.array([0, 1]),
                            slices=((0, 2),), p=2)
        U, basis, mult = orthonormalize(Zs, emap)
        assert basis.ranks.tolist() == [1]
        assert mult[0] == pytest.approx(1.0)

    def test_full_rank_multiplier(self, rng):
        N = 50
        Z = rng.standard_normal((N, 5))
        from netcov.groups import ExpansionMap

        emap = ExpansionMap(expanded_to_original=np.arange(5),
                            slices=((0, 5),), p=5)
        _, _, mult = orthonormalize(Z, emap)
        assert mult[0] == pytest.approx(np.sqrt(5.0))

    def test_zero_rank_group_dropped(self, rng):
        Z = np.hstack([rng.standard_normal((10, 2)), np.zeros((10, 1))])
        from netcov.groups import ExpansionMap

        emap = ExpansionMap(expanded_to_original=np.arange(3),
                            slices=((0, 2), (2, 3)), p=3)
        with pytest.warns(UserWarning, match="rank 0"):
            U, basis, _ = orthonormalize(Z, emap)
        assert basis.kept == (0,)
        assert U.shape[1] == 2


class TestBackTransform:
    def test_zero_maps_to_zero(self, rng):
        Z_std, spec, emap = toy_expansion(rng)
        U, basis, _ = orthonormalize(Z_std, emap)
        beta = back_transform(np.zeros(U.shape[1]), basis, emap)
        np.testing.assert_array_equal(beta, np.zeros(emap.p))

    def test_single_group_prediction_match(self, rng):
        N = 40
        Z = rng.standard_normal((N, 6))
        Zs = (Z - Z.mean(0)) / Z.std(0)
        from netcov.groups import ExpansionMap

        emap = ExpansionMap(expanded_to_original=np.arange(6),
                            slices=((0, 6),), p=6)
        U, basis, _ = orthonormalize(Zs, emap)
        for _ in range(5):
            bt = rng.standard_normal(U.shape[1])
            beta = back_transform(bt, basis, emap)
            np.testing.assert_allclose(U @ bt, Zs @ beta, atol=1e-10)

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_prediction_invariance(self, rng, rank_deficient):
        Z_std, spec, emap = toy_expansion(rng, rank_deficient=rank_deficient)
        U, basis, _ = orthonormalize(Z_std, emap)
        for _ in range(10):
            bt = rng.standard_normal(U.shape[1])
            beta = back_transform(bt, basis, emap)
            pred_u = U @ bt
            pred_z = Z_std @ beta
            scale = max(1.0, np.linalg.norm(pred_u))
            assert np.max(np.abs(pred_u - pred_z)) / scale < 1e-8

    def test_length_check(self, rng):
        Z_std, spec, emap = toy_expansion(rng)
        U, basis, _ = orthonormalize(Z_std, emap)
        with pytest.raises(ValueError, match="length"):
            back_transform(np.zeros(U.shape[1] + 2), basis, emap)


BLOCK_KINDS = ("narrow", "duplicated", "wide", "single", "zero", "graded")


def property_block(kind, rng, N):
    """One group's column block of the given shape, with N rows."""
    if kind == "narrow":
        return rng.standard_normal((N, int(rng.integers(2, N // 2 + 1))))
    if kind == "duplicated":
        base = rng.standard_normal((N, int(rng.integers(1, N // 2 + 1))))
        return np.hstack([base, base[:, :1]])
    if kind == "wide":
        # centered and residualized on one nuisance column, like the wide
        # atlas groups: rank N - 2 against N rows
        B = rng.standard_normal((N, N + int(rng.integers(1, N + 1))))
        B -= B.mean(axis=0)
        nuisance = rng.standard_normal(N)
        nuisance -= nuisance.mean()
        B -= np.outer(nuisance, nuisance @ B) / (nuisance @ nuisance)
        return B
    if kind == "single":
        return rng.standard_normal((N, 1))
    if kind == "zero":
        return np.zeros((N, int(rng.integers(1, 4))))
    # graded: full rank, singular values down to 1e-6, too ill-conditioned
    # for the Gram route
    m = int(rng.integers(2, N // 2 + 1))
    Q, _ = np.linalg.qr(rng.standard_normal((N, m)))
    W, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (Q * np.logspace(0, -6, m)) @ W


def svd_rank(B):
    """Numerical rank by the thin-SVD rule, independent of orthonormalize."""
    s = np.linalg.svd(B, compute_uv=False)
    return int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0


class TestOrthonormalizeProperties:
    """Every block shape, whichever factorization it takes, gives an
    orthonormal basis of its column space with the SVD's rank."""

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from(BLOCK_KINDS), min_size=1,
                          max_size=4),
           N=st.integers(4, 30), seed=st.integers(0, 2**32 - 1))
    # the overlap group here is 4x4 with eigenvalue ratio 1.6e-7: its Gram
    # basis misses orthonormality by 2.3e-10, so it must take the SVD
    @example(kinds=["narrow", "narrow", "graded", "narrow"], N=4, seed=4)
    def test_blocks(self, kinds, N, seed):
        assume(any(kind != "zero" for kind in kinds))
        rng = np.random.default_rng(seed)
        blocks = [property_block(kind, rng, N) for kind in kinds]
        Z = np.hstack(blocks)
        groups, start = [], 0
        for B in blocks:
            groups.append(np.arange(start, start + B.shape[1]))
            start += B.shape[1]
        # one more group overlapping all others: the last column of each
        groups.append(np.array([g[-1] for g in groups]))
        slices, start = [], 0
        for g in groups:
            slices.append((start, start + g.size))
            start += g.size
        emap = ExpansionMap(expanded_to_original=np.concatenate(groups),
                            slices=tuple(slices), p=Z.shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rank-0 drops
            U, basis, mult = orthonormalize(Z, emap)

        ranks = [svd_rank(Z[:, g]) for g in groups]
        assert basis.kept == tuple(i for i, r in enumerate(ranks) if r > 0)
        assert basis.ranks.tolist() == [r for r in ranks if r > 0]
        np.testing.assert_array_equal(mult, np.sqrt(basis.ranks))
        for gi, V, s, (u0, u1) in zip(basis.kept, basis.vs, basis.sigmas,
                                      basis.u_slices):
            Ug = U[:, u0:u1]
            assert np.abs(Ug.T @ Ug - np.eye(u1 - u0)).max() <= 1e-10
            B = Z[:, groups[gi]]
            rel = np.linalg.norm((Ug * s) @ V.T - B) / np.linalg.norm(B)
            assert rel < 1e-8
        bt = rng.standard_normal(U.shape[1])
        beta = back_transform(bt, basis, emap)
        pred_u = U @ bt
        scale = max(1.0, np.linalg.norm(pred_u))
        assert np.max(np.abs(pred_u - Z @ beta)) / scale < 1e-8
