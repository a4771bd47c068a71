import warnings
from dataclasses import replace
from itertools import pairwise

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

    @pytest.mark.parametrize("deficient", [False, True])
    def test_matches_lstsq(self, rng, deficient):
        # one pseudo-inverse gives lstsq(rcond=None)'s least-norm solution,
        # on a full-rank M and on test_rank_deficient_warns's M
        base = rng.standard_normal((15, 1))
        nuisance = np.hstack([base, 2.0 * base if deficient
                              else rng.standard_normal((15, 1))])
        Z, y = rng.standard_normal((15, 2)), rng.standard_normal(15)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, model = residualize_nuisance(Z, y, nuisance)
        assert deficient == any("rank-deficient" in str(w.message)
                                for w in caught)
        M = np.column_stack([np.ones(15), nuisance])
        for coefs, rhs in ((model.feature_coefs, Z), (model.y_coefs, y)):
            ref = np.linalg.lstsq(M, rhs, rcond=None)[0]
            assert (np.linalg.norm(coefs - ref)
                    <= 1e-12 * np.linalg.norm(ref))

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
        for s0, s1 in pairwise(basis.offsets):
            block = U[:, s0:s1]
            np.testing.assert_allclose(block.T @ block,
                                       np.eye(s1 - s0), atol=1e-10)

    def test_reconstruction(self, rng):
        Z_std, spec, emap = toy_expansion(rng)
        Z_star = expand_design(emap, Z_std)
        U, basis, _ = orthonormalize(Z_std, emap)
        for gi, V, s, (u0, u1) in zip(basis.kept, basis.vs, basis.sigmas,
                                      pairwise(basis.offsets)):
            s0, s1 = emap.offsets[gi:gi + 2]
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
                            offsets=np.array([0, 2]), p=2)
        U, basis, mult = orthonormalize(Zs, emap)
        assert basis.ranks.tolist() == [1]
        assert mult[0] == pytest.approx(1.0)

    def test_full_rank_multiplier(self, rng):
        N = 50
        Z = rng.standard_normal((N, 5))
        from netcov.groups import ExpansionMap

        emap = ExpansionMap(expanded_to_original=np.arange(5),
                            offsets=np.array([0, 5]), p=5)
        _, _, mult = orthonormalize(Z, emap)
        assert mult[0] == pytest.approx(np.sqrt(5.0))

    def test_zero_rank_group_dropped(self, rng):
        Z = np.hstack([rng.standard_normal((10, 2)), np.zeros((10, 1))])
        from netcov.groups import ExpansionMap

        emap = ExpansionMap(expanded_to_original=np.arange(3),
                            offsets=np.array([0, 2, 3]), p=3)
        with pytest.warns(UserWarning, match="rank 0"):
            U, basis, _ = orthonormalize(Z, emap)
        assert basis.kept == (0,)
        assert U.shape[1] == 2


class TestGramRoute:
    """A block whose dropped Gram eigenvectors are null directions of the
    block itself is factored without an SVD, wide or tall."""

    def test_no_svd_and_the_svd_rank(self, rng, monkeypatch):
        # atlas-shaped: 1.5N columns, centred and residualized on 2
        # nuisance columns, so rank N - 3; column 7 is constant, so zero
        N = 60
        Z = rng.standard_normal((N, 90))
        Z[:, 7] = 3.0
        Z, _, _ = residualize_nuisance(Z, None, rng.standard_normal((N, 2)))
        Z = standardized(Z)
        # the wide block, then a tall one holding column 10 twice and the
        # zero column
        groups = [np.arange(90), np.array([10, 11, 12, 13, 14, 10, 7])]
        emap = ExpansionMap(expanded_to_original=np.concatenate(groups),
                            offsets=np.array([0, 90, 97]), p=90)

        def refuse(*args, **kwargs):
            raise AssertionError("a block went to the SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        U, basis, _ = orthonormalize(Z, emap)
        monkeypatch.undo()

        assert basis.ranks.tolist() == [N - 3, 5]
        assert basis.ranks.tolist() == [svd_rank(Z[:, g]) for g in groups]
        for g, V, s, (u0, u1) in zip(groups, basis.vs, basis.sigmas,
                                     pairwise(basis.offsets)):
            Ug = U[:, u0:u1]
            assert np.abs(Ug.T @ Ug - np.eye(u1 - u0)).max() <= 1e-12
            B = Z[:, g]
            assert (np.linalg.norm((Ug * s) @ V.T - B)
                    <= 1e-10 * np.linalg.norm(B))
            # the zero column's row of V is exactly +0.0
            zero = g == 7
            assert not np.signbit(V[zero]).any() and not V[zero].any()


class TestWidthOneRoute:
    """A group of one column skips ``eigh`` and keeps its bits."""

    @staticmethod
    def eigh_route(B, out):
        # the general route's steps for a one-column block
        lam, E = np.linalg.eigh(B.T @ B)
        lam, E = lam[::-1], E[:, ::-1]
        s = np.sqrt(lam[:1])
        V = np.ascontiguousarray(E[:, :1])
        np.dot(V.T, B.T, out=out[:1])
        out[:1] /= s[:, None]
        return V, s

    def test_default_cell_columns_match_the_eigh_route(self):
        from netcov.data import build_design
        from netcov.simulate import (PRESET_ACTIVE_GROUPS, ExperimentConfig,
                                     gen_design_synthetic)

        cfg = ExperimentConfig(
            scheme="EBG", active_groups=PRESET_ACTIVE_GROUPS[("EBG", 1)],
            alpha=0.1, family="gaussian", seed=7)
        ds = gen_design_synthetic(cfg)
        Z = standardized(build_design(ds, ds.train_rows))
        assert Z.shape == (1000, 1275)
        # and a column holding -0.0, which the product writes as +0.0
        signed = np.where(Z[:, :1] > 1.0, -0.0, Z[:, :1])
        Z = np.hstack([Z, signed])
        p = Z.shape[1]
        # the LASSO's map: one run of one-column groups, factored together
        emap = ExpansionMap(expanded_to_original=np.arange(p),
                            offsets=np.arange(p + 1), p=p)
        U, basis, _ = orthonormalize(Z, emap)
        assert basis.ranks.tolist() == [1] * p
        ref = np.empty((1, Z.shape[0]))
        for j in range(p):
            V_ref, s_ref = self.eigh_route(np.ascontiguousarray(Z[:, j:j + 1]),
                                           ref)
            assert U[:, j].tobytes() == ref[0].tobytes()
            assert basis.sigmas[j].tobytes() == s_ref.tobytes()
            assert basis.vs[j].tobytes() == V_ref.tobytes()
        # the last group is the signed column: its -0.0 entries read +0.0
        assert np.signbit(signed).any()
        assert not np.signbit(U[signed[:, 0] == 0, -1]).any()

    def test_constant_training_column_dropped_with_its_warning(self, rng):
        from netcov.pipeline import make_groups

        ds = make_dataset(rng, [1, 1, 2, 2], N=30)
        edges = ds.edges.copy()
        edges[:20, 2] = 1.5  # constant on the training rows only
        ds = replace(ds, edges=edges, train_rows=np.arange(20),
                     test_rows=np.arange(20, 30))
        spec, _ = make_groups(ds, "lasso")
        with pytest.warns(UserWarning,
                          match="dropping group 'f2': column block has rank 0"):
            prep = prepare(ds, spec)
        assert 2 not in prep.basis.kept and len(prep.basis.kept) == spec.p - 1
        beta = back_transform(np.ones(len(prep.basis.kept)), prep.basis,
                              prep.emap)
        assert beta[2] == 0.0 and not np.signbit(beta[2])
        assert np.all(beta[np.arange(spec.p) != 2] != 0.0)


def wide_dataset(rng, nodes, N, nuisance=None):
    """A dataset of ``nodes`` nodes in 4 equal communities, d = 1, whose
    training rows (all but rows 3 and 7) hold edge 5 constant."""
    ds = make_dataset(rng, np.repeat([1, 2, 3, 4], nodes // 4).tolist(), N=N)
    edges = ds.edges.copy()
    train = np.setdiff1d(np.arange(N), [3, 7])
    edges[train, 5] = 1.5
    return replace(ds, edges=edges, nuisance=nuisance, train_rows=train)


def array_chain(ds, spec):
    """prepare's chain over the whole training design, built as one array."""
    Z, y, nuisance_model = nuisance_corrected(ds, ds.train_rows)
    Z, y, stats = standardize(Z, y, ds.family)
    U, basis, mult = orthonormalize(Z, expand(spec), spec.names)
    return U, basis, mult, y, stats, nuisance_model


class TestStreamedPrepare:
    """prepare reads the raw training rows by column chunk and by group
    batch, never as one N x p design, and keeps the array chain's bits."""

    @pytest.fixture(scope="class")
    def wide(self):
        # 8,256 columns: two passes of the statistics
        return wide_dataset(np.random.default_rng(31), nodes=128, N=30)

    @pytest.mark.parametrize("scheme, split", [("nbg", None), ("ebg", None),
                                               ("lasso", None), ("ebg", 8)])
    def test_equals_the_array_chain(self, wide, scheme, split):
        from netcov.pipeline import make_groups

        assert wide.index.p > 2 * 4096
        spec, _ = make_groups(wide, scheme, split_target=split, seed=(3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rank-0 drops
            prep = prepare(wide, spec)
            U, basis, mult, y, stats, _ = array_chain(wide, spec)
        assert prep.problem.U.tobytes() == U.tobytes()
        assert prep.basis.kept == basis.kept
        assert prep.basis.offsets.tobytes() == basis.offsets.tobytes()
        for got, ref in zip(prep.basis.vs + prep.basis.sigmas,
                            basis.vs + basis.sigmas, strict=True):
            assert got.tobytes() == ref.tobytes()
        assert prep.problem.multipliers.tobytes() == mult.tobytes()
        assert prep.problem.y.tobytes() == y.tobytes()
        for name, value in stats.items():
            got = getattr(prep.model, name)
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes()
        assert prep.model.column_sds[5] == 0.0  # the training-constant edge

    def test_nuisance_fit_within_rounding(self):
        from netcov.pipeline import make_groups
        from netcov.solver import fit_path, lambda_grid, lambda_max, objective

        # a split map's narrow groups: their products M @ coefs[:, cols]
        # can round apart from the whole design's
        rng = np.random.default_rng(32)
        nuisance = rng.standard_normal((60, 2))
        nuisance = np.column_stack([nuisance, 2.0 * nuisance[:, 0]])
        ds = wide_dataset(rng, nodes=128, N=60, nuisance=nuisance)
        spec, _ = make_groups(ds, "ebg", split_target=8, seed=(3, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prep = prepare(ds, spec)
        assert [str(w.message) for w in caught
                if "rank-deficient" in str(w.message)] == [
            "nuisance matrix is rank-deficient on the training rows; "
            "using the least-norm solution"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            U, basis, mult, y, _, nuisance_model = array_chain(ds, spec)
        assert prep.basis.kept == basis.kept
        assert prep.basis.ranks.tolist() == basis.ranks.tolist()
        assert (prep.model.nuisance_model.feature_coefs.tobytes()
                == nuisance_model.feature_coefs.tobytes())
        assert prep.model.nuisance_model.y_coefs.tobytes() == (
            nuisance_model.y_coefs.tobytes())
        grid = lambda_grid(lambda_max(prep.problem), grid_size=8)
        array_problem = replace(prep.problem, U=U, y=y)
        paths = [fit_path(problem, b, prep.emap, lambdas=grid) for problem, b
                 in ((prep.problem, prep.basis), (array_problem, basis))]
        for got, ref in zip(*(path.entries for path in paths), strict=True):
            q_got = objective(replace(prep.problem, lam=got.lam), got.mu,
                              got.beta_tilde)
            q_ref = objective(replace(array_problem, lam=ref.lam), ref.mu,
                              ref.beta_tilde)
            assert abs(q_got - q_ref) <= 1e-10 * abs(q_ref)

    def test_peak_below_one_design(self):
        import tracemalloc
        from netcov.pipeline import make_groups

        # 51,360 columns, so one pass of the statistics is a small share
        rng = np.random.default_rng(33)
        ds = wide_dataset(rng, nodes=320, N=20,
                          nuisance=rng.standard_normal((20, 2)))
        spec, _ = make_groups(ds, "ebg")
        design = ds.train_rows.size * ds.index.p * 8
        tracemalloc.start()
        try:
            prep = prepare(ds, spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prep.problem.U.nbytes < held
        assert peak - held < design


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
                            offsets=np.array([0, 6]), p=6)
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

    @pytest.mark.parametrize("scheme", ["lasso", "ebg"])
    def test_skipping_zero_groups_keeps_every_bit(self, scheme):
        # every entry of a path, mostly zero groups on the LASSO and
        # duplicated coordinates on EBG, against the multiply of every
        # kept group, -0.0 included
        from netcov.pipeline import make_groups
        from netcov.solver import fit_path, lambda_grid, lambda_max

        def every_group(beta_tilde, basis, emap):
            beta_star = np.zeros(emap.p_star)
            for gi, V, s, (u0, u1) in zip(basis.kept, basis.vs, basis.sigmas,
                                          pairwise(basis.offsets)):
                s0, s1 = emap.offsets[gi:gi + 2]
                beta_star[s0:s1] = V @ (beta_tilde[u0:u1] / s)
            return fold_back(beta_star, emap)

        rng = np.random.default_rng(5)
        ds = make_dataset(rng, [1, 1, 1, 2, 2, 2, 3, 3], N=80)
        spec, _ = make_groups(ds, scheme)
        prep = prepare(ds, spec)
        prob = prep.problem
        pf = fit_path(prob, prep.basis, prep.emap, lambdas=lambda_grid(
            lambda_max(prob), grid_size=20))
        zero_share = []
        for entry in pf.entries:
            bt = entry.beta_tilde
            zero_share.append(np.mean([not bt[s0:s1].any() for s0, s1
                                       in pairwise(prob.offsets)]))
            expected = every_group(bt, prep.basis, prep.emap)
            assert entry.beta.tobytes() == expected.tobytes()
            # signed zeros in the zero groups, and the rest negated
            signed = np.where(bt == 0, -0.0, -bt)
            assert (back_transform(signed, prep.basis, prep.emap).tobytes()
                    == every_group(signed, prep.basis, prep.emap).tobytes())
        if scheme == "lasso":
            assert np.mean(zero_share) > 0.5

    def test_length_check(self, rng):
        Z_std, spec, emap = toy_expansion(rng)
        U, basis, _ = orthonormalize(Z_std, emap)
        with pytest.raises(ValueError, match="length"):
            back_transform(np.zeros(U.shape[1] + 2), basis, emap)


BLOCK_KINDS = ("narrow", "duplicated", "wide", "wide_tail", "single", "zero",
               "graded")


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
    if kind == "wide_tail":
        # wide and of full row rank, with one singular ratio at 1e-9: above
        # RANK_TOL, so the SVD keeps it, but far below what B B^T resolves
        m = N + int(rng.integers(1, N + 1))
        Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        W, _ = np.linalg.qr(rng.standard_normal((m, N)))
        s = np.linspace(1.0, 0.5, N)
        s[-1] = 1e-9
        return (Q * s) @ W.T
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
    @example(kinds=["wide_tail", "wide"], N=12, seed=0)
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
        emap = ExpansionMap(expanded_to_original=np.concatenate(groups),
                            offsets=np.cumsum([0] + [g.size for g in groups]),
                            p=Z.shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rank-0 drops
            U, basis, mult = orthonormalize(Z, emap)

        ranks = [svd_rank(Z[:, g]) for g in groups]
        assert basis.kept == tuple(i for i, r in enumerate(ranks) if r > 0)
        assert basis.ranks.tolist() == [r for r in ranks if r > 0]
        np.testing.assert_array_equal(mult, np.sqrt(basis.ranks))
        for gi, V, s, (u0, u1) in zip(basis.kept, basis.vs, basis.sigmas,
                                      pairwise(basis.offsets)):
            Ug = U[:, u0:u1]
            assert np.abs(Ug.T @ Ug - np.eye(u1 - u0)).max() <= 1e-10
            B = Z[:, groups[gi]]
            rel = np.linalg.norm((Ug * s) @ V.T - B) / np.linalg.norm(B)
            assert rel < 1e-8
        bt = rng.standard_normal(U.shape[1])
        # the last direction of a wide_tail block has singular ratio 1e-9,
        # which scales its coefficient by 1e9: Z @ beta then cancels more
        # digits than a 1e-8 check allows, so that one direction stays 0
        for gi, u1 in zip(basis.kept, basis.offsets[1:]):
            if gi < len(kinds) and kinds[gi] == "wide_tail":
                bt[u1 - 1] = 0.0
        beta = back_transform(bt, basis, emap)
        pred_u = U @ bt
        scale = max(1.0, np.linalg.norm(pred_u))
        assert np.max(np.abs(pred_u - Z @ beta)) / scale < 1e-8
