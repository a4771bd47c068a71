import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, given, settings, strategies as st

from conftest import make_dataset
from netcov import (CommunityMap, FeatureIndex, cross_validate, ebg_groups,
                    make_beta, one_se_select, select_and_refit)
from netcov.pipeline import holdout_deviance, prepare
from netcov.solver import deviance, fit_path, lambda_grid, lambda_max
from netcov.data import seeded_rng
from netcov.tuning import _fold_assignment


def noise_dataset(seed, N=60, communities=(1, 1, 2, 2, 3, 3, 4, 4)):
    rng = np.random.default_rng(seed)
    return make_dataset(rng, list(communities), d=1, N=N)


def signal_dataset(seed, alpha, N=300, K=4, npc=4):
    rng = np.random.default_rng(seed)
    communities = np.repeat(np.arange(1, K + 1), npc)
    cm = CommunityMap(assignments=communities)
    idx = FeatureIndex(n=cm.n, d=1)
    spec = ebg_groups(cm, idx)
    truth = make_beta(spec, ("(1,1)",), alpha)
    ds = make_dataset(rng, communities.tolist(), d=1, N=N, beta=truth.beta)
    return ds, spec, truth


class TestOneSeRule:
    def test_plug_in_example(self):
        mean = np.array([10.0, 8.0, 7.0, 7.5])
        se = np.ones(4)
        idx_min, idx_one_se = one_se_select(mean, se)
        assert idx_min == 2
        assert idx_one_se == 1  # largest lambda with mean <= 7 + 1

    def test_one_se_never_smaller_lambda(self, rng):
        for _ in range(20):
            mean = rng.random(10)
            se = rng.random(10) * 0.1
            idx_min, idx_one_se = one_se_select(mean, se)
            assert idx_one_se <= idx_min

    def test_exact_maximality(self, rng):
        for _ in range(20):
            mean = rng.random(12)
            se = rng.random(12) * 0.2
            idx_min, idx_one_se = one_se_select(mean, se)
            limit = mean[idx_min] + se[idx_min]
            assert mean[idx_one_se] <= limit
            assert np.all(mean[:idx_one_se] > limit)


class TestFoldAssignment:
    def test_balanced(self):
        fold = _fold_assignment(np.zeros(23), 10, np.random.default_rng(0),
                                "gaussian")
        sizes = np.bincount(fold, minlength=10)
        assert sizes.max() - sizes.min() <= 1

    def test_deterministic(self):
        y = np.tile([0.0, 1.0], 20)
        a, b = (_fold_assignment(y, 10, seeded_rng(7, 2), "binomial")
                for _ in range(2))
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stratified_round_robin(self, data):
        # any 0/1 response with two rows of each class, any 2 <= folds <= n
        y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                        min_size=4, max_size=60)))
        assume(2 <= y.sum() <= y.size - 2)
        folds = data.draw(st.integers(2, y.size))
        seed = data.draw(st.integers(0, 2**32 - 1))
        fold = _fold_assignment(y, folds, seeded_rng(seed, 2), "binomial")
        sizes = np.bincount(fold, minlength=folds)
        assert sizes.max() - sizes.min() <= 1
        for f in range(folds):
            assert set(y[fold != f]) == {0.0, 1.0}
        # the gaussian deal is the fold stream's one permutation, unsorted
        dealt = np.empty(y.size, dtype=np.int64)
        dealt[seeded_rng(seed, 2).permutation(y.size)] = (
            np.arange(y.size) % folds)
        np.testing.assert_array_equal(
            _fold_assignment(y, folds, seeded_rng(seed, 2), "gaussian"),
            dealt)


class TestCrossValidate:
    def test_deterministic_given_seed(self):
        ds = noise_dataset(3)
        spec, _ = _groups(ds)
        a = cross_validate(ds, spec, folds=5, seed=7, grid_size=20)
        b = cross_validate(ds, spec, folds=5, seed=7, grid_size=20)
        np.testing.assert_array_equal(a.fold_assignment, b.fold_assignment)
        np.testing.assert_array_equal(a.mean_deviance, b.mean_deviance)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)
        assert a.index_one_se == b.index_one_se

    def test_invariants(self):
        ds = noise_dataset(4)
        spec, _ = _groups(ds)
        cv = cross_validate(ds, spec, folds=5, seed=1, grid_size=25)
        assert cv.lambda_one_se >= cv.lambda_min
        assert np.all(np.diff(cv.lambdas) < 0)
        sizes = np.bincount(cv.fold_assignment)
        assert sizes.max() - sizes.min() <= 1
        # the one-SE rule, asserted exactly as stated
        limit = cv.mean_deviance[cv.index_min] + cv.se[cv.index_min]
        assert cv.mean_deviance[cv.index_one_se] <= limit
        assert np.all(cv.mean_deviance[:cv.index_one_se] > limit)

    def test_pure_noise_prefers_full_sparsity(self):
        hits = 0
        n_seeds = 15
        for seed in range(n_seeds):
            ds = noise_dataset(1000 + seed)
            spec, _ = _groups(ds)
            cv = cross_validate(ds, spec, folds=10, seed=seed, grid_size=50)
            if cv.index_one_se == 0:
                hits += 1
        assert hits >= 0.8 * n_seeds

    @pytest.mark.parametrize("folds", [1, 0])
    def test_fewer_than_two_folds_rejected(self, folds):
        ds = noise_dataset(5)
        spec, _ = _groups(ds)
        with pytest.raises(ValueError, match="folds must be at least 2"):
            cross_validate(ds, spec, folds=folds, seed=0)

    def test_too_few_rows(self):
        ds = noise_dataset(5, N=6)
        spec, _ = _groups(ds)
        with pytest.raises(ValueError, match="folds"):
            cross_validate(ds, spec, folds=10, seed=0)

    def test_seed_is_required(self):
        # an unseeded CV would draw its folds from fresh entropy
        ds = noise_dataset(5)
        spec, _ = _groups(ds)
        with pytest.raises(TypeError, match="seed"):
            cross_validate(ds, spec, folds=5)

    def test_binomial_redraw_gives_up_after_two(self, monkeypatch):
        # a one-row class leaves some fold's training part without it
        # whatever the deal, so it is refused before anything is fitted
        import netcov.tuning as tuning

        rng = np.random.default_rng(8)
        ds = make_dataset(rng, [1, 1, 2, 2], d=1, N=20, family="binomial")
        y = np.zeros(20)
        y[3] = 1.0  # any assignment strands the single positive
        ds = replace(ds, y=y)
        spec, _ = _groups(ds)
        monkeypatch.setattr(tuning, "prepare", None)  # a fit would call it
        with pytest.raises(ValueError,
                           match="hold 19 of class 0 and 1 of class 1"):
            cross_validate(ds, spec, folds=10, seed=0, grid_size=10)

    def test_binomial_two_row_class_tunes(self):
        # two positives among 20 rows: every one of 10 folds trains on one
        rng = np.random.default_rng(9)
        ds = make_dataset(rng, [1, 1, 2, 2], d=1, N=20, family="binomial")
        y = np.zeros(20)
        y[[2, 11]] = 1.0
        ds = replace(ds, y=y)
        spec, _ = _groups(ds)
        cv = cross_validate(ds, spec, folds=10, seed=0, grid_size=10)
        assert cv.fold_assignment[2] != cv.fold_assignment[11]
        assert np.all(np.isfinite(cv.mean_deviance))

    def test_fold_stream_is_its_own(self):
        # (seed, 0) would be (seed, 0, 0), the stream a simulated cell's
        # design is drawn from: the folds deal a permutation of (seed, 2)
        ds = noise_dataset(6, N=40)
        spec, _ = _groups(ds)
        cv = cross_validate(ds, spec, folds=5, seed=4, grid_size=8)
        np.testing.assert_array_equal(
            cv.fold_assignment,
            _fold_assignment(ds.y, 5, seeded_rng(4, 2), "gaussian"))
        design = np.empty(40, dtype=np.int64)
        design[seeded_rng(4, 0, 0).permutation(40)] = np.arange(40) % 5
        assert not np.array_equal(cv.fold_assignment, design)

    def test_no_leakage_from_held_out_rows(self):
        # mutating a fold's held-out rows leaves that fold's training-side
        # artifacts (standardization, orthonormalization, fitted path) intact
        ds = noise_dataset(11, N=40)
        spec, _ = _groups(ds)
        assignment = _fold_assignment(ds.y, 5, seeded_rng(2, 0), "gaussian")
        held = np.flatnonzero(assignment == 0)
        train = np.flatnonzero(assignment != 0)

        mutated = replace(
            ds,
            edges=_mutate_rows(ds.edges, held),
            node_covs=_mutate_rows(ds.node_covs, held),
            y=_mutate_rows(ds.y.reshape(-1, 1), held).ravel(),
        )
        prep_a = prepare(ds, spec, train)
        prep_b = prepare(mutated, spec, train)
        np.testing.assert_array_equal(prep_a.model.column_means,
                                      prep_b.model.column_means)
        np.testing.assert_array_equal(prep_a.model.column_sds,
                                      prep_b.model.column_sds)
        np.testing.assert_array_equal(prep_a.problem.U, prep_b.problem.U)
        pf_a = fit_path(prep_a.problem, prep_a.basis, prep_a.emap,
                        lambdas=lambda_grid(lambda_max(prep_a.problem),
                                            grid_size=10))
        pf_b = fit_path(prep_b.problem, prep_b.basis, prep_b.emap,
                        lambdas=lambda_grid(lambda_max(prep_b.problem),
                                            grid_size=10))
        for ea, eb in zip(pf_a.entries, pf_b.entries):
            np.testing.assert_array_equal(ea.beta, eb.beta)
            assert ea.mu == eb.mu


def _mutate_rows(M, rows):
    out = M.copy()
    out[rows] = out[rows] * 3.0 + 1.5
    return out


def _groups(ds):
    spec = ebg_groups(ds.communities, ds.index)
    return spec, ds.index


class TestSelectAndRefit:
    def test_strong_signal_recovers_true_group(self):
        hits = 0
        for seed in range(10):
            ds, spec, truth = signal_dataset(seed, alpha=0.5)
            cv = cross_validate(ds, spec, folds=10, seed=seed, grid_size=50)
            fit = select_and_refit(cv)
            if set(truth.active_groups) <= set(fit.entry.active_groups):
                hits += 1
        assert hits >= 9

    def test_zero_model_at_lambda_max(self):
        ds = noise_dataset(21)
        spec, _ = _groups(ds)
        cv = cross_validate(ds, spec, folds=5, seed=3, grid_size=15)
        rigged = replace(cv, index_one_se=0)
        fit = select_and_refit(rigged)
        assert np.all(fit.model.beta == 0.0)
        preds, _ = fit.model.predict(ds, np.arange(ds.N))
        assert np.allclose(preds, preds[0])

    def test_refit_deviance_beats_zero_model(self):
        ds, spec, _ = signal_dataset(31, alpha=0.6, N=150)
        cv = cross_validate(ds, spec, folds=5, seed=2, grid_size=30)
        y = cv.prepared.problem.y
        fit = select_and_refit(cv)
        zero_dev = deviance(ds.family, y, np.full(y.size, y.mean()))
        assert fit.entry.deviance <= zero_dev + 1e-12

    def test_lambda_hat_on_grid(self):
        ds = noise_dataset(41)
        spec, _ = _groups(ds)
        cv = cross_validate(ds, spec, folds=5, seed=5, grid_size=12)
        fit = select_and_refit(cv)
        assert fit.entry is fit.path.entries[cv.index_one_se]
        assert fit.entry.lam == cv.lambdas[cv.index_one_se]
        assert fit.entry.lam == cv.lambda_one_se


class TestRefitReuse:
    def test_refit_reuses_the_grid_preparation(self, monkeypatch):
        import netcov.tuning as tuning

        ds = noise_dataset(51)
        spec, _ = _groups(ds)
        calls = []
        prep_fn = tuning.prepare

        def counted(*args, **kwargs):
            calls.append(args)
            return prep_fn(*args, **kwargs)

        monkeypatch.setattr(tuning, "prepare", counted)
        cv = cross_validate(ds, spec, folds=3, seed=4, grid_size=8)
        assert len(calls) == 4  # the grid's, then one per fold
        fit = select_and_refit(cv)
        assert len(calls) == 4
        assert fit.model.column_means is cv.prepared.model.column_means
        assert fit.cv.prepared is None and fit.cv == cv


class TestFoldJobs:
    """The folds run as jobs of :func:`netcov.jobs.run_jobs`."""

    def test_folds_match_at_one_and_two_workers(self, monkeypatch):
        ds, spec, _ = signal_dataset(12, alpha=0.6, N=80)
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NETCOV_THREADS", threads)
            results.append(cross_validate(ds, spec, folds=3, seed=5,
                                          grid_size=6))
        for name in ("fold_deviance", "mean_deviance", "se",
                     "fold_assignment"):
            np.testing.assert_array_equal(getattr(results[0], name),
                                          getattr(results[1], name))
        assert results[0].index_one_se == results[1].index_one_se

    def test_fold_payloads_leave_the_dataset_out(self, monkeypatch):
        # the dataset reaches each worker once, with the pool's initializer;
        # a job sent through the pool's pipe carries rows and the grid
        import multiprocessing
        import pickle
        from concurrent.futures import ProcessPoolExecutor
        from netcov import jobs

        sent = []

        class Measured(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                super().__init__(max_workers, **kwargs,
                                 mp_context=multiprocessing.get_context("fork"))

            def submit(self, fn, *args, **kwargs):
                sent.append(len(pickle.dumps((fn, args, kwargs))))
                return super().submit(fn, *args, **kwargs)

        rng = np.random.default_rng(4)
        ds = make_dataset(rng, np.repeat([1, 2], 24).tolist(), N=600)
        assert ds.edges.nbytes + ds.node_covs.nbytes >= 5e6
        spec = ebg_groups(ds.communities, ds.index)
        monkeypatch.setattr(jobs, "ProcessPoolExecutor", Measured)
        monkeypatch.setenv("NETCOV_THREADS", "2")
        cross_validate(ds, spec, folds=3, seed=1, grid_size=3)
        assert len(sent) == 3 and max(sent) < 1e6

    def test_traced_fit_sees_every_fold_layer(self, tmp_path, monkeypatch):
        # the benchmark traces the fold job's prepare, fit_path and
        # holdout_deviance at their netcov.tuning names: a job bound to
        # them at import would leave the traced fold layers at zero
        import importlib.util
        from pathlib import Path
        from netcov import cli, save_dataset

        path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
        spec = importlib.util.spec_from_file_location("netcov_fold_spans",
                                                      path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        save_dataset(noise_dataset(21, N=40), str(tmp_path / "data"))
        monkeypatch.delenv("NETCOV_THREADS", raising=False)
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert cli.main(["fit", "--data", str(tmp_path / "data"),
                             "--scheme", "ebg", "--out", str(tmp_path / "fit"),
                             "--seed", "3", "--folds", "3",
                             "--grid-size", "5"]) == 0
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        assert metrics["pipeline.prepare_calls"] == 4  # the grid's, 3 folds
        assert metrics["solver.points"] == 20  # 4 paths of 5 points
        assert metrics["preprocess.back_transform_calls"] == 20
        assert metrics["pipeline.holdout_deviance_s"] > 0


class TestOnePredictionPath:
    """The training transforms of a preparation reproduce the solver's
    linear predictor and score held-out rows as a hand computation does."""

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_transform_matches_solver_and_hand_holdout(self, family):
        rng = np.random.default_rng(8)
        beta = np.zeros(21)
        beta[[0, 1, 2, 15]] = 1.5
        ds = make_dataset(rng, [1, 1, 1, 2, 2, 2], d=1, N=90, family=family,
                          beta=beta, nuisance_q=2)
        spec = ebg_groups(ds.communities, ds.index)
        cv = cross_validate(ds, spec, folds=3, seed=6, grid_size=10)
        U = cv.prepared.problem.U
        fit = select_and_refit(cv)
        assert np.any(fit.model.beta != 0.0)

        # training rows: mu + Z beta equals the solver's mu + U beta_tilde
        entry = fit.entry
        Z, _ = fit.model.transform(ds, np.arange(ds.N))
        eta_model = fit.model.mu + Z @ fit.model.beta
        eta_solver = entry.mu + U @ entry.beta_tilde
        scale = max(1.0, np.abs(eta_solver).max())
        assert np.abs(eta_model - eta_solver).max() <= 1e-10 * scale

        # fold 0 scored by hand from its own training statistics
        tr = np.flatnonzero(cv.fold_assignment != 0)
        ho = np.flatnonzero(cv.fold_assignment == 0)
        prep = prepare(ds, spec, tr)
        path = fit_path(prep.problem, prep.basis, prep.emap,
                        lambdas=cv.lambdas)
        got = holdout_deviance(prep.model, ds, ho, path.entries)
        np.testing.assert_array_equal(got, cv.fold_deviance[0])

        raw = np.hstack([ds.edges, ds.node_covs])
        M = np.column_stack([np.ones(ds.N), ds.nuisance])
        coefs = np.linalg.lstsq(M[tr], raw[tr], rcond=None)[0]
        corrected = raw - M @ coefs
        means = corrected[tr].mean(axis=0)
        sds = corrected[tr].std(axis=0)
        Z_ho = (corrected[ho] - means) / sds
        y = ds.y
        if family == "gaussian":
            y = y - M @ np.linalg.lstsq(M[tr], y[tr], rcond=None)[0]
            y = (y - y[tr].mean()) / y[tr].std()
        y_ho = y[ho]
        for dev, e in zip(got, path.entries):
            eta = e.mu + Z_ho @ e.beta
            if family == "gaussian":
                expected = 0.5 * np.sum((y_ho - eta) ** 2)
            else:
                expected = -2.0 * np.sum(y_ho * eta - np.logaddexp(0.0, eta))
            assert dev == pytest.approx(expected / ho.size, rel=1e-10)
