import numpy as np
import pytest

from netcov import (CommunityMap, FeatureIndex, build_design, ebg_groups,
                    gen_design_synthetic, gen_semisynthetic, load_dataset,
                    make_beta, nbg_groups, save_dataset, scenario_difficulty,
                    draw_response)
from netcov import cli
from netcov.files import load_truth_csv, write_truth_csv
from netcov.simulate import (ExperimentConfig, PRESET_ACTIVE_GROUPS,
                             default_communities)


def small_config(**kw):
    defaults = dict(scheme="EBG", active_groups=("(1,1)",), alpha=0.2,
                    family="gaussian", N=50, K=3, nodes_per_community=3,
                    d=1, seed=12)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestMakeBeta:
    def test_presets_resolve_on_default_layout(self):
        cm = default_communities(10, 5)
        idx = FeatureIndex(n=50, d=1)
        for (scheme, k), names in PRESET_ACTIVE_GROUPS.items():
            spec = (nbg_groups if scheme == "NBG" else ebg_groups)(cm, idx)
            truth = make_beta(spec, names, 0.2)
            assert len(truth.active_groups) == k
            union = np.unique(np.concatenate(
                [spec.members[spec.lookup(n)] for n in names]))
            np.testing.assert_array_equal(np.flatnonzero(truth.beta), union)

    def test_toy_counts(self):
        cm = CommunityMap(assignments=[1, 1, 2])
        spec = ebg_groups(cm, FeatureIndex(n=3, d=1))
        truth = make_beta(spec, ("(1,1)",), 0.2)
        assert np.sum(truth.beta != 0) == 3
        assert set(truth.beta[truth.beta != 0]) == {0.2}

    def test_unknown_group_rejected(self):
        cm = CommunityMap(assignments=[1, 1, 2])
        spec = ebg_groups(cm, FeatureIndex(n=3, d=1))
        with pytest.raises(ValueError, match="no group"):
            make_beta(spec, ("(7,7)",), 0.2)

    def test_support_matches_groups_csv_union(self, tmp_path):
        # independent oracle: re-derive the support from the exported file
        import csv

        from netcov.files import write_groups_csv

        cm = default_communities(4, 3)
        spec = ebg_groups(cm, FeatureIndex(n=12, d=1))
        names = ("(1,1)", "(2,3)")
        truth = make_beta(spec, names, 0.3)
        path = tmp_path / "groups.csv"
        write_groups_csv(spec, str(path))
        union = set()
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["group"] in names:
                    union.add(int(row["feature_index"]))
        assert union == set(np.flatnonzero(truth.beta).tolist())


class TestSyntheticDesign:
    def test_default_sizes(self):
        cfg = ExperimentConfig(scheme="EBG", active_groups=("(1,1)",),
                               alpha=0.2, family="gaussian", seed=1)
        ds = gen_design_synthetic(cfg)
        assert ds.index.n == 50
        assert ds.index.p == 1275
        assert ds.N == 2000  # shared design: train rows then test rows

    def test_shared_design(self):
        ds = gen_design_synthetic(small_config())
        np.testing.assert_array_equal(ds.edges[ds.train_rows],
                                      ds.edges[ds.test_rows])

    def test_seeded_determinism(self):
        a = gen_design_synthetic(small_config())
        b = gen_design_synthetic(small_config())
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.node_covs, b.node_covs)
        c = gen_design_synthetic(small_config(seed=13))
        assert not np.array_equal(a.edges, c.edges)

    def test_seed_is_required(self):
        # without a seed a config would draw a fresh design on every call
        kw = dict(scheme="EBG", active_groups=("(1,1)",), alpha=0.2,
                  family="gaussian", N=20)
        with pytest.raises(TypeError, match="seed"):
            ExperimentConfig(**kw)
        with pytest.raises(TypeError):
            ExperimentConfig("EBG", ("(1,1)",), 0.2, "gaussian", 20, 3, 3, 1,
                             12)
        with pytest.raises(TypeError):
            gen_design_synthetic(ExperimentConfig(**kw, seed=None))

    def test_column_means_concentrate(self):
        cfg = ExperimentConfig(scheme="EBG", active_groups=("(1,1)",),
                               alpha=0.2, family="gaussian", seed=5)
        ds = gen_design_synthetic(cfg)
        Z = build_design(ds)[ds.train_rows]
        assert np.max(np.abs(Z.mean(axis=0))) < 0.15  # 4 / sqrt(1000)


class TestDrawResponse:
    def test_null_gaussian_variance(self):
        cfg = small_config(N=1000, seed=3)
        ds = gen_design_synthetic(cfg)
        spec = ebg_groups(ds.communities, ds.index)
        truth = make_beta(spec, ("(1,1)",), 1e-12)
        truth = type(truth)(beta=np.zeros(ds.index.p), active_groups=())
        y = draw_response(ds, truth, "gaussian", seed=3)
        v = y[ds.train_rows].var()
        assert 0.85 <= v <= 1.15
        # no intercept: the null responses are the noise alone
        assert abs(y[ds.train_rows].mean()) < 0.15  # 4 / sqrt(1000)

    def test_null_binomial_rate(self):
        cfg = small_config(N=1000, family="binomial", seed=4)
        ds = gen_design_synthetic(cfg)
        truth = make_beta(ebg_groups(ds.communities, ds.index),
                          ("(1,1)",), 1e-9)
        y = draw_response(ds, truth, "binomial", seed=4)
        assert 0.45 <= y[ds.train_rows].mean() <= 0.55
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_deterministic(self):
        ds = gen_design_synthetic(small_config())
        spec = ebg_groups(ds.communities, ds.index)
        truth = make_beta(spec, ("(1,1)",), 0.2)
        a = draw_response(ds, truth, "gaussian", seed=9)
        b = draw_response(ds, truth, "gaussian", seed=9)
        np.testing.assert_array_equal(a, b)

    def test_train_test_responses_independent(self):
        ds = gen_design_synthetic(small_config())
        spec = ebg_groups(ds.communities, ds.index)
        truth = make_beta(spec, ("(1,1)",), 0.2)
        y = draw_response(ds, truth, "gaussian", seed=2)
        assert not np.array_equal(y[ds.train_rows], y[ds.test_rows])


class TestDifficulty:
    def test_exact_at_null(self):
        ds = gen_design_synthetic(small_config())
        zero = make_beta(ebg_groups(ds.communities, ds.index), ("(1,1)",), 1.0)
        null = type(zero)(beta=np.zeros(ds.index.p), active_groups=())
        metric, snr = scenario_difficulty(ds, null, "gaussian")
        assert (metric, snr) == ("snr", 0.0)
        metric, be = scenario_difficulty(ds, null, "binomial")
        assert (metric, be) == ("bayes_error", 0.5)

    def test_snr_is_predictor_variance(self, rng):
        ds = gen_design_synthetic(small_config(N=200))
        spec = ebg_groups(ds.communities, ds.index)
        truth = make_beta(spec, ("(1,1)",), 0.3)
        Z = build_design(ds)[ds.train_rows]
        _, snr = scenario_difficulty(ds, truth, "gaussian")
        assert snr == pytest.approx(np.var(Z @ truth.beta), rel=1e-12)

    def test_single_feature_snr_near_alpha_squared(self):
        # one unit-variance feature with coefficient 0.2: SNR -> 0.04
        cfg = small_config(N=1000, seed=21)
        ds = gen_design_synthetic(cfg)
        beta = np.zeros(ds.index.p)
        beta[0] = 0.2
        truth = type(make_beta(ebg_groups(ds.communities, ds.index),
                               ("(1,1)",), 1.0))(
            beta=beta, active_groups=())
        _, snr = scenario_difficulty(ds, truth, "gaussian")
        assert 0.03 <= snr <= 0.05


class TestSemiSynthetic:
    def make_source(self, tmp_path, rng, N=40, n=8, d=1, K=3):
        labels = np.sort(rng.integers(1, K + 1, size=n))
        labels = np.unique(labels, return_inverse=True)[1] + 1
        cm = CommunityMap(assignments=labels)
        idx = FeatureIndex(n=n, d=d)
        from netcov import Dataset

        ds = Dataset(
            edges=rng.standard_normal((N, idx.n_edges)) + 2.0,
            node_covs=rng.standard_normal((N, n * d)) - 1.0,
            y=rng.standard_normal(N),
            communities=cm, family="gaussian",
            train_rows=np.arange(30), test_rows=np.arange(30, 40),
        )
        src = tmp_path / "source"
        save_dataset(ds, str(src))
        return str(src)

    def simulate(self, tmp_path, src, extra=""):
        """``netcov simulate`` of one EBG cell per family over ``src``,
        whose config says d = 1; returns {family: (dataset, truth)}."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "seed = 12\n"
            "experiment.schemes = ebg\n"
            "experiment.families = gaussian,binomial\n"
            "experiment.alphas = 0.2\n"
            "experiment.replicates = 1\n"
            "data.d = 1\n"
            f"data.design = {src}\n" + extra)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        cells = {}
        for family in ("gaussian", "binomial"):
            cell = out / "cells" / f"ebg_{family}_k1_a00_r00"
            ds = load_dataset(str(cell))
            cells[family] = ds, load_truth_csv(str(cell / "truth.csv"),
                                               ds.index.p)
        return cells

    def test_training_columns_centered(self, tmp_path, rng):
        src = self.make_source(tmp_path, rng)
        ds = gen_semisynthetic(src)
        Z = build_design(ds)
        assert np.max(np.abs(Z[ds.train_rows].mean(axis=0))) < 1e-12
        assert np.max(np.abs(Z[ds.test_rows].mean(axis=0))) > 1e-6
        np.testing.assert_array_equal(ds.y, 0.0)

    def test_manifest_split_sizes_accepted(self, tmp_path):
        # the published split declares 785 train / 96 test rows
        from netcov.data import parse_row_spec

        train = parse_row_spec("1-785")
        test = parse_row_spec("786-881")
        assert train.size == 785 and test.size == 96
        assert np.intersect1d(train, test).size == 0

    def test_truth_and_response_drawn(self, tmp_path, rng):
        src = self.make_source(tmp_path, rng)
        cells = self.simulate(tmp_path, src)
        for family, (ds, truth) in cells.items():
            assert ds.family == family
            assert np.sum(truth.beta != 0) > 0
        assert not np.allclose(cells["gaussian"][0].y, 0.0)
        assert set(cells["binomial"][0].y) == {0.0, 1.0}

    def test_community_split_applied(self, tmp_path, rng):
        # the truth is drawn over the split communities the cell saves
        src = self.make_source(tmp_path, rng, n=20, K=2)
        for ds, truth in self.simulate(
                tmp_path, src, "data.split_communities = 5\n").values():
            assert ds.communities.K > 2
            spec = ebg_groups(ds.communities, ds.index)
            np.testing.assert_array_equal(
                np.flatnonzero(truth.beta), spec.members[spec.lookup("(1,1)")])

    def test_groups_follow_source_index(self, tmp_path, rng):
        # the source has d=2 while the config says d=1: groups and truth
        # must be built over the source's coordinates
        src = self.make_source(tmp_path, rng, d=2)
        idx = FeatureIndex(n=8, d=2)
        for ds, truth in self.simulate(tmp_path, src).values():
            assert ds.index == idx
            spec = ebg_groups(ds.communities, idx)
            np.testing.assert_array_equal(
                np.flatnonzero(truth.beta), spec.members[spec.lookup("(1,1)")])

    def test_presets_checked_over_source_communities(self, tmp_path, rng,
                                                     capsys):
        # data.K says 10, but the source has 2 communities: no group (1,3)
        src = self.make_source(tmp_path, rng, K=2)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"seed = 1\nexperiment.n_active = 5\n"
                       f"data.design = {src}\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert ("config error: experiment.n_active: no group named '(1,3)'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_overlapping_split_rejected(self, tmp_path, rng):
        src = self.make_source(tmp_path, rng)
        manifest = tmp_path / "source" / "manifest"
        text = manifest.read_text().replace("test_rows = 31-40",
                                            "test_rows = 30-40")
        manifest.write_text(text)
        with pytest.raises(ValueError, match="overlap"):
            gen_semisynthetic(str(tmp_path / "source"))


class TestTruthCsv:
    def test_round_trip(self, tmp_path):
        cm = default_communities(3, 3)
        spec = ebg_groups(cm, FeatureIndex(n=9, d=1))
        truth = make_beta(spec, ("(1,2)",), 0.7)
        path = tmp_path / "truth.csv"
        write_truth_csv(truth, str(path))
        back = load_truth_csv(str(path), spec.p)
        np.testing.assert_array_equal(back.beta, truth.beta)
