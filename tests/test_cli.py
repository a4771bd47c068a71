import csv
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from netcov import cli


def write_config(path, extra=""):
    path.write_text(
        "seed = 5\n"
        "experiment.schemes = ebg\n"
        "experiment.families = gaussian\n"
        "experiment.n_active = 1\n"
        "experiment.alphas = 0.6\n"
        "experiment.replicates = 1\n"
        "data.N = 40\n"
        "data.K = 2\n"
        "data.nodes_per_community = 3\n"
        "data.d = 1\n"
        + extra
    )
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_unknown_keys_listed(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\nexperiment.schemez = ebg\nbogus = 2\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(str(cfg))
        assert "bogus" in str(err.value)
        assert "experiment.schemez" in str(err.value)

    def test_missing_seed(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("experiment.schemes = ebg\n")
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.load_config(str(cfg))

    def test_missing_seed_exit_code(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("experiment.schemes = ebg\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_preset_expands_to_full_grid(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\nexperiment.preset = experiment-i\n")
        resolved = cli.load_config(str(cfg))
        cells = cli.enumerate_cells(resolved)
        # 2 schemes x 2 families x 2 active-set sizes x 20 alphas = 160
        # settings, each replicated 10 times
        assert len(cells) == 1600
        settings = {(c.scheme, c.family, c.n_active, c.alpha_index)
                    for c in cells}
        assert len(settings) == 160
        assert all(c.replicate in range(10) for c in cells)

    def test_flag_overrides_file(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg")
        resolved = cli.load_config(cfg, {"seed": "99"})
        assert resolved["seed"] == "99"

    def test_invalid_scheme_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["fit", "--data", "x", "--scheme", "banana",
                      "--out", "y", "--seed", "1"])
        assert err.value.code == 2


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    cfg = write_config(root / "c.cfg")
    out = root / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    cells = sorted(os.listdir(out / "cells"))
    assert len(cells) == 1
    return str(out / "cells" / cells[0])


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "ebg"
    assert cli.main(["fit", "--data", sim_dir, "--scheme", "ebg", "--out",
                     str(out), "--folds", "3", "--grid-size", "8",
                     "--seed", "3"]) == 0
    return out


class TestSimulate:
    def test_cell_directory_contents(self, sim_dir):
        names = set(os.listdir(sim_dir))
        assert {"A.csv", "X.csv", "y.csv", "communities.csv", "manifest",
                "truth.csv", "scenario.csv"} <= names

    def test_manifest_declares_split(self, sim_dir):
        from netcov.data import read_manifest

        manifest = read_manifest(os.path.join(sim_dir, "manifest"))
        assert manifest["train_rows"] == "1-40"
        assert manifest["test_rows"] == "41-80"

    def test_scenario_row(self, sim_dir):
        rows = read_rows(os.path.join(sim_dir, "scenario.csv"))
        assert rows[0]["scheme"] == "ebg"
        assert rows[0]["difficulty_metric"] == "snr"
        assert float(rows[0]["difficulty"]) > 0

    def test_deterministic_rerun(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("A.csv", "y.csv", "truth.csv"):
            a = next((out1 / "cells").glob(f"*/{name}")).read_bytes()
            b = next((out2 / "cells").glob(f"*/{name}")).read_bytes()
            assert a == b


class TestFit:
    @pytest.mark.parametrize("scheme", ["ebg", "nbg", "lasso"])
    def test_fit_writes_artifacts(self, sim_dir, tmp_path, scheme):
        out = tmp_path / f"fit_{scheme}"
        code = cli.main(["fit", "--data", sim_dir, "--scheme", scheme,
                         "--out", str(out), "--folds", "3",
                         "--grid-size", "8", "--seed", "3"])
        assert code == 0
        names = set(os.listdir(out))
        assert {"cv.csv", "path.csv", "coefficients.csv",
                "active_groups.csv", "groups.csv", "standardization.csv",
                "fit_info", "run_manifest"} <= names
        assert (out / "coef_000.csv").exists()
        assert (out / "coef_007.csv").exists()
        coef = read_rows(out / "coefficients.csv")
        assert len(coef) == 21  # p = 15 edges + 6 covariates

    def test_cv_csv_flags(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        cli.main(["fit", "--data", sim_dir, "--scheme", "ebg", "--out",
                  str(out), "--folds", "3", "--grid-size", "8",
                  "--seed", "3"])
        rows = read_rows(out / "cv.csv")
        assert len(rows) == 8
        assert sum(int(r["is_min"]) for r in rows) == 1
        assert sum(int(r["is_one_se"]) for r in rows) == 1

    def test_strong_signal_recovers_group(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        cli.main(["fit", "--data", sim_dir, "--scheme", "ebg", "--out",
                  str(out), "--folds", "5", "--grid-size", "30",
                  "--seed", "3"])
        active = read_rows(out / "active_groups.csv")
        assert any(r["group"] == "(1,1)" for r in active)


class TestSplitCommunities:
    def test_thirteen_community_layout_splits_to_fifty(self, tmp_path):
        # dataset with the 13-community atlas layout, tiny sample size
        from test_groups import atlas_map
        from netcov import Dataset, save_dataset

        rng = np.random.default_rng(0)
        cm = atlas_map()
        n = cm.n
        N = 14
        ds = Dataset(
            edges=rng.standard_normal((N, n * (n - 1) // 2)),
            node_covs=rng.standard_normal((N, n)),
            y=rng.standard_normal(N),
            communities=cm, family="gaussian",
            train_rows=np.arange(10), test_rows=np.arange(10, 14),
        )
        data_dir = tmp_path / "data"
        save_dataset(ds, str(data_dir))
        out = tmp_path / "fit"
        code = cli.main(["fit", "--data", str(data_dir), "--scheme", "nbg",
                         "--out", str(out), "--folds", "3", "--grid-size",
                         "4", "--seed", "1", "--split-communities", "5"])
        assert code == 0
        groups = {r["group"] for r in read_rows(out / "groups.csv")}
        assert len(groups) == 50


class TestEvaluate:
    def test_synthetic_cell_full_row(self, sim_dir, tmp_path):
        fit_dir = tmp_path / "fit"
        cli.main(["fit", "--data", sim_dir, "--scheme", "ebg", "--out",
                  str(fit_dir), "--folds", "3", "--grid-size", "8",
                  "--seed", "3"])
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                         sim_dir, "--out", str(out)]) == 0
        row = read_rows(out / "metrics.csv")[0]
        assert row["method"] == "netcov:ebg"
        assert row["recall"] != ""
        assert row["correlation"] not in ("", None)
        roc = read_rows(out / "roc.csv")
        assert len(roc) == 8
        assert roc[0]["fpr"] == "0.0" and roc[0]["tpr"] == "0.0"

    def test_without_truth_prediction_only(self, sim_dir, tmp_path):
        import shutil

        data2 = tmp_path / "data_no_truth"
        shutil.copytree(sim_dir, data2)
        os.remove(data2 / "truth.csv")
        os.remove(data2 / "scenario.csv")
        fit_dir = tmp_path / "fit"
        cli.main(["fit", "--data", str(data2), "--scheme", "lasso", "--out",
                  str(fit_dir), "--folds", "3", "--grid-size", "8",
                  "--seed", "3"])
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                         str(data2), "--out", str(out)]) == 0
        row = read_rows(out / "metrics.csv")[0]
        assert row["recall"] == "NA"
        assert row["correlation"] != "NA"
        assert not (out / "roc.csv").exists()

    def test_mismatched_p_is_data_error(self, sim_dir, tmp_path):
        fit_dir = tmp_path / "fit"
        cli.main(["fit", "--data", sim_dir, "--scheme", "ebg", "--out",
                  str(fit_dir), "--folds", "3", "--grid-size", "8",
                  "--seed", "3"])
        cfg = write_config(tmp_path / "c2.cfg",
                           extra="data.nodes_per_community = 4\n")
        out2 = tmp_path / "other"
        cli.main(["simulate", "--config", cfg, "--out", str(out2)])
        other = next((out2 / "cells").glob("*"))
        code = cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                         str(other), "--out", str(tmp_path / "eval")])
        assert code == 3

    @pytest.mark.parametrize("index", [21, 99, -1])
    @pytest.mark.parametrize("target", ["coefficients.csv", "truth.csv"])
    def test_feature_index_out_of_range(self, sim_dir, fit_dir, tmp_path,
                                        capsys, target, index):
        # p = 21 here; an index past it, or negative, is a data error
        fit_copy, data_copy = tmp_path / "fit", tmp_path / "data"
        shutil.copytree(fit_dir, fit_copy)
        shutil.copytree(sim_dir, data_copy)
        path = (fit_copy if target == "coefficients.csv" else data_copy) / target
        lines = path.read_text().splitlines()
        lines[1] = ",".join([str(index)] + lines[1].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         str(data_copy), "--out", str(tmp_path / "eval")])
        assert code == 3
        assert (f"feature index {index} outside 0..20"
                in capsys.readouterr().err)


class TestNuisanceEvaluate:
    def test_evaluate_matches_in_process_prediction(self, tmp_path):
        # fit writes nuisance_model.csv; evaluate must predict exactly as
        # the in-process pipeline does from the same fit
        from conftest import make_dataset
        from netcov import load_dataset, save_dataset
        from netcov.metrics import prediction_metrics
        from netcov.pipeline import make_groups
        from netcov.tuning import cross_validate, select_and_refit

        rng = np.random.default_rng(4)
        beta = np.zeros(21)
        beta[[0, 1, 2, 15]] = 1.0
        ds = make_dataset(rng, [1, 1, 1, 2, 2, 2], d=1, N=80, beta=beta,
                          nuisance_q=2)
        ds = replace(ds, y=ds.y + 2.0 * ds.nuisance[:, 0],
                     train_rows=np.arange(60), test_rows=np.arange(60, 80))
        data_dir = tmp_path / "data"
        save_dataset(ds, str(data_dir))
        fit_dir, eval_dir = tmp_path / "fit", tmp_path / "eval"
        assert cli.main(["fit", "--data", str(data_dir), "--scheme", "ebg",
                         "--out", str(fit_dir), "--folds", "3",
                         "--grid-size", "8", "--seed", "3"]) == 0
        assert (fit_dir / "nuisance_model.csv").exists()
        assert cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                         str(data_dir), "--out", str(eval_dir)]) == 0
        row = read_rows(eval_dir / "metrics.csv")[0]

        ds = load_dataset(str(data_dir))
        spec, _ = make_groups(ds, "ebg", seed=(3, 11))
        cv = cross_validate(ds, spec, folds=3, seed=3, grid_size=8,
                            min_ratio=0.05)
        fit = select_and_refit(cv)
        assert np.any(fit.beta != 0.0)
        yhat, y = fit.model.predict(ds, ds.test_rows)
        expected = prediction_metrics(yhat, y, ds.family).correlation
        assert float(row["correlation"]) == expected

    @pytest.mark.parametrize("q", [0, 1])
    def test_nuisance_mismatch_is_named(self, tmp_path, capsys, q):
        from conftest import make_dataset
        from netcov import save_dataset

        rng = np.random.default_rng(6)
        ds = make_dataset(rng, [1, 1, 1, 2, 2, 2], d=1, N=40, nuisance_q=2)
        ds = replace(ds, train_rows=np.arange(30), test_rows=np.arange(30, 40))
        save_dataset(ds, str(tmp_path / "data"))
        save_dataset(replace(ds, nuisance=ds.nuisance[:, :q] if q else None),
                     str(tmp_path / "other"))
        fit_dir = tmp_path / "fit"
        assert cli.main(["fit", "--data", str(tmp_path / "data"), "--scheme",
                         "ebg", "--out", str(fit_dir), "--folds", "3",
                         "--grid-size", "6", "--seed", "3"]) == 0
        code = cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                         str(tmp_path / "other"), "--out",
                         str(tmp_path / "eval")])
        assert code == 3
        assert (f"dataset has {q} nuisance columns but the fit was trained "
                "with 2" in capsys.readouterr().err)


@pytest.fixture(scope="module")
def nuisance_fit(tmp_path_factory):
    """(data dir, fit dir) of a gaussian EBG fit with one nuisance column."""
    from conftest import make_dataset
    from netcov import save_dataset

    root = tmp_path_factory.mktemp("nuisance_fit")
    ds = make_dataset(np.random.default_rng(8), [1, 1, 2, 2], d=1, N=40,
                      nuisance_q=1)
    ds = replace(ds, train_rows=np.arange(30), test_rows=np.arange(30, 40))
    save_dataset(ds, str(root / "data"))
    assert cli.main(["fit", "--data", str(root / "data"), "--scheme", "ebg",
                     "--out", str(root / "fit"), "--folds", "3",
                     "--grid-size", "6", "--seed", "3"]) == 0
    return root / "data", root / "fit"


def _set_field(path, row, column, text):
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[column] = text
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


class TestFitFileNumbers:
    """evaluate refuses a fit file holding a number no fit can write."""

    CASES = {
        "nan_coefficient": (lambda f: _set_field(f / "coefficients.csv",
                                                 2, 1, "nan"),
                            "coefficients.csv: beta is not finite"),
        "inf_mean": (lambda f: _set_field(f / "standardization.csv",
                                          1, 1, "inf"),
                     "standardization.csv: mean is not finite"),
        "nan_sd": (lambda f: _set_field(f / "standardization.csv",
                                        3, 2, "nan"),
                   "standardization.csv: sd is not finite"),
        "negative_sd": (lambda f: _set_field(f / "standardization.csv",
                                             3, 2, "-0.5"),
                        "standardization.csv: sd is negative"),
        "nan_intercept": (lambda f: _edit_manifest(f / "fit_info",
                                                   "intercept", "nan"),
                          "fit_info: intercept is not finite"),
        "inf_y_mean": (lambda f: _edit_manifest(f / "fit_info",
                                                "y_mean", "-inf"),
                       "fit_info: y_mean is not finite"),
        "nan_y_sd": (lambda f: _edit_manifest(f / "fit_info", "y_sd", "nan"),
                     "fit_info: y_sd is not finite"),
        "negative_y_sd": (lambda f: _edit_manifest(f / "fit_info", "y_sd",
                                                   "-1.0"),
                          "fit_info: y_sd is not positive"),
        "nan_nuisance_coefficient": (
            lambda f: _set_field(f / "nuisance_model.csv", 1, 2, "nan"),
            "nuisance_model.csv: row f0 is not finite"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_evaluate_exits_3_naming_the_file(self, nuisance_fit, tmp_path,
                                              capsys, case):
        data_dir, fit_dir = nuisance_fit
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        corrupt, message = self.CASES[case]
        corrupt(fit_copy)
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         str(data_dir), "--out", str(tmp_path / "eval")])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_zero_sd_is_legal(self, nuisance_fit, tmp_path):
        # sd 0 marks a column constant on the training rows
        data_dir, fit_dir = nuisance_fit
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        _set_field(fit_copy / "standardization.csv", 3, 2, "0.0")
        assert cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         str(data_dir), "--out", str(tmp_path / "eval")]) == 0


class TestTrainingConstantColumn:
    # the LASSO drops that column's rank-0 group, so it never sees it
    @pytest.mark.parametrize("scheme", ["ebg", "nbg"])
    def test_test_row_values_never_reach_the_prediction(self, tmp_path,
                                                        scheme):
        # edge 5 is constant on the training rows: its sd is 0 and it
        # contributes exactly 0 to every prediction, whatever its test rows
        from conftest import make_dataset
        from netcov import save_dataset

        rng = np.random.default_rng(11)
        beta = np.zeros(21)
        beta[[0, 1, 2, 15]] = 1.0
        ds = make_dataset(rng, [1, 1, 1, 2, 2, 2], d=1, N=80, beta=beta)
        edges = ds.edges.copy()
        edges[:60, 5] = 2.5
        ds = replace(ds, edges=edges, train_rows=np.arange(60),
                     test_rows=np.arange(60, 80))
        moved = edges.copy()
        moved[60:, 5] = 1e3 * rng.standard_normal(20)
        save_dataset(ds, str(tmp_path / "data"))
        save_dataset(replace(ds, edges=moved), str(tmp_path / "moved"))
        fit_dir = tmp_path / "fit"
        assert cli.main(["fit", "--data", str(tmp_path / "data"), "--scheme",
                         scheme, "--out", str(fit_dir), "--folds", "3",
                         "--grid-size", "8", "--seed", "3"]) == 0
        sds = read_rows(fit_dir / "standardization.csv")
        assert float(sds[5]["sd"]) == 0.0
        metrics = []
        for data in ("data", "moved"):
            out = tmp_path / f"eval_{data}"
            assert cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                             str(tmp_path / data), "--out", str(out)]) == 0
            metrics.append((out / "metrics.csv").read_bytes())
        assert metrics[0] == metrics[1]


def _corrupt_first_value(path, text):
    lines = path.read_text().splitlines()
    fields = lines[0].split(",")
    lines[0] = ",".join([text] + fields[1:])
    path.write_text("\n".join(lines) + "\n")


def _edit_manifest(path, key, value):
    lines = [f"{key} = {value}" if line.startswith(key) else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")


class TestBadInputRejected:
    """Bad data is refused when the dataset loads, with exit code 3."""

    CASES = {
        "nan_edge": (lambda d: _corrupt_first_value(d / "A.csv", "nan"),
                     "edges contains NaN or infinite values"),
        "inf_node_cov": (lambda d: _corrupt_first_value(d / "X.csv", "inf"),
                         "node_covs contains NaN or infinite values"),
        "nan_response": (lambda d: _corrupt_first_value(d / "y.csv", "nan"),
                         "y contains NaN or infinite values"),
        "nan_nuisance": (lambda d: _corrupt_first_value(d / "nuisance.csv",
                                                        "nan"),
                         "nuisance contains NaN or infinite values"),
        "duplicate_train_row": (
            lambda d: _edit_manifest(d / "manifest", "train_rows", "1-10,5"),
            "train_rows lists a row more than once"),
        "duplicate_test_row": (
            lambda d: _edit_manifest(d / "manifest", "test_rows", "11-14,12"),
            "test_rows lists a row more than once"),
        "overlapping_rows": (
            lambda d: _edit_manifest(d / "manifest", "test_rows", "10-14"),
            "train_rows and test_rows overlap"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fit_exits_3_naming_the_problem(self, tmp_path, capsys, case):
        from conftest import make_dataset
        from netcov import save_dataset

        ds = make_dataset(np.random.default_rng(6), [1, 1, 2, 2], d=1,
                          N=14, nuisance_q=1)
        ds = replace(ds, train_rows=np.arange(10),
                     test_rows=np.arange(10, 14))
        data_dir = tmp_path / "data"
        save_dataset(ds, str(data_dir))
        corrupt, message = self.CASES[case]
        corrupt(data_dir)
        code = cli.main(["fit", "--data", str(data_dir), "--scheme", "ebg",
                         "--out", str(tmp_path / "fit"), "--folds", "3",
                         "--grid-size", "4", "--seed", "1"])
        assert code == 3
        assert message in capsys.readouterr().err


class TestCpm:
    def test_planted_signal(self, tmp_path):
        from netcov import Dataset, save_dataset, FeatureIndex, CommunityMap

        rng = np.random.default_rng(1)
        idx = FeatureIndex(n=10, d=1)
        N = 700
        edges = rng.standard_normal((N, idx.n_edges))
        covs = rng.standard_normal((N, 10))
        y = edges[:, 0] - edges[:, 5] + 0.5 * rng.standard_normal(N)
        ds = Dataset(edges=edges, node_covs=covs, y=y,
                     communities=CommunityMap(
                         assignments=np.repeat([1, 2], 5)),
                     family="gaussian",
                     train_rows=np.arange(500),
                     test_rows=np.arange(500, 700))
        data_dir = tmp_path / "data"
        save_dataset(ds, str(data_dir))
        out = tmp_path / "cpm"
        assert cli.main(["cpm", "--data", str(data_dir), "--out", str(out),
                         "--alpha", "0.0001"]) == 0
        row = read_rows(out / "metrics.csv")[0]
        assert float(row["correlation"]) > 0.5
        edges_rows = read_rows(out / "cpm_edges.csv")
        assert {r["sign"] for r in edges_rows} == {"+", "-"}

    def test_binomial_rejected(self, tmp_path):
        from conftest import make_dataset

        rng = np.random.default_rng(2)
        ds = make_dataset(rng, [1, 1, 2, 2], d=1, N=30, family="binomial")
        from netcov import save_dataset

        data_dir = tmp_path / "data"
        save_dataset(ds, str(data_dir))
        code = cli.main(["cpm", "--data", str(data_dir),
                         "--out", str(tmp_path / "o")])
        assert code == 3

    def test_nuisance_mismatch_is_named(self):
        # `netcov cpm` fits and scores one dataset, so the mismatch is built
        # here on the row transform it scores test rows with
        from conftest import make_dataset
        from netcov.pipeline import corrected_rows, nuisance_corrected

        rng = np.random.default_rng(3)
        ds = make_dataset(rng, [1, 1, 2, 2], d=1, N=30, nuisance_q=2)
        _, _, model = nuisance_corrected(ds, np.arange(20))
        for q, other in ((1, replace(ds, nuisance=ds.nuisance[:, :1])),
                         (0, replace(ds, nuisance=None))):
            with pytest.raises(ValueError, match=(
                    f"dataset has {q} nuisance columns but the fit was "
                    "trained with 2")):
                corrected_rows(model, other, np.arange(20, 30))

    def test_default_threshold(self):
        parser = cli.build_parser()
        args = parser.parse_args(["cpm", "--data", "x", "--out", "y"])
        assert args.alpha == 0.01


def sweep_config(path, alphas="0.3,0.6", methods="scheme,lasso"):
    path.write_text(
        "seed = 11\n"
        "experiment.schemes = ebg\n"
        "experiment.families = gaussian\n"
        "experiment.n_active = 1\n"
        f"experiment.alphas = {alphas}\n"
        "experiment.replicates = 1\n"
        "data.N = 40\n"
        "data.K = 2\n"
        "data.nodes_per_community = 3\n"
        "data.d = 1\n"
        "solver.grid_size = 8\n"
        "solver.folds = 3\n"
        f"sweep.methods = {methods}\n"
    )
    return str(path)


class TestSweep:
    def test_end_to_end_rows(self, tmp_path):
        cfg = sweep_config(tmp_path / "c.cfg", methods="scheme,lasso,cpm")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "metrics.csv")
        # 2 cells x (netcov:ebg, lasso, cpm)
        assert len(rows) == 6
        assert {r["method"] for r in rows} == {"netcov:ebg", "lasso", "cpm"}

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = sweep_config(tmp_path / "c.cfg")
        out1 = tmp_path / "o1"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        out2 = tmp_path / "o2"
        assert cli.main(["sweep", "--config", str(out1 / "run_manifest"),
                         "--out", str(out2)]) == 0
        a = (out1 / "metrics.csv").read_bytes()
        b = (out2 / "metrics.csv").read_bytes()
        assert a == b

    def test_worker_pool_matches_sequential(self, tmp_path):
        cfg = sweep_config(tmp_path / "c.cfg")
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        os.environ["NETCOV_THREADS"] = "2"
        try:
            assert cli.main(["sweep", "--config", cfg,
                             "--out", str(out2)]) == 0
        finally:
            del os.environ["NETCOV_THREADS"]
        assert ((out1 / "metrics.csv").read_bytes()
                == (out2 / "metrics.csv").read_bytes())

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
    def test_bad_thread_count_is_config_error(self, tmp_path, monkeypatch,
                                              capsys, value):
        monkeypatch.setenv("NETCOV_THREADS", value)
        cfg = sweep_config(tmp_path / "c.cfg")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "NETCOV_THREADS must be a positive integer" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_pool_capped_at_cell_count(self, tmp_path, monkeypatch):
        # a recorder in place of the pool: no worker process is started
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
        monkeypatch.setenv("NETCOV_THREADS", "5000")
        cfg = sweep_config(tmp_path / "c.cfg")
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        assert started == [2]
