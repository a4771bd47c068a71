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


def read_tree(out):
    """Every file under ``out`` but its run_manifest, by relative path."""
    return {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*")
            if f.is_file() and f != out / "run_manifest"}


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

    @pytest.mark.parametrize("case", [
        ("experiment.n_active", "x"), ("experiment.alphas", "abc"),
        ("experiment.alphas", "-1"), ("solver.folds", "abc"),
        ("sweep.methods", "foo"), ("solver.min_ratio", "2"),
        ("data.N", "-5"), ("experiment.replicates", "0"),
        ("experiment.alphas", ""), ("experiment.schemes", "ebg,ebg"),
        ("experiment.families", "gaussian,gaussian"),
        ("experiment.n_active", "1,01"),
        ("sweep.methods", "scheme,lasso,lasso"),
        ("sweep.methods", "scheme,ebg"), ("experiment.n_active", "3"),
        ("experiment.n_active", "5", "data.K=3", "experiment.schemes=nbg"),
        ("experiment.n_active", "5", "data.K=3", "experiment.schemes=ebg")],
        ids="-".join)
    def test_bad_value_refused_before_any_cell(self, tmp_path, capsys, case):
        # every key is converted and range-checked at load, so a bad
        # value is a config error naming its key and nothing is written;
        # a value listed twice (the config's scheme is ebg) would run its
        # cells or fits twice into one directory; there is no 3-group
        # preset, and one naming a group the communities lack (3 have no
        # group 4 or (4,4)) would stop the run after its first cells
        key, value, *others = case
        cfg = write_config(tmp_path / "c.cfg")
        out = tmp_path / "out"
        sets = [f"--set={item}" for item in (f"{key}={value}", *others)]
        code = cli.main(["sweep", "--config", cfg, "--out", str(out), *sets])
        assert code == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_five_group_presets_resolve_after_a_split(self, tmp_path):
        # 3 communities of 10 split to 6 of 5: both five-group presets
        # name groups of the split, which the check sees before any cell
        from netcov import load_dataset

        cfg = write_config(tmp_path / "c.cfg")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                         "--set", "data.K=3",
                         "--set", "data.nodes_per_community=10",
                         "--set", "data.split_communities=5",
                         "--set", "experiment.schemes=nbg,ebg",
                         "--set", "experiment.n_active=5"]) == 0
        for scheme in ("nbg", "ebg"):
            cell = out / "cells" / f"{scheme}_gaussian_k5_a00_r00"
            assert load_dataset(str(cell)).communities.K == 6

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        # a key listed twice would let the later line win unseen
        cfg = write_config(tmp_path / "c.cfg", "seed = 6\n")
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "c.cfg:11: key 'seed' repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_scheme_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["fit", "--data", "x", "--scheme", "banana",
                      "--out", "y", "--seed", "1"])
        assert err.value.code == 2

    def test_negative_fit_seed_is_usage_error(self, tmp_path, capsys):
        from conftest import make_dataset
        from netcov import save_dataset

        ds = make_dataset(np.random.default_rng(6), [1, 1, 2, 2], d=1, N=14)
        save_dataset(ds, str(tmp_path / "data"))
        code = cli.main(["fit", "--data", str(tmp_path / "data"), "--scheme",
                         "ebg", "--out", str(tmp_path / "fit"), "--folds", "3",
                         "--grid-size", "4", "--seed", "-1"])
        assert code == 2
        assert ("config error: seed must be at least 0, got '-1'"
                in capsys.readouterr().err)
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("folds", [0, 1, -2])
    def test_fewer_than_two_folds_exit_2(self, tmp_path, capsys, folds):
        from conftest import make_dataset
        from netcov import save_dataset

        ds = make_dataset(np.random.default_rng(6), [1, 1, 2, 2], d=1, N=14)
        save_dataset(ds, str(tmp_path / "data"))
        code = cli.main(["fit", "--data", str(tmp_path / "data"), "--scheme",
                         "ebg", "--out", str(tmp_path / "fit"), "--folds",
                         str(folds), "--grid-size", "4", "--seed", "1"])
        assert code == 2
        assert (f"config error: solver.folds must be at least 2, got "
                f"'{folds}'" in capsys.readouterr().err)
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("command,flag,value,key", [
        ("fit", "--folds", "0", "solver.folds"),
        ("fit", "--folds", "1", "solver.folds"),
        ("fit", "--grid-size", "1", "solver.grid_size"),
        ("fit", "--grid-size", "x", "solver.grid_size"),
        *[("fit", "--min-ratio", v, "solver.min_ratio")
          for v in ("0", "1", "2", "nan", "inf")],
        ("fit", "--split-communities", "0", "data.split_communities"),
        ("fit", "--split-communities", "1", "data.split_communities"),
        ("fit", "--seed", "-1", "seed"),
        ("fit", "--seed", "x", "seed"),
        *[("cpm", "--alpha", v, "alpha")
          for v in ("0", "-1", "2", "nan", "inf", "x")]])
    def test_bad_flag_is_config_error_before_any_read(
            self, tmp_path, capsys, command, flag, value, key):
        # --data names no directory: a 2 rather than a 3 shows that the
        # flag was refused before the dataset was read
        out = tmp_path / "out"
        argv = [command, "--data", str(tmp_path / "missing"),
                "--out", str(out), flag, value]
        if command == "fit":
            argv += ["--scheme", "ebg"] + ["--seed", "1"] * (flag != "--seed")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("netcov: config error: ")
        assert key in err
        assert not out.exists()

    def test_every_fit_flag_sets_a_config_key(self):
        # a fit flag reaches the run only through the config's conversion
        # and range checks, so it cannot skip them
        sub = next(action for action in cli.build_parser()._actions
                   if action.dest == "subcommand")
        dests = [action.dest for action in sub.choices["fit"]._actions
                 if action.option_strings and action.dest != "help"]
        flags = set(dests) - {"data", "scheme", "out"}
        assert len(flags) == len(dests) - 3
        assert flags <= set(cli.CONFIG_DEFAULTS) | {"seed"}


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

    def test_stale_tmp_cell_is_cleared(self, tmp_path):
        # a killed run's cells/<id>.tmp holds files this cell does not write:
        # under d = 0 and q = 0 either would make the cell unloadable
        from netcov import load_dataset

        cfg = tmp_path / "c.cfg"
        write_config(cfg)
        cfg.write_text(cfg.read_text().replace("data.d = 1", "data.d = 0"))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out",
                         str(out)]) == 0
        cell, = (out / "cells").iterdir()
        stale = out / "cells" / f"{cell.name}.tmp"
        stale.mkdir()
        (stale / "X.csv").write_text("1.0\n")
        (stale / "nuisance.csv").write_text("1.0\n")
        assert cli.main(["simulate", "--config", str(cfg), "--out",
                         str(out)]) == 0
        assert sorted(p.name for p in (out / "cells").iterdir()) == [cell.name]
        assert load_dataset(str(cell)).index.d == 0
        assert not {"X.csv", "nuisance.csv"} & set(os.listdir(cell))


    def test_semisynthetic_source_is_loaded_once(self, tmp_path,
                                                 monkeypatch):
        # four cells share one load of the source, in the process and
        # pickled to a pool; every cell holds the design a fresh load
        # gives, so no cell changed the arrays the next one reads
        from conftest import make_dataset
        from netcov import gen_semisynthetic, save_dataset
        from netcov import simulate as simulate_module

        ds = make_dataset(np.random.default_rng(9), [1, 1, 1, 2, 2, 2], d=1,
                          N=40, nuisance_q=2)
        source = tmp_path / "source"
        save_dataset(replace(ds, train_rows=np.arange(30),
                             test_rows=np.arange(30, 40)), str(source))
        fresh = tmp_path / "fresh"
        save_dataset(gen_semisynthetic(str(source)), str(fresh))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 11\n"
                       "experiment.schemes = ebg,nbg\n"
                       "experiment.alphas = 0.3,0.6\n"
                       "experiment.replicates = 1\n"
                       f"data.design = {source}\n")
        loads, load = [], simulate_module.load_dataset

        def counted(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(simulate_module, "load_dataset", counted)
        monkeypatch.setattr(cli, "load_dataset", counted)
        trees = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NETCOV_THREADS", threads)
            out = tmp_path / f"out-{threads}"
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(out)]) == 0
            trees.append(read_tree(out))
        assert loads == [str(source)] * 2  # one per run
        assert trees[0] == trees[1]
        cells = sorted({name.split("/")[1] for name in trees[0]})
        assert len(cells) == 4
        for cell in cells:
            for name in ("A.csv", "X.csv", "nuisance.csv"):
                assert (trees[0][f"cells/{cell}/{name}"]
                        == (fresh / name).read_bytes())


class TestFit:
    def test_binomial_one_row_class_exits_3(self, tmp_path, capsys):
        # no deal of the folds can train every fold on the single positive
        from conftest import make_dataset
        from netcov import save_dataset

        ds = make_dataset(np.random.default_rng(8), [1, 1, 2, 2], d=1, N=20,
                          family="binomial")
        y = np.zeros(20)
        y[3] = 1.0
        save_dataset(replace(ds, y=y), str(tmp_path / "data"))
        code = cli.main(["fit", "--data", str(tmp_path / "data"), "--scheme",
                         "ebg", "--out", str(tmp_path / "fit"), "--folds",
                         "10", "--grid-size", "8", "--seed", "1"])
        assert code == 3
        assert ("the binomial training rows hold 19 of class 0 and 1 of "
                "class 1" in capsys.readouterr().err)

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

    def test_fit_matches_at_one_and_two_workers(self, sim_dir, tmp_path,
                                                monkeypatch):
        # the folds run in a pool of 2 at NETCOV_THREADS=2
        trees = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NETCOV_THREADS", threads)
            out = tmp_path / threads
            assert cli.main(["fit", "--data", sim_dir, "--scheme", "ebg",
                             "--out", str(out), "--folds", "3",
                             "--grid-size", "5", "--seed", "3"]) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1]
        assert "cv.csv" in trees[0] and "coef_004.csv" in trees[0]

    def test_split_order_changes_no_output(self, sim_dir, tmp_path):
        # a split is a set of rows: listed backwards in the manifest, it
        # gives the same folds, fit and evaluation
        backwards = tmp_path / "backwards"
        shutil.copytree(sim_dir, backwards)
        for key, rows in (("train_rows", range(40, 0, -1)),
                          ("test_rows", range(80, 40, -1))):
            _edit_manifest(backwards / "manifest", key,
                           ",".join(map(str, rows)))
        for i, data in enumerate((sim_dir, backwards)):
            out = tmp_path / f"out{i}"
            assert cli.main(["fit", "--data", str(data), "--scheme", "ebg",
                             "--out", str(out / "fit"), "--folds", "3",
                             "--grid-size", "8", "--seed", "3"]) == 0
            assert cli.main(["evaluate", "--fit", str(out / "fit"), "--data",
                             str(data), "--out", str(out / "eval")]) == 0
            (out / "fit" / "run_manifest").unlink()  # names the data dir
        for sub in ("fit", "eval"):
            _assert_same_files(tmp_path / "out0" / sub, tmp_path / "out1" / sub)

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


class TestFitRecords:
    """What a fit writes beside its coefficients says how it got them."""

    @pytest.mark.parametrize("scheme", ["nbg", "ebg"])
    def test_path_files_hold_the_solvers_norms(self, tmp_path, scheme):
        # each written norm is the solver's, to the bit, and a group is
        # active exactly when its norm is above 0, as in the path entry
        from conftest import make_dataset
        from netcov.files import write_active_groups_csv, write_path_csv
        from netcov.pipeline import make_groups, prepare
        from netcov.solver import (_group_norms, fit_path, lambda_grid,
                                   lambda_max)

        ds = make_dataset(np.random.default_rng(4), [1] * 6 + [2] * 6, N=60)
        spec, _ = make_groups(ds, scheme)
        prep = prepare(ds, spec)
        pf = fit_path(prep.problem, prep.basis, prep.emap, lambdas=lambda_grid(
            lambda_max(prep.problem), grid_size=20))
        write_path_csv(pf, str(tmp_path))
        rows = read_rows(tmp_path / "path.csv")
        expected = []
        for entry in pf.entries:
            np.testing.assert_array_equal(
                entry.group_norms,
                _group_norms(prep.problem, entry.beta_tilde), strict=True)
            norms = entry.group_norms.tolist()
            assert [name for name, norm in zip(pf.group_names, norms)
                    if norm > 0] == list(entry.active_groups)
            expected += [(name, str(int(norm > 0)), repr(norm))
                         for name, norm in zip(pf.group_names, norms)]
        assert [(r["group"], r["active"], r["group_norm"])
                for r in rows] == expected
        last = pf.entries[-1]
        write_active_groups_csv(pf, last, tmp_path / "active_groups.csv")
        assert [(r["group"], r["norm"])
                for r in read_rows(tmp_path / "active_groups.csv")] == [
            (name, repr(norm)) for name, norm in zip(
                pf.group_names, last.group_norms.tolist()) if norm > 0]


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


SCENARIO_HEADER = "scheme,family,n_active,alpha,difficulty_metric,difficulty\n"


def _scenario(**values):
    row = {"scheme": "ebg", "family": "gaussian", "n_active": "1",
           "alpha": "0.6", "difficulty_metric": "snr", "difficulty": "2.5",
           **values}
    return SCENARIO_HEADER + ",".join(row.values()) + "\n"


# scenario.csv text and the message that refuses it, after the file's path
BAD_SCENARIOS = {
    "no_header": ("garbage\n", "missing required key 'scheme'"),
    "empty": ("", "missing required key 'scheme'"),
    "no_row": (SCENARIO_HEADER, "expected one full row under the header"),
    "short_row": (SCENARIO_HEADER + "ebg\n",
                  "expected one full row under the header"),
    "long_row": (SCENARIO_HEADER + "ebg,gaussian,1,0.6,snr,2.5,7\n",
                 "expected one full row under the header"),
    "second_row": (_scenario() + "nbg,binomial,5,0.3,bayes_error,0.2\n",
                   "expected one full row under the header"),
    "text_alpha": (_scenario(alpha="abc"),
                   "alpha must be a number, got 'abc'"),
    "nan_alpha": (_scenario(alpha="nan"), "alpha is not finite"),
    "inf_difficulty": (_scenario(difficulty="inf"),
                       "difficulty is not finite"),
    "zero_n_active": (_scenario(n_active="0"),
                      "n_active must be at least 1, got '0'"),
    "fractional_n_active": (_scenario(n_active="1.5"),
                            "n_active must be an integer, got '1.5'"),
    "unknown_scheme": (_scenario(scheme="xyz"),
                       "scheme must be ebg or nbg, got 'xyz'"),
    "unknown_family": (_scenario(family="poisson"),
                       "family must be gaussian or binomial, got 'poisson'"),
    "unknown_difficulty_metric": (
        _scenario(difficulty_metric="auc"),
        "difficulty_metric must be snr or bayes_error, got 'auc'"),
}


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

    def test_roc_reads_no_path_csv(self, sim_dir, fit_dir, tmp_path):
        # the lambda grid comes from cv.csv; path.csv is a report only
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        os.remove(fit_copy / "path.csv")
        outs = [tmp_path / "eval", tmp_path / "eval_copy"]
        for fit, out in zip((fit_dir, fit_copy), outs):
            assert cli.main(["evaluate", "--fit", str(fit), "--data",
                             sim_dir, "--out", str(out)]) == 0
        assert ((outs[0] / "roc.csv").read_bytes()
                == (outs[1] / "roc.csv").read_bytes())

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

    @pytest.mark.parametrize("text, message", BAD_SCENARIOS.values(),
                             ids=BAD_SCENARIOS.keys())
    def test_malformed_scenario_is_data_error(self, sim_dir, fit_dir,
                                              tmp_path, capsys, text,
                                              message):
        # without its header and one full row, scenario.csv would leave
        # metrics.csv's scenario columns NA without a word; a value no
        # cell can have would be copied into metrics.csv as it stands
        data = tmp_path / "data"
        shutil.copytree(sim_dir, data)
        (data / "scenario.csv").write_text(text)
        out = tmp_path / "eval"
        code = cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                         str(data), "--out", str(out)])
        assert code == 3
        assert (f"{data / 'scenario.csv'}: {message}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_mismatched_p_is_data_error(self, sim_dir, tmp_path):
        fit_dir = tmp_path / "fit"
        cli.main(["fit", "--data", sim_dir, "--scheme", "ebg", "--out",
                  str(fit_dir), "--folds", "3", "--grid-size", "8",
                  "--seed", "3"])
        cfg = write_config(tmp_path / "c2.cfg")
        out2 = tmp_path / "other"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2),
                         "--set", "data.nodes_per_community=4"]) == 0
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_truth_is_data_error(self, sim_dir, fit_dir, tmp_path,
                                            capsys, value):
        # truth.csv goes through the reader coefficients.csv uses: a
        # non-finite beta would otherwise count as true support
        data_copy = tmp_path / "data"
        shutil.copytree(sim_dir, data_copy)
        (data_copy / "truth.csv").write_text(
            f"feature_index,beta\n0,{value}\n1,0.5\n")
        code = cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                         str(data_copy), "--out", str(tmp_path / "eval")])
        assert code == 3
        assert "truth.csv: beta is not finite" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("feature_index,beta\n0,0.5\n3\n", "line 3 has 1 fields"),
        ("feature_index,beta\n3,0.5\n3,0.25\n",
         "feature index 3 is listed twice"),
        ("feature_index,beta\n3,0.5\n1.5,0.25\n",
         "line 3 has feature index '1.5', not an integer"),
    ], ids=["short_row", "repeated_index", "fractional_index"])
    def test_malformed_truth_is_data_error(self, sim_dir, fit_dir, tmp_path,
                                           capsys, text, message):
        # truth.csv lists only the nonzero features, but each at most once
        # and each with its value
        data_copy = tmp_path / "data"
        shutil.copytree(sim_dir, data_copy)
        (data_copy / "truth.csv").write_text(text)
        code = cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                         str(data_copy), "--out", str(tmp_path / "eval")])
        assert code == 3
        assert f"truth.csv: {message}" in capsys.readouterr().err

    def test_family_mismatch_is_data_error(self, sim_dir, fit_dir, tmp_path,
                                           capsys):
        # the gaussian fit against a binomial copy of its cell, then a
        # binomial fit of that copy against the gaussian cell
        binary = tmp_path / "binary"
        shutil.copytree(sim_dir, binary)
        y = np.loadtxt(binary / "y.csv")
        np.savetxt(binary / "y.csv", (y > np.median(y)).astype(float),
                   fmt="%.17g")
        _edit_manifest(binary / "manifest", "family", "binomial")
        binary_fit = tmp_path / "binary_fit"
        assert cli.main(["fit", "--data", str(binary), "--scheme", "ebg",
                         "--out", str(binary_fit), "--folds", "3",
                         "--grid-size", "8", "--seed", "3"]) == 0
        for fit, data, trained, scored in (
                (fit_dir, binary, "gaussian", "binomial"),
                (binary_fit, sim_dir, "binomial", "gaussian")):
            out = tmp_path / f"eval_{trained}"
            code = cli.main(["evaluate", "--fit", str(fit), "--data",
                             str(data), "--out", str(out)])
            assert code == 3
            assert (f"fit was trained on the {trained} family but dataset "
                    f"is {scored}") in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("target, row, text, message", [
        ("coef_003.csv", 4, "nan", "coef_003.csv: beta is not finite"),
        ("coef_000.csv", 0, "-inf", "coef_000.csv: beta is not finite"),
        ("coef_002.csv", 7, "abc",
         "coef_002.csv holds a value that is not a number"),
        ("cv.csv", 3, "nan", "cv.csv: lambda is not finite"),
        ("cv.csv", 1, "abc", "cv.csv: lambda must be a number, got 'abc'"),
        ("cv.csv", 0, "lam", "cv.csv: missing required key 'lambda'"),
    ], ids=["nan_coefficient", "inf_coefficient", "text_coefficient",
            "nan_lambda", "text_lambda", "no_lambda_column"])
    def test_roc_inputs_must_be_finite_numbers(self, sim_dir, fit_dir,
                                               tmp_path, capsys, target, row,
                                               text, message):
        # a NaN coefficient would count as unselected in roc.csv
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        _set_field(fit_copy / target, row, 0, text)
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         sim_dir, "--out", str(tmp_path / "eval")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "eval" / "roc.csv").exists()
        assert not (tmp_path / "eval").exists()

    def test_cv_without_lambda_is_data_error(self, sim_dir, fit_dir,
                                             tmp_path, capsys):
        # no fit writes a cv.csv without a grid point to score
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        cv = fit_copy / "cv.csv"
        cv.write_text(cv.read_text().splitlines()[0] + "\n")
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         sim_dir, "--out", str(tmp_path / "eval")])
        assert code == 3
        assert (f"{fit_copy / 'cv.csv'}: lists no lambda"
                in capsys.readouterr().err)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("edit, message", [
        # lambda last on every line, so the short line has no lambda at all
        (lambda lines: [",".join(line.split(",")[::-1]) for line in lines[:3]]
         + [lines[3].split(",")[-1]] + lines[4:],
         "cv.csv: line 4 has 1 fields, expected 5"),
        (lambda lines: lines[:2] + [lines[2] + ",1"] + lines[3:],
         "cv.csv: line 3 has 6 fields, expected 5"),
    ], ids=["short_row", "long_row"])
    def test_cv_row_length_is_data_error(self, sim_dir, fit_dir, tmp_path,
                                         capsys, edit, message):
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        cv = fit_copy / "cv.csv"
        cv.write_text("\n".join(edit(cv.read_text().splitlines())) + "\n")
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         sim_dir, "--out", str(tmp_path / "eval")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_short_coefficient_file_names_its_path(self, sim_dir, fit_dir,
                                                   tmp_path, capsys):
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        _edit_row(fit_copy / "coef_005.csv", 2, lambda r: None)
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         sim_dir, "--out", str(tmp_path / "eval")])
        assert code == 3
        assert (f"{fit_copy / 'coef_005.csv'} has 20 rows, expected 21"
                in capsys.readouterr().err)
        assert not (tmp_path / "eval").exists()

    def test_coefficient_file_is_one_value_per_line(self, sim_dir, fit_dir,
                                                    tmp_path, capsys):
        # p = 21 values as 7 lines of 3, which flattened would pass for p
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        coef = fit_copy / "coef_000.csv"
        values = coef.read_text().split()
        coef.write_text("".join(",".join(values[i:i + 3]) + "\n"
                                for i in range(0, 21, 3)))
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         sim_dir, "--out", str(tmp_path / "eval")])
        assert code == 3
        assert (f"{coef} has 3 values per line, expected 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "eval").exists()

    def test_cv_short_of_the_path_is_data_error(self, sim_dir, fit_dir,
                                                tmp_path, capsys):
        # a cv.csv that lost its last row would score 7 of the 8 points
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        cv = fit_copy / "cv.csv"
        cv.write_text("\n".join(cv.read_text().splitlines()[:-1]) + "\n")
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         sim_dir, "--out", str(tmp_path / "eval")])
        assert code == 3
        assert (f"{fit_copy / 'coef_007.csv'} exists, but {cv} lists 7 "
                "lambdas" in capsys.readouterr().err)
        assert not (tmp_path / "eval").exists()


class TestRerunIntoSameOut:
    """A rerun into an existing --out replaces netcov's own files there."""

    def test_smaller_grid_leaves_no_old_coefficient_file(self, sim_dir,
                                                         tmp_path):
        out = tmp_path / "fit"
        for grid in ("8", "4"):
            assert cli.main(["fit", "--data", sim_dir, "--scheme", "ebg",
                             "--out", str(out), "--folds", "3",
                             "--grid-size", grid, "--seed", "3"]) == 0
        assert len(read_rows(out / "cv.csv")) == 4
        assert sorted(f.name for f in out.glob("coef_*.csv")) == [
            f"coef_{i:03d}.csv" for i in range(4)]

    def test_refit_without_nuisance_drops_the_nuisance_model(self, tmp_path):
        from conftest import make_dataset
        from netcov import save_dataset

        ds = make_dataset(np.random.default_rng(6), [1, 1, 1, 2, 2, 2], d=1,
                          N=40, nuisance_q=2)
        ds = replace(ds, train_rows=np.arange(30), test_rows=np.arange(30, 40))
        save_dataset(ds, str(tmp_path / "q2"))
        save_dataset(replace(ds, nuisance=None), str(tmp_path / "q0"))
        out = tmp_path / "fit"
        for data in ("q2", "q0"):
            assert cli.main(["fit", "--data", str(tmp_path / data),
                             "--scheme", "ebg", "--out", str(out),
                             "--folds", "3", "--grid-size", "6",
                             "--seed", "3"]) == 0
        assert not (out / "nuisance_model.csv").exists()
        assert cli.main(["evaluate", "--fit", str(out), "--data",
                         str(tmp_path / "q0"), "--out",
                         str(tmp_path / "eval")]) == 0

    def test_evaluate_without_truth_drops_the_roc(self, sim_dir, fit_dir,
                                                  tmp_path):
        data = tmp_path / "data"
        shutil.copytree(sim_dir, data)
        os.remove(data / "truth.csv")
        out = tmp_path / "eval"
        for dataset in (sim_dir, data):
            assert cli.main(["evaluate", "--fit", str(fit_dir), "--data",
                             str(dataset), "--out", str(out)]) == 0
        assert read_rows(out / "metrics.csv")[0]["recall"] == "NA"
        assert not (out / "roc.csv").exists()


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
        assert np.any(fit.model.beta != 0.0)
        yhat, y = fit.model.predict(ds, ds.test_rows)
        expected = prediction_metrics(yhat, y, ds.family)["correlation"]
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

    def test_binomial_fit_refuses_a_y_row(self, binomial_fit, tmp_path,
                                          capsys):
        # the binomial response is never corrected, so its fit has no y row
        data_dir, fit_dir = binomial_fit
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        path = fit_copy / "nuisance_model.csv"
        path.write_text(path.read_text() + "y,0.5,0.25\n")
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         str(data_dir), "--out", str(tmp_path / "eval")])
        assert code == 3
        assert ("nuisance_model.csv: 22 rows, expected 21: f0 to f20"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["y_mean", "y_sd"])
    def test_binomial_fit_refuses_a_y_scale(self, binomial_fit, tmp_path,
                                            capsys, key):
        # nor scaled: run_fit writes NA for both
        data_dir, fit_dir = binomial_fit
        fit_copy = tmp_path / "fit"
        shutil.copytree(fit_dir, fit_copy)
        _edit_manifest(fit_copy / "fit_info", key, "1.5")
        code = cli.main(["evaluate", "--fit", str(fit_copy), "--data",
                         str(data_dir), "--out", str(tmp_path / "eval")])
        assert code == 3
        assert (f"fit_info: {key} is '1.5', but a binomial fit writes NA"
                in capsys.readouterr().err)


@pytest.fixture(scope="module")
def binomial_fit(tmp_path_factory):
    """(data dir, fit dir) of a binomial EBG fit with one nuisance column."""
    from conftest import make_dataset
    from netcov import save_dataset

    root = tmp_path_factory.mktemp("binomial_fit")
    ds = make_dataset(np.random.default_rng(6), [1, 1, 1, 2, 2, 2], d=1,
                      N=40, nuisance_q=1)
    ds = replace(ds, y=(ds.y > np.median(ds.y)).astype(float),
                 family="binomial", train_rows=np.arange(30),
                 test_rows=np.arange(30, 40))
    save_dataset(ds, str(root / "data"))
    assert cli.main(["fit", "--data", str(root / "data"), "--scheme", "ebg",
                     "--out", str(root / "fit"), "--folds", "3",
                     "--grid-size", "6", "--seed", "3"]) == 0
    return root / "data", root / "fit"


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


def _edit_row(path, row, edit):
    """Replace line ``row`` of a CSV by ``edit(fields)``, or drop it when
    that returns None."""
    lines = path.read_text().splitlines()
    fields = edit(lines[row].split(","))
    lines[row:row + 1] = [] if fields is None else [",".join(fields)]
    path.write_text("\n".join(lines) + "\n")


class TestFitFileNumbers:
    """evaluate refuses a fit file that no fit can write."""

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
        # run_fit writes NA only for the binomial family's unscaled response
        "na_y_mean": (lambda f: _edit_manifest(f / "fit_info", "y_mean", "NA"),
                      "fit_info: y_mean is 'NA', but a gaussian fit writes "
                      "a number"),
        "na_y_sd": (lambda f: _edit_manifest(f / "fit_info", "y_sd", "NA"),
                    "fit_info: y_sd is 'NA', but a gaussian fit writes a "
                    "number"),
        "nan_nuisance_coefficient": (
            lambda f: _set_field(f / "nuisance_model.csv", 1, 2, "nan"),
            "nuisance_model.csv: row f0 is not finite"),
        # run_fit lists every feature once in these two files
        "short_coefficient_row": (
            lambda f: _edit_row(f / "coefficients.csv", 3, lambda r: r[:1]),
            "coefficients.csv: line 4 has 1 fields, expected 2"),
        "short_standardization_row": (
            lambda f: _edit_row(f / "standardization.csv", 2,
                                lambda r: r[:2]),
            "standardization.csv: line 3 has 2 fields, expected 3"),
        "repeated_coefficient_index": (
            lambda f: _set_field(f / "coefficients.csv", 2, 0, "0"),
            "coefficients.csv: feature index 0 is listed twice"),
        "repeated_standardization_index": (
            lambda f: _set_field(f / "standardization.csv", 4, 0, "2"),
            "standardization.csv: feature index 2 is listed twice"),
        "fractional_coefficient_index": (
            lambda f: _set_field(f / "coefficients.csv", 2, 0, "1.5"),
            "coefficients.csv: line 3 has feature index '1.5', "
            "not an integer"),
        "text_standardization_index": (
            lambda f: _set_field(f / "standardization.csv", 4, 0, "x"),
            "standardization.csv: line 5 has feature index 'x', "
            "not an integer"),
        "text_coefficient_value": (
            lambda f: _set_field(f / "coefficients.csv", 3, 1, "abc"),
            "coefficients.csv: line 4 holds a value that is not a number"),
        "missing_coefficient_feature": (
            lambda f: _edit_row(f / "coefficients.csv", 1, lambda r: None),
            "coefficients.csv: 1 of 10 features are not listed "
            "(first few: [0])"),
        "missing_standardization_feature": (
            lambda f: _edit_row(f / "standardization.csv", 6,
                                lambda r: None),
            "standardization.csv: 1 of 10 features are not listed "
            "(first few: [5])"),
        # the gaussian response was corrected: its row must be there
        "missing_nuisance_y_row": (
            lambda f: _edit_row(f / "nuisance_model.csv", 11,
                                lambda r: None),
            "nuisance_model.csv: 10 rows, expected 11: f0 to f9 and y"),
        "missing_nuisance_feature_row": (
            lambda f: _edit_row(f / "nuisance_model.csv", 4,
                                lambda r: None),
            "nuisance_model.csv: 10 rows, expected 11: f0 to f9 and y"),
        "short_nuisance_row": (
            lambda f: _edit_row(f / "nuisance_model.csv", 2,
                                lambda r: r[:2]),
            "nuisance_model.csv: line 3 has 2 fields, expected 3"),
        "misnamed_nuisance_row": (
            lambda f: _set_field(f / "nuisance_model.csv", 2, 0, "f7"),
            "nuisance_model.csv: line 3 is row 'f7', expected 'f1'"),
        "text_nuisance_coefficient": (
            lambda f: _set_field(f / "nuisance_model.csv", 5, 1, "abc"),
            "nuisance_model.csv: line 6 holds a value that is not a number"),
        "missing_intercept": (
            lambda f: _drop_manifest_key(f / "fit_info", "intercept"),
            "fit_info: missing required key 'intercept'"),
        "missing_family": (
            lambda f: _drop_manifest_key(f / "fit_info", "family"),
            "fit_info: missing required key 'family'"),
        # run_fit always writes the method that metrics.csv and roc.csv name
        "missing_method": (
            lambda f: _drop_manifest_key(f / "fit_info", "method"),
            "fit_info: missing required key 'method'"),
        "text_p": (lambda f: _edit_manifest(f / "fit_info", "p", "x"),
                   "fit_info: p must be an integer, got 'x'"),
        "text_intercept": (
            lambda f: _edit_manifest(f / "fit_info", "intercept", "abc"),
            "fit_info: intercept must be a number, got 'abc'"),
        "repeated_intercept": (
            lambda f: _repeat_manifest_key(f / "fit_info", "intercept", "0.5"),
            "fit_info:20: key 'intercept' repeats line 7"),
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
        # its coefficient is undetermined, and written as exactly 0
        coefs = read_rows(fit_dir / "coefficients.csv")
        assert float(coefs[5]["beta"]) == 0.0
        path_files = sorted(fit_dir.glob("coef_*.csv"))
        assert len(path_files) == 8
        for name in path_files:
            assert np.loadtxt(name, delimiter=",")[5] == 0.0
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


def _repeat_manifest_key(path, key, value):
    with open(path, "a") as fh:
        fh.write(f"{key} = {value}\n")


def _drop_manifest_key(path, key):
    lines = [line for line in path.read_text().splitlines()
             if line.split("=")[0].strip() != key]
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
        "fractional_community": (
            lambda d: _set_field(d / "communities.csv", 1, 1, "1.7"),
            "community labels must be integers; got 1.7"),
        "text_node_count": (
            lambda d: _edit_manifest(d / "manifest", "n", "four"),
            "manifest: n must be an integer, got 'four'"),
        "text_covariate_count": (
            lambda d: _edit_manifest(d / "manifest", "d", "1.0"),
            "manifest: d must be an integer, got '1.0'"),
        "negative_row_count": (
            lambda d: _edit_manifest(d / "manifest", "N", "-3"),
            "manifest: N must be at least 1, got '-3'"),
        "text_nuisance_count": (
            lambda d: _edit_manifest(d / "manifest", "q", "x"),
            "manifest: q must be an integer, got 'x'"),
        "text_train_rows": (
            lambda d: _edit_manifest(d / "manifest", "train_rows", "1-x"),
            "manifest: train_rows: bad row range '1-x'"),
        "repeated_row_count": (
            lambda d: _repeat_manifest_key(d / "manifest", "N", "12"),
            "manifest:8: key 'N' repeats line 3"),
        # a nuisance.csv is read only as the q columns the manifest declares
        "undeclared_nuisance": (
            lambda d: _drop_manifest_key(d / "manifest", "q"),
            "nuisance.csv: the manifest declares no nuisance columns (q)"),
        "zero_nuisance_count": (
            lambda d: _edit_manifest(d / "manifest", "q", "0"),
            "nuisance.csv: the manifest declares no nuisance columns (q)"),
        # so is an X.csv only as the n*d columns the manifest declares
        "undeclared_node_covariates": (
            lambda d: _edit_manifest(d / "manifest", "d", "0"),
            "X.csv: the manifest declares no node covariates (d)"),
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["y.csv", "communities.csv"])
    def test_empty_file_is_one_data_error_line(self, sim_dir, tmp_path,
                                               capsys, name):
        # numpy warns about an empty file; the refusal is netcov's alone
        data = tmp_path / "data"
        shutil.copytree(sim_dir, data)
        (data / name).write_text("")
        code = cli.main(["fit", "--data", str(data), "--scheme", "ebg",
                         "--out", str(tmp_path / "fit"), "--seed", "1"])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"netcov: data error: {data / name}: ")
        assert not (tmp_path / "fit").exists()


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

    @pytest.mark.parametrize("alpha", ["nan", "0", "2", "-1"])
    def test_alpha_outside_unit_interval_rejected(self, tmp_path, capsys,
                                                  alpha):
        from conftest import make_dataset
        from netcov import save_dataset

        ds = make_dataset(np.random.default_rng(4), [1, 1, 2, 2], d=1, N=30)
        data_dir = tmp_path / "data"
        save_dataset(ds, str(data_dir))
        code = cli.main(["cpm", "--data", str(data_dir),
                         "--out", str(tmp_path / "o"), "--alpha", alpha])
        assert code == 2
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_scenario_is_data_error(self, sim_dir, tmp_path,
                                              capsys):
        data = tmp_path / "data"
        shutil.copytree(sim_dir, data)
        (data / "scenario.csv").write_text(_scenario(alpha="abc"))
        out = tmp_path / "cpm"
        assert cli.main(["cpm", "--data", str(data), "--out", str(out)]) == 3
        assert (f"{data / 'scenario.csv'}: alpha must be a number, got 'abc'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_alpha_one_is_legal(self, tmp_path):
        # the (0, 1] rule includes its upper end
        from conftest import make_dataset
        from netcov import save_dataset

        ds = make_dataset(np.random.default_rng(4), [1, 1, 2, 2], d=1, N=30)
        save_dataset(ds, str(tmp_path / "data"))
        assert cli.main(["cpm", "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "o"), "--alpha", "1"]) == 0

    def test_default_threshold(self):
        parser = cli.build_parser()
        args = parser.parse_args(["cpm", "--data", "x", "--out", "y"])
        assert args.alpha == 0.01


def sweep_config(path, alphas="0.3,0.6", methods="scheme,lasso",
                 families="gaussian"):
    path.write_text(
        "seed = 11\n"
        "experiment.schemes = ebg\n"
        f"experiment.families = {families}\n"
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


def _assert_same_files(expected, actual):
    names = sorted(f.name for f in expected.iterdir())
    assert names == sorted(f.name for f in actual.iterdir()
                           if f.name != "run_manifest")
    for name in names:
        assert (expected / name).read_bytes() == (actual / name).read_bytes()


def _assert_cells_match_standalone(out, alone, folds="3", grid="8"):
    """Each saved cell of the sweep in ``out`` equals the standalone route
    on it, run into ``alone``: ``fit`` with the cell's seed and the sweep's
    folds and grid, then ``evaluate``, then ``cpm``; run_manifest aside."""
    for cell in sorted((out / "cells").iterdir()):
        seed = read_rows(cell / "scenario.csv")[0]["seed"]
        data = ["--data", str(cell)]
        fits = sorted(f.name for f in cell.glob("fit_*"))
        for name in fits:
            fit = str(alone / cell.name / name)
            if name == "fit_cpm":
                assert cli.main(["cpm", *data, "--out", fit]) == 0
                continue
            scheme = name[len("fit_"):]
            assert cli.main(["fit", *data, "--scheme", scheme, "--out", fit,
                             "--seed", seed, "--folds", folds,
                             "--grid-size", grid]) == 0
            assert cli.main(["evaluate", "--fit", fit, *data, "--out",
                             str(alone / cell.name / f"eval_{scheme}")]) == 0
        evals = sorted(f.name for f in cell.glob("eval_*"))
        assert evals == [f"eval_{f[4:]}" for f in fits if f != "fit_cpm"]
        for name in fits + evals:
            _assert_same_files(cell / name, alone / cell.name / name)


class TestSweep:
    def test_sweep_reads_nothing_back(self, tmp_path, monkeypatch):
        # each cell hands its dataset and fits to every method
        cfg = sweep_config(tmp_path / "c.cfg", methods="scheme,lasso,cpm")
        reread = tmp_path / "reread"
        assert cli.main(["sweep", "--config", cfg, "--out", str(reread)]) == 0

        def read_back(*args, **kwargs):
            raise AssertionError("a sweep cell read a file back")

        for name in ("load_dataset", "read_fit", "read_roc_path",
                     "load_truth_csv", "read_scenario"):
            monkeypatch.setattr(cli, name, read_back)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert ((out / "metrics.csv").read_bytes()
                == (reread / "metrics.csv").read_bytes())

    def test_binomial_cell_matches_standalone_route(self, tmp_path):
        cfg = sweep_config(tmp_path / "c.cfg", alphas="0.6",
                           methods="scheme,lasso,cpm", families="binomial")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _assert_cells_match_standalone(out, tmp_path / "alone")

    def test_semisynthetic_cells_match_standalone_route(self, tmp_path):
        # a source with nuisance columns whose manifest lists its splits
        # out of order: a cell is saved with them sorted, and what the sweep
        # hands on must be what the standalone route reloads
        from conftest import make_dataset
        from netcov import save_dataset

        ds = make_dataset(np.random.default_rng(9), [1, 1, 1, 2, 2, 2], d=1,
                          N=40, nuisance_q=2)
        source = tmp_path / "source"
        save_dataset(replace(ds, train_rows=np.arange(30),
                             test_rows=np.arange(30, 40)), str(source))
        _edit_manifest(source / "manifest", "train_rows", "16-30,1-15")
        _edit_manifest(source / "manifest", "test_rows", "36-40,31-35")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "seed = 11\n"
            "experiment.schemes = ebg,nbg\n"
            "experiment.alphas = 0.6\n"
            "experiment.replicates = 1\n"
            f"data.design = {source}\n"
            "solver.grid_size = 8\n"
            "solver.folds = 3\n"
            "sweep.methods = scheme,lasso,cpm\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        _assert_cells_match_standalone(out, tmp_path / "alone")

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

    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        # simulate and sweep share one cell driver: each writes at 2
        # workers the tree it writes at 1, its run_manifest aside
        cfg = sweep_config(tmp_path / "c.cfg")
        for command in ("simulate", "sweep"):
            trees = []
            for threads in ("1", "2"):
                monkeypatch.setenv("NETCOV_THREADS", threads)
                out = tmp_path / f"{command}-{threads}"
                assert cli.main([command, "--config", cfg,
                                 "--out", str(out)]) == 0
                trees.append(read_tree(out))
            assert trees[0] == trees[1]
            assert any(name.startswith("cells/") for name in trees[0])

    def test_fit_in_a_pooled_cell_starts_no_pool(self, tmp_path,
                                                 monkeypatch):
        # one budget: 2 workers run the 2 cells, and each cell's 3 folds
        # run serially in its worker.  Forked workers inherit the logging
        # pool class, so a pool started in a cell would log a line too.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from netcov import jobs

        log = tmp_path / "pools"

        class Logged(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {max_workers}\n")
                fork = multiprocessing.get_context("fork")
                super().__init__(max_workers, mp_context=fork, **kwargs)

        monkeypatch.setattr(jobs, "ProcessPoolExecutor", Logged)
        monkeypatch.setenv("NETCOV_THREADS", "2")
        cfg = sweep_config(tmp_path / "c.cfg")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert log.read_text() == f"{os.getpid()} 2\n"
        assert len(read_rows(out / "metrics.csv")) == 4

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", "²"])
    def test_bad_thread_count_is_config_error(self, sim_dir, tmp_path,
                                              monkeypatch, capsys, value):
        monkeypatch.setenv("NETCOV_THREADS", value)
        cfg = sweep_config(tmp_path / "c.cfg")
        inputs = {"simulate": ["--config", cfg], "sweep": ["--config", cfg],
                  "fit": ["--data", sim_dir, "--scheme", "ebg", "--folds",
                          "3", "--grid-size", "5", "--seed", "3"]}
        for command, argv in inputs.items():
            out = tmp_path / command
            assert cli.main([command, *argv, "--out", str(out)]) == 2
            assert "NETCOV_THREADS must be a positive integer" in (
                capsys.readouterr().err)
            assert not out.exists()

    def test_pool_capped_at_cell_count(self, sim_dir, tmp_path,
                                       monkeypatch):
        # a recorder in place of the pool runs each job here as a worker
        # would run it: no worker process is started
        from netcov import jobs

        started = []

        class Recorder:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                self.start = lambda: initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                with monkeypatch.context() as worker:
                    worker.setattr(jobs.multiprocessing, "parent_process",
                                   object)
                    worker.setattr(jobs, "_shared", ())
                    self.start()
                    return [fn(item) for item in items]

        monkeypatch.setattr(jobs, "ProcessPoolExecutor", Recorder)
        monkeypatch.setenv("NETCOV_THREADS", "5000")
        cfg = sweep_config(tmp_path / "c.cfg")
        for command in ("simulate", "sweep"):
            assert cli.main([command, "--config", cfg,
                             "--out", str(tmp_path / command)]) == 0
        assert started == [2, 2]  # the sweep's folds ran in its cells
        assert cli.main(["fit", "--data", sim_dir, "--scheme", "ebg",
                         "--out", str(tmp_path / "fit"), "--folds", "3",
                         "--grid-size", "5", "--seed", "3"]) == 0
        assert started == [2, 2, 3]  # a lone fit's folds: one each

    @pytest.mark.parametrize("design", ["synthetic", "semi-synthetic"])
    def test_unfillable_folds_refused_before_any_cell(
            self, tmp_path, capsys, design):
        # 6 training rows (data.N, or the source's train_rows rather than
        # its 40 rows) cannot fill 10 folds; simulate fits nothing
        from conftest import make_dataset
        from netcov import save_dataset

        cfg = sweep_config(tmp_path / "c.cfg")
        flags = ["--set", "solver.folds=10", "--set", "data.N=6"]
        if design != "synthetic":
            ds = make_dataset(np.random.default_rng(9), [1, 1, 1, 2, 2, 2],
                              d=1, N=40)
            source = tmp_path / "source"
            save_dataset(replace(ds, train_rows=np.arange(6),
                                 test_rows=np.arange(6, 40)), str(source))
            flags = ["--set", "solver.folds=10",
                     "--set", f"data.design={source}"]
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         *flags]) == 2
        assert ("config error: solver.folds: 6 training rows cannot fill "
                "10 folds" in capsys.readouterr().err)
        assert not out.exists()
        assert cli.main(["sweep", "--config", cfg, "--out", str(out), *flags,
                         "--set", "solver.folds=6"]) == 0
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "sim"), *flags]) == 0
