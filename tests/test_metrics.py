import numpy as np
import pytest
from types import SimpleNamespace

from netcov import (prediction_metrics, roc_along_path, roc_dominance,
                    support_metrics)
from netcov.files import write_metrics_csv, write_roc_csv


def truth_vec(p, support, value=1.0):
    beta = np.zeros(p)
    beta[list(support)] = value
    return beta


class TestSupportMetrics:
    def test_plug_in_counts(self):
        # TP=3, FN=1, FP=2 -> recall 0.75, precision 0.6
        truth = truth_vec(10, [0, 1, 2, 3])
        est = truth_vec(10, [0, 1, 2, 5, 6])
        rep = support_metrics(est, truth)
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (3, 2, 1, 4)
        assert rep.recall == pytest.approx(0.75)
        assert rep.precision == pytest.approx(0.6)
        assert rep.p == 10

    def test_empty_estimate_gives_nan_precision(self):
        rep = support_metrics(np.zeros(5), truth_vec(5, [1]))
        assert rep.recall == 0.0
        assert np.isnan(rep.precision)

    def test_perfect_recovery(self):
        truth = truth_vec(8, [2, 3])
        rep = support_metrics(truth.copy(), truth)
        assert rep.recall == 1.0 and rep.precision == 1.0

    def test_scale_invariance(self, rng):
        truth = truth_vec(12, [0, 4, 7])
        est = rng.standard_normal(12) * truth_vec(12, [0, 4, 9], 1.0)
        a = support_metrics(est, truth)
        b = support_metrics(1e6 * est, truth)
        c = support_metrics(-0.001 * est, truth)
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)
        assert (a.tp, a.fp, a.fn, a.tn) == (c.tp, c.fp, c.fn, c.tn)

    def test_stored_ratios_reproducible_from_counts(self, rng):
        for _ in range(20):
            truth = (rng.random(15) < 0.3).astype(float)
            est = (rng.random(15) < 0.4).astype(float)
            rep = support_metrics(est, truth)
            if rep.tp + rep.fn:
                assert rep.recall == rep.tp / (rep.tp + rep.fn)
            if rep.tp + rep.fp:
                assert rep.precision == rep.tp / (rep.tp + rep.fp)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            support_metrics(np.zeros(3), np.zeros(4))

    def test_tiny_dust_not_selected(self):
        truth = truth_vec(4, [0])
        est = np.array([1.0, 1e-13, 0.0, -1e-15])
        rep = support_metrics(est, truth)
        assert rep.fp == 0


class TestPredictionMetrics:
    def test_perfect_correlation(self, rng):
        y = rng.standard_normal(20)
        rep = prediction_metrics(y, y, "gaussian")
        assert rep.correlation == pytest.approx(1.0)

    def test_constant_predictions_are_na(self, rng):
        y = rng.standard_normal(10)
        rep = prediction_metrics(np.zeros(10), y, "gaussian")
        assert np.isnan(rep.correlation)

    def test_constant_prediction_with_float_dust_is_na(self, rng):
        # a fully sparse fit predicts y_mean + y_sd * mu; rounding can leave
        # one-ulp differences between rows, so the std is dust, not 0
        c = 2.3 + 1.7 * 0.1
        y_hat = np.full(11, c)
        y_hat[::3] = np.nextafter(c, np.inf)
        assert y_hat.std() > 0.0
        rep = prediction_metrics(y_hat, rng.standard_normal(11), "gaussian")
        assert np.isnan(rep.correlation)
        rep = prediction_metrics(rng.standard_normal(11), y_hat, "gaussian")
        assert np.isnan(rep.correlation)

    def test_binary_accuracy(self):
        rep = prediction_metrics(np.array([0.9, 0.2]), np.array([1.0, 0.0]),
                                 "binomial")
        assert rep.accuracy == 1.0
        rep2 = prediction_metrics(np.array([0.9, 0.8]), np.array([1.0, 0.0]),
                                  "binomial")
        assert rep2.accuracy == 0.5


def path_of(betas, lams):
    entries = [SimpleNamespace(lam=l, beta=np.asarray(b))
               for l, b in zip(lams, betas)]
    return SimpleNamespace(entries=entries)


class TestRoc:
    def test_endpoints(self):
        truth = truth_vec(6, [0, 1])
        path = path_of([np.zeros(6), truth_vec(6, range(6))], [1.0, 0.1])
        pts = roc_along_path(path, truth)
        assert (pts[0]["fpr"], pts[0]["tpr"]) == (0.0, 0.0)
        assert (pts[1]["fpr"], pts[1]["tpr"]) == (1.0, 1.0)

    def test_fdr_emitted(self):
        truth = truth_vec(4, [0])
        path = path_of([truth_vec(4, [0, 1])], [0.5])
        pts = roc_along_path(path, truth)
        assert pts[0]["fdr"] == pytest.approx(0.5)
        empty = roc_along_path(path_of([np.zeros(4)], [1.0]), truth)
        assert np.isnan(empty[0]["fdr"])

    def test_nested_paths_monotone(self, rng):
        truth = truth_vec(20, range(5))
        support = []
        betas = []
        order = rng.permutation(20)
        for k in range(0, 21, 4):
            support = order[:k]
            betas.append(truth_vec(20, support))
        pts = roc_along_path(path_of(betas, np.geomspace(1, 0.01, len(betas))),
                             truth)
        tprs = [p["tpr"] for p in pts]
        fprs = [p["fpr"] for p in pts]
        assert all(b >= a for a, b in zip(tprs, tprs[1:]))
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))

    def test_dominance_comparator(self):
        above = [{"fpr": f, "tpr": min(1.0, f + 0.3), "lambda": 1, "fdr": 0}
                 for f in np.linspace(0, 1, 11)]
        below = [{"fpr": f, "tpr": f, "lambda": 1, "fdr": 0}
                 for f in np.linspace(0, 1, 7)]
        assert roc_dominance(above, below) == 1.0
        assert roc_dominance(below, above) < 0.3

    def test_dominance_with_ties(self):
        same = [{"fpr": f, "tpr": f, "lambda": 1, "fdr": 0}
                for f in np.linspace(0, 1, 5)]
        assert roc_dominance(same, same) == 1.0


class TestWriters:
    def test_metrics_csv_na_handling(self, tmp_path):
        rows = [{"scheme": "ebg", "family": "gaussian", "n_active": 1,
                 "alpha": 0.2, "difficulty_metric": "snr", "difficulty": 0.6,
                 "method": "netcov:ebg", "recall": 1.0,
                 "precision": float("nan"), "correlation": 0.8}]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(str(path), rows)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("scheme,family")
        assert ",NA," in lines[1]  # precision NA, never 0

    def test_roc_csv(self, tmp_path):
        pts = [{"lambda": 0.5, "fpr": 0.0, "tpr": 0.0, "fdr": float("nan")}]
        path = tmp_path / "roc.csv"
        write_roc_csv(str(path), [("lasso", pts)])
        lines = path.read_text().splitlines()
        assert lines[0] == "method,lambda,fpr,tpr,fdr"
        assert lines[1] == "lasso,0.5,0.0,0.0,NA"
