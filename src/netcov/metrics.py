"""Support-recovery and prediction metrics, plus ROC curves along a path.

A coefficient counts as selected when its folded-back magnitude exceeds
1e-12 (the solver emits exact zeros; the threshold only guards against
float dust from summing duplicated coordinates).  Precision and
correlation are undefined in degenerate cases and reported as NaN (NA in
CSV output), never silently as 0.

The appendix-style ROC traces true and false positive rates of the
estimated support at every point of the lambda path; because published
definitions of the false positive rate are sometimes garbled, the false
discovery rate is emitted alongside so both readings are available.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupportReport",
    "PredictionReport",
    "support_metrics",
    "prediction_metrics",
    "roc_along_path",
    "roc_dominance",
]

SELECTION_TOL = 1e-12


def _is_constant(v):
    """True when ``v`` varies by no more than float dust of its own scale."""
    return np.ptp(v) <= 1e-12 * max(1.0, float(np.abs(v).max()))


@dataclass(frozen=True)
class SupportReport:
    tp: int
    fp: int
    fn: int
    tn: int
    recall: float
    precision: float

    @property
    def p(self):
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class PredictionReport:
    correlation: float = None
    accuracy: float = None


def _safe_ratio(num, den):
    return float(num) / float(den) if den > 0 else float("nan")


def _counts(selected, true):
    tp = int(np.sum(selected & true))
    fp = int(np.sum(selected & ~true))
    fn = int(np.sum(~selected & true))
    tn = int(np.sum(~selected & ~true))
    return tp, fp, fn, tn


def support_metrics(beta_hat, truth):
    """Feature-level confusion counts of an estimate against ground truth,
    a GroundTruth or a coefficient vector."""
    beta_hat = np.asarray(beta_hat, dtype=np.float64).ravel()
    true_beta = np.asarray(getattr(truth, "beta", truth),
                           dtype=np.float64).ravel()
    if beta_hat.size != true_beta.size:
        raise ValueError(
            f"lengths differ: estimate {beta_hat.size}, truth {true_beta.size}"
        )
    selected = np.abs(beta_hat) > SELECTION_TOL
    true = true_beta != 0.0
    tp, fp, fn, tn = _counts(selected, true)
    return SupportReport(tp=tp, fp=fp, fn=fn, tn=tn,
                         recall=_safe_ratio(tp, tp + fn),
                         precision=_safe_ratio(tp, tp + fp))


def prediction_metrics(y_hat, y_test, family):
    """Out-of-sample performance: Pearson correlation or 0.5-threshold accuracy."""
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    y_test = np.asarray(y_test, dtype=np.float64).ravel()
    if y_hat.size != y_test.size or y_hat.size < 2:
        raise ValueError("need two aligned vectors of length >= 2")
    if family == "gaussian":
        if _is_constant(y_hat) or _is_constant(y_test):
            return PredictionReport(correlation=float("nan"))
        r = float(np.corrcoef(y_hat, y_test)[0, 1])
        return PredictionReport(correlation=r)
    if family == "binomial":
        acc = float(np.mean((y_hat > 0.5) == (y_test > 0.5)))
        return PredictionReport(accuracy=acc)
    raise ValueError(f"unknown family {family!r}")


def roc_along_path(path, truth):
    """Per-lambda (FPR, TPR, FDR) of the estimated support, lambda descending.

    TPR = TP/(TP+FN), FPR = FP/(FP+TN), FDR = FP/(TP+FP); the FDR is NaN
    when nothing is selected.
    """
    true = np.asarray(getattr(truth, "beta", truth), dtype=np.float64) != 0.0
    points = []
    for entry in path.entries:
        if entry.beta.size != true.size:
            raise ValueError("path and truth cover different p")
        selected = np.abs(entry.beta) > SELECTION_TOL
        tp, fp, fn, tn = _counts(selected, true)
        points.append({
            "lambda": entry.lam,
            "tpr": _safe_ratio(tp, tp + fn),
            "fpr": _safe_ratio(fp, fp + tn),
            "fdr": _safe_ratio(fp, tp + fp),
        })
    return points


def _envelope(points):
    """Upper envelope of a point cloud as (fpr ascending, best tpr)."""
    fpr = np.array([pt["fpr"] for pt in points])
    tpr = np.array([pt["tpr"] for pt in points])
    order = np.lexsort((tpr, fpr))
    fpr, tpr = fpr[order], tpr[order]
    best = np.maximum.accumulate(tpr)
    keep = np.append(fpr[1:] != fpr[:-1], True)  # last point per fpr value
    return fpr[keep], best[keep]


def roc_dominance(points_a, points_b):
    """Fraction of matched FPR grid points where curve A is at or above B.

    Both curves are reduced to their upper envelopes and linearly
    interpolated onto the union of their FPR grids.
    """
    fa, ta = _envelope(points_a)
    fb, tb = _envelope(points_b)
    grid = np.unique(np.concatenate([fa, fb]))
    a = np.interp(grid, fa, ta)
    b = np.interp(grid, fb, tb)
    return float(np.mean(a >= b - 1e-9))  # slack for float dust in TPR
