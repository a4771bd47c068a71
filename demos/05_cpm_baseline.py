"""Connectome predictive modeling: screen edges, sum by sign, regress.

CPM is the classic three-step baseline: correlate every edge with the
response, keep those passing a p-value threshold, sum the surviving edges
per subject into a positive-correlation sum and a negative one, and fit a
two-predictor regression.  Node covariates play no role.
"""

import numpy as np

from netcov import FeatureIndex, cpm_fit, cpm_predict, prediction_metrics

rng = np.random.default_rng(5)
idx = FeatureIndex(n=12, d=1)
N = 600

Z = rng.standard_normal((N, idx.p))
e_pos = idx.edge_position(0, 1)
e_neg = idx.edge_position(4, 7)
y = Z[:, e_pos] - Z[:, e_neg] + 0.7 * rng.standard_normal(N)

train, test = np.arange(400), np.arange(400, 600)
model = cpm_fit(Z[train], y[train], idx, alpha=1e-4)

pairs = idx.edge_pairs()
print("selected positive edges:",
      [(int(pairs[0, j]) + 1, int(pairs[1, j]) + 1)
       for j in model.positive_edges])
print("selected negative edges:",
      [(int(pairs[0, j]) + 1, int(pairs[1, j]) + 1)
       for j in model.negative_edges])
print(f"regression: intercept={model.intercept:.3f} "
      f"slope_pos={model.slope_pos:.3f} slope_neg={model.slope_neg:.3f}")

yhat = cpm_predict(model, Z[test], idx)
print("held-out correlation:",
      f"{prediction_metrics(yhat, y[test], 'gaussian')['correlation']:.3f}")

# at the conventional 0.01 threshold, chance alone admits about 1% of edges
loose = cpm_fit(Z[train], rng.standard_normal(400), idx, alpha=0.01)
print(f"\nnull response at threshold 0.01: "
      f"{loose.positive_edges.size + loose.negative_edges.size} of "
      f"{idx.n_edges} edges selected by chance")
