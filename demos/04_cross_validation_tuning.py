"""Penalty tuning: ten-fold cross-validation and the one-standard-error rule.

The lambda grid is fixed once from the full training set; every fold redoes
standardization and orthonormalization on its own training part so held-out
rows never leak into the transformations.  The selected penalty is the
largest grid value within one standard error of the minimizing one, and the
model is refit at that value on all training rows.
"""

import numpy as np

from netcov import (CommunityMap, Dataset, FeatureIndex, cross_validate,
                    ebg_groups, make_beta, prediction_metrics,
                    select_and_refit, support_metrics)

rng = np.random.default_rng(23)
cm = CommunityMap(assignments=np.repeat([1, 2, 3, 4], 4))
idx = FeatureIndex(n=16, d=1)
spec = ebg_groups(cm, idx)
truth = make_beta(spec, ["(1,1)"], alpha=0.45)

N = 500
Z = rng.standard_normal((N, idx.p))
y = Z @ truth.beta + rng.standard_normal(N)
ds = Dataset(edges=Z[:, :idx.n_edges], node_covs=Z[:, idx.n_edges:], y=y,
             communities=cm, family="gaussian",
             train_rows=np.arange(350), test_rows=np.arange(350, 500))

cv = cross_validate(ds, spec, folds=10, seed=1, grid_size=60)
print("lambda grid:", f"{cv.lambdas[0]:.4f} ... {cv.lambdas[-1]:.4f}")
print(f"minimizing lambda:  {cv.lambda_min:.4f} "
      f"(mean deviance {cv.mean_deviance[cv.index_min]:.4f})")
print(f"one-SE lambda:      {cv.lambda_one_se:.4f} "
      f"(mean deviance {cv.mean_deviance[cv.index_one_se]:.4f})")

fit = select_and_refit(cv)
print(f"\nactive groups at the one-SE fit: {list(fit.entry.active_groups)}")

report = support_metrics(fit.model.beta, truth.beta)
print(f"support recovery: recall={report.recall:.2f} "
      f"precision={report.precision:.2f}")

yhat, y_test = fit.model.predict(ds, ds.test_rows)
pred = prediction_metrics(yhat, y_test, "gaussian")
print(f"held-out correlation: {pred['correlation']:.3f}")
