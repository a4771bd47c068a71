"""The overlapping group LASSO solver along a regularization path.

The pipeline standardizes columns, duplicates overlapping groups, and
orthonormalizes each group's block; the solver then runs cyclic group
descent with closed-form shrinkage steps.  At lambda_max the model is fully
sparse by construction; groups enter as the penalty decreases.
"""

import numpy as np

from netcov import (CommunityMap, Dataset, FeatureIndex, ebg_groups,
                    make_beta)
from netcov.pipeline import prepare
from netcov.solver import fit_path, lambda_grid, lambda_max

rng = np.random.default_rng(11)
cm = CommunityMap(assignments=np.repeat([1, 2, 3, 4], 3))
idx = FeatureIndex(n=12, d=1)
spec = ebg_groups(cm, idx)

truth = make_beta(spec, ["(1,1)", "(2,3)"], alpha=0.5)
N = 200
Z = rng.standard_normal((N, idx.p))
y = Z @ truth.beta + rng.standard_normal(N)
ds = Dataset(edges=Z[:, :idx.n_edges], node_covs=Z[:, idx.n_edges:], y=y,
             communities=cm, family="gaussian")

prep = prepare(ds, spec)
print(f"expanded design: p={idx.p} -> p*={prep.emap.p_star}, "
      f"orthonormal columns={prep.problem.U.shape[1]}")
lam_max = lambda_max(prep.problem)
print(f"lambda_max = {lam_max:.4f}")

path = fit_path(prep.problem, prep.basis, prep.emap,
                lambdas=lambda_grid(lam_max, grid_size=30))
print("\n  lambda    active groups")
last = None
for entry in path.entries:
    if entry.active_groups != last:
        print(f"  {entry.lam:8.4f}  {list(entry.active_groups)}")
        last = entry.active_groups

final = path.entries[-1]
print(f"\ntruly active: {list(truth.active_groups)}")
print(f"at the path end: {list(final.active_groups)}")
print(f"max KKT residual along the path: "
      f"{max(e.kkt_residual for e in path.entries):.2e}")
