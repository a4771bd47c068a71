"""Networks with node covariates: observations, vectorization, disk round trip.

Each observation is (adjacency matrix, node-covariate matrix, response) on a
shared node set.  Everything downstream runs on one canonical vectorization:
edge weights first (upper triangle, row by row), then node covariates
node-major.
"""

import tempfile

import numpy as np

from netcov import (CommunityMap, Dataset, FeatureIndex, Observation,
                    build_design, devectorize, load_dataset, save_dataset,
                    vectorize)

# --- a tiny 3-node observation ---------------------------------------------
A = np.array([
    [0.0, 5.0, 6.0],
    [5.0, 0.0, 7.0],
    [6.0, 7.0, 0.0],
])
X = np.array([[1.0], [2.0], [3.0]])
obs = Observation(A=A, X=X, y=0.4)

idx = FeatureIndex(n=3, d=1)
z = vectorize(obs, idx)
print("canonical vector:", z)            # edges (0,1),(0,2),(1,2) then covs
print("p = n(n-1)/2 + n*d =", idx.p)

# the mapping is a bijection: fold the vector back into matrices
back = devectorize(z, idx)
print("round trip exact:", np.array_equal(back.A, A), np.array_equal(back.X, X))

# --- a dataset of several observations --------------------------------------
rng = np.random.default_rng(7)
observations = []
for _ in range(5):
    W = rng.standard_normal((3, 3))
    W = np.triu(W, 1)
    observations.append(Observation(A=W + W.T, X=rng.standard_normal((3, 1)),
                                    y=rng.standard_normal()))
communities = CommunityMap(assignments=[1, 1, 2])
ds = Dataset.from_observations(observations, communities, family="gaussian")
Z = build_design(ds)
print("\ndesign matrix shape:", Z.shape)

# --- the on-disk layout ------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    save_dataset(ds, tmp)
    again = load_dataset(tmp)
    print("disk round trip exact:",
          np.array_equal(build_design(again), Z))
