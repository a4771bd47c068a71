import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

sys.path.insert(0, str(Path(__file__).parent))

from netcov import CommunityMap, Dataset, FeatureIndex


def make_dataset(rng, communities, d=1, N=60, family="gaussian", beta=None,
                 nuisance_q=0):
    """Random dataset with iid standard normal design entries."""
    cm = CommunityMap(assignments=communities)
    idx = FeatureIndex(n=cm.n, d=d)
    edges = rng.standard_normal((N, idx.n_edges))
    covs = rng.standard_normal((N, cm.n * d))
    Z = np.hstack([edges, covs])
    eta = Z @ beta if beta is not None else np.zeros(N)
    if family == "gaussian":
        y = eta + rng.standard_normal(N)
    else:
        y = (rng.random(N) < expit(eta)).astype(float)
    nuisance = rng.standard_normal((N, nuisance_q)) if nuisance_q else None
    return Dataset(edges=edges, node_covs=covs, y=y, communities=cm,
                   family=family, nuisance=nuisance)


@pytest.fixture
def rng():
    return np.random.default_rng(20240117)
