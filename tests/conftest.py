import sys
from dataclasses import replace
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


def redraw_case():
    """A 20-row binomial dataset with two positives and the first seed
    whose 10-fold assignment leaves a training part without a positive,
    while the next draw of the same fold stream does not: (dataset, seed,
    that next draw)."""
    from netcov.data import _seeded_rng
    from netcov.tuning import _constant_y_fold, _fold_assignment

    base = make_dataset(np.random.default_rng(9), [1, 1, 2, 2], d=1, N=20,
                        family="binomial")
    y = np.zeros(20)
    y[[2, 11]] = 1.0
    rows = np.arange(20)
    for seed in range(500):
        stream = _seeded_rng(seed, 0)
        first = _fold_assignment(20, 10, stream)
        second = _fold_assignment(20, 10, stream)
        if (_constant_y_fold(y, rows, first, 10)
                and not _constant_y_fold(y, rows, second, 10)):
            return replace(base, y=y), seed, second
    raise AssertionError("no seed below 500 needs exactly one redraw")


@pytest.fixture
def rng():
    return np.random.default_rng(20240117)
