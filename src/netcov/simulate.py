"""Synthetic and semi-synthetic experiment generators.

Fully synthetic designs draw every unique edge weight and node covariate
independently from a standard normal.  The training and test splits
share one design matrix and differ only in their responses, which are
drawn independently; on disk this is stored as the design rows repeated,
with the manifest recording which rows are which.

Semi-synthetic experiments re-use a supplied design (real data loaded
from a dataset directory), center its columns by the training means, and
draw responses from the same generative model, so support recovery can
be scored against known coefficients on real covariance structure.

Coefficients are built by choosing active feature groups and setting
every coordinate of their union to one constant; the intercept is
always zero.  Difficulty is summarized by the signal-to-noise ratio
``Var(Z beta) / sigma^2`` for the gaussian family and by the Bayes error
``E[min(pi, 1 - pi)]`` of the logistic model for the binomial family,
both over the empirical distribution of the training rows.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .data import (CommunityMap, Dataset, FeatureIndex, _seeded_rng,
                   build_design, load_dataset)
from .groups import scheme_groups, split_communities

__all__ = [
    "ExperimentConfig",
    "GroundTruth",
    "PRESET_ACTIVE_GROUPS",
    "make_beta",
    "default_communities",
    "gen_design_synthetic",
    "draw_response",
    "scenario_difficulty",
    "gen_semisynthetic",
]

NOISE_SD = 1.0  # gaussian response noise, sigma^2 = 1

# active-group presets: one or five groups per scheme; the five EBG groups
# mix diagonal and off-diagonal cells with varying overlap
PRESET_ACTIVE_GROUPS = {
    ("NBG", 1): ("1",),
    ("NBG", 5): ("1", "2", "3", "4", "5"),
    ("EBG", 1): ("(1,1)",),
    ("EBG", 5): ("(1,1)", "(3,1)", "(3,2)", "(4,4)", "(6,5)"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of an experiment grid.  ``seed`` is required, and by
    keyword: it fixes the design and the responses drawn from it."""

    scheme: str
    active_groups: tuple
    alpha: float
    family: str
    N: int = 1000
    K: int = 10
    nodes_per_community: int = 5
    d: int = 1
    seed: int = field(kw_only=True)

    def __post_init__(self):
        if self.scheme not in ("NBG", "EBG"):
            raise ValueError("scheme must be NBG or EBG")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.family not in ("gaussian", "binomial"):
            raise ValueError(f"unknown family {self.family!r}")


@dataclass(frozen=True)
class GroundTruth:
    """Generative coefficients: support is the union of the named groups."""

    beta: np.ndarray
    mu: float
    active_features: np.ndarray
    active_groups: tuple


def make_beta(spec, active_names, alpha):
    """Constant-magnitude coefficients on the union of the named groups."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    indices = [spec.lookup(name) for name in active_names]
    union = np.unique(np.concatenate([spec.members[i] for i in indices]))
    beta = np.zeros(spec.p)
    beta[union] = alpha
    names = tuple(spec.names[i] for i in indices)
    return GroundTruth(beta=beta, mu=0.0, active_features=union,
                       active_groups=names)


def default_communities(K, nodes_per_community):
    """K equal communities of consecutive nodes."""
    return CommunityMap(
        assignments=np.repeat(np.arange(1, K + 1), nodes_per_community))


def groups_for(config, communities):
    """The config's scheme groups over ``communities`` with ``config.d``."""
    idx = FeatureIndex(n=communities.n, d=config.d)
    return scheme_groups(config.scheme, communities, idx)


def gen_design_synthetic(config):
    """Fully synthetic design: all unique entries iid standard normal.

    The returned dataset has 2N rows: the first N are the training split,
    the last N repeat the same design rows for the test split (shared
    design; responses are drawn separately by :func:`draw_response`).
    """
    communities = default_communities(config.K, config.nodes_per_community)
    n = communities.n
    n_edges = n * (n - 1) // 2
    rng = _seeded_rng(config.seed, 0, 0)
    edges = rng.standard_normal((config.N, n_edges))
    covs = rng.standard_normal((config.N, n * config.d))
    N2 = 2 * config.N
    return Dataset(
        edges=np.vstack([edges, edges]),
        node_covs=np.vstack([covs, covs]),
        y=np.zeros(N2),
        communities=communities,
        family=config.family,
        train_rows=np.arange(config.N),
        test_rows=np.arange(config.N, N2),
    )


def draw_response(dataset, truth, family, seed, tag=1):
    """Draw responses from the generative model over the dataset's design.

    gaussian: y = mu + Z beta + eps with unit-variance normal errors;
    binomial: independent Bernoulli with success probability
    logit^{-1}(mu + Z beta).
    """
    Z = build_design(dataset)
    eta = truth.mu + Z @ truth.beta
    rng = _seeded_rng(seed, tag)
    if family == "gaussian":
        return eta + NOISE_SD * rng.standard_normal(eta.size)
    return (rng.random(eta.size) < expit(eta)).astype(np.float64)


def scenario_difficulty(dataset, truth, family):
    """(metric_name, value) over the empirical training distribution.

    gaussian: SNR = Var(Z beta) / sigma^2; binomial: Bayes error
    E[min(pi, 1 - pi)].  Exact at beta = 0: SNR 0 and BE 0.5.
    """
    Z = build_design(dataset, dataset.training_rows())
    eta = truth.mu + Z @ truth.beta
    if family == "gaussian":
        return "snr", float(np.var(eta) / NOISE_SD**2)
    pi = expit(eta)
    return "bayes_error", float(np.mean(np.minimum(pi, 1.0 - pi)))


def gen_semisynthetic(files_path, config, split_target=None):
    """Semi-synthetic data: supplied design, centered, with drawn responses.

    The design is loaded from a dataset directory whose manifest must
    declare disjoint train and test rows.  Training column means are
    subtracted from both splits (centering only, keeping the generative
    intercept at zero); responses are then drawn exactly as in the fully
    synthetic experiment.  Returns (dataset, truth, communities) where
    the communities reflect an optional seeded split of large ones.
    """
    ds = load_dataset(files_path)
    if ds.train_rows is None or ds.test_rows is None:
        raise ValueError("semi-synthetic source manifest must declare "
                         "train_rows and test_rows")
    communities = ds.communities
    if split_target is not None:
        communities = split_communities(communities, split_target,
                                        (config.seed, 97))
    centered = replace(
        ds,
        edges=ds.edges - ds.edges[ds.train_rows].mean(axis=0),
        node_covs=ds.node_covs - ds.node_covs[ds.train_rows].mean(axis=0),
        family=config.family,
        y=np.zeros(ds.N),
    )
    # groups over the source's coordinates, whatever config.d says
    spec = scheme_groups(config.scheme, communities, centered.index)
    truth = make_beta(spec, config.active_groups, config.alpha)
    y = draw_response(centered, truth, config.family, config.seed, tag=1)
    return replace(centered, y=y), truth, communities
