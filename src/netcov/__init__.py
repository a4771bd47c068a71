"""netcov: group-sparse prediction from weighted networks with node covariates.

Predicts a scalar response from samples of (adjacency matrix, node
covariates) on a shared node set, selecting features in overlapping
groups built from a known community structure.  Provides node-based and
edge-based grouping schemes, a standardized overlapping group LASSO
solver for gaussian and binomial responses, cross-validated penalty
tuning with the one-standard-error rule, plain-LASSO and connectome
predictive modeling baselines, and seeded experiment generators with
support-recovery metrics.
"""

__version__ = "0.1.0"

from .baselines import CpmModel, cpm_fit, cpm_predict
from .data import (CommunityMap, Dataset, FeatureIndex, Observation,
                   build_design, devectorize, load_dataset, save_dataset,
                   vectorize)
from .groups import (ExpansionMap, GroupSpec, blocks, cells, ebg_groups,
                     expand, fold_back, nbg_groups, singleton_groups,
                     split_communities)
from .metrics import (SupportReport, prediction_metrics, roc_along_path,
                      roc_dominance, support_metrics)
from .pipeline import make_groups, prepare
from .preprocess import (NuisanceModel, OrthoBasis, back_transform,
                         orthonormalize, residualize_nuisance, standardize)
from .simulate import (ExperimentConfig, GroundTruth, PRESET_ACTIVE_GROUPS,
                       draw_response, gen_design_synthetic, gen_semisynthetic,
                       make_beta, scenario_difficulty)
from .solver import (ConvergenceError, PathFit, PenalizedProblem, deviance,
                     fit_at_lambda, fit_path, kkt_residual, lambda_grid,
                     lambda_max, objective)
from .tuning import (CVResult, FitResult, cross_validate, one_se_select,
                     select_and_refit)

__all__ = [
    "__version__",
    # data
    "CommunityMap", "Observation", "FeatureIndex", "Dataset",
    "vectorize", "devectorize", "build_design", "load_dataset", "save_dataset",
    # groups
    "GroupSpec", "ExpansionMap", "blocks", "cells", "nbg_groups", "ebg_groups",
    "singleton_groups", "expand", "fold_back", "split_communities",
    # preprocess
    "NuisanceModel", "OrthoBasis", "standardize", "residualize_nuisance",
    "orthonormalize", "back_transform",
    # solver
    "PenalizedProblem", "PathFit", "ConvergenceError", "deviance",
    "fit_at_lambda", "lambda_max", "lambda_grid", "fit_path", "kkt_residual",
    "objective",
    # tuning
    "CVResult", "FitResult", "cross_validate", "select_and_refit",
    "one_se_select",
    # pipeline
    "make_groups", "prepare",
    # baselines
    "CpmModel", "cpm_fit", "cpm_predict",
    # simulation
    "ExperimentConfig", "GroundTruth", "PRESET_ACTIVE_GROUPS", "make_beta",
    "gen_design_synthetic", "gen_semisynthetic", "draw_response",
    "scenario_difficulty",
    # metrics
    "SupportReport", "support_metrics", "prediction_metrics",
    "roc_along_path", "roc_dominance",
]
