"""Fairness-constrained learning to rank with stochastic ranking policies.

Trains Plackett-Luce ranking policies by policy gradient to maximize a
ranking utility (NDCG, DCG, ERR, average relevant rank) minus a weighted
exposure-disparity penalty, with individual (merit-pairwise) and group
(exposure-per-merit ratio) fairness notions, plus a linear-programming
post-processing baseline and a top-1 softmax baseline.
"""
from .data import (
    Dataset,
    Query,
    convert_binary_table,
    generate_simulated,
    load_dataset,
    load_table,
    parse_letor,
    save_dataset,
    split_dataset,
)
from .fairness import DisparityConfig, MeritFunction, exposure_of_policy
from .metrics import UtilityMetric
from .policy import (
    LinearModel,
    MLP1Model,
    argmax_ranking,
    init_model,
    load_model,
    sample_rankings,
    save_model,
)
from .trainer import EvalSummary, RunRecord, TrainConfig, evaluate, train
from .baselines import (
    fit_linear_regression,
    solve_fair_lp,
    solve_fair_lp_grid,
    train_top1_baseline,
    train_top1_grid,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Query", "convert_binary_table",
    "generate_simulated", "load_dataset", "load_table", "parse_letor", "save_dataset",
    "split_dataset",
    "DisparityConfig", "MeritFunction", "exposure_of_policy", "UtilityMetric",
    "LinearModel", "MLP1Model", "argmax_ranking", "init_model", "load_model",
    "sample_rankings", "save_model",
    "EvalSummary", "RunRecord", "TrainConfig", "evaluate", "train",
    "fit_linear_regression", "solve_fair_lp", "solve_fair_lp_grid",
    "train_top1_baseline", "train_top1_grid",
    "__version__",
]
