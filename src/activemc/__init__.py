"""Supervised low-rank matrix completion with active feature acquisition."""

from .acquisition import (
    InformativenessTracker,
    informativeness,
    select_cost_ratio,
    select_top_k,
)
from .completion import (
    CompletionConfig,
    CompletionResult,
    fit,
    grad_g,
    svt,
)
from .data_io import load_dataset, write_dataset, write_matrix, write_records
from .harness import (
    ExperimentPlan,
    ExperimentResult,
    RoundRecord,
    init_mask,
    make_split,
    reconstruction_errors,
    run_experiment,
)
from .linear_model import (
    LinearModel,
    accuracy,
    auc,
    decision_values,
    train_ridge,
)
from .matrix import PartialMatrix, trace_norm
from .poss import BiObjectiveProblem, poss_optimize

__version__ = "0.1.0"

__all__ = [
    "BiObjectiveProblem",
    "CompletionConfig",
    "CompletionResult",
    "ExperimentPlan",
    "ExperimentResult",
    "InformativenessTracker",
    "LinearModel",
    "PartialMatrix",
    "RoundRecord",
    "accuracy",
    "auc",
    "decision_values",
    "fit",
    "grad_g",
    "informativeness",
    "init_mask",
    "load_dataset",
    "make_split",
    "poss_optimize",
    "reconstruction_errors",
    "run_experiment",
    "select_cost_ratio",
    "select_top_k",
    "svt",
    "trace_norm",
    "train_ridge",
    "write_dataset",
    "write_matrix",
    "write_records",
]
