"""Supervised low-rank matrix completion with active feature acquisition."""

from .acquisition import (
    CostModel,
    InformativenessTracker,
    informativeness,
    select_cost_ratio,
    select_top_k,
)
from .bounds import BoundParams, Lemma3Result, lemma3_check, theorem1_bound
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
    LabeledSplit,
    LinearModel,
    accuracy,
    auc,
    decision_values,
    train_ridge,
)
from .matrix import PartialMatrix, coherence, trace_norm
from .poss import BiObjectiveProblem, poss_optimize

__version__ = "0.1.0"

__all__ = [
    "BiObjectiveProblem",
    "BoundParams",
    "CompletionConfig",
    "CompletionResult",
    "CostModel",
    "ExperimentPlan",
    "ExperimentResult",
    "InformativenessTracker",
    "LabeledSplit",
    "Lemma3Result",
    "LinearModel",
    "PartialMatrix",
    "RoundRecord",
    "accuracy",
    "auc",
    "coherence",
    "decision_values",
    "fit",
    "grad_g",
    "informativeness",
    "init_mask",
    "lemma3_check",
    "load_dataset",
    "make_split",
    "poss_optimize",
    "reconstruction_errors",
    "run_experiment",
    "select_cost_ratio",
    "select_top_k",
    "svt",
    "theorem1_bound",
    "trace_norm",
    "train_ridge",
    "write_dataset",
    "write_matrix",
    "write_records",
]
