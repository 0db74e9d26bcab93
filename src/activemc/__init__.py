"""Supervised low-rank matrix completion with active feature acquisition.

The root exports the entry points the README's examples use; every other
public name is imported from its module (``activemc.completion``,
``activemc.acquisition``, ``activemc.poss``, ``activemc.linear_model``, ...).
"""

from .completion import CompletionConfig, fit
from .data_io import load_dataset, write_dataset
from .harness import ExperimentPlan, init_mask, reconstruction_errors, run_experiment
from .matrix import PartialMatrix

__version__ = "0.1.0"

__all__ = [
    "CompletionConfig",
    "ExperimentPlan",
    "PartialMatrix",
    "fit",
    "init_mask",
    "load_dataset",
    "reconstruction_errors",
    "run_experiment",
    "write_dataset",
]
