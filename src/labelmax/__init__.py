"""labelmax: weighted partial MaxSAT with sound preprocessing.

The pipeline: the weighted formula's labelled form, monotone (blocked)
clause elimination and resolution-style preprocessing on it, then a
core-guided search, with model reconstruction mapping the answer back to
the original formula.
"""

from .model import (
    LCNF,
    Assignment,
    ClauseT,
    LabelledClause,
    MaxSatSolution,
    StackEntry,
    WCNF,
    WeightOverflowError,
    clause,
    cost_of_labels,
    is_tautology,
    lcnf_from_wcnf,
    lcnf_to_wcnf,
    lift_reduction_solution,
    reconstruct,
)
from .lcnf_prep import bce_fixpoint, preprocess_lcnf
from .solver import SolveReport, solve_lcnf
from .cli import PipelineError, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "LCNF",
    "Assignment",
    "ClauseT",
    "LabelledClause",
    "MaxSatSolution",
    "PipelineError",
    "SolveReport",
    "StackEntry",
    "WCNF",
    "WeightOverflowError",
    "bce_fixpoint",
    "clause",
    "cost_of_labels",
    "is_tautology",
    "lcnf_from_wcnf",
    "lcnf_to_wcnf",
    "lift_reduction_solution",
    "preprocess_lcnf",
    "reconstruct",
    "run_pipeline",
    "solve_lcnf",
    "__version__",
]
