"""MaxiMin active learning with minimum-norm interpolators.

Selection scores rate each unlabeled candidate by the norm the interpolant
would need if the candidate received its least-favorable label; querying the
maximizer bisects 1-D decision boundaries and explores separated clusters.
The package provides the kernel and linear-spline models, both selection
scores (with closed-form interval-local states for 1-D runs), synthetic task
generators, and a reproducible experiment harness with a CLI (``maximin-al``).

The package's ``maximin_al`` logger has a ``NullHandler``, so what it logs
prints nothing unless the application configures logging.
"""

import logging

from .exceptions import (ConditioningError, DuplicatePointError, EmptyPoolError,
                         IngestionError, OutOfRangeError)
from .harness import (ExperimentConfig, ModelConfig, RunRecord, load_csv_dataset,
                      run_experiment, summarize, write_dataset_csv)
from .kernel import (KernelConfig, KernelInterpolator, LabeledSet, augmented_fit,
                     fit, kernel_matrix)
from .scoring import ScoredCandidate, ScoreKind, score_pool, select_next
from .spline import SplineInterpolator, fit_spline, spline_select_next
from .synthetic import (ClusterSpec, RegimeReport, TaskSample, ThresholdTask1D,
                        gen_clusters, gen_threshold_task, validate_theorem_regime)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ConditioningError", "DuplicatePointError", "EmptyPoolError",
    "IngestionError", "OutOfRangeError",
    "KernelConfig", "LabeledSet", "KernelInterpolator",
    "kernel_matrix", "fit", "augmented_fit",
    "ScoreKind", "ScoredCandidate", "score_pool", "select_next",
    "SplineInterpolator", "fit_spline", "spline_select_next",
    "ThresholdTask1D", "ClusterSpec", "RegimeReport", "TaskSample",
    "gen_threshold_task", "gen_clusters", "validate_theorem_regime",
    "ExperimentConfig", "ModelConfig", "RunRecord",
    "run_experiment", "summarize", "load_csv_dataset", "write_dataset_csv",
    "__version__",
]
