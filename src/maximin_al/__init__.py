"""MaxiMin active learning with minimum-norm interpolators.

Selection scores rate each unlabeled candidate by the norm the interpolant
would need if the candidate received its least-favorable label; querying the
maximizer bisects 1-D decision boundaries and explores separated clusters.
The package provides the kernel and linear-spline models, both selection
scores, closed 1-D forms, synthetic task generators, and a reproducible
experiment harness with a CLI (``maximin-al``).
"""

from .exceptions import (ConditioningError, DuplicatePointError, EmptyPoolError,
                         IngestionError, OutOfRangeError)
from .harness import (ExperimentConfig, ModelConfig, RunRecord, load_csv_dataset,
                      run_experiment, summarize, write_dataset_csv)
from .kernel import (KernelConfig, KernelInterpolator, LabeledSet, augmented_fit,
                     fit, kernel_matrix)
from .laplace1d import (IntervalScoreResult, SortedLabeled1D, best_interval,
                        interval_max_score, norm_closed_form, tridiagonal_inverse)
from .scoring import (ScoredCandidate, ScoreKind, UnlabeledPool, estimate_label,
                      score_data_norm, score_function_norm, score_pool, select_next)
from .spline import (Empirical1D, SplineInterpolator, Uniform1D, fit_spline,
                     spline_score_data_norm, spline_score_function_norm,
                     spline_select_next)
from .synthetic import (ClusterSpec, RegimeReport, ThresholdTask1D, gen_clusters,
                        gen_threshold_task, validate_theorem_regime)

__version__ = "0.1.0"

__all__ = [
    "ConditioningError", "DuplicatePointError", "EmptyPoolError",
    "IngestionError", "OutOfRangeError",
    "KernelConfig", "LabeledSet", "KernelInterpolator",
    "kernel_matrix", "fit", "augmented_fit",
    "ScoreKind", "ScoredCandidate", "UnlabeledPool",
    "estimate_label", "score_function_norm", "score_data_norm",
    "score_pool", "select_next",
    "SortedLabeled1D", "IntervalScoreResult", "tridiagonal_inverse",
    "norm_closed_form", "interval_max_score", "best_interval",
    "SplineInterpolator", "Uniform1D", "Empirical1D", "fit_spline",
    "spline_score_function_norm", "spline_score_data_norm", "spline_select_next",
    "ThresholdTask1D", "ClusterSpec", "RegimeReport",
    "gen_threshold_task", "gen_clusters", "validate_theorem_regime",
    "ExperimentConfig", "ModelConfig", "RunRecord",
    "run_experiment", "summarize", "load_csv_dataset", "write_dataset_csv",
    "__version__",
]
