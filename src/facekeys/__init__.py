"""facekeys: facial keypoint regression lab.

Loads the Kaggle-style keypoint CSV, builds LBP and PCA features, trains
eight hand-written regressors, and benchmarks held-out RMSE per task.
"""

from .dataset import (
    Dataset,
    DatasetError,
    FeatureMatrix,
    SLOT_NAMES,
    holdout_split,
    impute_column_means,
    load_training_csv,
    split_by_keypoint_coverage,
    write_training_csv,
)
from .lbp import LbpConfig, lbp_basic, lbp_circular, lbp_histogram_features
from .pca import PcaModel, fit_pca, inverse_transform, transform
from .eval import BenchmarkConfig, EvalReport, format_report, rmse, run_benchmark
from .regressors import RegressorSpec, fit_any, load_model, predict_any, save_model

__version__ = "0.1.0"

__all__ = [
    "Dataset", "DatasetError", "FeatureMatrix", "SLOT_NAMES",
    "holdout_split", "impute_column_means", "load_training_csv",
    "split_by_keypoint_coverage", "write_training_csv", "LbpConfig",
    "lbp_basic", "lbp_circular", "lbp_histogram_features", "PcaModel", "fit_pca",
    "inverse_transform", "transform", "BenchmarkConfig",
    "EvalReport", "format_report", "rmse", "run_benchmark", "RegressorSpec",
    "fit_any", "load_model", "predict_any", "save_model", "__version__",
]
