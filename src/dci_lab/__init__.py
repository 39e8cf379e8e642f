"""Distance-weighted class impurity (DCI) scoring and a pool-based active-learning lab.

The library is organised around small immutable value types (datasets,
neighbor sets, parameter bundles) and pure functions over them:

- ``dataset``: CSV/IDX loading, one-hot encoding, standardization, PCA.
- ``neighbors``: exact brute-force k-nearest-neighbor search.
- ``dci``: the distance-weighted class impurity score and 2D score fields.
- ``models``: bagged decision trees and model-based uncertainty baselines.
- ``active``: the pool-based selection/retrain/evaluate simulation loop.
- ``metrics``: AUROC, accuracy, RMSE and the uncertainty decile analysis.
- ``cli``: the ``dci-lab`` command-line front end.
"""

from dci_lab.dataset import (
    ColumnSpec,
    DataError,
    Dataset,
    PcaModel,
    load_csv,
    load_idx,
    one_hot,
    pca_fit,
    pca_project,
    read_colspec,
    write_idx,
)
from dci_lab.neighbors import NeighborSet, knn, nearest_neighbors
from dci_lab.dci import DciParams, GridSpec, dci_field, dci_scores, pool_scores
from dci_lab.models import (
    ModelConfig,
    TreeEnsemble,
    ensemble_binary_uncertainty,
    fit_ensemble,
    knn_predict,
    max_prob_uncertainty,
    mean_std_uncertainty,
    predict,
    regression_std_uncertainty,
)
from dci_lab.active import (
    ExperimentConfig,
    LearningCurve,
    Strategy,
    aggregate,
    run_experiment,
    run_many,
    select_next,
)
from dci_lab.metrics import DecileReport, accuracy, auroc, decile_analysis, rmse

__version__ = "0.1.0"

__all__ = [
    "ColumnSpec",
    "DataError",
    "Dataset",
    "PcaModel",
    "load_csv",
    "load_idx",
    "one_hot",
    "pca_fit",
    "pca_project",
    "read_colspec",
    "write_idx",
    "NeighborSet",
    "knn",
    "nearest_neighbors",
    "DciParams",
    "GridSpec",
    "dci_field",
    "dci_scores",
    "pool_scores",
    "ModelConfig",
    "TreeEnsemble",
    "ensemble_binary_uncertainty",
    "fit_ensemble",
    "knn_predict",
    "max_prob_uncertainty",
    "mean_std_uncertainty",
    "predict",
    "regression_std_uncertainty",
    "ExperimentConfig",
    "LearningCurve",
    "Strategy",
    "aggregate",
    "run_experiment",
    "run_many",
    "select_next",
    "DecileReport",
    "accuracy",
    "auroc",
    "decile_analysis",
    "rmse",
    "__version__",
]
