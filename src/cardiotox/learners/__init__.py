"""From-scratch supervised learners: Gini trees and forests, SMO kernel SVM,
Adam-trained MLP, and closed-form ridge regression."""

from typing import Union

from .forest import (
    ForestModel,
    Tree,
    forest_fit,
    forest_predict,
    forest_predict_many,
    forest_predict_proba,
    forest_regress_fit,
    forest_regress_predict,
    forest_vote_counts,
    tree_fit,
)
from .mlp import (
    BatchNormParams,
    MlpModel,
    TrainConfig,
    TrainResult,
    mlp_init,
    mlp_predict,
    mlp_predict_proba,
    mlp_train,
)
from .ridge import RidgeModel, ridge_fit
from .svm import (
    KernelSpec,
    SvmModel,
    kernel_eval,
    svm_decision,
    svm_decision_many,
    svm_fit,
    svm_predict,
)

TrainedModel = Union[ForestModel, SvmModel, MlpModel, RidgeModel]

__all__ = [
    "BatchNormParams",
    "ForestModel",
    "KernelSpec",
    "MlpModel",
    "RidgeModel",
    "SvmModel",
    "TrainConfig",
    "TrainResult",
    "TrainedModel",
    "Tree",
    "forest_fit",
    "forest_predict",
    "forest_predict_many",
    "forest_predict_proba",
    "forest_regress_fit",
    "forest_regress_predict",
    "forest_vote_counts",
    "kernel_eval",
    "mlp_init",
    "mlp_predict",
    "mlp_predict_proba",
    "mlp_train",
    "ridge_fit",
    "svm_decision",
    "svm_decision_many",
    "svm_fit",
    "svm_predict",
    "tree_fit",
]
