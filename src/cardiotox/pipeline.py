"""Hierarchical ToxTree classifiers and grid-search tuning.

A pipeline runs its preprocessing chain (feature whitelist, scaler, optional
PCA projection) and then its per-threshold stages in strong -> moderate ->
weak order; the first stage to call "blocker" decides the class. A stage
holds one model, or two that vote as a consensus (the hERG weak stage)
whose disagreement resolves to the more confident member, or to
Inconclusive when the confidences tie.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .dataset import (
    CUTOFFS,
    FoldPlan,
    LabeledDataset,
    PotencyClass,
    assign_class,
    stratified_kfold,
)
from .errors import InvalidInputError
from .learners import (
    ForestModel,
    KernelSpec,
    SvmModel,
    forest_fit,
    forest_predict_proba,
    forest_prefix_votes,
    svm_decision,
    svm_decision_many,
    svm_fit,
)
from .metrics import binary_metrics, confusion_from_labels, cv_estimate
from .preprocess import PcaModel, ScalerParams, fit_pca, fit_scaler, project, transform_scaler
from .resample import ResamplePlan, Strategy, balance


class Outcome(enum.Enum):
    STRONG_BLOCKER = "strong-blocker"
    MODERATE_BLOCKER = "moderate-blocker"
    WEAK_BLOCKER = "weak-blocker"
    NON_BLOCKER = "non-blocker"
    INCONCLUSIVE = "inconclusive"


# The potency class each outcome names; Inconclusive names none.
OUTCOME_CLASS = {
    Outcome.STRONG_BLOCKER: PotencyClass.STRONG,
    Outcome.MODERATE_BLOCKER: PotencyClass.MODERATE,
    Outcome.WEAK_BLOCKER: PotencyClass.WEAK,
    Outcome.NON_BLOCKER: PotencyClass.NON,
}
_CLASS_OUTCOME = {cls: outcome for outcome, cls in OUTCOME_CLASS.items()}


@dataclass(frozen=True)
class StagePrediction:
    blocker: bool
    probability: float


@dataclass(frozen=True)
class PredictionOutcome:
    outcome: Outcome
    stage_name: str
    probability: float | None


def _stage_predict(model: Any, row: np.ndarray) -> StagePrediction:
    """Binary verdict + confidence from a forest or SVM stage model.

    Class 0 is "blocker" (BINARY_CLASS_NAMES). Forests report the vote share
    of the predicted class; SVMs squash the decision value through a logistic
    only for reporting (routing uses the sign), and a NaN decision, which has
    no sign, raises. Objects exposing stage_predict(row) are accepted as-is,
    which is how test stubs plug in.
    """
    if hasattr(model, "stage_predict"):
        blocker, prob = model.stage_predict(row)
        return StagePrediction(bool(blocker), float(prob))
    if isinstance(model, ForestModel):
        proba = forest_predict_proba(model, row)
        cls = int(np.argmax(proba))
        return StagePrediction(cls == 0, float(proba[cls]))
    if isinstance(model, SvmModel):
        f = svm_decision(model, row)
        if math.isnan(f):
            raise InvalidInputError("SVM decision value is NaN (feature values overflow)")
        p_blocker = 1.0 / (1.0 + math.exp(-f)) if f > -700 else 0.0
        blocker = f >= 0.0
        return StagePrediction(blocker, p_blocker if blocker else 1.0 - p_blocker)
    raise InvalidInputError(f"unsupported stage model type {type(model).__name__}")


# Consensus members whose confidences differ by no more than this tie.
PROB_TOLERANCE = 1e-9


@dataclass
class Stage:
    """One trained binary stage: blocker-at-threshold vs the rest.

    A stage is one model, or two same-threshold models voted together (the
    hERG weak stage): agreement keeps the shared label with the larger
    probability; on disagreement the more confident member wins, unless the
    probabilities are within PROB_TOLERANCE, which is Inconclusive.
    """

    threshold: float
    names: list[str]
    models: list[ForestModel | SvmModel]  # or any object with stage_predict(row)

    def __post_init__(self):
        if float(self.threshold) not in CUTOFFS:
            raise InvalidInputError(
                f"stage threshold must be one of {sorted(CUTOFFS)}, got {self.threshold}"
            )
        self.threshold = float(self.threshold)
        if len(self.models) not in (1, 2) or len(self.names) != len(self.models):
            raise InvalidInputError(
                f"a stage needs one or two models, each named; got {len(self.models)} models, "
                f"{len(self.names)} names"
            )
        for model in self.models:
            if not isinstance(model, (ForestModel, SvmModel)) and not hasattr(model, "stage_predict"):
                raise InvalidInputError(f"unsupported stage model type {type(model).__name__}")
        widths = self._widths()
        if len(set(widths)) > 1:
            raise InvalidInputError(f"consensus members expect different feature counts ({widths[0]} vs {widths[1]})")

    def _widths(self) -> list[int]:
        """The input widths the members declare (test stubs declare none)."""
        return [m.n_features for m in self.models if getattr(m, "n_features", None) is not None]

    @property
    def name(self) -> str:
        return self.names[0] if len(self.names) == 1 else f"consensus({','.join(self.names)})"

    @property
    def n_features(self) -> int | None:
        return next(iter(self._widths()), None)

    def predict(self, row: np.ndarray) -> StagePrediction | None:
        """The stage's verdict; None means Inconclusive. A lone member agrees
        with itself, so its prediction passes through unchanged."""
        votes = [_stage_predict(model, row) for model in self.models]
        a, b = votes[0], votes[-1]
        if a.blocker != b.blocker and abs(a.probability - b.probability) <= PROB_TOLERANCE:
            return None
        return b if b.probability > a.probability else a


@dataclass
class PreprocessChain:
    """Whitelist selection, then scaling, then an optional PCA projection."""

    whitelist: list[str]
    scaler: ScalerParams
    pca: PcaModel | None = None

    def __post_init__(self):
        # Each part reads the columns that the one before it writes.
        if len(self.whitelist) != self.scaler.n_features:
            raise InvalidInputError(
                f"whitelist gives {len(self.whitelist)} columns, scaler expects {self.scaler.n_features}"
            )
        if self.pca is not None and self.pca.n_features != self.scaler.n_features:
            raise InvalidInputError(
                f"scaler gives {self.scaler.n_features} columns, pca expects {self.pca.n_features}"
            )

    @classmethod
    def fit(cls, matrix: np.ndarray, whitelist: Sequence[str],
            pca_energy: float | None = None) -> tuple["PreprocessChain", np.ndarray]:
        """Fit the scaler (and, given an energy, PCA on the scaled rows) to
        training rows in whitelist order; returns the chain and the rows it
        outputs for them."""
        if np.ndim(matrix) == 2 and np.shape(matrix)[1] == 0:
            raise InvalidInputError("training rows have no feature columns (empty whitelist or descriptor header)")
        scaler = fit_scaler(matrix)
        pca = None if pca_energy is None else fit_pca(transform_scaler(scaler, matrix), pca_energy)
        chain = cls(list(whitelist), scaler, pca)
        return chain, chain.apply_matrix(matrix)

    def apply_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Scale, then project, rows that are already in whitelist order."""
        matrix = transform_scaler(self.scaler, matrix)
        return matrix if self.pca is None else project(self.pca, matrix)

    def apply_row(self, row: np.ndarray) -> np.ndarray:
        """One row in whitelist order; a non-finite value is a missing feature."""
        vec = np.asarray(row, dtype=float)
        if vec.shape != (len(self.whitelist),):
            raise InvalidInputError(
                f"row has {vec.shape[0]} values, whitelist expects {len(self.whitelist)}"
            )
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise InvalidInputError(f"missing feature {self.whitelist[int(bad[0])]!r}")
        return self.apply_matrix(vec[None, :])[0]

    @property
    def output_dim(self) -> int:
        return self.scaler.n_features if self.pca is None else self.pca.n_components


@dataclass
class ToxTreePipeline:
    preprocessing: PreprocessChain
    stages: list[Stage]

    def __post_init__(self):
        if not self.stages:
            raise InvalidInputError("pipeline needs at least one stage")
        thresholds = [s.threshold for s in self.stages]
        if any(t2 >= t1 for t1, t2 in zip(thresholds, thresholds[1:])):
            raise InvalidInputError(
                f"stage thresholds must be strictly descending, got {thresholds}"
            )
        out_dim = self.preprocessing.output_dim
        for stage in self.stages:
            dim = stage.n_features
            if dim is not None and dim != out_dim:
                raise InvalidInputError(
                    f"stage {stage.name!r} expects {dim} features, preprocessing outputs {out_dim}"
                )


def pipeline_predict(pipeline: ToxTreePipeline, row: np.ndarray) -> PredictionOutcome:
    """Route one descriptor row, its values in whitelist order, through the stages.

    The first blocker verdict maps its stage threshold to the class
    ``assign_class`` gives that threshold (6 -> strong, 5 -> moderate,
    4.5 -> weak); all-non-blocker rows come out NonBlocker; a consensus stage
    may end Inconclusive.
    """
    vec = pipeline.preprocessing.apply_row(row)
    last: tuple[str, StagePrediction] | None = None
    for stage in pipeline.stages:
        decision = stage.predict(vec)
        if decision is None:
            return PredictionOutcome(Outcome.INCONCLUSIVE, stage.name, None)
        if decision.blocker:
            return PredictionOutcome(
                _CLASS_OUTCOME[assign_class(stage.threshold)], stage.name, decision.probability
            )
        last = (stage.name, decision)
    return PredictionOutcome(Outcome.NON_BLOCKER, last[0], last[1].probability)


# ---------------------------------------------------------------------------
# Grid tuning


@dataclass(frozen=True)
class ForestConfig:
    """A forest of n_estimators trees, each grown to full depth."""

    n_estimators: int

    def __post_init__(self):
        if self.n_estimators < 1:
            raise InvalidInputError("n_estimators must be at least 1")

    def size_key(self):
        return (self.n_estimators,)

    def describe(self) -> str:
        return f"rf(n={self.n_estimators},depth=none)"


@dataclass(frozen=True)
class SvmConfig:
    kernel: str
    c: float
    degree: int = 3

    def size_key(self):
        return (self.c,)

    def describe(self) -> str:
        if self.kernel == "poly":
            return f"svm({self.kernel}{self.degree},C={self.c:g})"
        return f"svm({self.kernel},C={self.c:g})"


# Paper-derived hyperparameter spaces.
SVM_C_VALUES = (0.1, 0.2, 0.5, 0.8, 1, 3, 5, 10, 50, 100)


def herg_rf_space() -> list[ForestConfig]:
    """11 estimator counts, 10 through 110."""
    return [ForestConfig(n) for n in range(10, 111, 10)]


def svm_space() -> list[SvmConfig]:
    """{linear, poly d 2..10, sigmoid, rbf} x 10 penalty values = 120 configs."""
    configs = []
    for c in SVM_C_VALUES:
        configs.append(SvmConfig("linear", float(c)))
    for d in range(2, 11):
        for c in SVM_C_VALUES:
            configs.append(SvmConfig("poly", float(c), degree=d))
    for c in SVM_C_VALUES:
        configs.append(SvmConfig("sigmoid", float(c)))
    for c in SVM_C_VALUES:
        configs.append(SvmConfig("rbf", float(c)))
    return configs


@dataclass
class ConfigResult:
    """One configuration's cross-validation scores, one entry per scored fold."""

    config: ForestConfig | SvmConfig
    fold_ac: list[float] = field(default_factory=list)
    fold_f1: list[float] = field(default_factory=list)
    observed_max_depth: int | None = None
    # SVMs: whether every fold's fit converged. None for forests.
    converged: bool | None = None

    @property
    def ac_cv(self) -> float:
        return cv_estimate(self.fold_ac)

    @property
    def f1_cv(self) -> float:
        return cv_estimate(self.fold_f1)


@dataclass
class TuningResult:
    results: list[ConfigResult]
    ranked: list[ConfigResult]
    fold_warnings: list[str] = field(default_factory=list)

    @property
    def best(self) -> ConfigResult:
        return self.ranked[0]


def fit_config(config: ForestConfig | SvmConfig, dataset: LabeledDataset, seed: int) -> ForestModel | SvmModel:
    """The model a forest or SVM configuration fits to a dataset.

    SVMs need binary labels and code class 0 (blocker) as +1; ``seed``
    reaches forests only.
    """
    if isinstance(config, ForestConfig):
        return forest_fit(dataset, config.n_estimators, seed=seed)
    if isinstance(config, SvmConfig):
        if len(dataset.class_names) != 2:
            raise InvalidInputError("SVM configurations need binary labels")
        y = np.where(dataset.labels == 0, 1.0, -1.0)
        return svm_fit(dataset.matrix, y, KernelSpec(config.kernel, degree=config.degree), config.c)
    raise InvalidInputError(f"unsupported config type {type(config).__name__}")


def tune_grid(
    space: Sequence[ForestConfig | SvmConfig],
    dataset: LabeledDataset,
    k: int = 10,
    seed: int = 0,
    plan: ResamplePlan | None = None,
) -> TuningResult:
    """Stratified k-fold CV over every configuration of a two-class stage
    dataset (class 0 is the blocker), resampling only the training side of
    each fold.

    Each fold is resampled once and shared by every configuration. Forest
    configurations are scored on prefixes of one forest per fold, fitted at
    the largest size the space asks for: tree i depends only on (seed, i), so
    a configuration's own forest is the first n_estimators trees of that one.
    Each tree classifies the validation rows once, and a configuration
    predicts the class with the most votes among its first trees.

    Rankings put every configuration whose fit failed to converge in some
    fold (``converged`` False; SVMs only) after all the others, then order
    by AC_cv, then F1_cv (blocker as the positive class), then the smaller
    model (fewer estimators / smaller C). An unconverged configuration is
    thus picked only when no configuration converged.
    """
    if not space:
        raise InvalidInputError("hyperparameter space must be non-empty")
    if len(dataset.class_names) != 2:
        raise InvalidInputError(f"tuning needs a two-class dataset, got {len(dataset.class_names)} classes")
    plan = plan or ResamplePlan()
    folds: FoldPlan = stratified_kfold(dataset, k, seed)

    results = [ConfigResult(config) for config in space]
    largest = max((c.n_estimators for c in space if isinstance(c, ForestConfig)), default=0)
    for fold_idx, (train_idx, val_idx) in enumerate(folds.iter_train_val()):
        if len(val_idx) == 0:  # possible when k exceeds the row count
            continue
        train_ds = dataset.subset(train_idx)
        if plan.strategy is not Strategy.ORIGINAL:
            fold_plan = replace(plan, seed=plan.seed + 7919 * (fold_idx + 1))
            try:
                train_ds = balance(train_ds, fold_plan)
            except InvalidInputError as exc:
                notes = "".join(f"; {warning}" for warning in folds.warnings)
                raise InvalidInputError(
                    f"CV fold {fold_idx + 1} of {k}: cannot resample its training rows: {exc}{notes}"
                ) from exc
        val_ds = dataset.subset(val_idx)
        if largest:
            forest = fit_config(ForestConfig(largest), train_ds, seed)
            # Deepest tree, and votes on each validation row, of the forest's first i + 1 trees.
            prefix_depths = np.maximum.accumulate(forest.tree_depths())
            prefix_votes = forest_prefix_votes(forest, val_ds.matrix)
        for res in results:
            config = res.config
            if isinstance(config, ForestConfig):
                depth = int(prefix_depths[config.n_estimators - 1])
                res.observed_max_depth = max(res.observed_max_depth or 0, depth)
                preds = prefix_votes[config.n_estimators - 1].argmax(axis=1)
            else:
                model = fit_config(config, train_ds, seed)
                preds = np.where(svm_decision_many(model, val_ds.matrix) >= 0.0, 0, 1)
                res.converged = model.converged and res.converged is not False
            scores = binary_metrics(confusion_from_labels(val_ds.labels == 0, preds == 0, True))
            res.fold_ac.append(scores.ac)
            res.fold_f1.append(scores.f1)

    def rank_key(item: tuple[int, ConfigResult]):
        idx, r = item
        return (r.converged is False, -r.ac_cv, -r.f1_cv, r.config.size_key(), idx)

    ranked = [r for _, r in sorted(enumerate(results), key=rank_key)]
    return TuningResult(results, ranked, folds.warnings)
