"""QSAR cardiotoxicity modeling toolkit.

Curation and PIC50 labeling, descriptor-space reduction, from-scratch
learners (forests, SMO SVMs, MLPs, ridge), imbalanced-class resampling,
the full binary/multiclass metric suite, hierarchical ToxTree pipelines
whose stages are forests or SVMs (the MLP is a standalone learner), and
deterministic model bundles, plus a batch CLI.
"""

__version__ = "0.1.0"

from . import dataset, features, learners, metrics, persistence, pipeline, preprocess, resample
from .errors import (
    BundleError,
    CardiotoxError,
    InvalidInputError,
    ParseError,
    TrainingDivergedError,
    UsageError,
)

__all__ = [
    "BundleError",
    "CardiotoxError",
    "InvalidInputError",
    "ParseError",
    "TrainingDivergedError",
    "UsageError",
    "dataset",
    "features",
    "learners",
    "metrics",
    "persistence",
    "pipeline",
    "preprocess",
    "resample",
]
