"""QSAR cardiotoxicity modeling toolkit.

Curation and PIC50 labeling, descriptor-space reduction, from-scratch
learners (forests, SMO SVMs, MLPs, ridge), imbalanced-class resampling,
the full binary/multiclass metric suite, hierarchical ToxTree pipelines
whose stages are forests or SVMs (the MLP is a standalone learner), and
deterministic model bundles, plus a batch CLI.
"""

import os

# Threaded BLAS sums in a core-count-dependent order, so PCA and bundles would vary by host.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

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
