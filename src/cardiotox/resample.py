"""SMOTE over-sampling and NearMiss-1 under-sampling for binary training sets."""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import InvalidInputError


class Strategy(enum.Enum):
    ORIGINAL = "original"
    OVER_SAMPLE = "over"
    UNDER_SAMPLE = "under"


# Neighbours SMOTE interpolates towards and NearMiss-1 averages over.
K_NEIGHBORS = 5


@dataclass(frozen=True)
class ResamplePlan:
    strategy: Strategy = Strategy.ORIGINAL
    seed: int = 0


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    sq = aa + bb - 2.0 * (a @ b.T)
    return np.sqrt(np.maximum(sq, 0.0))


def smote(minority: np.ndarray, n_synthetic: int, k: int, seed: int) -> np.ndarray:
    """Interpolate synthetic rows on segments to k-nearest minority neighbors.

    Base rows cycle round-robin; the neighbor and the interpolation factor
    u ~ U[0, 1] come from the seeded generator, so output is deterministic.
    A too-large k is clamped to |minority| - 1 with a warning.
    """
    minority = np.asarray(minority, dtype=float)
    if minority.ndim != 2 or minority.shape[0] < 2:
        raise InvalidInputError("SMOTE needs at least two minority rows")
    if n_synthetic < 0:
        raise InvalidInputError("n_synthetic must be nonnegative")
    m = minority.shape[0]
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    if k > m - 1:
        warnings.warn(f"k={k} exceeds |minority|-1={m - 1}; clamping", stacklevel=2)
        k = m - 1

    if n_synthetic == 0:
        return np.empty((0, minority.shape[1]))

    # Each row's k nearest others, ties to the lower index; a row is never
    # its own neighbor. Column j of ``others`` is row j + (j >= i). Only the
    # distances up to a row's k-th smallest can be among its first k (all of
    # them when the k-th is NaN, which sorts last), so only those are sorted.
    others = _pairwise_distances(minority, minority)[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    kth = np.partition(others, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero((others <= kth) | np.isnan(kth))
    ranked = np.lexsort((others[rows, cols], rows))  # stable: by row, then distance, then column
    held = np.bincount(rows, minlength=m)
    cols = cols[ranked[(np.cumsum(held) - held)[:, None] + np.arange(k)]]
    neighbors = cols + (cols >= np.arange(m)[:, None])

    rng = np.random.default_rng(seed)
    out = np.empty((n_synthetic, minority.shape[1]))
    for t in range(n_synthetic):
        i = t % m
        nn = neighbors[i, rng.integers(k)]
        u = rng.uniform()
        out[t] = minority[i] + u * (minority[nn] - minority[i])
    return out


def nearmiss(
    majority: np.ndarray,
    minority: np.ndarray,
    target_count: int,
    k: int,
) -> np.ndarray:
    """NearMiss-1 selection: keep the majority rows with the smallest mean
    distance to their k nearest minority rows (ties go to the lower index).

    Returns the selected majority row indices, ascending.
    """
    majority = np.asarray(majority, dtype=float)
    minority = np.asarray(minority, dtype=float)
    if minority.ndim != 2 or minority.shape[0] == 0:
        raise InvalidInputError("minority set must be non-empty")
    if majority.ndim != 2:
        raise InvalidInputError("majority must be a 2-D matrix")
    if target_count > majority.shape[0]:
        raise InvalidInputError("target_count cannot exceed the majority size")
    if target_count < 0:
        raise InvalidInputError("target_count must be nonnegative")
    if not 1 <= k <= minority.shape[0]:
        raise InvalidInputError("k must be in [1, |minority|]")

    dist = _pairwise_distances(majority, minority)
    nearest = np.sort(dist, axis=1)[:, :k]
    mean_dist = nearest.mean(axis=1)
    ranked = np.argsort(mean_dist, kind="stable")  # stable: ties keep lower index first
    return np.sort(ranked[:target_count])


def balance(dataset: LabeledDataset, plan: ResamplePlan) -> LabeledDataset:
    """Equalize binary class counts per the plan (or pass through for ORIGINAL)."""
    if len(dataset.class_names) != 2:
        raise InvalidInputError("balance requires binary labels")
    counts = dataset.class_counts()
    if counts[0] == 0 or counts[1] == 0:
        raise InvalidInputError("both classes must be present")
    if plan.strategy is Strategy.ORIGINAL or counts[0] == counts[1]:
        return dataset

    minority_label = int(np.argmin(counts))
    majority_label = 1 - minority_label
    min_rows = dataset.matrix[dataset.labels == minority_label]
    maj_rows = dataset.matrix[dataset.labels == majority_label]

    if plan.strategy is Strategy.OVER_SAMPLE:
        n_syn = maj_rows.shape[0] - min_rows.shape[0]
        k = min(K_NEIGHBORS, min_rows.shape[0] - 1)
        if k < 1:
            raise InvalidInputError(f"minority class too small for SMOTE ({min_rows.shape[0]} row, needs 2)")
        synthetic = smote(min_rows, n_syn, k, plan.seed)
        matrix = np.vstack([dataset.matrix, synthetic])
        labels = np.concatenate([dataset.labels, np.full(n_syn, minority_label, dtype=int)])
        return LabeledDataset(matrix, labels, dataset.class_names)

    # UNDER_SAMPLE
    k = min(K_NEIGHBORS, min_rows.shape[0])
    selected = nearmiss(maj_rows, min_rows, min_rows.shape[0], k)
    majority_indices = np.flatnonzero(dataset.labels == majority_label)
    keep = np.sort(
        np.concatenate([np.flatnonzero(dataset.labels == minority_label), majority_indices[selected]])
    )
    return dataset.subset(keep)
