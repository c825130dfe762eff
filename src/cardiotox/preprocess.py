"""Z-score standardization and covariance PCA with the 90%-energy component rule.

All statistics use the population (1/N) convention so the scaler, the
covariance matrix, and the eigenvalue/variance identities agree internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass
class ScalerParams:
    """Column means and standard deviations; zero-variance columns store std 1."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise InvalidInputError("mean and std must be 1-D arrays of equal length")
        if np.any(self.std <= 0):
            raise InvalidInputError("std components must be positive")

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]


def fit_scaler(matrix: np.ndarray) -> ScalerParams:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise InvalidInputError("scaler needs a 2-D matrix with at least one row")
    if np.isnan(matrix).any():
        raise InvalidInputError("matrix must not contain missing cells")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)  # population (1/N)
    std = np.where(std == 0.0, 1.0, std)
    return ScalerParams(mean, std)


def transform_scaler(params: ScalerParams, matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.shape[1] != params.n_features:
        raise InvalidInputError(
            f"matrix has {matrix.shape[1]} columns, scaler expects {params.n_features}"
        )
    return (matrix - params.mean) / params.std


def sym_eig(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (numpy's ``eigh``).

    Returns (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors as orthonormal columns, each signed so its largest-magnitude
    entry is positive.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInputError("input must be a square matrix")
    if s.size and np.max(np.abs(s - s.T)) >= 1e-10:
        raise InvalidInputError("input must be symmetric within 1e-10")
    values, vectors = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    for col in vectors.T:
        if col[np.argmax(np.abs(col))] < 0:
            col *= -1.0
    return values, vectors


@dataclass
class PcaModel:
    """Centering mean, top-K orthonormal components, and their eigenvalues."""

    mean: np.ndarray
    components: np.ndarray  # D x K
    eigenvalues: np.ndarray  # K, descending, nonnegative
    energy_captured: float

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.components = np.asarray(self.components, dtype=float)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        d, k = self.components.shape
        if self.mean.shape != (d,):
            raise InvalidInputError("mean length must match component rows")
        if self.eigenvalues.shape != (k,):
            raise InvalidInputError("one eigenvalue per component required")
        if k > d:
            raise InvalidInputError("component count cannot exceed input dimension")
        scale = max(1.0, float(self.eigenvalues.max(initial=0.0)))
        if np.any(np.diff(self.eigenvalues) > 1e-12 * scale) or np.any(self.eigenvalues < 0):
            raise InvalidInputError("eigenvalues must be nonnegative and nonincreasing")
        gram = self.components.T @ self.components
        if np.max(np.abs(gram - np.eye(k))) > 1e-8:
            raise InvalidInputError("components must be orthonormal within 1e-8")
        if not 0.0 < self.energy_captured <= 1.0 + 1e-12:
            raise InvalidInputError("energy_captured must be in (0, 1]")

    @property
    def n_components(self) -> int:
        return self.components.shape[1]

    @property
    def n_features(self) -> int:
        return self.components.shape[0]


def fit_pca(matrix: np.ndarray, energy: float = 0.90) -> PcaModel:
    """Center, build the 1/N covariance, eigendecompose, and keep the smallest
    K whose cumulative eigenvalue fraction reaches ``energy``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise InvalidInputError("PCA needs a 2-D matrix with at least two rows")
    if np.isnan(matrix).any():
        raise InvalidInputError("matrix must not contain missing cells")
    if not 0.0 < energy <= 1.0:
        raise InvalidInputError("energy must be in (0, 1]")
    n = matrix.shape[0]
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    cov = (centered.T @ centered) / n
    values, vectors = sym_eig(cov)
    values = np.maximum(values, 0.0)  # clamp roundoff negatives on the PSD covariance
    total = float(values.sum())
    if total <= 0.0:
        # Degenerate all-constant input: a single null component captures everything.
        return PcaModel(mean, vectors[:, :1], values[:1], 1.0)
    cumfrac = np.cumsum(values) / total
    k = int(np.searchsorted(cumfrac, energy - 1e-12) + 1)
    k = min(k, matrix.shape[1])
    return PcaModel(mean, vectors[:, :k], values[:k], float(cumfrac[k - 1]))


def project(model: PcaModel, matrix: np.ndarray) -> np.ndarray:
    """Y = (X - mean) @ components."""
    matrix = np.asarray(matrix, dtype=float)
    single = matrix.ndim == 1
    if single:
        matrix = matrix[None, :]
    if matrix.shape[1] != model.n_features:
        raise InvalidInputError(
            f"matrix has {matrix.shape[1]} columns, PCA model expects {model.n_features}"
        )
    out = (matrix - model.mean) @ model.components
    return out[0] if single else out
