"""Closed-form ridge regression on centered data via a linear solve."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError


@dataclass
class RidgeModel:
    coefficients: np.ndarray
    intercept: float
    alpha: float

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim == 1:
            return float(matrix @ self.coefficients + self.intercept)
        return matrix @ self.coefficients + self.intercept


def ridge_fit(x: np.ndarray, y: np.ndarray, alpha: float) -> RidgeModel:
    """beta = (Xc' Xc + alpha I)^-1 Xc' yc on centered data; the intercept
    restores the means."""
    if alpha < 0:
        raise InvalidInputError(f"alpha must be nonnegative, got {alpha}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise InvalidInputError("x must be 2-D with one target per row")
    if x.shape[0] < 1:
        raise InvalidInputError("need at least one row")
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + alpha * np.eye(x.shape[1])
    beta = np.linalg.solve(gram, xc.T @ yc)
    intercept = y_mean - float(x_mean @ beta)
    return RidgeModel(beta, intercept, float(alpha))
