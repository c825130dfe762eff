"""Descriptor-space reduction: missing/constant filtering, correlation pruning,
and L1-regularized (coordinate descent) embedded selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import DescriptorTable, content_lines, note_first_line
from .errors import InvalidInputError
from .preprocess import fit_scaler, transform_scaler


@dataclass
class FeatureFilterReport:
    """Which features survived a filter and why the rest were dropped."""

    kept: list[str]
    dropped: list[tuple[str, str]] = field(default_factory=list)

    def dropped_names(self) -> list[str]:
        return [name for name, _ in self.dropped]


def filter_low_information(
    table: DescriptorTable,
    max_missing: int,
    max_constant: int,
) -> tuple[DescriptorTable, FeatureFilterReport]:
    """Drop features with too many missing cells or too many repeats of one value.

    A feature is dropped when it has more than ``max_missing`` missing cells,
    or when more than ``max_constant`` of its cells equal the feature's modal
    value. Missing cells of surviving features are imputed with the feature's
    mean over present cells. Returns the imputed table and a report.
    """
    n_rows = table.n_rows
    if max_missing > n_rows or max_constant > n_rows:
        raise InvalidInputError("thresholds cannot exceed the row count")
    kept_names: list[str] = []
    kept_cols: list[np.ndarray] = []
    dropped: list[tuple[str, str]] = []
    for j, name in enumerate(table.feature_names):
        col = table.values[:, j]
        present = col[~np.isnan(col)]
        n_missing = n_rows - present.size
        if n_missing > max_missing:
            dropped.append((name, "missing"))
            continue
        modal_count = 0
        if present.size:
            _, counts = np.unique(present, return_counts=True)
            modal_count = int(counts.max())
        if modal_count > max_constant:
            dropped.append((name, "constant"))
            continue
        if n_missing:
            fill = present.mean() if present.size else 0.0
            col = np.where(np.isnan(col), fill, col)
        kept_names.append(name)
        kept_cols.append(col)
    values = np.column_stack(kept_cols) if kept_cols else np.empty((n_rows, 0))
    filtered = DescriptorTable(list(table.row_keys), kept_names, values)
    return filtered, FeatureFilterReport(kept_names, dropped)


def _pearson_columns(matrix: np.ndarray) -> np.ndarray:
    """Column-pairwise Pearson correlations; zero-variance columns correlate 0."""
    n = matrix.shape[0]
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)
    z = (matrix - mean) / safe
    r = (z.T @ z) / n
    zero_var = std == 0.0
    r[zero_var, :] = 0.0
    r[:, zero_var] = 0.0
    np.fill_diagonal(r, 1.0)
    return np.clip(r, -1.0, 1.0)


def _pearson_with_target(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    std = matrix.std(axis=0)
    t_std = target.std()
    if t_std == 0.0:
        return np.zeros(matrix.shape[1])
    zc = matrix - matrix.mean(axis=0)
    tc = (target - target.mean()) / t_std
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (zc.T @ tc) / (n * std)
    r[std == 0.0] = 0.0
    return np.clip(r, -1.0, 1.0)


def correlation_filter(
    matrix: np.ndarray,
    target: np.ndarray,
    cutoff: float,
    feature_names: list[str],
) -> FeatureFilterReport:
    """Greedy pairwise-correlation pruning with a predictive-power tie-break.

    Pairs with |Pearson r| strictly above ``cutoff`` are visited in descending
    |r| (name-lexicographic on ties); the member with the smaller |correlation
    with target| is dropped, keeping the lexicographically smaller name when
    those tie too. Deterministic by construction.
    """
    if not 0.0 < cutoff < 1.0:
        raise InvalidInputError(f"cutoff must be in (0, 1), got {cutoff}")
    matrix = np.asarray(matrix, dtype=float)
    target = np.asarray(target, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != len(feature_names):
        raise InvalidInputError("matrix width must match feature_names")
    if target.shape != (matrix.shape[0],):
        raise InvalidInputError("target length must match the row count")
    if matrix.size and np.isnan(matrix).any():
        raise InvalidInputError("matrix must not contain missing cells")

    r = _pearson_columns(matrix)
    power = np.abs(_pearson_with_target(matrix, target))

    pairs = []
    d = matrix.shape[1]
    for i in range(d):
        for j in range(i + 1, d):
            if abs(r[i, j]) > cutoff:
                a, b = sorted((i, j), key=lambda idx: feature_names[idx])
                pairs.append((-abs(r[i, j]), feature_names[a], feature_names[b], a, b))
    pairs.sort()

    alive = [True] * d
    dropped: list[tuple[str, str]] = []
    for _, _, _, a, b in pairs:
        if not (alive[a] and alive[b]):
            continue
        if power[a] > power[b]:
            keep, drop = a, b
        elif power[b] > power[a]:
            keep, drop = b, a
        else:
            keep, drop = sorted((a, b), key=lambda idx: feature_names[idx])
        alive[drop] = False
        dropped.append((feature_names[drop], f"correlated-with:{feature_names[keep]}"))

    kept = [feature_names[i] for i in range(d) if alive[i]]
    return FeatureFilterReport(kept, dropped)


@dataclass
class LassoFit:
    """Coordinate-descent L1 fit: coefficients, intercept, and the surviving names."""

    coefficients: np.ndarray
    intercept: float
    lam: float
    selected: list[str]
    n_sweeps: int
    converged: bool

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if len(self.selected) != int(np.count_nonzero(self.coefficients)):
            raise InvalidInputError("selected names must match nonzero coefficients")

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(matrix, dtype=float) @ self.coefficients + self.intercept


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def lasso_fit(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    feature_names: list[str] | None = None,
    max_sweeps: int = 10_000,
    change_tol: float = 1e-8,
) -> LassoFit:
    """Minimize (1/2n)||y - X b - b0||^2 + lam*||b||_1 by cyclic coordinate descent.

    ``x`` must be column-standardized (means within 1e-6 of zero); the
    intercept is then mean(y). Sweeps stop when the largest coefficient
    change drops below 1e-8 or after ``max_sweeps``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise InvalidInputError(f"lambda must be nonnegative, got {lam}")
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise InvalidInputError("x must be 2-D with one target per row")
    n, d = x.shape
    if n == 0:
        raise InvalidInputError("empty design matrix")
    means = x.mean(axis=0) if d else np.empty(0)
    if d and np.max(np.abs(means)) > 1e-6:
        raise InvalidInputError(
            f"x is not column-standardized (max |column mean| = {np.max(np.abs(means)):.3g})"
        )

    intercept = float(y.mean())
    beta = np.zeros(d)
    residual = y - intercept
    col_sq = (x * x).sum(axis=0) / n
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        max_change = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = (x[:, j] @ residual) / n + col_sq[j] * old
            new = _soft_threshold(rho, lam) / col_sq[j]
            if new != old:
                residual += x[:, j] * (old - new)
                beta[j] = new
            max_change = max(max_change, abs(new - old))
        if max_change < change_tol:
            converged = True
            break

    beta[np.abs(beta) == 0.0] = 0.0  # normalize -0.0
    if feature_names is None:
        feature_names = [str(j) for j in range(d)]
    selected = [feature_names[j] for j in range(d) if beta[j] != 0.0]
    return LassoFit(beta, intercept, lam, selected, sweeps, converged)


def lasso_kkt_residual(x: np.ndarray, y: np.ndarray, fit: LassoFit) -> float:
    """Max violation of the subgradient conditions at ``fit``.

    Nonzero coefficients require (1/n) X_j' r = lam * sign(b_j); zero ones
    require |(1/n) X_j' r| <= lam.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    grad = x.T @ (y - fit.predict(x)) / n
    worst = 0.0
    for j, b in enumerate(fit.coefficients):
        if b != 0.0:
            worst = max(worst, abs(abs(grad[j]) - fit.lam), abs(grad[j] - fit.lam * np.sign(b)))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - fit.lam))
    return worst


@dataclass
class LambdaSearchResult:
    best_lambda: float
    validation_mse: list[tuple[float, float]]  # (lambda, mse) in grid order


def lambda_grid_search(
    x: np.ndarray,
    y: np.ndarray,
    grid: list[float],
    holdout_fraction: float = 0.2,
    seed: int = 0,
) -> LambdaSearchResult:
    """Pick the lambda with the smallest holdout MSE (ties go to the smaller lambda).

    The split is random per seed; the training portion is re-standardized
    before fitting and the same transform is applied to the holdout rows.
    """
    if not grid:
        raise InvalidInputError("lambda grid must be non-empty")
    if not 0.0 < holdout_fraction < 1.0:
        raise InvalidInputError("holdout_fraction must be in (0, 1)")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    n_hold = max(1, int(round(holdout_fraction * n)))
    if n_hold >= n:
        raise InvalidInputError("holdout fraction leaves no training rows")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    hold, train = perm[:n_hold], perm[n_hold:]

    scaler = fit_scaler(x[train])
    x_train = transform_scaler(scaler, x[train])
    x_hold = transform_scaler(scaler, x[hold])

    results: list[tuple[float, float]] = []
    for lam in grid:
        fit = lasso_fit(x_train, y[train], lam)
        err = y[hold] - fit.predict(x_hold)
        results.append((lam, float(np.mean(err * err))))
    best = min(results, key=lambda t: (t[1], t[0]))[0]
    return LambdaSearchResult(best, results)


def variance_report(matrix: np.ndarray, feature_names: list[str]) -> list[tuple[str, float]]:
    """Population variance per feature, sorted descending (name breaks ties)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != len(feature_names):
        raise InvalidInputError("matrix width must match feature_names")
    variances = matrix.var(axis=0) if matrix.shape[0] else np.zeros(len(feature_names))
    entries = list(zip(feature_names, (float(v) for v in variances)))
    entries.sort(key=lambda t: (-t[1], t[0]))
    return entries


def load_feature_whitelist(source) -> list[str]:
    """One feature name per line; '#' starts a comment; blanks skipped. A name
    given twice raises ParseError."""
    first_lines: dict[str, int] = {}
    for line, name in content_lines(source):
        note_first_line(first_lines, name, line, "feature name")
    return list(first_lines)
