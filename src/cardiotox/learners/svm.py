"""Soft-margin kernelized SVM trained by sequential minimal optimization.

The dual min 1/2 a'Qa - e'a, 0 <= a <= C, y'a = 0, with Q = yy' * K, is
solved two variables at a time using the second-order working-set selection
of Fan, Chen & Lin (JMLR 6, 2005), the rule LIBSVM uses. With the gradient
G = Qa - e and v = -y * G:

- i maximizes v over I_up = {y = +1, a < C} | {y = -1, a > 0}; call it m.
- j minimizes -(m - v_t)^2 / a_it over the I_low = {y = +1, a > 0} |
  {y = -1, a < C} points with v_t < m, where a_it = K_ii + K_tt - 2 K_it,
  and a_it <= 0 (flat or indefinite kernels) counts as 1e-12.
- The pair takes one Newton step along the equality constraint, clipped
  to the box. Ties in either pick go to the lowest index.

Optimization stops when m - M <= 2 tol, with M the minimum of v over I_low,
and the bias is (m + M) / 2: every point then meets its KKT condition
y f(x) >= 1 (a = 0), = 1 (0 < a < C), <= 1 (a = C) to within tol.

The fit builds the kernel matrix K and the curvature matrix a_it (already
floored) once, and keeps v itself rather than G, as two arrays: v on I_up
with -inf elsewhere, and v on I_low with +inf elsewhere. An update that
moves a_i and a_j subtracts y_i K_i da_i + y_j K_j da_j from both in place,
which equals -y * G after the gradient update to the last bit, since
y_t = +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError
from ..preprocess import row_products

KERNEL_KINDS = ("linear", "poly", "rbf", "sigmoid")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family with optional parameters (gamma defaults to 1/D at use)."""

    kind: str
    degree: int = 3
    gamma: float | None = None
    coef0: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidInputError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise InvalidInputError(f"gamma must be positive, got {self.gamma}")
        if self.kind == "poly" and self.degree < 1:
            raise InvalidInputError("poly degree must be at least 1")

    def resolve(self, n_features: int) -> "KernelSpec":
        """Fill defaults: gamma = 1/D; coef0 = 1 for poly, 0 otherwise."""
        gamma = self.gamma if self.gamma is not None else 1.0 / max(n_features, 1)
        if self.coef0 is not None:
            coef0 = self.coef0
        else:
            coef0 = 1.0 if self.kind == "poly" else 0.0
        return KernelSpec(self.kind, self.degree, gamma, coef0)


def kernel_eval(spec: KernelSpec, x: np.ndarray, z: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape or x.ndim != 1:
        raise InvalidInputError("kernel arguments must be 1-D vectors of equal length")
    spec = spec.resolve(x.shape[0])
    return float(_kernel_matrix(spec, x[None, :], z[None, :])[0, 0])


def _sq_norms(a: np.ndarray) -> np.ndarray:
    return (a * a).sum(axis=1)


def _kernel(spec: KernelSpec, dots: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """K(a_i, b_j) under a resolved ``spec`` from the inner products
    ``dots`` = a_i . b_j and the rows' squared norms (the RBF kernel reads them)."""
    if spec.kind == "linear":
        return dots
    if spec.kind == "poly":
        return (spec.gamma * dots + spec.coef0) ** spec.degree
    if spec.kind == "rbf":
        sq = np.maximum(a_sq[:, None] + b_sq[None, :] - 2.0 * dots, 0.0)
        return np.exp(-spec.gamma * sq)
    return np.tanh(spec.gamma * dots + spec.coef0)


def _kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K(a_i, b_j) for every row pair, from one matrix product ``a @ b.T``."""
    return _kernel(spec, a @ b.T, _sq_norms(a), _sq_norms(b))


@dataclass
class SvmModel:
    """Support vectors with dual coefficients alpha_i * y_i and a bias."""

    kernel: KernelSpec
    C: float
    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    converged: bool = True
    # Full training alphas, kept as a diagnostic; not serialized.
    alphas: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel.gamma is None or self.kernel.coef0 is None:
            raise InvalidInputError("kernel gamma and coef0 must be resolved, as svm_fit stores them")
        self.support_vectors = np.asarray(self.support_vectors, dtype=float)
        self.dual_coefs = np.asarray(self.dual_coefs, dtype=float)
        if self.support_vectors.ndim != 2:
            raise InvalidInputError("support_vectors must be 2-D")
        if self.dual_coefs.shape != (self.support_vectors.shape[0],):
            raise InvalidInputError("one dual coefficient per support vector required")
        # Every decision reads the support vectors' squared norms (RBF); not stored.
        self._sv_sq_norms = _sq_norms(self.support_vectors)

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]


def svm_fit(
    x: np.ndarray,
    y: np.ndarray,
    kernel: KernelSpec,
    C: float,
    tol: float = 1e-3,
    max_passes: int = 10_000,
) -> SvmModel:
    """SMO with second-order working-set selection until m - M <= 2 tol.

    ``y`` must contain both classes, coded -1/+1, and ``x`` must be finite.
    ``tol`` must be finite and positive. ``max_passes`` (>= 0) caps the
    number of pair updates; hitting it before the stopping rule holds
    returns a model with converged=False. The bias is (m + M) / 2 either way.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    C = float(C)
    if not C > 0:
        raise InvalidInputError(f"C must be positive, got {C}")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tol must be finite and positive, got {tol}")
    if max_passes < 0:
        raise InvalidInputError(f"max_passes must be non-negative, got {max_passes}")
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise InvalidInputError("x must be 2-D with one label per row")
    if not np.isfinite(x).all():
        raise InvalidInputError("x must be finite")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidInputError("labels must be coded -1/+1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InvalidInputError("both classes must be present")

    n = x.shape[0]
    spec = kernel.resolve(x.shape[1])
    k = _kernel_matrix(spec, x, x)
    k_diag = k.diagonal()
    # a_it for every pair; a row of it is one update's curvature vector.
    curvature = np.multiply(k, -2.0)
    curvature += np.add.outer(k_diag, k_diag)
    curvature[~(curvature > 0.0)] = 1e-12
    positive = (y > 0).tolist()
    y_list = y.tolist()
    alpha = [0.0] * n
    # v = -y * G (= y at alpha = 0) on I_up and I_low, with -inf and +inf
    # outside them; only the two points an update moves change sets.
    v_up = np.where(y > 0, y, -np.inf)
    v_low = np.where(y < 0, y, np.inf)
    gain = np.empty(n)
    score = np.empty(n)

    updates = 0
    while True:
        i = int(v_up.argmax())
        m = v_up[i]
        big_m = v_low.min()
        if m - big_m <= 2.0 * tol or updates == max_passes:
            break
        # Points outside I_low, or not below m, gain nothing and score 0.
        np.subtract(m, v_low, out=gain)
        np.maximum(gain, 0.0, out=gain)
        curvature_i = curvature[i]
        np.multiply(gain, gain, out=score)
        np.divide(score, curvature_i, out=score)
        j = int(score.argmax())
        # Move a_i by +y_i t and a_j by -y_j t (y'a stays fixed), with t the
        # Newton step on this line cut back to the box.
        old_i, old_j = alpha[i], alpha[j]
        room_i = C - old_i if positive[i] else old_i
        room_j = old_j if positive[j] else C - old_j
        step = min(gain[j] / curvature_i[j], room_i, room_j)
        alpha[i] = (C if positive[i] else 0.0) if step == room_i else old_i + y_list[i] * step
        alpha[j] = (0.0 if positive[j] else C) if step == room_j else old_j - y_list[j] * step
        # v -= y * (Q_i da_i + Q_j da_j), with y_t Q_it = y_i K_it.
        delta = k[i] * (y_list[i] * (alpha[i] - old_i)) + k[j] * (y_list[j] * (alpha[j] - old_j))
        v_up -= delta
        v_low -= delta
        for t in (i, j):
            # Every point is in I_up or I_low, so one of the two holds v_t.
            v_t = v_up[t] if v_up[t] > -np.inf else v_low[t]
            in_up = alpha[t] < C if positive[t] else alpha[t] > 0.0
            in_low = alpha[t] > 0.0 if positive[t] else alpha[t] < C
            v_up[t] = v_t if in_up else -np.inf
            v_low[t] = v_t if in_low else np.inf
        updates += 1

    converged = bool(m - big_m <= 2.0 * tol)
    # Updates leave each zero of v as +0, while -y * G (whose G has only +0
    # zeros) has -0 where y = +1. Take m and M from that form, so that a zero
    # bias carries the same sign bit as the gradient form gives.
    m = (-y * (0.0 - y * v_up))[i]
    big_m = (-y * (0.0 - y * v_low)).min()
    alpha = np.array(alpha)
    sv = alpha > 1e-8
    return SvmModel(
        kernel=spec,
        C=C,
        support_vectors=x[sv],
        dual_coefs=(alpha * y)[sv],
        bias=float((m + big_m) / 2.0),
        converged=converged,
        alphas=alpha,
    )


def svm_decision(model: SvmModel, row: np.ndarray) -> float:
    """f(x) = sum_i alpha_i y_i K(x_i, x) + b: svm_decision_many on one row."""
    row = np.asarray(row, dtype=float)
    if row.shape != (model.n_features,):
        raise InvalidInputError(
            f"row has shape {row.shape}, model expects ({model.n_features},)"
        )
    return float(svm_decision_many(model, row[None, :])[0])


def svm_decision_many(model: SvmModel, matrix: np.ndarray) -> np.ndarray:
    """``svm_decision`` of every row of ``matrix``, bit for bit: each row's
    inner products and its sum over the support vectors are one-row products
    (see ``preprocess.row_products``)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != model.n_features:
        raise InvalidInputError(
            f"matrix has shape {matrix.shape}, model expects (rows, {model.n_features})"
        )
    if model.support_vectors.shape[0] == 0:
        return np.full(matrix.shape[0], model.bias)
    dots = row_products(matrix, model.support_vectors.T)
    k = _kernel(model.kernel, dots, _sq_norms(matrix), model._sv_sq_norms)
    return row_products(k, model.dual_coefs) + model.bias


def svm_predict(model: SvmModel, row: np.ndarray) -> int:
    """Sign of the decision value; f = 0 resolves to +1."""
    return 1 if svm_decision(model, row) >= 0.0 else -1
