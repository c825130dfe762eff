"""Evaluation statistics: confusion counts, binary metrics (accuracy,
sensitivity, specificity, F1, CCR, MCC), the multiclass confusion matrix and
the evaluation reports read off it, regression MSE/R2, and cross-validation
estimates.

Two F1 variants are computed: ``f1`` is the precision/sensitivity harmonic
mean (the definition every published table is consistent with, and the one
every report prints) and ``f1_eq11`` is the sensitivity/specificity harmonic
mean, kept for library callers because the two differ whenever the classes
are imbalanced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Sequence

import numpy as np

from .errors import InvalidInputError

INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fn: int
    tn: int
    fp: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.tn, self.fp) < 0:
            raise InvalidInputError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.tn + self.fp


def confusion_from_labels(truths, predictions, positive) -> ConfusionCounts:
    truths = list(truths)
    predictions = list(predictions)
    if len(truths) != len(predictions):
        raise InvalidInputError("truths and predictions must have equal length")
    tp = fn = tn = fp = 0
    for t, p in zip(truths, predictions):
        if t == positive:
            if p == positive:
                tp += 1
            else:
                fn += 1
        else:
            if p == positive:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp, fn, tn, fp)


@dataclass(frozen=True)
class BinaryMetrics:
    ac: float
    sn: float
    sp: float
    f1: float
    f1_eq11: float
    ccr: float
    mcc: float


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def binary_metrics(c: ConfusionCounts) -> BinaryMetrics:
    """All binary statistics from one confusion table.

    MCC is defined as 0 when any marginal is empty; other ratios fall back to
    0 on empty denominators.
    """
    if c.total == 0:
        raise InvalidInputError("confusion counts are all zero")
    ac = (c.tp + c.tn) / c.total
    sn = _ratio(c.tp, c.tp + c.fn)
    sp = _ratio(c.tn, c.tn + c.fp)
    precision = _ratio(c.tp, c.tp + c.fp)
    f1 = 2 * precision * sn / (precision + sn) if (precision + sn) > 0 else 0.0
    f1_eq11 = 2 * sn * sp / (sn + sp) if (sn + sp) > 0 else 0.0
    ccr = (sn + sp) / 2
    factors = (c.tp + c.fn, c.tp + c.fp, c.tn + c.fn, c.tn + c.fp)
    if 0 in factors:
        mcc = 0.0
    else:
        # exact integer arithmetic before the final division
        num = c.tp * c.tn - c.fp * c.fn
        mcc = num / math.sqrt(factors[0] * factors[1] * factors[2] * factors[3])
    return BinaryMetrics(ac, sn, sp, f1, f1_eq11, ccr, mcc)


@dataclass
class MulticlassConfusion:
    """Rows are truths, columns predictions; an extra trailing column collects
    inconclusive predictions when any are present."""

    class_names: tuple[str, ...]
    counts: np.ndarray
    has_inconclusive: bool = False

    def accuracy(self) -> float:
        total = int(self.counts.sum())
        if total == 0:
            raise InvalidInputError("empty confusion matrix")
        c = len(self.class_names)
        return float(np.trace(self.counts[:, :c])) / total

    def binary(self, k: int) -> ConfusionCounts:
        """The two-class counts when the first ``k`` classes are positive; an
        inconclusive prediction is negative."""
        tp = int(self.counts[:k, :k].sum())
        fp = int(self.counts[k:, :k].sum())
        return ConfusionCounts(tp, int(self.counts[:k].sum()) - tp, int(self.counts[k:].sum()) - fp, fp)


def multiclass_confusion(
    truths: Sequence[int],
    predictions: Sequence,
    class_names: Sequence[str],
) -> MulticlassConfusion:
    """Count (truth, prediction) pairs; a prediction may be INCONCLUSIVE."""
    truths = list(truths)
    predictions = list(predictions)
    if len(truths) != len(predictions):
        raise InvalidInputError("truths and predictions must have equal length")
    c = len(class_names)
    has_inc = any(p == INCONCLUSIVE for p in predictions)
    counts = np.zeros((c, c + 1 if has_inc else c), dtype=int)
    for t, p in zip(truths, predictions):
        if not 0 <= int(t) < c:
            raise InvalidInputError(f"truth label {t!r} out of range")
        if p == INCONCLUSIVE:
            counts[int(t), c] += 1
        else:
            if not 0 <= int(p) < c:
                raise InvalidInputError(f"prediction {p!r} out of range")
            counts[int(t), int(p)] += 1
    return MulticlassConfusion(tuple(class_names), counts, has_inc)


@dataclass(frozen=True)
class RegressionMetrics:
    mse: float
    r2: float


def mean_squared_error(y: Sequence[float], y_hat: Sequence[float]) -> float:
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.ndim != 1 or y.size == 0:
        raise InvalidInputError("y and y_hat must be equal-length 1-D sequences")
    d = y - y_hat
    return float(np.mean(d * d))


def regression_metrics(y: Sequence[float], y_hat: Sequence[float]) -> RegressionMetrics:
    """MSE plus R^2 = 1 - SS_RES/SS_TOT. A constant target makes R^2
    undefined; the raised error carries the still-valid MSE in ``.mse``."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.ndim != 1 or y.size < 2:
        raise InvalidInputError("need two equal-length 1-D sequences of at least 2 points")
    mse = mean_squared_error(y, y_hat)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        err = InvalidInputError(f"r2 is undefined for a constant target (mse={mse!r})")
        err.mse = mse
        raise err
    ss_res = float(np.sum((y - y_hat) ** 2))
    return RegressionMetrics(mse, 1.0 - ss_res / ss_tot)


def cv_estimate(fold_metrics: Sequence[float]) -> float:
    """Arithmetic mean of per-fold statistics (used for AC_cv and F1_cv)."""
    fold_metrics = list(fold_metrics)
    if not fold_metrics:
        raise InvalidInputError("no fold metrics to average")
    return float(sum(fold_metrics) / len(fold_metrics))


def format_percent(value) -> str:
    """Percent with round-half-even at one decimal place.

    Floats go through repr() so the shortest decimal form is what gets
    rounded (0.8685 -> '86.8', not an artifact of binary representation).
    Accepts a fraction as float, or an exact Decimal already in percent.
    """
    if isinstance(value, Decimal):
        pct = value
    else:
        pct = Decimal(repr(float(value))) * 100
    return str(pct.quantize(Decimal("0.1"), rounding=ROUND_HALF_EVEN))


def evaluation_report(confusion: MulticlassConfusion, cutoffs: Sequence[tuple[str, int]]) -> tuple[str, str]:
    """The text and CSV reports of a multiclass confusion matrix.

    Each cut-off is a (label, k) pair scored as ``confusion.binary(k)``; the
    multiclass accuracy is ``confusion.accuracy()``.
    """
    scored = []
    for label, k in cutoffs:
        counts = confusion.binary(k)
        scored.append((label, counts, binary_metrics(counts)))
    accuracy = format_percent(confusion.accuracy())

    table = [("threshold", "AC", "SN", "SP", "F1", "TP", "FN", "TN", "FP")]
    table += [(label, *(format_percent(v) for v in (m.ac, m.sn, m.sp, m.f1)), *map(str, (c.tp, c.fn, c.tn, c.fp)))
              for label, c, m in scored]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["binary metrics by threshold", ""]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    lines += ["", "threshold  CCR    MCC"]
    lines += [f"{label:<9}  {format_percent(m.ccr):<5}  {format_percent(m.mcc)}" for label, _, m in scored]
    lines += ["", f"multiclass accuracy: {accuracy}", "", "confusion (rows = truth):"]
    header = list(confusion.class_names) + ([INCONCLUSIVE] if confusion.has_inconclusive else [])
    name_width = max(len(h) for h in header) + 2
    lines.append(" " * name_width + "  ".join(h.rjust(12) for h in header))
    for name, row in zip(confusion.class_names, confusion.counts):
        lines.append(name.ljust(name_width) + "  ".join(str(int(v)).rjust(12) for v in row))

    csv_lines = ["threshold,AC,CCR,MCC,SN,SP,F1,TP,FN,TN,FP"]
    for label, c, m in scored:
        percents = ",".join(format_percent(v) for v in (m.ac, m.ccr, m.mcc, m.sn, m.sp, m.f1))
        csv_lines.append(f"{label},{percents},{c.tp},{c.fn},{c.tn},{c.fp}")
    csv_lines.append(f"multiclass,{accuracy},,,,,,,,,")
    return "\n".join(lines) + "\n", "\n".join(csv_lines) + "\n"
