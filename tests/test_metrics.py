from decimal import Decimal

import numpy as np
import pytest

from cardiotox.errors import InvalidInputError
from cardiotox.metrics import (
    INCONCLUSIVE,
    ConfusionCounts,
    binary_metrics,
    binary_report_text,
    confusion_from_labels,
    cv_estimate,
    format_percent,
    mean_squared_error,
    multiclass_accuracy,
    multiclass_confusion,
    regression_metrics,
)


def pct(x):
    return float(format_percent(x))


class TestBinaryMetrics:
    def test_published_mlp_row(self):
        # model 5 of the 16-config MLP table: TP 242, FN 52, TN 82, FP 15
        m = binary_metrics(ConfusionCounts(tp=242, fn=52, tn=82, fp=15))
        assert pct(m.ac) == 82.9
        assert pct(m.sn) == 82.3
        assert pct(m.sp) == 84.5
        assert pct(m.f1) == 87.8
        assert pct(m.mcc) == 60.8

    def test_published_nav_tree_row(self):
        # final Nav1.5 tree on its 173-compound test set: TP 100, FN 14, TN 50, FP 9
        m = binary_metrics(ConfusionCounts(tp=100, fn=14, tn=50, fp=9))
        assert pct(m.ac) == 86.7
        assert pct(m.ccr) == 86.2
        assert pct(m.mcc) == 71.2
        assert pct(m.sn) == 87.7
        assert pct(m.sp) == 84.7
        assert pct(m.f1) == 89.7

    def test_perfect_classifier(self):
        m = binary_metrics(ConfusionCounts(tp=10, fn=0, tn=20, fp=0))
        assert (m.ac, m.sn, m.sp, m.f1, m.f1_eq11, m.ccr, m.mcc) == (1.0,) * 7

    def test_f1_variants_differ_under_imbalance(self):
        m = binary_metrics(ConfusionCounts(tp=242, fn=52, tn=82, fp=15))
        assert m.f1 != pytest.approx(m.f1_eq11, abs=1e-3)
        assert pct(m.f1_eq11) == 83.4  # harmonic mean of SN and SP

    def test_mcc_zero_denominator(self):
        m = binary_metrics(ConfusionCounts(tp=0, fn=0, tn=5, fp=3))
        assert m.mcc == 0.0

    def test_mcc_swap_invariance(self, rng):
        for _ in range(20):
            tp, fn, tn, fp = (int(v) for v in rng.integers(0, 50, 4))
            if tp + fn + tn + fp == 0:
                continue
            a = binary_metrics(ConfusionCounts(tp, fn, tn, fp)).mcc
            b = binary_metrics(ConfusionCounts(tn, fp, tp, fn)).mcc
            assert a == pytest.approx(b, abs=1e-12)

    def test_f1_between_precision_and_recall(self, rng):
        for _ in range(30):
            tp, fn, tn, fp = (int(v) for v in rng.integers(1, 60, 4))
            m = binary_metrics(ConfusionCounts(tp, fn, tn, fp))
            precision = tp / (tp + fp)
            assert min(precision, m.sn) - 1e-12 <= m.f1 <= max(precision, m.sn) + 1e-12

    def test_ccr_identity(self, rng):
        for _ in range(10):
            tp, fn, tn, fp = (int(v) for v in rng.integers(1, 40, 4))
            m = binary_metrics(ConfusionCounts(tp, fn, tn, fp))
            assert m.ccr == pytest.approx((m.sn + m.sp) / 2, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            binary_metrics(ConfusionCounts(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            ConfusionCounts(-1, 0, 0, 0)

    def test_ranges(self, rng):
        for _ in range(30):
            tp, fn, tn, fp = (int(v) for v in rng.integers(0, 30, 4))
            if tp + fn + tn + fp == 0:
                continue
            m = binary_metrics(ConfusionCounts(tp, fn, tn, fp))
            for v in (m.ac, m.sn, m.sp, m.f1, m.f1_eq11, m.ccr):
                assert 0.0 <= v <= 1.0
            assert -1.0 <= m.mcc <= 1.0


class TestFormatPercent:
    def test_benchmark_ccr_half_even(self):
        # SN 98.7 and SP 75 average to 86.85 exactly; half-even prints 86.8
        assert format_percent((0.987 + 0.75) / 2) == "86.8"
        assert format_percent((Decimal("98.7") + Decimal("75")) / 2) == "86.8"

    def test_half_even_both_directions(self):
        assert format_percent(Decimal("86.75")) == "86.8"
        assert format_percent(Decimal("86.85")) == "86.8"
        assert format_percent(0.5) == "50.0"

    def test_plain_rounding(self):
        assert format_percent(0.82864) == "82.9"
        assert format_percent(0.1) == "10.0"


class TestMulticlassAccuracy:
    def test_all_correct(self):
        assert multiclass_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half_correct(self):
        assert multiclass_accuracy([0, 1, 0, 1], [0, 1, 1, 0]) == 0.5

    def test_inconclusive_counts_as_miss(self):
        assert multiclass_accuracy([0, INCONCLUSIVE], [0, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            multiclass_accuracy([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            multiclass_accuracy([], [])


class TestMulticlassConfusion:
    def test_trace_identity(self, rng):
        truths = rng.integers(0, 4, 100)
        preds = rng.integers(0, 4, 100)
        confusion = multiclass_confusion(truths, preds, ("a", "b", "c", "d"))
        assert confusion.accuracy() == pytest.approx(multiclass_accuracy(list(preds), list(truths)))
        assert confusion.counts.shape == (4, 4)

    def test_inconclusive_column(self):
        confusion = multiclass_confusion([0, 1, 1], [0, INCONCLUSIVE, 1], ("x", "y"))
        assert confusion.has_inconclusive
        assert confusion.counts.shape == (2, 3)
        assert confusion.counts[1, 2] == 1
        assert confusion.accuracy() == pytest.approx(2 / 3)


class TestRegressionMetrics:
    def test_perfect_fit(self):
        m = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.mse == 0.0 and m.r2 == 1.0

    def test_mean_predictor_r2_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        m = regression_metrics(y, np.full(3, y.mean()))
        assert m.r2 == pytest.approx(0.0, abs=1e-15)

    def test_hand_case(self):
        m = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert m.mse == pytest.approx(1 / 3)
        assert m.r2 == pytest.approx(0.5)

    def test_constant_target_error_still_carries_mse(self):
        with pytest.raises(InvalidInputError) as info:
            regression_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert info.value.mse == pytest.approx(2 / 3)

    def test_mse_helper(self):
        assert mean_squared_error([0.0, 0.0], [3.0, 4.0]) == pytest.approx(12.5)


class TestCvEstimate:
    def test_mean(self):
        assert cv_estimate([0.8, 0.9]) == pytest.approx(0.85)

    def test_single_fold_identity(self):
        assert cv_estimate([0.73]) == 0.73

    def test_equal_folds_match_pooled_accuracy(self, rng):
        # ten folds of equal size: mean fold accuracy equals pooled accuracy
        fold_size = 40
        correct = rng.integers(0, fold_size + 1, 10)
        fold_acc = [c / fold_size for c in correct]
        pooled = correct.sum() / (fold_size * 10)
        assert cv_estimate(fold_acc) == pytest.approx(pooled, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            cv_estimate([])


class TestReports:
    def test_confusion_from_labels(self):
        counts = confusion_from_labels([1, 1, 0, 0], [1, 0, 0, 1], positive=1)
        assert (counts.tp, counts.fn, counts.tn, counts.fp) == (1, 1, 1, 1)

    def test_text_report_column_order(self):
        text = binary_report_text([("m1", ConfusionCounts(100, 14, 50, 9))])
        header, row = text.splitlines()
        assert header.split() == ["model", "AC", "SN", "SP", "F1", "TP", "FN", "TN", "FP"]
        assert row.split() == ["m1", "86.7", "87.7", "84.7", "89.7", "100", "14", "50", "9"]
