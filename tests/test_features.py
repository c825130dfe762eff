import itertools
import math

import numpy as np
import pytest

from cardiotox.dataset import DescriptorTable
from cardiotox.errors import InvalidInputError, ParseError
from cardiotox.features import (
    correlation_filter,
    filter_low_information,
    lambda_grid_search,
    lasso_fit,
    lasso_kkt_residual,
    load_feature_whitelist,
    variance_report,
)
from cardiotox.preprocess import fit_scaler, transform_scaler


def standardized(rng, n, d):
    x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d) + rng.uniform(-2, 2, size=d)
    return transform_scaler(fit_scaler(x), x)


class TestFilterLowInformation:
    def table(self, cols, keys=None):
        names = sorted(cols)
        values = np.column_stack([cols[n] for n in names])
        keys = keys or [f"r{i}" for i in range(values.shape[0])]
        return DescriptorTable(keys, names, values)

    def test_constant_column_dropped(self):
        t = self.table({"zero": np.zeros(6), "live": np.arange(6.0)})
        filtered, report = filter_low_information(t, max_missing=6, max_constant=3)
        assert filtered.feature_names == ["live"]
        assert ("zero", "constant") in report.dropped

    def test_missing_column_dropped_and_rest_imputed(self):
        col = np.array([1.0, np.nan, 3.0, np.nan, np.nan, np.nan])
        partial = np.array([2.0, np.nan, 4.0, 4.0, 5.0, 6.0])
        t = self.table({"holey": col, "partial": partial})
        filtered, report = filter_low_information(t, max_missing=2, max_constant=6)
        assert ("holey", "missing") in report.dropped
        assert filtered.feature_names == ["partial"]
        assert filtered.values[1, 0] == pytest.approx(np.nanmean(partial))
        assert not np.isnan(filtered.values).any()

    def test_clean_distinct_column_kept(self):
        t = self.table({"ok": np.arange(5.0)})
        filtered, report = filter_low_information(t, max_missing=0, max_constant=1)
        assert filtered.feature_names == ["ok"] and not report.dropped

    def test_never_drops_within_thresholds(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 30))
            col = rng.normal(size=n)
            n_missing = int(rng.integers(0, n // 2 + 1))
            col[rng.choice(n, size=n_missing, replace=False)] = np.nan
            t = self.table({"f": col})
            present = col[~np.isnan(col)]
            modal = 0
            if present.size:
                _, counts = np.unique(present, return_counts=True)
                modal = counts.max()
            _, report = filter_low_information(t, max_missing=n_missing, max_constant=int(modal))
            assert report.kept == ["f"]

    def test_threshold_beyond_rows_rejected(self):
        t = self.table({"f": np.arange(3.0)})
        with pytest.raises(InvalidInputError):
            filter_low_information(t, max_missing=4, max_constant=3)

    def test_kept_plus_dropped_is_partition(self, rng):
        cols = {f"f{i}": rng.normal(size=8) for i in range(6)}
        cols["f1"][:] = 7.0
        t = self.table(cols)
        filtered, report = filter_low_information(t, max_missing=0, max_constant=4)
        assert sorted(report.kept + report.dropped_names()) == sorted(t.feature_names)
        assert set(report.kept).isdisjoint(report.dropped_names())


def oracle_correlation_filter(matrix, target, cutoff, names):
    """Quadratic re-derivation with np.corrcoef, same greedy rule."""
    d = matrix.shape[1]

    def corr(a, b):
        if np.std(a) == 0 or np.std(b) == 0:
            return 0.0
        return float(np.clip(np.corrcoef(a, b)[0, 1], -1, 1))

    power = [abs(corr(matrix[:, j], target)) for j in range(d)]
    pairs = []
    for i, j in itertools.combinations(range(d), 2):
        r = corr(matrix[:, i], matrix[:, j])
        if abs(r) > cutoff:
            a, b = sorted((i, j), key=lambda idx: names[idx])
            pairs.append((-abs(r), names[a], names[b], a, b))
    alive = [True] * d
    for _, _, _, a, b in sorted(pairs):
        if not (alive[a] and alive[b]):
            continue
        if power[a] > power[b]:
            drop = b
        elif power[b] > power[a]:
            drop = a
        else:
            drop = max(a, b, key=lambda idx: names[idx])
        alive[drop] = False
    return [names[i] for i in range(d) if alive[i]]


class TestCorrelationFilter:
    def test_duplicated_column_pair(self, rng):
        base = rng.normal(size=40)
        matrix = np.column_stack([base, base, rng.normal(size=40)])
        target = base + rng.normal(scale=0.1, size=40)
        report = correlation_filter(matrix, target, 0.65, ["a", "b", "c"])
        assert len(report.kept) == 2 and "c" in report.kept
        assert len(report.dropped) == 1
        assert report.dropped[0][1].startswith("correlated-with:")

    def test_exact_cutoff_keeps_both(self, rng):
        a = rng.normal(size=30)
        b = 0.7 * a + rng.normal(size=30)
        matrix = np.column_stack([a, b])
        r = abs(np.corrcoef(a, b)[0, 1])
        at_cutoff = correlation_filter(matrix, a, r, ["a", "b"])
        assert at_cutoff.kept == ["a", "b"]
        below = correlation_filter(matrix, a, r * 0.999, ["a", "b"])
        assert len(below.kept) == 1

    def test_matches_exhaustive_oracle(self, rng):
        names = [f"f{i}" for i in range(6)]
        for trial in range(15):
            latent = rng.normal(size=(50, 2))
            mix = rng.normal(size=(2, 6))
            matrix = latent @ mix + 0.3 * rng.normal(size=(50, 6))
            target = latent[:, 0] + 0.2 * rng.normal(size=50)
            report = correlation_filter(matrix, target, 0.65, names)
            assert report.kept == oracle_correlation_filter(matrix, target, 0.65, names)

    def test_no_surviving_pair_above_cutoff(self, rng):
        for _ in range(10):
            latent = rng.normal(size=(40, 2))
            matrix = latent @ rng.normal(size=(2, 7)) + 0.2 * rng.normal(size=(40, 7))
            target = rng.normal(size=40)
            names = [f"f{i}" for i in range(7)]
            report = correlation_filter(matrix, target, 0.6, names)
            idx = [names.index(n) for n in report.kept]
            for i, j in itertools.combinations(idx, 2):
                assert abs(np.corrcoef(matrix[:, i], matrix[:, j])[0, 1]) <= 0.6 + 1e-12

    def test_zero_variance_column_kept(self, rng):
        matrix = np.column_stack([np.full(20, 3.0), rng.normal(size=20)])
        report = correlation_filter(matrix, rng.normal(size=20), 0.5, ["const", "live"])
        assert report.kept == ["const", "live"]

    def test_cutoff_bounds(self, rng):
        matrix = rng.normal(size=(10, 2))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidInputError):
                correlation_filter(matrix, matrix[:, 0], bad, ["a", "b"])


class TestLassoFit:
    def test_unregularized_matches_least_squares(self, rng):
        x = standardized(rng, 40, 3)
        y = x @ np.array([1.5, -2.0, 0.5]) + 4.0 + 0.05 * rng.normal(size=40)
        fit = lasso_fit(x, y, 0.0)
        coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(40), x]), y, rcond=None)
        assert np.max(np.abs(fit.coefficients - coef[1:])) < 1e-6
        assert abs(fit.intercept - coef[0]) < 1e-6

    def test_lambda_max_zeroes_everything(self, rng):
        x = standardized(rng, 50, 4)
        y = x @ np.array([1.0, 0.3, -0.7, 0.0]) + 2.0
        lam_max = np.max(np.abs(x.T @ (y - y.mean()))) / len(y)
        fit = lasso_fit(x, y, lam_max + 1e-12)
        assert np.all(fit.coefficients == 0.0)
        assert fit.selected == []
        assert fit.intercept == pytest.approx(y.mean())

    def test_orthonormal_design_soft_threshold(self, rng):
        n, d = 64, 5
        raw = rng.normal(size=(n, d))
        centered = raw - raw.mean(axis=0)
        q, _ = np.linalg.qr(centered)
        x = q * math.sqrt(n)  # columns: zero mean, (1/n) X'X = I
        y = x @ np.array([1.2, -0.8, 0.3, 0.0, 0.05]) + 1.0 + 0.1 * rng.normal(size=n)
        lam = 0.2
        fit = lasso_fit(x, y, lam)
        rho = x.T @ (y - y.mean()) / n
        expected = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0)
        assert np.max(np.abs(fit.coefficients - expected)) < 1e-8

    def test_kkt_residual_across_grid(self, rng):
        x = standardized(rng, 80, 6)
        y = x @ rng.normal(size=6) + 0.5 * rng.normal(size=80)
        for lam in np.linspace(0.0, 0.8, 10):
            fit = lasso_fit(x, y, float(lam))
            assert lasso_kkt_residual(x, y, fit) <= 1e-6

    def test_l1_norm_monotone_in_lambda(self, rng):
        x = standardized(rng, 60, 5)
        y = x @ rng.normal(size=5) + 0.2 * rng.normal(size=60)
        norms = [np.abs(lasso_fit(x, y, lam).coefficients).sum() for lam in (0.0, 0.05, 0.1, 0.3, 0.6, 1.0)]
        assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))

    def test_non_standardized_rejected(self, rng):
        x = rng.normal(size=(30, 3)) + 5.0
        with pytest.raises(InvalidInputError, match="standardized"):
            lasso_fit(x, x[:, 0], 0.1)

    def test_negative_lambda_rejected(self, rng):
        x = standardized(rng, 10, 2)
        with pytest.raises(InvalidInputError):
            lasso_fit(x, x[:, 0], -0.1)

    def test_selected_names(self, rng):
        x = standardized(rng, 50, 3)
        y = 3.0 * x[:, 0] + 0.01 * rng.normal(size=50)
        fit = lasso_fit(x, y, 0.5, feature_names=["big", "n1", "n2"])
        assert fit.selected == ["big"]


class TestLambdaGridSearch:
    def test_single_entry_grid(self, rng):
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        result = lambda_grid_search(x, y, [0.01], seed=1)
        assert result.best_lambda == 0.01
        assert len(result.validation_mse) == 1

    def test_exact_linear_prefers_zero(self, rng):
        x = rng.normal(size=(60, 4))
        y = x @ np.array([1.0, -2.0, 0.5, 3.0])
        result = lambda_grid_search(x, y, [0.0, 1.0], seed=0)
        assert result.best_lambda == 0.0

    def test_mse_ties_take_smaller_lambda(self, rng):
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        # both lambdas exceed lambda_max, so both give the all-zero model
        lam_hi = 1e3
        result = lambda_grid_search(x, y, [2 * lam_hi, lam_hi], seed=2)
        assert result.best_lambda == lam_hi

    def test_empty_grid_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            lambda_grid_search(rng.normal(size=(10, 2)), rng.normal(size=10), [])


class TestVarianceReport:
    def test_constant_column_last(self, rng):
        matrix = np.column_stack([rng.normal(size=10) * 3, np.full(10, 2.0)])
        report = variance_report(matrix, ["live", "flat"])
        assert report[-1] == ("flat", 0.0)

    def test_population_convention(self):
        report = variance_report(np.array([[0.0], [2.0]]), ["f"])
        assert report[0][1] == pytest.approx(1.0)

    def test_matches_direct_summation(self, rng):
        matrix = rng.normal(size=(25, 3)) * np.array([1.0, 4.0, 0.2])
        report = dict(variance_report(matrix, ["a", "b", "c"]))
        for j, name in enumerate(("a", "b", "c")):
            col = matrix[:, j]
            mean = sum(col) / len(col)
            var = sum((v - mean) ** 2 for v in col) / len(col)
            assert report[name] == pytest.approx(var, rel=1e-12)

    def test_sorted_desc_then_name(self):
        matrix = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 1.0]])
        report = variance_report(matrix, ["b", "a", "c"])
        assert [name for name, _ in report] == ["a", "b", "c"]


def test_whitelist_loader(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_text("# comment\nALogP\n\nnAtom  # trailing\n  XLogP\n", encoding="utf-8")
    assert load_feature_whitelist(path) == ["ALogP", "nAtom", "XLogP"]


def test_whitelist_loader_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_text("ALogP\nnAtom\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_feature_whitelist(path) == ["ALogP", "nAtom"]


def test_whitelist_loader_refuses_a_repeated_name(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_text("ALogP\n# comment\nnAtom\n  ALogP  # again\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"^line 4: duplicate feature name 'ALogP' \(first on line 1\)$"):
        load_feature_whitelist(path)
