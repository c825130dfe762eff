"""Batch calls repeat the row computation: every batch output equals the
one-row call on that row bit for bit, whatever rows come with it. Tuning
scores whole matrices and predict routes one row at a time, so without
this the decisions tuning scores are not the ones predict makes."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardiotox.learners import (
    KernelSpec,
    SvmModel,
    forest_fit,
    forest_predict,
    forest_predict_many,
    forest_predict_proba,
    forest_prefix_votes,
    forest_regress_fit,
    forest_regress_predict,
    forest_vote_counts,
    svm_decision,
    svm_decision_many,
)
from cardiotox.learners.forest import _leaf_outputs
from cardiotox.learners.svm import KERNEL_KINDS
from cardiotox.pipeline import PreprocessChain

from conftest import labeled


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def probe_rows(rng, n_rows, width):
    """Rows on several scales, so products and sums round differently."""
    return rng.normal(size=(n_rows, width)) * rng.choice([1e-3, 1.0, 1e3], size=width)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 3), st.integers(1, 40))
def test_forest_votes_and_predictions(seed, width, n_classes, n_rows):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, width))
    y = np.arange(30) % n_classes
    forest = forest_fit(labeled(x + y[:, None], y), int(rng.integers(1, 6)), seed=seed)
    probe = np.vstack([x[:5], probe_rows(rng, n_rows, width)])
    votes = forest_prefix_votes(forest, probe)[-1]
    predicted = forest_predict_many(forest, probe)
    for r, row in enumerate(probe):
        assert same_bits(forest_vote_counts(forest, row), votes[r])
        assert same_bits(forest_predict_proba(forest, row), votes[r] / forest.n_estimators)
        assert forest_predict(forest, row) == predicted[r]
    regressor = forest_regress_fit(x, x.sum(axis=1) + rng.normal(size=30), int(rng.integers(1, 6)), seed=seed)
    leaf_means = _leaf_outputs(regressor, probe)
    for r, row in enumerate(probe):
        assert same_bits(_leaf_outputs(regressor, probe[r:r + 1])[:, 0], leaf_means[:, r])
        column = leaf_means[:, r]
        assert forest_regress_predict(regressor, row) == (column[0] if np.all(column == column[0]) else column.mean())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KERNEL_KINDS), st.integers(1, 3), st.integers(0, 60),
       st.integers(1, 50), st.integers(1, 80))
@example(seed=1, kind="linear", degree=3, n_sv=40, width=31, n_rows=64)
@example(seed=2, kind="rbf", degree=3, n_sv=0, width=4, n_rows=3)
def test_svm_decisions(seed, kind, degree, n_sv, width, n_rows):
    rng = np.random.default_rng(seed)
    spec = KernelSpec(kind, degree=degree).resolve(width)
    model = SvmModel(spec, 1.0, probe_rows(rng, n_sv, width) / width, rng.normal(size=n_sv), float(rng.normal()))
    probe = probe_rows(rng, n_rows, width) / width
    batch = svm_decision_many(model, probe)
    assert all(same_bits(svm_decision(model, row), batch[r]) for r, row in enumerate(probe))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 41), st.sampled_from([None, 0.9, 1.0]), st.integers(2, 120))
@example(seed=3, width=40, energy=0.9, n_rows=100)
@example(seed=4, width=41, energy=1.0, n_rows=100)
def test_preprocess_chain_rows(seed, width, energy, n_rows):
    rng = np.random.default_rng(seed)
    matrix = probe_rows(rng, n_rows, width) @ rng.normal(size=(width, width))
    chain, fitted = PreprocessChain.fit(matrix, [f"d{j}" for j in range(width)], energy)
    applied = chain.apply_matrix(matrix)
    assert same_bits(fitted, applied)
    assert all(same_bits(chain.apply_row(row), applied[r]) for r, row in enumerate(matrix))
