import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardiotox.errors import InvalidInputError
from cardiotox.learners import (
    KernelSpec,
    SvmModel,
    kernel_eval,
    svm_decision,
    svm_decision_many,
    svm_fit,
    svm_predict,
)
from cardiotox.learners.svm import KERNEL_KINDS, _kernel_matrix
from cardiotox.pipeline import SVM_C_VALUES


def separable_problem(rng, n=200, gap=2.0):
    half = n // 2
    x = np.vstack(
        [
            rng.normal(size=(half, 2)) + [gap, gap],
            rng.normal(size=(n - half, 2)) - [gap, gap],
        ]
    )
    y = np.array([1.0] * half + [-1.0] * (n - half))
    return x, y


def kkt_violations(model, x, y, tol):
    """Points whose margin y f(x) breaks the KKT condition for their alpha by
    more than tol (plus 1e-9 slack), with f from the returned model."""
    margins = y * svm_decision_many(model, x)
    bad = []
    for t, (a, m) in enumerate(zip(model.alphas, margins)):
        if a < 1e-8:
            ok = m >= 1.0 - tol - 1e-9
        elif a > model.C - 1e-8:
            ok = m <= 1.0 + tol + 1e-9
        else:
            ok = abs(m - 1.0) <= tol + 1e-9
        if not ok:
            bad.append(t)
    return bad


def reference_svm_fit(x, y, kernel, C, tol=1e-3, max_passes=10_000):
    """The SMO loop in its plain form: v = -y * G recomputed, and the
    curvature vector built, at every update. Returns (alphas, bias, converged)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    spec = kernel.resolve(x.shape[1])
    q = _kernel_matrix(spec, x, x)
    q *= y[:, None]
    q *= y[None, :]
    q_diag = q.diagonal().copy()
    positive = y > 0
    alpha = np.zeros(x.shape[0])
    grad = -np.ones(x.shape[0])
    up = positive.copy()
    low = ~positive
    tau = 1e-12

    converged = False
    updates = 0
    while True:
        v = -y * grad
        v_up = np.where(up, v, -np.inf)
        i = int(np.argmax(v_up))
        m = v_up[i]
        v_low = np.where(low, v, np.inf)
        big_m = v_low.min()
        if m - big_m <= 2.0 * tol:
            converged = True
            break
        if updates == max_passes:
            break
        gain = np.maximum(m - v_low, 0.0)
        curvature = q_diag[i] + q_diag - (2.0 * y[i]) * (y * q[i])
        curvature = np.where(curvature > 0.0, curvature, tau)
        score = gain * gain / curvature
        j = int(np.argmax(score))
        old_i, old_j = alpha[i], alpha[j]
        room_i = C - old_i if positive[i] else old_i
        room_j = old_j if positive[j] else C - old_j
        step = min(gain[j] / curvature[j], room_i, room_j)
        alpha[i] = (C if positive[i] else 0.0) if step == room_i else old_i + y[i] * step
        alpha[j] = (0.0 if positive[j] else C) if step == room_j else old_j - y[j] * step
        grad += q[i] * (alpha[i] - old_i) + q[j] * (alpha[j] - old_j)
        for t in (i, j):
            up[t] = alpha[t] < C if positive[t] else alpha[t] > 0.0
            low[t] = alpha[t] > 0.0 if positive[t] else alpha[t] < C
        updates += 1
    return alpha, float((m + big_m) / 2.0), converged


@st.composite
def small_problems(draw):
    """4-40 rows of 1-4 columns on a 0.1 grid, drawn with repetition from a
    few distinct rows, so duplicates (with either label) are common."""
    d = draw(st.integers(1, 4))
    n_distinct = draw(st.integers(1, 12))
    cells = draw(st.lists(st.integers(-20, 20), min_size=n_distinct * d, max_size=n_distinct * d))
    distinct = np.array(cells, dtype=float).reshape(n_distinct, d) / 10.0
    picks = draw(st.lists(st.integers(0, n_distinct - 1), min_size=4, max_size=40))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(picks), max_size=len(picks))))
    if np.unique(y).size < 2:
        y[0] = -y[0]
    kind = draw(st.sampled_from(KERNEL_KINDS))
    return distinct[picks], y, kind, float(draw(st.sampled_from(SVM_C_VALUES)))


class TestKernelEval:
    def test_rbf_self_similarity(self, rng):
        spec = KernelSpec("rbf", gamma=0.7)
        for _ in range(5):
            x = rng.normal(size=4)
            assert kernel_eval(spec, x, x) == pytest.approx(1.0)

    def test_linear_dot_product(self):
        assert kernel_eval(KernelSpec("linear"), np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_poly_hand_case(self):
        spec = KernelSpec("poly", degree=2, gamma=1.0, coef0=1.0)
        assert kernel_eval(spec, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(4.0)

    def test_sigmoid_tanh(self):
        spec = KernelSpec("sigmoid", gamma=0.5, coef0=0.25)
        x = np.array([1.0, 1.0])
        assert kernel_eval(spec, x, x) == pytest.approx(np.tanh(0.5 * 2 + 0.25))

    def test_gamma_defaults_to_inverse_dim(self):
        x = np.array([1.0, 1.0, 1.0, 1.0])
        z = np.zeros(4)
        assert kernel_eval(KernelSpec("rbf"), x, z) == pytest.approx(np.exp(-1.0))

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("rbf", gamma=0.0)
        with pytest.raises(InvalidInputError):
            KernelSpec("rbf", gamma=-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            kernel_eval(KernelSpec("linear"), np.array([1.0]), np.array([1.0, 2.0]))


class TestSvmFit:
    def test_symmetric_1d_boundary_and_margin(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = svm_fit(x, y, KernelSpec("linear"), C=100.0)
        assert model.converged
        assert abs(svm_decision(model, np.array([0.0]))) <= 1e-3
        assert svm_decision(model, np.array([1.0])) == pytest.approx(1.0, abs=1e-3)
        assert svm_decision(model, np.array([-1.0])) == pytest.approx(-1.0, abs=1e-3)

    def test_xor_with_rbf(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        model = svm_fit(x, y, KernelSpec("rbf", gamma=1.0), C=10.0)
        preds = [svm_predict(model, row) for row in x]
        assert preds == list(y.astype(int))

    def test_dual_constraints(self, rng):
        x, y = separable_problem(rng)
        model = svm_fit(x, y, KernelSpec("rbf", gamma=0.5), C=5.0)
        assert model.alphas is not None
        assert np.all(model.alphas >= -1e-12)
        assert np.all(model.alphas <= 5.0 + 1e-12)
        assert abs(float(model.alphas @ y)) <= 1e-6

    def test_kkt_conditions_at_convergence(self, rng):
        tol = 1e-3
        x, y = separable_problem(rng)
        model = svm_fit(x, y, KernelSpec("rbf", gamma=0.5), C=2.0, tol=tol)
        assert model.converged
        f = svm_decision_many(model, x)
        margins = y * f
        for a, m in zip(model.alphas, margins):
            if a < 1e-8:
                assert m >= 1.0 - tol - 1e-9
            elif a > 2.0 - 1e-8:
                assert m <= 1.0 + tol + 1e-9
            else:
                assert abs(m - 1.0) <= tol + 1e-9

    def test_support_vectors_only_nonzero_alphas(self, rng):
        x, y = separable_problem(rng, n=80)
        model = svm_fit(x, y, KernelSpec("linear"), C=1.0)
        assert model.support_vectors.shape[0] == int(np.sum(model.alphas > 1e-8))
        assert model.support_vectors.shape[0] == model.dual_coefs.shape[0]

    def test_single_class_rejected(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(InvalidInputError):
            svm_fit(x, np.ones(10), KernelSpec("linear"), C=1.0)

    def test_labels_must_be_pm1(self, rng):
        x = rng.normal(size=(4, 2))
        with pytest.raises(InvalidInputError):
            svm_fit(x, np.array([0.0, 1.0, 0.0, 1.0]), KernelSpec("linear"), C=1.0)

    def test_nonpositive_c_rejected(self, rng):
        x = rng.normal(size=(4, 2))
        y = np.array([-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(InvalidInputError):
            svm_fit(x, y, KernelSpec("linear"), C=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_rejected(self, bad):
        x = np.array([[0.0], [1.0], [bad], [3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        with pytest.raises(InvalidInputError, match="finite"):
            svm_fit(x, y, KernelSpec("linear"), C=1.0)

    @pytest.mark.parametrize(
        "setting",
        [{"max_passes": -1}, {"tol": -1.0}, {"tol": 0.0}, {"tol": np.nan}, {"tol": np.inf}, {"C": np.nan}],
    )
    def test_bad_settings_rejected(self, setting):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        with pytest.raises(InvalidInputError, match=next(iter(setting))):
            svm_fit(x, y, KernelSpec("linear"), **{"C": 1.0, **setting})

    def test_zero_max_passes_returns_unconverged_at_once(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = svm_fit(x, y, KernelSpec("linear"), C=1.0, max_passes=0)
        assert not model.converged
        assert np.all(model.alphas == 0.0)

    def test_max_passes_flags_nonconvergence(self, rng):
        x, y = separable_problem(rng, n=100, gap=0.3)
        model = svm_fit(x, y, KernelSpec("rbf", gamma=2.0), C=10.0, max_passes=1)
        assert not model.converged

    def test_conflicting_duplicate_points_keep_dual_constraint(self):
        # identical rows with opposite labels create eta = 0 working pairs
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        model = svm_fit(x, y, KernelSpec("rbf", gamma=1.0), C=1.0)
        assert abs(float(model.alphas @ y)) <= 1e-6
        assert np.all(model.alphas >= -1e-12) and np.all(model.alphas <= 1.0 + 1e-12)

    def test_sigmoid_kernel_trains(self, rng):
        x, y = separable_problem(rng, n=60)
        model = svm_fit(x, y, KernelSpec("sigmoid", gamma=0.1, coef0=0.0), C=1.0)
        preds = np.sign(svm_decision_many(model, x))
        assert np.mean(preds == y) > 0.9

    def test_poly_kernel_trains(self, rng):
        x, y = separable_problem(rng, n=60)
        model = svm_fit(x, y, KernelSpec("poly", degree=2), C=1.0)
        preds = np.where(svm_decision_many(model, x) >= 0, 1.0, -1.0)
        assert np.mean(preds == y) > 0.9


class TestSvmFitProperties:
    @settings(max_examples=300, deadline=None)
    @given(small_problems())
    def test_converged_fits_meet_kkt_and_dual_constraints(self, problem):
        x, y, kind, c = problem
        tol = 1e-3
        model = svm_fit(x, y, KernelSpec(kind), c, tol=tol)
        assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= c)
        assert abs(float(model.alphas @ y)) <= 1e-6
        if kind == "rbf":
            assert model.converged
        if model.converged:
            assert kkt_violations(model, x, y, tol) == []
        again = svm_fit(x, y, KernelSpec(kind), c, tol=tol)
        assert np.array_equal(again.alphas, model.alphas)
        assert again.bias == model.bias and again.converged == model.converged

    # Identical rows with the linear kernel end with v = 0 at both ends of
    # the stopping gap, so the reference's bias is -0.0.
    @example(problem=(np.array([[-1.0], [-1.0], [0.0]]), np.array([1.0, 1.0, -1.0]), "linear", 1.0),
             max_passes=10_000)
    @settings(max_examples=300, deadline=None)
    @given(small_problems(), st.sampled_from([0, 1, 2, 3, 5, 8, 13, 10_000]))
    def test_matches_reference_bit_for_bit(self, problem, max_passes):
        x, y, kind, c = problem
        alphas, bias, converged = reference_svm_fit(x, y, KernelSpec(kind), c, max_passes=max_passes)
        model = svm_fit(x, y, KernelSpec(kind), c, max_passes=max_passes)
        assert model.alphas.tobytes() == alphas.tobytes()
        assert model.bias.hex() == bias.hex()
        assert model.converged == converged


class TestSvmDecision:
    def test_hand_built_three_vector_model(self):
        spec = KernelSpec("linear", gamma=1.0, coef0=0.0)
        sv = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        dual = np.array([0.5, -0.25, 0.75])
        model = SvmModel(spec, C=1.0, support_vectors=sv, dual_coefs=dual, bias=0.125)
        row = np.array([2.0, 3.0])
        expected = 0.5 * (2.0) - 0.25 * (3.0) + 0.75 * (-5.0) + 0.125
        assert svm_decision(model, row) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("spec", [KernelSpec("rbf"), KernelSpec("poly", gamma=0.5)], ids=["no-gamma", "no-coef0"])
    def test_unresolved_kernel_rejected(self, spec):
        # svm_fit stores a resolved kernel; one without gamma or coef0 cannot decide a row.
        with pytest.raises(InvalidInputError, match="must be resolved"):
            SvmModel(spec, 1.0, np.eye(2), np.array([1.0, -1.0]), 0.0)

    def test_zero_decision_predicts_positive(self):
        spec = KernelSpec("linear", gamma=1.0, coef0=0.0)
        model = SvmModel(spec, 1.0, np.empty((0, 2)), np.empty(0), bias=0.0)
        assert svm_predict(model, np.array([1.0, 1.0])) == 1

    def test_decision_many_matches_single(self, rng):
        x, y = separable_problem(rng, n=40)
        model = svm_fit(x, y, KernelSpec("rbf", gamma=0.3), C=1.0)
        probe = rng.normal(size=(10, 2))
        batch = svm_decision_many(model, probe)
        for row, expected in zip(probe, batch):
            assert svm_decision(model, row) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "shape",
        [pytest.param((3,), id="1d-row-of-wrong-width"), pytest.param((2,), id="1d-row-of-model-width"),
         pytest.param((0,), id="empty-1d"), pytest.param((4, 3), id="matrix-of-wrong-width"),
         pytest.param((1, 2, 1), id="3d")],
    )
    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_wrong_shape_rejected(self, rng, kind, shape):
        x, y = separable_problem(rng, n=20)
        model = svm_fit(x, y, KernelSpec(kind), C=1.0)
        assert model.n_features == 2
        with pytest.raises(InvalidInputError, match="model expects"):
            svm_decision_many(model, np.zeros(shape))
        if len(shape) != 1 or shape[0] != 2:
            with pytest.raises(InvalidInputError, match="model expects"):
                svm_decision(model, np.zeros(shape))

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_kept_norms_give_the_recomputed_kernel(self, rng, kind):
        x, y = separable_problem(rng, n=30)
        model = svm_fit(x, y, KernelSpec(kind), C=1.0)
        probe = rng.normal(size=(7, 2))
        # Each row's kernel from recomputed norms, as its own one-row products.
        fresh = np.array([(_kernel_matrix(model.kernel, row[None, :], model.support_vectors) @ model.dual_coefs)[0]
                          for row in probe]) + model.bias
        assert svm_decision_many(model, probe).tobytes() == fresh.tobytes()


def test_fit_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma (numpy 2.4); svm_fit checks for both classes without it.
    src = Path(svm_fit.__code__.co_filename).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys, numpy as np\n"
        "from cardiotox.learners import KernelSpec, svm_fit\n"
        "svm_fit(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1.0, 1.0, -1.0, -1.0]), KernelSpec('linear'), 1.0)\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
