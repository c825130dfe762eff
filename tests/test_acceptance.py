"""Acceptance gate: every binding criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or read captured
output). Criterion 12, the full-scale reproduction, needs the published
curated datasets plus externally computed descriptors and is skipped here;
the property suites below are the binding gate.
"""

import io
import math
import time

import numpy as np
import pytest

from conftest import identity_chain, labeled, make_blobs

_TOL_PP = 0.05  # percentage points


def report(number, ok, detail, budget=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s / {budget:.0f}s]" if budget is not None else ""
    print(f"ACCEPTANCE {number:02d} {status}: {detail}{timing}")
    assert ok, detail
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_metrics_match_published_tables():
    from cardiotox.metrics import ConfusionCounts, binary_metrics

    m5 = binary_metrics(ConfusionCounts(tp=242, fn=52, tn=82, fp=15))
    table5 = {"ac": 82.9, "sn": 82.3, "sp": 84.5, "f1": 87.8, "mcc": 60.8}
    nav = binary_metrics(ConfusionCounts(tp=100, fn=14, tn=50, fp=9))
    table9 = {"ac": 86.7, "ccr": 86.2, "mcc": 71.2, "sn": 87.7, "sp": 84.7, "f1": 89.7}
    deltas = []
    for metrics, expected in ((m5, table5), (nav, table9)):
        for name, printed in expected.items():
            deltas.append(abs(getattr(metrics, name) * 100 - printed))
    worst = max(deltas)
    report(1, worst <= _TOL_PP, f"11 published metric values reproduced within {worst:.4f}pp (limit {_TOL_PP}pp)")


def test_criterion_02_ccr_identity_round_half_even():
    from cardiotox.metrics import format_percent

    ccr = (0.987 + 0.75) / 2
    ok = ccr * 100 == pytest.approx(86.85, abs=1e-9) and format_percent(ccr) == "86.8"
    report(2, ok, f"CCR(98.7, 75) = {ccr * 100:.4f}, prints {format_percent(ccr)!r} under round-half-even")


def test_criterion_03_pca_suite():
    from cardiotox.preprocess import fit_pca, sym_eig, project

    start = time.perf_counter()
    rng = np.random.default_rng(42)
    latent = rng.normal(size=(500, 10))
    x = latent @ rng.normal(size=(10, 50)) + 0.1 * rng.normal(size=(500, 50))

    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / len(x)
    values, vectors = sym_eig(cov)
    eig_ok = np.linalg.norm(cov @ vectors - vectors * values) < 1e-8 * np.linalg.norm(cov)

    model = fit_pca(x, 1.0)
    y = project(model, x)
    recon_ok = np.max(np.abs(y @ model.components.T + model.mean - x)) < 1e-8

    yc = y - y.mean(axis=0)
    proj_cov = yc.T @ yc / len(y)
    off = proj_cov - np.diag(np.diag(proj_cov))
    decorr_ok = np.max(np.abs(off)) < 1e-8 * model.eigenvalues[0]

    trace_ok = abs(values.sum() - x.var(axis=0).sum()) < 1e-8 * abs(values.sum())

    cubic_ok = True
    for _ in range(10):
        s = rng.normal(size=(3, 3))
        s = (s + s.T) / 2
        got, _ = sym_eig(s)
        tr = np.trace(s)
        minors = (
            s[1, 1] * s[2, 2] - s[1, 2] ** 2
            + s[0, 0] * s[2, 2] - s[0, 2] ** 2
            + s[0, 0] * s[1, 1] - s[0, 1] ** 2
        )
        roots = np.sort(np.roots([1.0, -tr, minors, -np.linalg.det(s)]).real)[::-1]
        cubic_ok = cubic_ok and np.max(np.abs(got - roots)) < 1e-8
    elapsed = time.perf_counter() - start
    ok = eig_ok and recon_ok and decorr_ok and trace_ok and cubic_ok
    report(3, ok, "eigen residual, reconstruction, decorrelation, trace, cubic oracle all within 1e-8", 5.0, elapsed)


def test_criterion_04_lasso_suite():
    from cardiotox.features import lasso_fit, lasso_kkt_residual
    from cardiotox.preprocess import fit_scaler, transform_scaler

    start = time.perf_counter()
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(80, 6)) * rng.uniform(0.5, 2.0, 6)
    x = transform_scaler(fit_scaler(raw), raw)
    y = x @ np.array([1.5, -2.0, 0.0, 0.8, 0.0, 0.3]) + 2.0 + 0.05 * rng.normal(size=80)

    fit0 = lasso_fit(x, y, 0.0)
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(80), x]), y, rcond=None)
    ls_ok = np.max(np.abs(fit0.coefficients - coef[1:])) < 1e-6 and abs(fit0.intercept - coef[0]) < 1e-6

    lam_max = np.max(np.abs(x.T @ (y - y.mean()))) / len(y)
    zero_ok = np.all(lasso_fit(x, y, lam_max + 1e-12).coefficients == 0.0)

    n = 64
    centered = rng.normal(size=(n, 5))
    centered -= centered.mean(axis=0)
    q, _ = np.linalg.qr(centered)
    xo = q * math.sqrt(n)
    yo = xo @ np.array([1.2, -0.8, 0.3, 0.0, 0.05]) + 1.0 + 0.1 * rng.normal(size=n)
    lam = 0.2
    rho = xo.T @ (yo - yo.mean()) / n
    closed = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0)
    ortho_ok = np.max(np.abs(lasso_fit(xo, yo, lam).coefficients - closed)) < 1e-8

    kkt_ok = all(
        lasso_kkt_residual(x, y, lasso_fit(x, y, float(lam))) <= 1e-6
        for lam in np.linspace(0.0, 1.0, 10)
    )
    elapsed = time.perf_counter() - start
    ok = ls_ok and zero_ok and ortho_ok and kkt_ok
    report(4, ok, "lstsq limit (1e-6), lambda_max zeroing, soft-threshold closed form (1e-8), KKT <= 1e-6 on 10-point grid", 5.0, elapsed)


def test_criterion_05_resampling_suite():
    from cardiotox.resample import ResamplePlan, Strategy, balance, nearmiss, smote

    start = time.perf_counter()
    rng = np.random.default_rng(11)
    minority = rng.normal(size=(40, 3))
    synthetic = smote(minority, 150, k=4, seed=3)
    dist = np.linalg.norm(minority[:, None, :] - minority[None, :, :], axis=2)
    segment_ok = True
    for t, point in enumerate(synthetic):
        i = t % 40
        order = np.argsort(dist[i], kind="stable")
        neighbors = [j for j in order if j != i][:4]
        hit = False
        for j in neighbors:
            seg = minority[j] - minority[i]
            rel = point - minority[i]
            tpos = float(rel @ seg) / float(seg @ seg)
            residual = np.linalg.norm(rel - tpos * seg)
            if residual <= 1e-9 * (1 + np.linalg.norm(seg)) and -1e-9 <= tpos <= 1 + 1e-9:
                hit = True
                break
        segment_ok = segment_ok and hit

    balance_ok = True
    for strategy in (Strategy.OVER_SAMPLE, Strategy.UNDER_SAMPLE):
        x = rng.normal(size=(30, 2))
        y = np.array([0] * 9 + [1] * 21)
        out = balance(labeled(x, y, ("blocker", "non-blocker")), ResamplePlan(strategy, seed=1))
        counts = out.class_counts()
        balance_ok = balance_ok and counts[0] == counts[1]

    oracle_ok = True
    for _ in range(10):
        majority = rng.normal(size=(20, 3))
        min_pts = rng.normal(size=(6, 3))
        target = int(rng.integers(1, 20))
        k = int(rng.integers(1, 7))
        got = list(nearmiss(majority, min_pts, target, k))
        scored = sorted(
            (np.sort(np.linalg.norm(majority[i] - min_pts, axis=1))[:k].mean(), i)
            for i in range(20)
        )
        oracle_ok = oracle_ok and got == sorted(i for _, i in scored[:target])
    elapsed = time.perf_counter() - start
    ok = segment_ok and balance_ok and oracle_ok
    report(5, ok, "all synthetic points on minority segments (1e-9), balanced counts exact, NearMiss-1 matches brute force", 1.0, elapsed)


def test_criterion_06_svm_suite():
    from cardiotox.learners import KernelSpec, svm_decision, svm_decision_many, svm_fit, svm_predict

    start = time.perf_counter()
    tol = 1e-3
    sym = svm_fit(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), KernelSpec("linear"), 100.0, tol=tol)
    sym_ok = abs(svm_decision(sym, np.array([0.0]))) <= tol and abs(svm_decision(sym, np.array([1.0])) - 1) <= tol

    xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    xor_y = np.array([-1.0, 1.0, 1.0, -1.0])
    xor_model = svm_fit(xor_x, xor_y, KernelSpec("rbf", gamma=1.0), 10.0)
    xor_ok = [svm_predict(xor_model, r) for r in xor_x] == list(xor_y.astype(int))

    rng = np.random.default_rng(5)
    half = 100
    x = np.vstack([rng.normal(size=(half, 2)) + 2.5, rng.normal(size=(half, 2)) - 2.5])
    y = np.array([1.0] * half + [-1.0] * half)
    model = svm_fit(x, y, KernelSpec("rbf", gamma=0.5), C=2.0, tol=tol)
    alphas = model.alphas
    dual_ok = (
        abs(float(alphas @ y)) <= 1e-6
        and np.all(alphas >= -1e-12)
        and np.all(alphas <= 2.0 + 1e-12)
    )
    margins = y * svm_decision_many(model, x)
    kkt_ok = model.converged
    for a, m in zip(alphas, margins):
        if a < 1e-8:
            kkt_ok = kkt_ok and m >= 1 - tol - 1e-9
        elif a > 2.0 - 1e-8:
            kkt_ok = kkt_ok and m <= 1 + tol + 1e-9
        else:
            kkt_ok = kkt_ok and abs(m - 1) <= tol + 1e-9
    elapsed = time.perf_counter() - start
    ok = sym_ok and xor_ok and dual_ok and kkt_ok
    report(6, ok, "symmetric boundary at 0, XOR 100%, dual constraints (1e-6), KKT at tol=1e-3 on 200 points", 10.0, elapsed)


def test_criterion_07_mlp_suite(rng):
    from cardiotox.learners import TrainConfig, mlp_init, mlp_train
    from cardiotox.learners.mlp import _forward
    from test_mlp import finite_difference_check

    start = time.perf_counter()
    model = mlp_init([4, 5, 3], "relu", seed=1)
    gen = np.random.default_rng(3)
    grad_err = finite_difference_check(model, gen.normal(size=(7, 4)), gen.integers(0, 3, 7), weight_decay=0.01)
    grad_ok = grad_err < 1e-4

    x, y = make_blobs(rng, [[0.0, 0.0], [4.0, 4.0]], 200, scale=0.5)
    order = rng.permutation(400)
    dataset = labeled(x[order], y[order])
    result = mlp_train(
        mlp_init([2, 40, 2], "relu", seed=0),
        dataset.subset(np.arange(320)),
        dataset.subset(np.arange(320, 400)),
        TrainConfig(epochs=200, batch_size=64, seed=0),
    )
    acc_ok = max(result.val_accuracy) >= 0.98

    kaiming = np.concatenate([mlp_init([40, 2], "relu", seed=s).weights[0].ravel() for s in range(10)])
    target = math.sqrt(2.0 / 40.0)
    xavier = np.concatenate([mlp_init([40, 2], "sigmoid", seed=s).weights[0].ravel() for s in range(10)])
    limit = math.sqrt(6.0 / 42.0)
    init_ok = (
        abs(np.std(kaiming) - target) <= 0.15 * target
        and abs(np.std(xavier) - limit / math.sqrt(3)) <= 0.15 * limit / math.sqrt(3)
    )

    bn_model = mlp_init([4, 32, 2], "relu", seed=1, batchnorm=True)
    _, cache = _forward(bn_model, gen.normal(loc=2.0, size=(256, 4)), train=True, rng=None)
    z_norm = cache["z_norm"][0]
    bn_ok = np.max(np.abs(z_norm.mean(axis=0))) < 1e-6 and np.max(np.abs(z_norm.var(axis=0) - 1)) < 1e-4
    elapsed = time.perf_counter() - start
    ok = grad_ok and acc_ok and init_ok and bn_ok
    report(
        7,
        ok,
        f"gradient check {grad_err:.2e} < 1e-4, val acc {max(result.val_accuracy):.3f} >= 0.98, init stats within 15%, BN mean < 1e-6",
        30.0,
        elapsed,
    )


def test_criterion_08_forest_suite(rng):
    import io as _io

    from cardiotox.learners import forest_fit, forest_predict_many, tree_fit
    from cardiotox.persistence import save_bundle
    from test_forest import oracle_tree, trees_equal

    start = time.perf_counter()
    oracle_ok = True
    for _ in range(10):
        x = rng.integers(0, 6, size=(8, 2)).astype(float)
        y = rng.integers(0, 2, size=8).astype(int)
        grown = tree_fit(x, y, max_depth=3, min_leaf=2, features_per_split=2, rng=rng, n_classes=2)
        oracle_ok = oracle_ok and trees_equal(grown, oracle_tree(x, y, 2, max_depth=3))

    x, y = make_blobs(rng, [[0, 0], [6, 0], [0, 6], [6, 6]], 100, scale=0.5)
    order = rng.permutation(400)
    train, test = order[:320], order[320:]
    forest = forest_fit(labeled(x[train], y[train]), 30, seed=3)
    acc = float(np.mean(forest_predict_many(forest, x[test]) == y[test]))
    acc_ok = acc >= 0.95

    blobs = []
    dataset = labeled(x[train], y[train])
    for threads in (1, 4):
        buf = _io.StringIO()
        save_bundle(forest_fit(dataset, 10, max_depth=6, seed=9, threads=threads), buf, seed=9)
        blobs.append(buf.getvalue())
    thread_ok = blobs[0] == blobs[1]
    elapsed = time.perf_counter() - start
    ok = oracle_ok and acc_ok and thread_ok
    report(8, ok, f"exhaustive-split oracle match, blob accuracy {acc:.3f} >= 0.95, thread-count invariance", 10.0, elapsed)


def test_criterion_09_pipeline_routing(rng):
    from cardiotox.dataset import assign_class
    from cardiotox.pipeline import Outcome, Stage, ToxTreePipeline, pipeline_predict
    from test_pipeline import StubStage, ThresholdStage

    start = time.perf_counter()
    stages = [Stage(t, [f"t{t}"], [ThresholdStage(t)]) for t in (6.0, 5.0, 4.5)]
    pipeline = ToxTreePipeline(identity_chain(), stages)
    outcome_for = {
        "strong": Outcome.STRONG_BLOCKER,
        "moderate": Outcome.MODERATE_BLOCKER,
        "weak": Outcome.WEAK_BLOCKER,
        "non": Outcome.NON_BLOCKER,
    }
    values = rng.uniform(2.0, 9.0, size=1000)
    routing_ok = all(
        pipeline_predict(pipeline, np.array([v])).outcome is outcome_for[assign_class(v).name.lower()]
        for v in values
    )

    agree = Stage(4.5, ["a", "b"], [StubStage(True, 0.9), StubStage(True, 0.7)]).predict(np.zeros(1))
    differ = Stage(4.5, ["a", "b"], [StubStage(True, 0.8), StubStage(False, 0.6)]).predict(np.zeros(1))
    tied = Stage(4.5, ["a", "b"], [StubStage(True, 0.7), StubStage(False, 0.7)]).predict(np.zeros(1))
    consensus_ok = (
        agree is not None and agree.blocker and agree.probability == 0.9
        and differ is not None and differ.blocker
        and tied is None
    )
    elapsed = time.perf_counter() - start
    ok = routing_ok and consensus_ok
    report(9, ok, "1000/1000 threshold-stub routings match assign_class; consensus agreement/confidence/tie cases exact", 1.0, elapsed)


def test_criterion_10_stratification(rng):
    from cardiotox.dataset import stratified_kfold

    start = time.perf_counter()
    ok = True
    for trial in range(100):
        n_classes = int(rng.integers(2, 6))
        sizes = rng.integers(1, 60, size=n_classes)
        labels = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
        rng.shuffle(labels)
        dataset = labeled(np.empty((len(labels), 0)), labels, tuple(map(str, range(n_classes))))
        plan = stratified_kfold(dataset, 10, seed=trial)
        stacked = np.concatenate(plan.folds)
        ok = ok and np.array_equal(np.sort(stacked), np.arange(len(labels)))
        for c in range(n_classes):
            per_fold = [int(np.sum(labels[f] == c)) for f in plan.folds]
            ok = ok and max(per_fold) - min(per_fold) <= 1
    elapsed = time.perf_counter() - start
    report(10, ok, "100 random class mixes: 10 folds partition rows with per-class spread <= 1", 1.0, elapsed)


def test_criterion_11_persistence(rng):
    from test_persistence import build_models, predictor_for, roundtrip

    start = time.perf_counter()
    models = build_models(rng)
    ok = True
    for kind, model in models.items():
        _, restored = roundtrip(model)
        before = predictor_for(kind, model)
        after = predictor_for(kind, restored)
        for row in rng.normal(size=(100, 3)) * 3:
            ok = ok and np.array_equal(np.asarray(before(row)), np.asarray(after(row)))
    elapsed = time.perf_counter() - start
    report(11, ok, f"{len(models)} model kinds round-trip with bit-identical predictions on 100 inputs each", 5.0, elapsed)


def test_criterion_12_full_scale_reproduction():
    print(
        "ACCEPTANCE 12 SKIP: full-scale reproduction needs the published curated "
        "datasets and externally generated descriptors; not required for acceptance"
    )
    pytest.skip("requires external datasets and descriptor files")
