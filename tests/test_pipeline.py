from dataclasses import replace

import numpy as np
import pytest

from cardiotox import pipeline as pipeline_module
from cardiotox.dataset import assign_class, stratified_kfold
from cardiotox.errors import InvalidInputError
from cardiotox.learners import KernelSpec, forest_fit, forest_predict_many, mlp_init, svm_decision_many, svm_fit
from cardiotox.metrics import binary_metrics, confusion_from_labels, cv_estimate
from cardiotox.pipeline import (
    PROB_TOLERANCE,
    ForestConfig,
    Outcome,
    PreprocessChain,
    Stage,
    StagePrediction,
    SvmConfig,
    ToxTreePipeline,
    fit_config,
    herg_rf_space,
    pipeline_predict,
    svm_space,
    tune_grid,
)
from cardiotox.preprocess import fit_pca, fit_scaler, transform_scaler
from cardiotox.resample import ResamplePlan, Strategy, balance

from conftest import identity_chain, labeled, make_blobs


class StubStage:
    """Fixed-verdict stage model that counts calls."""

    def __init__(self, blocker, probability=0.9):
        self.blocker = blocker
        self.probability = probability
        self.calls = 0

    def stage_predict(self, row):
        self.calls += 1
        return self.blocker, self.probability


class ThresholdStage:
    """Blocker iff the single feature (a PIC50) reaches the threshold."""

    def __init__(self, threshold):
        self.threshold = threshold

    def stage_predict(self, row):
        return bool(row[0] >= self.threshold), 1.0


def stub_pipeline(flags, probs=None):
    probs = probs or [0.9] * len(flags)
    thresholds = [6.0, 5.0, 4.5][: len(flags)]
    stubs = [StubStage(f, p) for f, p in zip(flags, probs)]
    stages = [Stage(t, [f"s{t}"], [stub]) for t, stub in zip(thresholds, stubs)]
    return ToxTreePipeline(identity_chain(), stages), stubs


class TestRouting:
    def test_first_stage_blocker_short_circuits(self):
        pipeline, stubs = stub_pipeline([True, False, False])
        outcome = pipeline_predict(pipeline, np.array([0.0]))
        assert outcome.outcome is Outcome.STRONG_BLOCKER
        assert outcome.stage_name == "s6.0"
        assert [s.calls for s in stubs] == [1, 0, 0]

    def test_all_non_blocker(self):
        pipeline, stubs = stub_pipeline([False, False, False])
        outcome = pipeline_predict(pipeline, np.array([0.0]))
        assert outcome.outcome is Outcome.NON_BLOCKER
        assert outcome.stage_name == "s4.5"
        assert [s.calls for s in stubs] == [1, 1, 1]

    def test_second_stage_blocker_is_moderate(self):
        pipeline, stubs = stub_pipeline([False, True, False])
        outcome = pipeline_predict(pipeline, np.array([0.0]))
        assert outcome.outcome is Outcome.MODERATE_BLOCKER
        assert [s.calls for s in stubs] == [1, 1, 0]

    def test_threshold_stubs_reproduce_assign_class(self, rng):
        stages = [Stage(t, [f"t{t}"], [ThresholdStage(t)]) for t in (6.0, 5.0, 4.5)]
        pipeline = ToxTreePipeline(identity_chain(), stages)
        label_for = {
            "strong": Outcome.STRONG_BLOCKER,
            "moderate": Outcome.MODERATE_BLOCKER,
            "weak": Outcome.WEAK_BLOCKER,
            "non": Outcome.NON_BLOCKER,
        }
        pic50s = rng.uniform(2.0, 9.0, size=1000)
        boundary = np.array([6.0, 5.0, 4.5, 4.499999, 5.999999, 6.000001])
        for value in np.concatenate([pic50s, boundary]):
            outcome = pipeline_predict(pipeline, np.array([value]))
            expected = label_for[assign_class(value).name.lower()]
            assert outcome.outcome is expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_array_row_rejects_non_finite_values(self, bad):
        stages = [Stage(6.0, ["s"], [StubStage(True)])]
        named = ToxTreePipeline(identity_chain("f1", "f2", "f3"), stages)
        with pytest.raises(InvalidInputError, match="missing feature 'f2'"):
            pipeline_predict(named, np.array([1.0, bad, bad]))

    def test_consensus_inconclusive_outcome(self):
        pair = Stage(4.5, ["a", "b"], [StubStage(True, 0.7), StubStage(False, 0.7)])
        pipeline = ToxTreePipeline(identity_chain(), [Stage(6.0, ["s6"], [StubStage(False)]), pair])
        outcome = pipeline_predict(pipeline, np.array([0.0]))
        assert outcome.outcome is Outcome.INCONCLUSIVE
        assert outcome.probability is None
        assert outcome.stage_name == "consensus(a,b)"


def consensus(a: StubStage, b: StubStage) -> Stage:
    return Stage(4.5, ["a", "b"], [a, b])


class TestConsensus:
    def test_agreement_takes_max_probability(self):
        decision = consensus(StubStage(True, 0.9), StubStage(True, 0.7)).predict(np.zeros(1))
        assert decision == StagePrediction(True, 0.9)

    def test_disagreement_higher_probability_wins(self):
        decision = consensus(StubStage(True, 0.8), StubStage(False, 0.6)).predict(np.zeros(1))
        assert decision.blocker is True and decision.probability == 0.8

    def test_tied_disagreement_is_inconclusive(self):
        assert consensus(StubStage(True, 0.7), StubStage(False, 0.7)).predict(np.zeros(1)) is None

    def test_identical_members_never_inconclusive(self, rng):
        for _ in range(20):
            blocker = bool(rng.integers(0, 2))
            prob = float(rng.uniform(0.5, 1.0))
            stub = StubStage(blocker, prob)
            decision = consensus(stub, stub).predict(np.zeros(1))
            assert decision is not None
            assert decision == StagePrediction(blocker, prob)

    def test_tolerance_window(self):
        inside = consensus(StubStage(True, 0.7 + PROB_TOLERANCE / 2), StubStage(False, 0.7))
        assert inside.predict(np.zeros(1)) is None
        outside = consensus(StubStage(True, 0.7 + 2 * PROB_TOLERANCE), StubStage(False, 0.7))
        assert outside.predict(np.zeros(1)) == StagePrediction(True, 0.7 + 2 * PROB_TOLERANCE)

    def test_feature_dim_mismatch_rejected(self, rng):
        x1, y1 = make_blobs(rng, [[0], [4]], 20)
        x2, y2 = make_blobs(rng, [[0, 0], [4, 4]], 20)
        m1 = forest_fit(labeled(x1, y1, ("blocker", "non-blocker")), 3, seed=0)
        m2 = forest_fit(labeled(x2, y2, ("blocker", "non-blocker")), 3, seed=0)
        with pytest.raises(InvalidInputError, match="feature"):
            Stage(4.5, ["a", "b"], [m1, m2])

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            pytest.param((True, 0.9), (True, 0.7), StagePrediction(True, 0.9), id="agree-blocker-a-surer"),
            pytest.param((False, 0.6), (False, 0.8), StagePrediction(False, 0.8), id="agree-non-blocker-b-surer"),
            pytest.param((True, 0.75), (True, 0.75), StagePrediction(True, 0.75), id="agree-equal"),
            pytest.param((True, 0.8), (False, 0.6), StagePrediction(True, 0.8), id="disagree-a-surer"),
            pytest.param((True, 0.55), (False, 0.95), StagePrediction(False, 0.95), id="disagree-b-surer"),
            pytest.param((True, 0.7), (False, 0.7), None, id="tie"),
            pytest.param((False, 0.6), (True, 0.6 + PROB_TOLERANCE / 4), None, id="tie-within-tolerance"),
        ],
    )
    def test_rule(self, a, b, expected):
        stub_a, stub_b = StubStage(*a), StubStage(*b)
        assert consensus(stub_a, stub_b).predict(np.zeros(1)) == expected
        assert stub_a.calls == stub_b.calls == 1

    def test_one_member_passes_its_prediction_through(self, rng):
        x, y = make_blobs(rng, [[0, 0], [2, 2]], 30, scale=1.0)
        forest = forest_fit(labeled(x, y, ("blocker", "non-blocker")), 5, seed=0)
        svm = svm_fit(x, np.where(y == 0, 1.0, -1.0), KernelSpec("rbf"), 1.0)
        for model in (forest, svm, StubStage(True, 0.625), StubStage(False, 0.5)):
            stage = Stage(6.0, ["only"], [model])
            assert stage.name == "only"
            for row in x[:10]:
                got, want = stage.predict(row), pipeline_module._stage_predict(model, row)
                assert got.blocker is want.blocker
                assert np.float64(got.probability).tobytes() == np.float64(want.probability).tobytes()

    @pytest.mark.parametrize(
        "names, n_models",
        [([], 0), (["a", "b", "c"], 3), (["a"], 2), (["a", "b"], 1)],
        ids=["no-model", "three-models", "fewer-names", "more-names"],
    )
    def test_member_and_name_counts_checked(self, names, n_models):
        with pytest.raises(InvalidInputError, match="one or two models, each named"):
            Stage(4.5, names, [StubStage(True) for _ in range(n_models)])


class TestValidation:
    def test_threshold_order_enforced(self):
        stages = [Stage(5.0, ["a"], [StubStage(False)]), Stage(6.0, ["b"], [StubStage(False)])]
        with pytest.raises(InvalidInputError, match="descending"):
            ToxTreePipeline(identity_chain(), stages)

    def test_duplicate_thresholds_rejected(self):
        stages = [Stage(5.0, ["a"], [StubStage(False)]), Stage(5.0, ["b"], [StubStage(False)])]
        with pytest.raises(InvalidInputError, match="descending"):
            ToxTreePipeline(identity_chain(), stages)

    def test_stage_model_outside_the_two_families_rejected(self):
        # Saved, such a stage would write a bundle that cannot be loaded or routed.
        with pytest.raises(InvalidInputError, match="unsupported stage model type MlpModel"):
            Stage(6.0, ["6mlp"], [mlp_init([1, 4, 2], "relu", seed=0)])

    def test_noncanonical_threshold_rejected(self):
        with pytest.raises(InvalidInputError):
            Stage(5.5, ["a"], [StubStage(False)])

    def test_empty_stages_rejected(self):
        with pytest.raises(InvalidInputError):
            ToxTreePipeline(identity_chain(), [])

    def test_stage_width_must_match_pca_output(self, rng):
        x = rng.normal(size=(60, 5))
        scaler = fit_scaler(x)
        scaled = transform_scaler(scaler, x)
        pca = fit_pca(scaled, 0.99)
        k = pca.n_components
        y = np.where(scaled[:, 0] > 0, 1.0, -1.0)
        good = svm_fit(scaled @ pca.components, y, KernelSpec("rbf"), 1.0)
        wrong = svm_fit(scaled[:, : k - 1], y, KernelSpec("rbf"), 1.0)
        chain = PreprocessChain([f"f{i}" for i in range(5)], scaler, pca)
        pipeline = ToxTreePipeline(chain, [Stage(6.0, ["6svm"], [good]), Stage(4.5, ["4o5svm"], [good])])
        assert isinstance(pipeline_predict(pipeline, x[0]).outcome, Outcome)
        with pytest.raises(InvalidInputError, match=f"expects {k - 1} features, preprocessing outputs {k}"):
            ToxTreePipeline(chain, [Stage(6.0, ["6svm"], [good]), Stage(4.5, ["4o5svm"], [wrong])])


class TestPreprocessChain:
    @pytest.mark.parametrize("energy", [None, 0.9])
    def test_fit_outputs_what_apply_matrix_gives(self, rng, energy):
        x = rng.normal(size=(50, 4)) * [1.0, 2.0, 3.0, 4.0]
        chain, rows = PreprocessChain.fit(x, ("a", "b", "c", "d"), energy)
        assert chain.whitelist == ["a", "b", "c", "d"]
        assert (chain.pca is None) == (energy is None)
        assert np.array_equal(rows, chain.apply_matrix(x))
        if energy is None:
            assert np.array_equal(rows, transform_scaler(fit_scaler(x), x))
        assert np.array_equal(chain.apply_row(x[0]), chain.apply_matrix(x[:1])[0])

    def test_each_part_reads_the_columns_the_one_before_writes(self, rng):
        x = rng.normal(size=(30, 3))
        scaler = fit_scaler(x)
        pca = fit_pca(transform_scaler(scaler, x), 1.0)
        PreprocessChain(["a", "b", "c"], scaler, pca)
        with pytest.raises(InvalidInputError, match="whitelist gives 4 columns, scaler expects 3"):
            PreprocessChain(["a", "b", "c", "d"], scaler, pca)
        with pytest.raises(InvalidInputError, match="scaler gives 2 columns, pca expects 3"):
            PreprocessChain(["a", "b"], fit_scaler(x[:, :2]), pca)

    @pytest.mark.parametrize("energy", [None, 0.9])
    def test_fit_without_feature_columns_rejected(self, energy):
        with pytest.raises(InvalidInputError, match="no feature columns"):
            PreprocessChain.fit(np.empty((10, 0)), (), energy)


class TestBuilders:
    def test_nav_routing_with_stubs(self, rng):
        # stubs behind a real scaler+pca chain still route in stage order
        x = rng.normal(size=(40, 3))
        scaler = fit_scaler(x)
        pca = fit_pca(transform_scaler(scaler, x), 1.0)
        stages = [
            Stage(6.0, ["6svm"], [StubStage(False)]),
            Stage(5.0, ["5svm-ovrs"], [StubStage(True, 0.8)]),
            Stage(4.5, ["4o5svm"], [StubStage(False)]),
        ]
        pipeline = ToxTreePipeline(PreprocessChain(["f0", "f1", "f2"], scaler, pca), stages)
        outcome = pipeline_predict(pipeline, x[0])
        assert outcome.outcome is Outcome.MODERATE_BLOCKER


class TestSpaces:
    def test_svm_space_cardinality(self):
        space = svm_space()
        assert len(space) == 120
        kernels = {c.kernel for c in space}
        assert kernels == {"linear", "poly", "sigmoid", "rbf"}
        assert {c.degree for c in space if c.kernel == "poly"} == set(range(2, 11))

    def test_rf_spaces(self):
        assert [c.n_estimators for c in herg_rf_space()] == list(range(10, 120, 10))


def reference_forest_tuning(space, dataset, k, seed, plan):
    """Per-config CV that resamples and fits a forest of each size on every fold."""
    results = []
    for config in space:
        fold_ac, fold_f1, depth = [], [], None
        for fold_idx, (train_idx, val_idx) in enumerate(stratified_kfold(dataset, k, seed).iter_train_val()):
            train_ds = dataset.subset(train_idx)
            if plan.strategy is not Strategy.ORIGINAL:
                train_ds = balance(train_ds, replace(plan, seed=plan.seed + 7919 * (fold_idx + 1)))
            model = forest_fit(train_ds, config.n_estimators, seed=seed)
            depth = max(depth or 0, model.observed_max_depth())
            preds = forest_predict_many(model, dataset.matrix[val_idx])
            fold_ac.append(float(np.mean(preds == dataset.labels[val_idx])))
            counts = confusion_from_labels(dataset.labels[val_idx] == 0, preds == 0, True)
            fold_f1.append(binary_metrics(counts).f1)
        results.append((config, cv_estimate(fold_ac), cv_estimate(fold_f1), fold_ac, fold_f1, depth))
    ranked = sorted(
        enumerate(results), key=lambda item: (-item[1][1], -item[1][2], item[1][0].size_key(), item[0])
    )
    return results, [r[0] for _, r in ranked]


class TestTuneGrid:
    def binary_blobs(self, rng, per_class=30):
        x, y = make_blobs(rng, [[0, 0], [4, 4]], per_class)
        return labeled(x, y, ("blocker", "non-blocker"))

    def test_single_config_space(self, rng):
        dataset = self.binary_blobs(rng)
        result = tune_grid([ForestConfig(5)], dataset, k=3, seed=1)
        assert result.best.config == ForestConfig(5)
        assert 0.0 <= result.best.ac_cv <= 1.0

    def test_tie_break_prefers_smaller_model(self, rng):
        dataset = self.binary_blobs(rng, per_class=20)
        result = tune_grid([ForestConfig(20), ForestConfig(10)], dataset, k=2, seed=0)
        if result.ranked[0].ac_cv == result.ranked[1].ac_cv and result.ranked[0].f1_cv == result.ranked[1].f1_cv:
            assert result.best.config.n_estimators == 10

    def test_deterministic_ranking(self, rng):
        dataset = self.binary_blobs(rng)
        space = [ForestConfig(5), ForestConfig(10)]
        a = tune_grid(space, dataset, k=3, seed=7)
        b = tune_grid(space, dataset, k=3, seed=7)
        assert [r.config for r in a.ranked] == [r.config for r in b.ranked]
        assert [r.ac_cv for r in a.ranked] == [r.ac_cv for r in b.ranked]

    def test_svm_configs_tune(self, rng):
        dataset = self.binary_blobs(rng, per_class=20)
        result = tune_grid([SvmConfig("linear", 1.0), SvmConfig("rbf", 1.0)], dataset, k=2, seed=0)
        assert result.best.ac_cv >= 0.9

    @pytest.mark.parametrize("plan", [None, ResamplePlan(Strategy.OVER_SAMPLE)], ids=["no-plan", "over-sample"])
    def test_three_class_dataset_rejected(self, rng, plan):
        x, y = make_blobs(rng, [[0, 0], [4, 0], [0, 4]], 10)
        dataset = labeled(x, y, ("a", "b", "c"))
        with pytest.raises(InvalidInputError, match="two-class"):
            tune_grid([ForestConfig(5)], dataset, k=2, seed=0, plan=plan)

    @pytest.mark.parametrize("strategy", [Strategy.ORIGINAL, Strategy.OVER_SAMPLE])
    def test_forest_prefixes_match_independent_fits(self, rng, monkeypatch, strategy):
        x, y = make_blobs(rng, [[0, 0], [1.5, 1.5]], 40, scale=1.0)
        keep = np.concatenate([np.flatnonzero(y == 0)[:15], np.flatnonzero(y == 1)])
        dataset = labeled(x[keep], y[keep], ("blocker", "non-blocker"))
        space = [ForestConfig(20), ForestConfig(10)]
        plan = ResamplePlan(strategy, seed=5)
        expected, expected_ranking = reference_forest_tuning(space, dataset, 3, 4, plan)

        calls = {"forest_fit": 0, "balance": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline_module, "forest_fit", counted("forest_fit", forest_fit))
        monkeypatch.setattr(pipeline_module, "balance", counted("balance", balance))
        result = tune_grid(space, dataset, k=3, seed=4, plan=plan)

        got = [(r.config, r.ac_cv, r.f1_cv, r.fold_ac, r.fold_f1, r.observed_max_depth) for r in result.results]
        assert got == expected
        assert [r.config for r in result.ranked] == expected_ranking
        assert calls["forest_fit"] == 3  # one per fold
        assert calls["balance"] == (3 if strategy is Strategy.OVER_SAMPLE else 0)

    def test_svm_space_balances_once_per_fold(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline_module, "balance", lambda ds, plan: calls.append(plan.seed) or balance(ds, plan))
        x, y = make_blobs(rng, [[0, 0], [4, 4]], 12)
        dataset = labeled(np.vstack([x, x[y == 1]]), np.concatenate([y, np.ones(12, dtype=int)]),
                          ("blocker", "non-blocker"))
        space = [SvmConfig("linear", 1.0), SvmConfig("rbf", 1.0)]
        tune_grid(space, dataset, k=2, seed=0, plan=ResamplePlan(Strategy.OVER_SAMPLE, seed=2))
        assert calls == [2 + 7919, 2 + 2 * 7919]

    def test_unconverged_svm_ranks_after_converged(self, rng, monkeypatch):
        dataset = self.binary_blobs(rng, per_class=20)
        space = [SvmConfig("linear", 1.0), SvmConfig("rbf", 1.0), SvmConfig("rbf", 10.0)]
        honest = tune_grid(space, dataset, k=3, seed=0)
        stuck = honest.best.config
        assert all(r.converged is True for r in honest.results)

        def fit(x, y, kernel, c):
            model = svm_fit(x, y, kernel, c)
            hit = (kernel.kind, c) == (stuck.kernel, stuck.c)
            return replace(model, converged=False) if hit else model

        monkeypatch.setattr(pipeline_module, "svm_fit", fit)
        result = tune_grid(space, dataset, k=3, seed=0)
        assert [r.converged for r in result.results] == [r.config != stuck for r in honest.results]
        assert [r.ac_cv for r in result.results] == [r.ac_cv for r in honest.results]
        assert result.ranked[-1].config == stuck
        assert [r.config for r in result.ranked[:-1]] == [r.config for r in honest.ranked if r.config != stuck]

    def test_convergence_is_none_without_a_convergence_test(self, rng):
        result = tune_grid([ForestConfig(5)], self.binary_blobs(rng, per_class=10), k=2, seed=0)
        assert result.best.converged is None

    def test_nonpositive_forest_size_rejected(self):
        with pytest.raises(InvalidInputError):
            ForestConfig(0)

    def test_fit_config_codes_blocker_as_positive(self, rng):
        x, y = make_blobs(rng, [[0, 0], [4, 4]], 20)
        dataset = labeled(x, y, ("blocker", "non-blocker"))
        model = fit_config(SvmConfig("linear", 1.0), dataset, seed=0)
        assert np.array_equal(svm_decision_many(model, x) >= 0.0, y == 0)
        forest = fit_config(ForestConfig(5), dataset, seed=3)
        assert np.array_equal(forest_predict_many(forest, x),
                              forest_predict_many(forest_fit(dataset, 5, seed=3), x))
        with pytest.raises(InvalidInputError, match="unsupported config"):
            fit_config(object(), dataset, seed=0)

    def test_empty_space_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            tune_grid([], self.binary_blobs(rng), k=2, seed=0)
