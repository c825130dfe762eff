import base64
import dataclasses
import io
import json

import numpy as np
import pytest

from cardiotox.errors import BundleError
from cardiotox.learners import (
    KernelSpec,
    MlpModel,
    SvmModel,
    TrainConfig,
    forest_fit,
    forest_predict_proba,
    forest_regress_fit,
    forest_regress_predict,
    mlp_init,
    mlp_predict_proba,
    mlp_train,
    ridge_fit,
    svm_decision,
    svm_fit,
)
from cardiotox.persistence import BUNDLE_EXTENSION, BUNDLE_TYPES, SCHEMA_VERSION, load_bundle, save_bundle
from cardiotox.pipeline import (
    ConsensusPair,
    PreprocessChain,
    SubModel,
    ToxTreePipeline,
    pipeline_predict,
)
from cardiotox.preprocess import fit_pca, fit_scaler, project, transform_scaler

from conftest import MALFORMED_TREE_EDITS, labeled, make_blobs, resigned


def roundtrip(model):
    buf = io.StringIO()
    save_bundle(model, buf, seed=0)
    text = buf.getvalue()
    return text, load_bundle(io.StringIO(text))


def packed(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def build_models(rng):
    x, y = make_blobs(rng, [[0, 0, 0], [4, 4, 4]], 30)
    dataset = labeled(x, y, ("blocker", "non-blocker"))
    scaler = fit_scaler(x)
    pca = fit_pca(transform_scaler(scaler, x), 0.95)
    forest = forest_fit(dataset, 7, max_depth=5, seed=1)
    regressor = forest_regress_fit(x, x[:, 0] * 2 + 1, 5, seed=2)
    svm = svm_fit(x, np.where(y == 0, 1.0, -1.0), KernelSpec("rbf"), 2.0)
    net = mlp_init([3, 8, 2], "relu", seed=3, batchnorm=True)
    split = labeled(x, y, ("blocker", "non-blocker"))
    net = mlp_train(net, split, split, TrainConfig(epochs=5, batch_size=16, seed=0)).model
    ridge = ridge_fit(x, x[:, 1] - x[:, 0], 0.5)
    return {
        "scaler": scaler,
        "pca": pca,
        "forest": forest,
        "regressor": regressor,
        "svm": svm,
        "mlp": net,
        "ridge": ridge,
    }


def build_pipelines(rng, models):
    """A hERG-shaped pipeline (scaler, forest stages, forest consensus pair) and a
    Nav1.5-shaped one (scaler and PCA, SVM stages, SVM consensus pair)."""
    forest = models["forest"]
    herg = ToxTreePipeline(
        PreprocessChain(["f0", "f1", "f2"], models["scaler"], None),
        [
            SubModel("6rf-ovrs", 6.0, forest),
            SubModel("5rf-ovrs", 5.0, forest),
            ConsensusPair(SubModel("4o5rf", 4.5, forest), SubModel("4o5rf-ovrs", 4.5, forest)),
        ],
    )
    chain = PreprocessChain(["f0", "f1", "f2"], models["scaler"], models["pca"])
    x, y = make_blobs(rng, [[0, 0, 0], [4, 4, 4]], 30)
    z = np.array([chain.apply_row(row) for row in x])

    def svm(kind, c):
        return svm_fit(z, np.where(y == 0, 1.0, -1.0), KernelSpec(kind), c)

    nav = ToxTreePipeline(
        chain,
        [
            SubModel("6svm", 6.0, svm("linear", 1.0)),
            SubModel("5svm-ovrs", 5.0, svm("rbf", 10.0)),
            ConsensusPair(SubModel("4o5svm", 4.5, svm("rbf", 1.0)), SubModel("4o5svm-ovrs", 4.5, svm("poly", 1.0))),
        ],
    )
    return {"herg": herg, "nav15": nav}


def saved(model) -> str:
    buf = io.StringIO()
    save_bundle(model, buf)
    return buf.getvalue()


def predictor_for(kind, model):
    if kind == "scaler":
        return lambda row: transform_scaler(model, row[None, :])[0]
    if kind == "pca":
        return lambda row: project(model, row)
    if kind == "forest":
        return lambda row: forest_predict_proba(model, row)
    if kind == "regressor":
        return lambda row: forest_regress_predict(model, row)
    if kind == "svm":
        return lambda row: svm_decision(model, row)
    if kind == "mlp":
        return lambda row: mlp_predict_proba(model, row)
    return lambda row: model.predict(row)


class TestRoundTrips:
    @pytest.mark.parametrize("kind", ["scaler", "pca", "forest", "regressor", "svm", "mlp", "ridge"])
    def test_bit_identical_predictions(self, rng, kind):
        model = build_models(rng)[kind]
        _, restored = roundtrip(model)
        probe = rng.normal(size=(100, 3)) * 3
        before = predictor_for(kind, model)
        after = predictor_for(kind, restored)
        for row in probe:
            assert np.array_equal(np.asarray(before(row)), np.asarray(after(row)))

    def test_pipeline_roundtrip(self, rng):
        for pipeline in build_pipelines(rng, build_models(rng)).values():
            text, restored = roundtrip(pipeline)
            assert isinstance(restored, ToxTreePipeline)
            assert saved(restored) == text
            for _ in range(100):
                row = rng.normal(size=3) * 3
                a = pipeline_predict(pipeline, row)
                b = pipeline_predict(restored, row)
                assert (a.outcome, a.stage_name, a.probability) == (b.outcome, b.stage_name, b.probability)

    def test_every_table_class_stores_exactly_its_fields(self, rng):
        models = build_models(rng)
        pipelines = build_pipelines(rng, models)
        nav = pipelines["nav15"]
        objects = [
            *models.values(), *pipelines.values(), models["forest"].trees[0], models["svm"].kernel,
            models["mlp"].batchnorm[0], nav.preprocessing, nav.stages[0], nav.stages[-1],
        ]
        by_class = {type(obj): obj for obj in objects}
        assert set(by_class) == set(BUNDLE_TYPES.values())
        not_stored = {SvmModel: {"alphas"}}
        for tag, cls in BUNDLE_TYPES.items():
            text, restored = roundtrip(by_class[cls])
            payload = json.loads(text)["payload"]
            fields = {f.name for f in dataclasses.fields(cls)} - not_stored.get(cls, set())
            assert payload.keys() == fields | {"type"} and payload["type"] == tag
            assert type(restored) is cls
            assert saved(restored) == text

    def test_save_deterministic_and_stable_through_load(self, rng):
        model = build_models(rng)["forest"]
        buf_a, buf_b = io.StringIO(), io.StringIO()
        save_bundle(model, buf_a, seed=0)
        save_bundle(model, buf_b, seed=0)
        assert buf_a.getvalue() == buf_b.getvalue()
        restored = load_bundle(io.StringIO(buf_a.getvalue()))
        buf_c = io.StringIO()
        save_bundle(restored, buf_c)
        assert buf_c.getvalue() == buf_a.getvalue()

    def test_signed_zero_and_subnormals_round_trip_bit_for_bit(self, rng):
        model = build_models(rng)["ridge"]
        model.coefficients = np.array([-0.0, 5e-324, -2.5e-310])
        model.intercept = -0.0
        text, restored = roundtrip(model)
        assert restored.coefficients.tobytes() == model.coefficients.tobytes()
        assert np.array([restored.intercept]).tobytes() == np.array([-0.0]).tobytes()
        assert json.loads(text)["payload"]["coefficients"]["f64le"] == packed([-0.0, 5e-324, -2.5e-310])

    def test_metadata_round_trips(self, rng, tmp_path):
        model = build_models(rng)["ridge"]
        path = tmp_path / f"model{BUNDLE_EXTENSION}"
        save_bundle(model, path, seed=42, fingerprint="abc123", hyperparameters={"alpha": 0.5})
        restored = load_bundle(path)
        meta = getattr(restored, "_bundle_metadata")
        assert meta["seed"] == 42 and meta["fingerprint"] == "abc123"


class TestFailureModes:
    def test_future_schema_version(self, rng):
        text, _ = roundtrip(build_models(rng)["scaler"])
        bundle = json.loads(text)
        bundle["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(BundleError, match="schema_version"):
            load_bundle(io.StringIO(json.dumps(bundle)))

    def test_previous_schema_version(self, rng):
        text, _ = roundtrip(build_models(rng)["forest"])
        bundle = json.loads(text)
        bundle["schema_version"] = 1
        with pytest.raises(BundleError, match="schema_version"):
            load_bundle(io.StringIO(json.dumps(bundle)))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda p, t: t["feature"].__setitem__(0, 999), id="feature-out-of-range"),
            pytest.param(lambda p, t: t["feature"].__setitem__(0, -2), id="negative-feature"),
            pytest.param(lambda p, t: t["feature"].__setitem__(0, 1.5), id="non-integer-feature"),
            pytest.param(lambda p, t: t["value"]["ints"].append(0), id="counts-not-n-classes-wide"),
            pytest.param(lambda p, t: t["value"]["ints"].__setitem__(0, True), id="bool-count"),
            pytest.param(lambda p, t: p["trees"].pop(), id="fewer-trees-than-n-estimators"),
            *(pytest.param(lambda p, t, edit=edit: edit(t), id=name) for name, edit in MALFORMED_TREE_EDITS.items()),
        ],
    )
    def test_malformed_forest_rejected(self, rng, edit):
        text, _ = roundtrip(build_models(rng)["forest"])
        bundle = json.loads(text)
        tree = bundle["payload"]["trees"][0]
        assert tree["feature"][0] >= 0  # the root splits, so the edits hit an internal node
        edit(bundle["payload"], tree)
        with pytest.raises(BundleError, match="forest"):
            load_bundle(io.StringIO(resigned(bundle)))

    def test_corrupted_payload_byte(self, rng):
        text, _ = roundtrip(build_models(rng)["svm"])
        # flip one character inside a packed array, then inside a scalar hex float
        for marker in ('"f64le":"', '"hex":"'):
            pos = text.index(marker) + len(marker) + 4
            corrupted = text[:pos] + ("1" if text[pos] != "1" else "2") + text[pos + 1 :]
            with pytest.raises(BundleError):
                load_bundle(io.StringIO(corrupted))

    @pytest.mark.parametrize(
        "edit, match",
        [
            # non-strict base64 would skip the "!" and decode the array unchanged
            pytest.param(lambda a: a.__setitem__("f64le", "!" + a["f64le"]), "malformed array payload", id="bad-base64"),
            pytest.param(
                lambda a: a.__setitem__("f64le", base64.b64encode(base64.b64decode(a["f64le"])[:-4]).decode()),
                "shape",
                id="bytes-not-8-per-value",
            ),
            pytest.param(lambda a: a.__setitem__("shape", [-1, -a["shape"][0]]), "shape", id="negative-shape"),
            pytest.param(lambda a: a.__setitem__("shape", [float(a["shape"][0])]), "shape", id="float-shape"),
            pytest.param(lambda a: a.__setitem__("shape", [a["shape"][0], True]), "shape", id="bool-shape"),
            pytest.param(lambda a: a.__setitem__("f64le", packed([np.nan] * a["shape"][0])), "non-finite", id="nan"),
            pytest.param(lambda a: a.__setitem__("f64le", packed([np.inf] * a["shape"][0])), "non-finite", id="inf"),
        ],
    )
    def test_malformed_packed_array_rejected(self, rng, edit, match):
        text, _ = roundtrip(build_models(rng)["svm"])
        bundle = json.loads(text)
        array = bundle["payload"]["dual_coefs"]
        assert len(array["shape"]) == 1
        edit(array)
        with pytest.raises(BundleError, match=match):
            load_bundle(io.StringIO(resigned(bundle)))

    @pytest.mark.parametrize(
        "kind, edit, match",
        [
            pytest.param("svm", lambda p: p.__setitem__("bias", float("nan")), "non-finite number NaN", id="nan-bias"),
            pytest.param("svm", lambda p: p.__setitem__("bias", 0.5), "bare number 0.5 in payload/svm", id="plain-bias"),
            pytest.param(
                "svm",
                lambda p: p.__setitem__("dual_coefs", [float("nan")] * p["dual_coefs"]["shape"][0]),
                "non-finite number NaN",
                id="nan-list-dual-coefs",
            ),
            pytest.param(
                "svm",
                lambda p: p.__setitem__("dual_coefs", [0.5] * p["dual_coefs"]["shape"][0]),
                "bare number 0.5 in payload/svm",
                id="plain-list-dual-coefs",
            ),
            pytest.param(
                "svm", lambda p: p["kernel"].__setitem__("gamma", float("inf")), "non-finite number Infinity", id="inf-gamma"
            ),
            pytest.param(
                "forest",
                lambda p: p["trees"][0].__setitem__("threshold", [-float("inf")] * len(p["trees"][0]["feature"])),
                "non-finite number -Infinity",
                id="inf-list-tree-threshold",
            ),
            pytest.param(
                "forest",
                lambda p: p["trees"][0].__setitem__("threshold", [0.5] * len(p["trees"][0]["feature"])),
                "bare number 0.5 in payload/forest/tree",
                id="plain-list-tree-threshold",
            ),
            pytest.param("forest", lambda p: p.__setitem__("n_classes", 2.0), "bare number 2.0", id="float-n-classes"),
            pytest.param("forest", lambda p: p.__setitem__("n_classes", "2"), "'n_classes' cannot hold a str", id="str-n-classes"),
        ],
    )
    def test_plain_or_non_finite_number_rejected(self, rng, kind, edit, match):
        # The encoder writes every real as {"hex"} or inside {"f64le"}, so a bare
        # JSON number with a fraction, NaN or Infinity is never a valid value.
        text, _ = roundtrip(build_models(rng)[kind])
        bundle = json.loads(text)
        edit(bundle["payload"])
        with pytest.raises(BundleError, match=match):
            load_bundle(io.StringIO(resigned(bundle)))

    def test_overflowing_number_rejected(self, rng):
        text, _ = roundtrip(build_models(rng)["ridge"])
        bundle = json.loads(text)
        bundle["payload"]["alpha"] = float("inf")
        # json reads 1e999 as inf, so the digest signed over Infinity holds
        with pytest.raises(BundleError, match="non-finite number 1e999"):
            load_bundle(io.StringIO(resigned(bundle).replace("Infinity", "1e999")))

    def test_non_finite_metadata_rejected_on_save(self, rng):
        with pytest.raises(BundleError, match="metadata"):
            save_bundle(build_models(rng)["ridge"], io.StringIO(), hyperparameters={"c": float("nan")})

    @pytest.mark.parametrize(
        "edit, match",
        [
            pytest.param(
                lambda p: p["preprocessing"].__setitem__("scaler", p["preprocessing"]["pca"]),
                "'scaler' cannot hold a PcaModel",
                id="pca-in-the-scaler-slot",
            ),
            pytest.param(
                lambda p: p["stages"][0]["model"].__setitem__("kernel", p["preprocessing"]["scaler"]),
                "'kernel' cannot hold a ScalerParams",
                id="scaler-as-svm-kernel",
            ),
            pytest.param(
                lambda p: p["stages"][0].__setitem__("model", p["preprocessing"]["scaler"]),
                "'model' cannot hold a ScalerParams",
                id="scaler-as-stage-model",
            ),
            pytest.param(
                lambda p: p["stages"][2].__setitem__("model_a", p["stages"][0]["model"]),
                "'model_a' cannot hold a SvmModel",
                id="bare-svm-as-consensus-member",
            ),
            pytest.param(
                lambda p: p["stages"].__setitem__(0, p["preprocessing"]),
                "'stages' cannot hold a list",
                id="preprocessing-as-stage",
            ),
            pytest.param(
                lambda p: p["preprocessing"].__setitem__("whitelist", [["f0"], "f1", "f2"]),
                "'whitelist' cannot hold a list",
                id="nested-whitelist",
            ),
            pytest.param(
                lambda p: p["stages"][2].__setitem__("prob_tolerance", float("nan")),
                "non-finite number NaN",
                id="nan-prob-tolerance",
            ),
        ],
    )
    def test_field_holding_the_wrong_class_rejected(self, rng, edit, match):
        pipeline = build_pipelines(rng, build_models(rng))["nav15"]
        bundle = json.loads(saved(pipeline))
        edit(bundle["payload"])
        with pytest.raises(BundleError, match=match):
            load_bundle(io.StringIO(resigned(bundle)))

    def test_mlp_stage_rejected(self, rng):
        # Stages are forests or SVMs; an MLP bundles on its own but not as a stage.
        models = build_models(rng)
        bundle = json.loads(saved(build_pipelines(rng, models)["herg"]))
        bundle["payload"]["stages"][0]["model"] = json.loads(saved(models["mlp"]))["payload"]
        with pytest.raises(BundleError, match="'model' cannot hold a MlpModel"):
            load_bundle(io.StringIO(resigned(bundle)))

    @pytest.mark.parametrize(
        "edit, match",
        [
            pytest.param(lambda p: p.__setitem__("layer_sizes", [3, 5, 2]), "layer_sizes", id="sizes-not-weight-shapes"),
            pytest.param(lambda p: p["biases"].pop(), "layer_sizes", id="missing-bias"),
            pytest.param(lambda p: p["batchnorm"].append(p["batchnorm"][0]), "batch norm", id="extra-batchnorm"),
            pytest.param(
                lambda p: p["batchnorm"][0].__setitem__("beta", p["biases"][1]), "batch norm", id="batchnorm-wrong-width"
            ),
            pytest.param(lambda p: p.__setitem__("activation", "tanh"), "activation", id="unknown-activation"),
            pytest.param(lambda p: p.__setitem__("dropout_rate", {"hex": (1.0).hex()}), "dropout_rate", id="dropout-one"),
            pytest.param(lambda p: p["layer_sizes"].__setitem__(1, True), "'layer_sizes' cannot hold", id="bool-size"),
        ],
    )
    def test_malformed_mlp_rejected(self, rng, edit, match):
        text, _ = roundtrip(build_models(rng)["mlp"])
        bundle = json.loads(text)
        assert bundle["payload"]["layer_sizes"] == [3, 8, 2]
        edit(bundle["payload"])
        with pytest.raises(BundleError, match=match):
            load_bundle(io.StringIO(resigned(bundle)))

    def test_schema_2_bundle_rejected(self, rng):
        text, _ = roundtrip(build_models(rng)["forest"])
        bundle = json.loads(text)
        bundle["schema_version"] = 2
        with pytest.raises(BundleError, match="schema_version 2"):
            load_bundle(io.StringIO(json.dumps(bundle)))

    def test_metadata_must_be_an_object(self, rng):
        text, _ = roundtrip(build_models(rng)["ridge"])
        bundle = json.loads(text)
        bundle["metadata"] = "tampered"
        with pytest.raises(BundleError, match="metadata"):
            load_bundle(io.StringIO(json.dumps(bundle)))

    def test_truncated_bundle(self, rng):
        text, _ = roundtrip(build_models(rng)["pca"])
        with pytest.raises(BundleError):
            load_bundle(io.StringIO(text[: len(text) // 2]))

    def test_non_finite_value_rejected_on_save(self, rng):
        model = build_models(rng)["ridge"]
        model.coefficients[0] = float("nan")
        with pytest.raises(BundleError):
            save_bundle(model, io.StringIO())

    def test_digest_guards_semantic_tampering(self, rng):
        text, _ = roundtrip(build_models(rng)["ridge"])
        bundle = json.loads(text)
        bundle["payload"]["intercept"]["hex"] = (1.5).hex()
        with pytest.raises(BundleError, match="digest"):
            load_bundle(io.StringIO(json.dumps(bundle)))

    def test_unknown_kind(self):
        bundle = {
            "schema_version": SCHEMA_VERSION,
            "metadata": {},
            "payload": {"type": "mystery"},
        }
        with pytest.raises(BundleError, match="mystery"):
            load_bundle(io.StringIO(resigned(bundle)))

    def test_type_outside_the_table_rejected(self, rng):
        # LabeledDataset is a dataclass of this package, but no bundle may build one.
        text, _ = roundtrip(build_models(rng)["svm"])
        bundle = json.loads(text)
        bundle["payload"]["kernel"] = {"type": "LabeledDataset", "matrix": [], "labels": [], "class_names": []}
        with pytest.raises(BundleError, match="LabeledDataset"):
            load_bundle(io.StringIO(resigned(bundle)))

    def test_not_json(self):
        with pytest.raises(BundleError, match="JSON"):
            load_bundle(io.StringIO("definitely not json {"))
