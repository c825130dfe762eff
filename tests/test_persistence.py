import base64
import io
import json

import numpy as np
import pytest

from cardiotox.errors import BundleError
from cardiotox.learners import (
    KernelSpec,
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
from cardiotox.persistence import BUNDLE_EXTENSION, SCHEMA_VERSION, load_bundle, save_bundle
from cardiotox.pipeline import (
    ConsensusPair,
    PreprocessChain,
    SubModel,
    ToxTreePipeline,
    pipeline_predict,
)
from cardiotox.preprocess import fit_pca, fit_scaler, project, transform_scaler

from conftest import labeled, make_blobs, resigned


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
        models = build_models(rng)
        pair = ConsensusPair(SubModel("4o5rf", 4.5, models["forest"]), SubModel("4o5rf-ovrs", 4.5, models["forest"]))
        pipeline = ToxTreePipeline(
            PreprocessChain(["f0", "f1", "f2"], models["scaler"], None),
            [SubModel("6rf-ovrs", 6.0, models["forest"]), SubModel("5rf-ovrs", 5.0, models["forest"]), pair],
        )
        text, restored = roundtrip(pipeline)
        assert isinstance(restored, ToxTreePipeline)
        for _ in range(100):
            row = {f"f{i}": float(v) for i, v in enumerate(rng.normal(size=3) * 3)}
            a = pipeline_predict(pipeline, row)
            b = pipeline_predict(restored, row)
            assert (a.outcome, a.stage_name, a.probability) == (b.outcome, b.stage_name, b.probability)

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
            pytest.param(lambda p, t: t["left"].append(-1), id="length-mismatch"),
            pytest.param(lambda p, t: t["left"].__setitem__(0, 0), id="child-cycle"),
            pytest.param(lambda p, t: t["right"].__setitem__(0, len(t["feature"])), id="child-past-end"),
            pytest.param(lambda p, t: t["value"].append(0), id="counts-not-n-classes-wide"),
            pytest.param(lambda p, t: p["trees"].pop(), id="fewer-trees-than-n-estimators"),
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
            "kind": "mystery",
            "metadata": {},
            "payload": {},
        }
        import hashlib

        canonical = json.dumps({}, sort_keys=True, separators=(",", ":"))
        bundle["payload_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
        with pytest.raises(BundleError, match="mystery"):
            load_bundle(io.StringIO(json.dumps(bundle)))

    def test_not_json(self):
        with pytest.raises(BundleError, match="JSON"):
            load_bundle(io.StringIO("definitely not json {"))
