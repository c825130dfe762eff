import base64
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardiotox.errors import BundleError
from cardiotox.learners import (
    ForestModel,
    KernelSpec,
    MlpModel,
    SvmModel,
    TrainConfig,
    forest_fit,
    forest_predict_proba,
    forest_regress_fit,
    forest_regress_predict,
    forest_vote_counts,
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

from conftest import MALFORMED_TREE_EDITS, labeled, make_blobs, packed_ints, resigned, unpacked_ints


def roundtrip(model):
    buf = io.StringIO()
    save_bundle(model, buf, seed=0)
    text = buf.getvalue()
    return text, load_bundle(io.StringIO(text))


def packed(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def edited_ints(obj: dict, name: str, edit) -> None:
    """Apply ``edit`` to a writable copy of the encoded integer array ``obj[name]``."""
    values = unpacked_ints(obj[name]).astype(np.int64)
    edit(values)
    obj[name] = packed_ints(values)


def as_floats(array: dict) -> dict:
    """An encoded integer array re-encoded as a float array of the same values."""
    return {"shape": array["shape"], "f64le": packed(unpacked_ints(array).ravel())}


def narrowed(scaler: dict) -> dict:
    """An encoded scaler cut to its first two columns."""
    two = {key: {"shape": [2], "f64le": base64.b64encode(base64.b64decode(scaler[key]["f64le"])[:16]).decode()}
           for key in ("mean", "std")}
    return {**scaler, **two}


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

    def test_two_svms_fitted_to_the_same_rows_store_them_once(self, rng):
        x, y = make_blobs(rng, [[0, 0], [1, 1]], 30, scale=0.8)
        y = np.where(y == 0, 1.0, -1.0)
        a, b = svm_fit(x, y, KernelSpec("rbf"), 1.0), svm_fit(x, y, KernelSpec("rbf"), 10.0)
        pipeline = ToxTreePipeline(PreprocessChain(), [SubModel("6svm", 6.0, a), SubModel("5svm", 5.0, b)])
        text, restored = roundtrip(pipeline)
        bundle = json.loads(text)
        distinct = {row.tobytes() for row in np.vstack([a.support_vectors, b.support_vectors])}
        assert bundle["rows"].keys() == {"2"}
        assert bundle["rows"]["2"]["shape"] == [len(distinct), 2]
        assert len(distinct) < len(a.support_vectors) + len(b.support_vectors)
        for before, after in zip((a, b), (stage.model for stage in restored.stages)):
            assert after.support_vectors.tobytes() == before.support_vectors.tobytes()

    def test_equal_values_of_opposite_sign_stay_apart(self, rng):
        model = build_models(rng)["svm"]
        model.support_vectors = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        model.dual_coefs = model.dual_coefs[:3]
        text, restored = roundtrip(model)
        assert unpacked_ints(json.loads(text)["payload"]["support_vectors"]["rows"]).tolist() == [0, 1, 0]
        assert restored.support_vectors.tobytes() == model.support_vectors.tobytes()

    def test_bundle_bytes_do_not_follow_the_string_hash(self):
        # Field sets iterate in string-hash order, which PYTHONHASHSEED sets per
        # process; the row tables must fill in an order that does not follow it.
        script = (
            "import io, numpy as np\n"
            "from cardiotox.persistence import _STORED_FIELDS, save_bundle\n"
            "from cardiotox.pipeline import ToxTreePipeline\n"
            "from test_persistence import build_models, build_pipelines\n"
            "rng = np.random.default_rng(20240501)\n"
            "buf = io.StringIO()\n"
            "save_bundle(build_pipelines(rng, build_models(rng))['nav15'], buf)\n"
            "print(','.join(_STORED_FIELDS[ToxTreePipeline]))\n"
            "print(buf.getvalue(), end='')\n"
        )
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        procs = [
            subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path})
            for seed in range(6)
        ]
        outputs = [proc.communicate(timeout=120)[0].split("\n", 1) for proc in procs]
        assert all(proc.returncode == 0 for proc in procs)
        orders = {order for order, _ in outputs}
        bundles = {bundle for _, bundle in outputs}
        assert len(orders) >= 2, "every seed iterated the fields in one order, so nothing was tested"
        assert len(bundles) == 1
        assert len(json.loads(bundles.pop())["rows"]) == 1  # support vectors and PCA components share one width

    def test_metadata_round_trips(self, rng, tmp_path):
        model = build_models(rng)["ridge"]
        path = tmp_path / f"model{BUNDLE_EXTENSION}"
        save_bundle(model, path, seed=42, fingerprint="abc123", hyperparameters={"alpha": 0.5})
        restored = load_bundle(path)
        meta = getattr(restored, "_bundle_metadata")
        assert meta["seed"] == 42 and meta["fingerprint"] == "abc123"


@st.composite
def flat_forests(draw):
    """(forest, its trees' (feature, threshold, value) arrays): 1 to 12
    random preorder trees, single leaves included, classifying or regressing."""
    n_classes = draw(st.sampled_from([None, 2, 3]))
    n_features = draw(st.integers(1, 200))
    reals = st.floats(-1e6, 1e6, allow_nan=False)
    trees = []
    for _ in range(draw(st.integers(1, 12))):
        feature = []

        def grow(depth):
            if depth < 5 and draw(st.booleans()):
                feature.append(draw(st.integers(0, n_features - 1)))
                grow(depth + 1)
                grow(depth + 1)
            else:
                feature.append(-1)

        grow(0)
        splits = sum(f >= 0 for f in feature)
        leaves = len(feature) - splits
        threshold = np.array(draw(st.lists(reals, min_size=splits, max_size=splits)), dtype=float)
        if n_classes is None:
            value = np.array(draw(st.lists(reals, min_size=leaves, max_size=leaves)), dtype=float)
        else:
            counts = st.lists(st.integers(0, 40_000), min_size=n_classes, max_size=n_classes)
            value = np.array(draw(st.lists(counts, min_size=leaves, max_size=leaves)), dtype=np.int64)
        trees.append((np.array(feature), threshold, value))
    forest = ForestModel.from_trees(trees, None, 1, draw(st.integers(0, 2**31)), n_features, n_classes)
    return forest, trees


def narrowest_int_key(values: np.ndarray) -> str:
    for key, bound in (("i8le", 1 << 7), ("i16le", 1 << 15), ("i32le", 1 << 31), ("i64le", 1 << 63)):
        if -bound <= values.min() and values.max() < bound:
            return key


class TestFlatForest:
    @settings(max_examples=60, deadline=None)
    @given(flat_forests(), st.integers(0, 2**32 - 1))
    def test_round_trip_keeps_the_table_and_every_tree(self, drawn, probe_seed):
        forest, trees = drawn
        text, restored = roundtrip(forest)
        assert saved(restored) == text
        payload = json.loads(text)["payload"]
        for name in ("feature", "threshold", "value", "tree_nodes"):
            before, after = getattr(forest, name), getattr(restored, name)
            assert after.dtype == before.dtype and after.tobytes() == before.tobytes()
            assert not after.flags.writeable
            if before.dtype.kind == "i":
                assert payload[name].keys() == {"shape", narrowest_int_key(before)}
        assert restored.n_estimators == len(trees) == len(restored.trees)
        assert restored.tree_nodes.tolist() == [len(f) for f, _, _ in trees]
        for (feature, threshold, value), tree in zip(trees, restored.trees):
            for given_array, stored in ((feature, tree.feature), (threshold, tree.threshold), (value, tree.value)):
                assert np.array_equal(given_array, stored)
        for row in np.random.default_rng(probe_seed).normal(scale=10, size=(20, forest.n_features)):
            if forest.n_classes is None:
                assert forest_regress_predict(restored, row) == forest_regress_predict(forest, row)
            else:
                assert np.array_equal(forest_vote_counts(restored, row), forest_vote_counts(forest, row))

    @pytest.mark.parametrize("feature, key", [(127, "i8le"), (128, "i16le")])
    def test_integers_take_the_narrowest_width(self, feature, key):
        forest = ForestModel.from_trees([([feature, -1, -1], [0.5], [[1, 0], [0, 1]])], None, 1, 0, 129, 2)
        payload = json.loads(saved(forest))["payload"]
        assert payload["feature"] == {"shape": [3], key: base64.b64encode(
            np.array([feature, -1, -1], dtype=f"<i{int(key[1:-2]) // 8}").tobytes()).decode()}
        assert "i8le" in payload["tree_nodes"] and "i8le" in payload["value"]


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
            pytest.param(lambda f: edited_ints(f, "feature", lambda a: a.__setitem__(0, 999)), id="feature-out-of-range"),
            pytest.param(lambda f: edited_ints(f, "feature", lambda a: a.__setitem__(0, -2)), id="negative-feature"),
            pytest.param(lambda f: f.update(feature=as_floats(f["feature"])), id="non-integer-feature"),
            pytest.param(lambda f: f.update(value=as_floats(f["value"])), id="float-counts"),
            pytest.param(
                lambda f: f.update(value=packed_ints(np.pad(unpacked_ints(f["value"]), ((0, 0), (0, 1))))),
                id="counts-not-n-classes-wide",
            ),
            pytest.param(lambda f: edited_ints(f, "tree_nodes", lambda a: a.__setitem__(0, a[0] + 1)),
                         id="tree-nodes-past-feature"),
            pytest.param(lambda f: f.update(tree_nodes=packed_ints([*unpacked_ints(f["tree_nodes"]), 0])),
                         id="zero-node-count"),
            pytest.param(lambda f: edited_ints(f, "tree_nodes", lambda a: a.__setitem__(slice(0, 2), a[:2] + [-1, 1])),
                         id="tree-slice-not-one-tree"),
            pytest.param(
                lambda f: f.update(feature={"shape": f["feature"]["shape"], "i16le": f["feature"]["i8le"]}),
                id="int-bytes-not-width-per-value",
            ),
            *(pytest.param(edit, id=name) for name, edit in MALFORMED_TREE_EDITS.items()),
        ],
    )
    def test_malformed_forest_rejected(self, rng, edit):
        text, _ = roundtrip(build_models(rng)["forest"])
        bundle = json.loads(text)
        forest = bundle["payload"]
        # Every node index fits in 8 bits, and the first tree's root splits,
        # so the edits hit an internal node.
        assert "i8le" in forest["feature"] and unpacked_ints(forest["feature"])[0] >= 0
        edit(forest)
        with pytest.raises(BundleError, match="forest"):
            load_bundle(io.StringIO(resigned(bundle)))

    def test_corrupted_payload_byte(self, rng):
        text, _ = roundtrip(build_models(rng)["svm"])
        # flip one character inside a packed array, a scalar hex float, then a row table
        for start, marker in ((0, '"f64le":"'), (0, '"hex":"'), (text.index('"rows":{'), '"f64le":"')):
            pos = text.index(marker, start) + len(marker) + 4
            corrupted = text[:pos] + ("1" if text[pos] != "1" else "2") + text[pos + 1 :]
            with pytest.raises(BundleError, match="digest"):
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
            pytest.param(lambda a: a.__setitem__("f32le", a.pop("f64le")), "payload key", id="unknown-payload-key"),
            pytest.param(lambda a: a.__setitem__("i64le", a["f64le"]), "payload key", id="two-payload-keys"),
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
        "edit, match",
        [
            pytest.param(lambda a, t: edited_ints(a, "rows", lambda r: r.__setitem__(0, t["shape"][0])), "out of range",
                         id="index-past-table"),
            pytest.param(lambda a, t: edited_ints(a, "rows", lambda r: r.__setitem__(0, -1)), "out of range",
                         id="negative-index"),
            pytest.param(lambda a, t: a.update(rows=unpacked_ints(a["rows"]).tolist()), "integer indices",
                         id="references-not-packed"),
            pytest.param(lambda a, t: a.update(rows=as_floats(a["rows"])), "integer indices", id="float-index"),
            pytest.param(lambda a, t: a.update(rows=packed_ints(unpacked_ints(a["rows"])[:-1])), "integer indices",
                         id="index-count-not-row-count"),
            pytest.param(lambda a, t: a["shape"].__setitem__(1, 4), "no row table 4 wide", id="no-table-that-wide"),
            pytest.param(lambda a, t: t["shape"].__setitem__(0, t["shape"][0] + 1), "shape", id="table-shape-not-bytes"),
            pytest.param(
                lambda a, t: t.__setitem__("f64le", packed([np.nan] * (3 * t["shape"][0]))), "non-finite", id="nan-table-row"
            ),
        ],
    )
    def test_malformed_row_reference_rejected(self, rng, edit, match):
        text, _ = roundtrip(build_models(rng)["svm"])
        bundle = json.loads(text)
        array, table = bundle["payload"]["support_vectors"], bundle["rows"]["3"]
        assert array["shape"][1] == 3 and array["rows"]["shape"][0] > 1
        edit(array, table)
        with pytest.raises(BundleError, match=match) as error:
            load_bundle(io.StringIO(resigned(bundle)))
        assert "payload/svm.support_vectors" in str(error.value)

    def test_row_table_no_array_refers_to_rejected(self, rng):
        text, _ = roundtrip(build_models(rng)["svm"])
        bundle = json.loads(text)
        bundle["rows"]["7"] = {"shape": [1, 7], "f64le": packed([0.5] * 7)}
        with pytest.raises(BundleError, match=r"row tables \['7'\] are referenced by no array"):
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
                lambda p: p.__setitem__("threshold", [-float("inf")] * p["threshold"]["shape"][0]),
                "non-finite number -Infinity",
                id="inf-list-tree-threshold",
            ),
            pytest.param(
                "forest",
                lambda p: p.__setitem__("threshold", [0.5] * p["threshold"]["shape"][0]),
                "bare number 0.5 in payload/forest.threshold",
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

    @pytest.mark.parametrize(
        "edit, match",
        [
            pytest.param(
                lambda p: p["stages"][0]["model"]["kernel"].__setitem__("gamma", None),
                "payload/pipeline/submodel/svm: kernel gamma and coef0 must be resolved",
                id="unresolved-gamma",
            ),
            pytest.param(
                lambda p: p["stages"][2]["model_b"]["model"]["kernel"].__setitem__("coef0", None),
                "payload/pipeline/consensus/submodel/svm: kernel gamma and coef0 must be resolved",
                id="unresolved-poly-coef0",
            ),
            pytest.param(
                lambda p: p["preprocessing"]["whitelist"].pop(),
                "preprocessing: whitelist gives 2 columns, scaler expects 3",
                id="whitelist-narrower-than-scaler",
            ),
            pytest.param(
                lambda p: p["preprocessing"].update(whitelist=None, scaler=narrowed(p["preprocessing"]["scaler"])),
                "preprocessing: scaler gives 2 columns, pca expects 3",
                id="scaler-narrower-than-pca",
            ),
        ],
    )
    def test_inconsistent_nav_pipeline_rejected(self, rng, edit, match):
        pipeline = build_pipelines(rng, build_models(rng))["nav15"]
        bundle = json.loads(saved(pipeline))
        assert bundle["payload"]["stages"][2]["model_b"]["model"]["kernel"]["kind"] == "poly"
        edit(bundle["payload"])
        with pytest.raises(BundleError, match=match):
            load_bundle(io.StringIO(resigned(bundle)))

    def test_mlp_stage_rejected(self, rng):
        # Stages are forests or SVMs; an MLP bundles on its own but not as a stage.
        models = build_models(rng)
        bundle = json.loads(saved(build_pipelines(rng, models)["herg"]))
        mlp = json.loads(saved(models["mlp"]))
        assert bundle["rows"] == {}  # forest stages hold no float matrix, so the MLP brings its weight rows
        bundle["payload"]["stages"][0]["model"], bundle["rows"] = mlp["payload"], mlp["rows"]
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
            "rows": {},
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
