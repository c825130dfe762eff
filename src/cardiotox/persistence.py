"""Versioned JSON bundles for every trained artifact.

Bundles are compact canonical JSON. Float arrays are stored as base64
little-endian float64 and scalars as hex floats (lossless round trips); a
payload digest catches corruption. Saving is deterministic, and metadata rides
along on loaded models so save(load(f)) reproduces f byte for byte.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from typing import Any

import numpy as np

from .errors import BundleError
from .learners import (
    BatchNormParams,
    ForestModel,
    KernelSpec,
    MlpModel,
    RidgeModel,
    SvmModel,
    Tree,
)
from .pipeline import ConsensusPair, PreprocessChain, SubModel, ToxTreePipeline
from .preprocess import PcaModel, ScalerParams

SCHEMA_VERSION = 3
BUNDLE_EXTENSION = ".toxtree.json"
DEFAULT_CREATED_AT = "1970-01-01T00:00:00Z"

_METADATA_ATTR = "_bundle_metadata"


def _enc_real(value: float) -> dict:
    value = float(value)
    if not math.isfinite(value):
        raise BundleError(f"cannot serialize non-finite value {value!r}")
    return {"hex": value.hex()}


def _dec_real(obj) -> float:
    try:
        value = float.fromhex(obj["hex"])
    except (TypeError, KeyError, ValueError) as exc:
        raise BundleError(f"malformed real value {obj!r}") from exc
    if not math.isfinite(value):
        raise BundleError(f"non-finite value {obj!r} in bundle")
    return value


def _enc_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise BundleError("cannot serialize an array with non-finite values")
    return {"shape": list(arr.shape), "f64le": base64.b64encode(arr.astype("<f8").tobytes()).decode()}


def _dec_array(obj) -> np.ndarray:
    try:
        shape = obj["shape"]
        raw = base64.b64decode(obj["f64le"], validate=True)
    except (TypeError, KeyError, ValueError) as exc:  # binascii.Error is a ValueError
        raise BundleError(f"malformed array payload: {exc}") from exc
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise BundleError(f"malformed array shape {shape!r}")
    if len(raw) != 8 * math.prod(shape):
        raise BundleError("array payload does not match its shape")
    arr = np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise BundleError("non-finite value in array payload")
    return arr


def _dec_ints(obj) -> np.ndarray:
    if not isinstance(obj, list) or not all(type(v) is int for v in obj):
        raise BundleError("malformed integer array in forest payload")
    return np.array(obj, dtype=np.int64)


def _opt_int(v):
    return None if v is None else int(v)


def _encode_model(model: Any) -> tuple[str, dict]:
    if isinstance(model, ScalerParams):
        return "scaler", {"mean": _enc_array(model.mean), "std": _enc_array(model.std)}
    if isinstance(model, PcaModel):
        return "pca", {
            "mean": _enc_array(model.mean),
            "components": _enc_array(model.components),
            "eigenvalues": _enc_array(model.eigenvalues),
            "energy_captured": _enc_real(model.energy_captured),
        }
    if isinstance(model, ForestModel):
        # Node arrays; indices and class counts (flattened row-major) stay plain ints.
        counts = model.n_classes is not None
        return "forest", {
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": _enc_array(t.threshold),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.reshape(-1).tolist() if counts else _enc_array(t.value),
                }
                for t in model.trees
            ],
            "n_estimators": model.n_estimators,
            "max_depth": model.max_depth,
            "features_per_split": model.features_per_split,
            "seed": model.seed,
            "n_features": model.n_features,
            "n_classes": model.n_classes,
            "min_leaf": model.min_leaf,
        }
    if isinstance(model, SvmModel):
        return "svm", {
            "kernel": {
                "kind": model.kernel.kind,
                "degree": model.kernel.degree,
                "gamma": _enc_real(model.kernel.gamma),
                "coef0": _enc_real(model.kernel.coef0),
            },
            "C": _enc_real(model.C),
            "support_vectors": _enc_array(model.support_vectors),
            "dual_coefs": _enc_array(model.dual_coefs),
            "bias": _enc_real(model.bias),
            "converged": bool(model.converged),
        }
    if isinstance(model, MlpModel):
        payload = {
            "layer_sizes": list(model.layer_sizes),
            "weights": [_enc_array(w) for w in model.weights],
            "biases": [_enc_array(b) for b in model.biases],
            "activation": model.activation,
            "dropout_rate": _enc_real(model.dropout_rate),
            "batchnorm": None,
        }
        if model.batchnorm is not None:
            payload["batchnorm"] = [
                {
                    "gamma": _enc_array(bn.gamma),
                    "beta": _enc_array(bn.beta),
                    "running_mean": _enc_array(bn.running_mean),
                    "running_var": _enc_array(bn.running_var),
                }
                for bn in model.batchnorm
            ]
        return "mlp", payload
    if isinstance(model, RidgeModel):
        return "ridge", {
            "coefficients": _enc_array(model.coefficients),
            "intercept": _enc_real(model.intercept),
            "alpha": _enc_real(model.alpha),
        }
    if isinstance(model, ToxTreePipeline):
        return "pipeline", _encode_pipeline(model)
    raise BundleError(f"unsupported model type {type(model).__name__}")


def _encode_pipeline(pipeline: ToxTreePipeline) -> dict:
    pre = pipeline.preprocessing
    chain = {
        "whitelist": list(pre.whitelist) if pre.whitelist is not None else None,
        "scaler": _encode_model(pre.scaler)[1] if pre.scaler is not None else None,
        "pca": _encode_model(pre.pca)[1] if pre.pca is not None else None,
    }
    stages = []
    for stage in pipeline.stages:
        if isinstance(stage, ConsensusPair):
            stages.append(
                {
                    "type": "consensus",
                    "prob_tolerance": _enc_real(stage.prob_tolerance),
                    "members": [_encode_submodel(stage.model_a), _encode_submodel(stage.model_b)],
                }
            )
        else:
            stages.append({"type": "submodel", **_encode_submodel(stage)})
    return {"preprocessing": chain, "stages": stages}


def _encode_submodel(sub: SubModel) -> dict:
    kind, payload = _encode_model(sub.model)
    return {
        "name": sub.name,
        "threshold": _enc_real(sub.threshold),
        "positive_class": sub.positive_class,
        "model_kind": kind,
        "model": payload,
    }


def _decode_model(kind: str, payload: dict) -> Any:
    try:
        if kind == "scaler":
            return ScalerParams(_dec_array(payload["mean"]), _dec_array(payload["std"]))
        if kind == "pca":
            return PcaModel(
                _dec_array(payload["mean"]),
                _dec_array(payload["components"]),
                _dec_array(payload["eigenvalues"]),
                _dec_real(payload["energy_captured"]),
            )
        if kind == "forest":
            # Tree and ForestModel reject inconsistent arrays, out-of-range
            # features and child links that do not point forward.
            n_classes = _opt_int(payload["n_classes"])

            def dec_value(obj) -> np.ndarray:
                return _dec_array(obj) if n_classes is None else _dec_ints(obj).reshape(-1, n_classes)

            return ForestModel(
                trees=[
                    Tree(
                        _dec_ints(t["feature"]),
                        _dec_array(t["threshold"]),
                        _dec_ints(t["left"]),
                        _dec_ints(t["right"]),
                        dec_value(t["value"]),
                    )
                    for t in payload["trees"]
                ],
                n_estimators=int(payload["n_estimators"]),
                max_depth=_opt_int(payload["max_depth"]),
                features_per_split=int(payload["features_per_split"]),
                seed=int(payload["seed"]),
                n_features=int(payload["n_features"]),
                n_classes=n_classes,
                min_leaf=int(payload["min_leaf"]),
            )
        if kind == "svm":
            spec = KernelSpec(
                payload["kernel"]["kind"],
                int(payload["kernel"]["degree"]),
                _dec_real(payload["kernel"]["gamma"]),
                _dec_real(payload["kernel"]["coef0"]),
            )
            return SvmModel(
                kernel=spec,
                C=_dec_real(payload["C"]),
                support_vectors=_dec_array(payload["support_vectors"]),
                dual_coefs=_dec_array(payload["dual_coefs"]),
                bias=_dec_real(payload["bias"]),
                converged=bool(payload["converged"]),
            )
        if kind == "mlp":
            bn = None
            if payload["batchnorm"] is not None:
                bn = [
                    BatchNormParams(
                        _dec_array(entry["gamma"]),
                        _dec_array(entry["beta"]),
                        _dec_array(entry["running_mean"]),
                        _dec_array(entry["running_var"]),
                    )
                    for entry in payload["batchnorm"]
                ]
            return MlpModel(
                layer_sizes=tuple(int(s) for s in payload["layer_sizes"]),
                weights=[_dec_array(w) for w in payload["weights"]],
                biases=[_dec_array(b) for b in payload["biases"]],
                activation=payload["activation"],
                dropout_rate=_dec_real(payload["dropout_rate"]),
                batchnorm=bn,
                mode="eval",
            )
        if kind == "ridge":
            return RidgeModel(
                _dec_array(payload["coefficients"]),
                _dec_real(payload["intercept"]),
                _dec_real(payload["alpha"]),
            )
        if kind == "pipeline":
            return _decode_pipeline(payload)
    except BundleError:
        raise
    except Exception as exc:
        raise BundleError(f"malformed {kind} payload: {exc}") from exc
    raise BundleError(f"unknown bundle kind {kind!r}")


def _decode_submodel(obj: dict) -> SubModel:
    return SubModel(
        name=obj["name"],
        threshold=_dec_real(obj["threshold"]),
        model=_decode_model(obj["model_kind"], obj["model"]),
        positive_class=int(obj["positive_class"]),
    )


def _decode_pipeline(payload: dict) -> ToxTreePipeline:
    chain_obj = payload["preprocessing"]
    chain = PreprocessChain(
        whitelist=list(chain_obj["whitelist"]) if chain_obj["whitelist"] is not None else None,
        scaler=_decode_model("scaler", chain_obj["scaler"]) if chain_obj["scaler"] is not None else None,
        pca=_decode_model("pca", chain_obj["pca"]) if chain_obj["pca"] is not None else None,
    )
    stages = []
    for stage_obj in payload["stages"]:
        if stage_obj["type"] == "consensus":
            a, b = stage_obj["members"]
            stages.append(
                ConsensusPair(
                    _decode_submodel(a),
                    _decode_submodel(b),
                    _dec_real(stage_obj["prob_tolerance"]),
                )
            )
        elif stage_obj["type"] == "submodel":
            stages.append(_decode_submodel(stage_obj))
        else:
            raise BundleError(f"unknown stage type {stage_obj.get('type')!r}")
    return ToxTreePipeline(chain, stages)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _payload_digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def save_bundle(
    model: Any,
    sink,
    seed: int | None = None,
    fingerprint: str | None = None,
    created_at: str | None = None,
    hyperparameters: dict | None = None,
) -> None:
    """Serialize a model (or whole pipeline) to a versioned JSON bundle.

    Explicit metadata arguments win; otherwise metadata carried over from a
    previous load is reused, falling back to deterministic defaults (the
    created_at default is a fixed constant so identical models always produce
    identical bytes).
    """
    carried = getattr(model, _METADATA_ATTR, None) or {}
    metadata = {
        "created_at": created_at if created_at is not None else carried.get("created_at", DEFAULT_CREATED_AT),
        "seed": seed if seed is not None else carried.get("seed"),
        "fingerprint": fingerprint if fingerprint is not None else carried.get("fingerprint"),
        "hyperparameters": hyperparameters if hyperparameters is not None else carried.get("hyperparameters"),
    }
    kind, payload = _encode_model(model)
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "metadata": metadata,
        "payload": payload,
        "payload_sha256": _payload_digest(payload),
    }
    text = _canonical(bundle) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(os.fspath(sink), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def load_bundle(source) -> Any:
    """Restore a model from a bundle; predictions are bit-identical to the
    saved model's. Version mismatches, digests that do not check out, and
    malformed payloads all raise BundleError."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        bundle = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(bundle, dict):
        raise BundleError("bundle must be a JSON object")
    version = bundle.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BundleError(
            f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    for key in ("kind", "payload", "payload_sha256", "metadata"):
        if key not in bundle:
            raise BundleError(f"bundle is missing the {key!r} field")
    if not isinstance(bundle["metadata"], dict):
        raise BundleError("bundle metadata must be a JSON object")
    if _payload_digest(bundle["payload"]) != bundle["payload_sha256"]:
        raise BundleError("payload digest mismatch (bundle corrupted or truncated)")
    model = _decode_model(bundle["kind"], bundle["payload"])
    object.__setattr__(model, _METADATA_ATTR, bundle["metadata"])
    return model
