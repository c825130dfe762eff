"""Versioned JSON bundles for every trained artifact.

A bundle holds one object from a fixed table of dataclasses, and their fields
are the schema: an object is stored as a ``type`` tag plus its fields, each
decoded field must fit its annotation, and the object is rebuilt through its
own constructor, so each class's checks validate what is loaded. Float
arrays are stored as base64 little-endian float64 with their shape and float
scalars as hex floats (lossless round trips); ints, strings, bools and None
are plain JSON; integer arrays are JSON int lists, flat with their shape
beyond one dimension. No class needs its own code: a ``Tree``, for one, is
its preorder ``feature`` list, one cut per split and one value row per leaf,
and its constructor derives and checks the children. A payload digest
catches corruption. Saving is deterministic, and metadata rides along on
loaded models so save(load(f)) reproduces f byte for byte.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import math
import types
import typing
from typing import Any

import numpy as np

from .dataset import text_stream
from .errors import BundleError
from .learners import BatchNormParams, ForestModel, KernelSpec, MlpModel, RidgeModel, SvmModel, Tree
from .pipeline import ConsensusPair, PreprocessChain, SubModel, ToxTreePipeline
from .preprocess import PcaModel, ScalerParams

SCHEMA_VERSION = 5
BUNDLE_EXTENSION = ".toxtree.json"
DEFAULT_CREATED_AT = "1970-01-01T00:00:00Z"

_METADATA_ATTR = "_bundle_metadata"
# Not "kind": KernelSpec has a field of that name.
_TYPE_KEY = "type"

# Every class a bundle may hold, by its type tag. Only these are ever built.
BUNDLE_TYPES = {
    "scaler": ScalerParams,
    "pca": PcaModel,
    "tree": Tree,
    "forest": ForestModel,
    "kernel": KernelSpec,
    "svm": SvmModel,
    "batchnorm": BatchNormParams,
    "mlp": MlpModel,
    "ridge": RidgeModel,
    "preprocessing": PreprocessChain,
    "submodel": SubModel,
    "consensus": ConsensusPair,
    "pipeline": ToxTreePipeline,
}
_TAGS = {cls: tag for tag, cls in BUNDLE_TYPES.items()}
# Left out: the training alphas are a diagnostic.
_NOT_STORED = {SvmModel: "alphas"}
_STORED_FIELDS = {
    cls: frozenset(f.name for f in dataclasses.fields(cls) if f.name != _NOT_STORED.get(cls))
    for cls in BUNDLE_TYPES.values()
}
# Each stored field's annotation, which its decoded value must fit (see _fits).
_HINTS = {cls: typing.get_type_hints(cls) for cls in BUNDLE_TYPES.values()}
# What a list of plain values (such as a tree's features) may hold; reals are only ever {"hex"}.
_PLAIN = {int, str, bool, type(None)}


def _encode(value) -> Any:
    cls = type(value)
    if cls in _TAGS:
        fields = {name: _encode(getattr(value, name)) for name in _STORED_FIELDS[cls]}
        return {_TYPE_KEY: _TAGS[cls], **fields}
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu":
            return value.tolist() if value.ndim == 1 else {"shape": list(value.shape), "ints": value.ravel().tolist()}
        value = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(value)):
            raise BundleError("cannot serialize an array with non-finite values")
        return {"shape": list(value.shape), "f64le": base64.b64encode(value.astype("<f8").tobytes()).decode()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise BundleError(f"cannot serialize non-finite value {value!r}")
        return {"hex": float(value).hex()}
    if value is None or isinstance(value, str):
        return value
    raise BundleError(f"cannot serialize a {cls.__name__} in a bundle")


def _decode_real(obj: dict, where: str) -> float:
    try:
        value = float.fromhex(obj["hex"])
    except (TypeError, ValueError) as exc:
        raise BundleError(f"malformed real value {obj!r} in {where}") from exc
    if not math.isfinite(value):
        raise BundleError(f"non-finite value {obj!r} in {where}")
    return value


def _decode_array(obj: dict, where: str) -> np.ndarray:
    """A float array, or an integer one whose elements its owner checks."""
    shape = obj.get("shape")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise BundleError(f"malformed array shape {shape!r} in {where}")
    size = math.prod(shape)
    if "ints" in obj:
        ints = obj["ints"]
        if not isinstance(ints, list) or len(ints) != size:
            raise BundleError(f"integer array payload does not match its shape in {where}")
        return np.fromiter(ints, dtype=object, count=size).reshape(shape)
    try:
        raw = base64.b64decode(obj["f64le"], validate=True)
    except (TypeError, KeyError, ValueError) as exc:  # binascii.Error is a ValueError
        raise BundleError(f"malformed array payload in {where}: {exc}") from exc
    if len(raw) != 8 * size:
        raise BundleError(f"array payload does not match its shape in {where}")
    arr = np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise BundleError(f"non-finite value in array payload in {where}")
    return arr


def _fits(value, hint) -> bool:
    """Whether a decoded value may stand in a field annotated ``hint``. Only
    table classes are built, so a class hint is met by its own class alone."""
    if type(value) is hint or (hint is float and type(value) is int):
        return True  # int, float, bool, str, None and the table classes
    if hint is np.ndarray:  # a decoded array, or a 1-D integer array's JSON list
        return isinstance(value, np.ndarray) or (isinstance(value, list) and set(map(type, value)) <= {int})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        return any(_fits(value, a) for a in args)
    if origin in (list, tuple):
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    return False


def _decode(obj, where: str) -> Any:
    """Rebuild a payload value; ``where`` is the path of type tags above it."""
    if isinstance(obj, list):
        if set(map(type, obj)) <= _PLAIN:
            return obj
        return [_decode(v, where) for v in obj]
    if isinstance(obj, float):
        raise BundleError(f"bare number {obj!r} in {where}; reals are stored as {{\"hex\": ...}}")
    if not isinstance(obj, dict):
        return obj
    if _TYPE_KEY not in obj:
        return _decode_real(obj, where) if "hex" in obj else _decode_array(obj, where)
    tag = obj[_TYPE_KEY]
    cls = BUNDLE_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise BundleError(f"unknown bundle type {tag!r} in {where}")
    where = f"{where}/{tag}"
    names = obj.keys() - {_TYPE_KEY}
    if names != _STORED_FIELDS[cls]:
        raise BundleError(f"malformed {where}: fields {sorted(names ^ _STORED_FIELDS[cls])} missing or unknown")
    fields = {name: _decode(obj[name], where) for name in names}
    for name, value in fields.items():
        if not _fits(value, _HINTS[cls][name]):
            raise BundleError(f"malformed {where}: field {name!r} cannot hold a {type(value).__name__}")
    try:
        return cls(**fields)
    except Exception as exc:  # each constructor's own checks reject what it cannot use
        raise BundleError(f"malformed {where}: {exc}") from exc


def _finite(text: str) -> float:
    """json.loads hook for each number with a fraction or exponent and for NaN
    and Infinity, which Python's json accepts: a bundle holds no non-finite value."""
    value = float(text)
    if not math.isfinite(value):
        raise BundleError(f"non-finite number {text} in bundle")
    return value


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


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
    if type(model) not in _TAGS:
        raise BundleError(f"unsupported model type {type(model).__name__}")
    carried = getattr(model, _METADATA_ATTR, None) or {}
    metadata = {
        "created_at": created_at if created_at is not None else carried.get("created_at", DEFAULT_CREATED_AT),
        "seed": seed if seed is not None else carried.get("seed"),
        "fingerprint": fingerprint if fingerprint is not None else carried.get("fingerprint"),
        "hyperparameters": hyperparameters if hyperparameters is not None else carried.get("hyperparameters"),
    }
    payload = _encode(model)
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "metadata": metadata,
        "payload": payload,
        "payload_sha256": _payload_digest(payload),
    }
    try:
        text = _canonical(bundle)
    except ValueError as exc:  # json refuses NaN and infinity in the metadata
        raise BundleError(f"cannot serialize bundle metadata: {exc}") from exc
    with text_stream(sink, "w") as stream:
        stream.write(text + "\n")


def load_bundle(source) -> Any:
    """Restore a model from a bundle; predictions are bit-identical to the
    saved model's. Version mismatches, digests that do not check out, and
    malformed payloads all raise BundleError."""
    with text_stream(source) as stream:
        text = stream.read()
    try:
        bundle = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise BundleError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(bundle, dict):
        raise BundleError("bundle must be a JSON object")
    version = bundle.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BundleError(f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}")
    for key in ("payload", "payload_sha256", "metadata"):
        if key not in bundle:
            raise BundleError(f"bundle is missing the {key!r} field")
    if not isinstance(bundle["metadata"], dict):
        raise BundleError("bundle metadata must be a JSON object")
    if _payload_digest(bundle["payload"]) != bundle["payload_sha256"]:
        raise BundleError("payload digest mismatch (bundle corrupted or truncated)")
    if not isinstance(bundle["payload"], dict) or _TYPE_KEY not in bundle["payload"]:
        raise BundleError(f"bundle payload must be an object with a {_TYPE_KEY!r} tag")
    model = _decode(bundle["payload"], "payload")
    object.__setattr__(model, _METADATA_ATTR, bundle["metadata"])
    return model
