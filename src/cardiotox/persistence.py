"""Versioned JSON bundles for every trained artifact.

A bundle holds one object from a fixed table of dataclasses, and their fields
are the schema: an object is stored as a ``type`` tag plus its fields, each
decoded field must fit its annotation, and the object is rebuilt through its
own constructor, so each class's checks validate what is loaded. Every
numeric array is stored packed with its shape: floats as base64
little-endian float64, integers at the narrowest little-endian signed width
(8, 16, 32 or 64 bits) that holds their values; float scalars are hex
floats (lossless round trips), and ints, strings, bools and None plain
JSON. A 2-D float array is stored as a packed integer array of row indices
into one bundle-level table per row width, which holds each distinct row
once (as LIBSVM's multi-class model stores the union of its support
vectors), so SVM stages fitted to one set of rows share them. No class needs
its own code: a ``ForestModel``, for one, is four flat arrays (every tree's
preorder features, cuts and leaf values end to end, and each tree's node
count), and its constructor derives and checks the trees. A digest over the
payload and the row tables catches corruption.
Saving is deterministic, and metadata rides along on loaded models so
save(load(f)) reproduces f byte for byte.
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

SCHEMA_VERSION = 7
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
# What a list of plain values (such as a whitelist) may hold; reals are only ever {"hex"}.
_PLAIN = {int, str, bool, type(None)}
# Packed array payload keys and their little-endian dtypes.
_INTS = {"i8le": "<i1", "i16le": "<i2", "i32le": "<i4", "i64le": "<i8"}
_PACKED = {"f64le": "<f8", **_INTS}


def _packed_ints(values: np.ndarray) -> dict:
    """An integer array at the narrowest signed width that holds its values."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    for key, dtype in _INTS.items():
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return {"shape": list(values.shape), key: base64.b64encode(values.astype(dtype).tobytes()).decode()}
    raise BundleError(f"cannot serialize integers outside 64 bits ({lo}..{hi})")


def _encode(value, tables: dict[int, dict[bytes, int]]) -> Any:
    """A payload value; each 2-D float array's rows go into ``tables``, one
    {row bytes: index} table per width, keyed by exact bytes so -0.0 stays
    apart from 0.0."""
    cls = type(value)
    if cls in _TAGS:
        # Sorted, not set order: tables fill in this order, and set order follows the string hash.
        fields = {name: _encode(getattr(value, name), tables) for name in sorted(_STORED_FIELDS[cls])}
        return {_TYPE_KEY: _TAGS[cls], **fields}
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu":
            return _packed_ints(value)
        value = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(value)):
            raise BundleError("cannot serialize an array with non-finite values")
        if value.ndim != 2:
            return {"shape": list(value.shape), "f64le": base64.b64encode(value.astype("<f8").tobytes()).decode()}
        table = tables.setdefault(value.shape[1], {})
        rows = [table.setdefault(row.tobytes(), len(table)) for row in value.astype("<f8")]
        return {"shape": list(value.shape), "rows": _packed_ints(np.array(rows, dtype=np.int64))}
    if isinstance(value, (list, tuple)):
        return [_encode(v, tables) for v in value]
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


def _shape(obj: dict, where: str) -> list[int]:
    shape = obj.get("shape")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise BundleError(f"malformed array shape {shape!r} in {where}")
    return shape


def _unpacked(obj: dict, where: str) -> np.ndarray:
    """A packed array: float64, or int64 from any width; exactly one payload key."""
    shape = _shape(obj, where)
    keys = sorted(obj.keys() - {"shape"})
    if len(keys) != 1 or keys[0] not in _PACKED:
        raise BundleError(f"array in {where} needs one payload key of {sorted(_PACKED)}, got {keys}")
    dtype = np.dtype(_PACKED[keys[0]])
    try:
        raw = base64.b64decode(obj[keys[0]], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise BundleError(f"malformed array payload in {where}: {exc}") from exc
    if len(raw) != dtype.itemsize * math.prod(shape):
        raise BundleError(f"array payload does not match its shape in {where}")
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if dtype.kind == "i":
        return arr.astype(np.int64)
    if not np.all(np.isfinite(arr)):
        raise BundleError(f"non-finite value in array payload in {where}")
    return arr.astype(float)


class _RowTables:
    """A bundle's row tables by width, each decoded when an array first refers to it."""

    def __init__(self, packed: dict):
        self.packed = packed
        self.decoded: dict[int, np.ndarray] = {}

    def take(self, index: dict, shape: list[int], where: str) -> np.ndarray:
        if len(shape) != 2:
            raise BundleError(f"row references need a 2-D shape, got {shape} in {where}")
        index = _unpacked(index, where) if isinstance(index, dict) else None
        if index is None or index.dtype.kind != "i" or index.shape != (shape[0],):
            raise BundleError(f"malformed row references in {where}: need {shape[0]} packed integer indices")
        table = self._table(shape[1], where)
        if index.size and not (index.min() >= 0 and index.max() < len(table)):
            raise BundleError(f"row reference out of range in {where}: the table holds {len(table)} rows")
        return table[index]

    def _table(self, width: int, where: str) -> np.ndarray:
        if width not in self.decoded:
            packed = self.packed.get(str(width))
            if not isinstance(packed, dict):
                raise BundleError(f"no row table {width} wide for {where}")
            at = f"the {width}-wide row table of {where}"
            table = _unpacked(packed, at)
            if table.dtype.kind != "f" or table.ndim != 2 or table.shape[1] != width:
                raise BundleError(f"malformed row table of shape {table.shape} in {at}")
            self.decoded[width] = table
        return self.decoded[width]

    def check_all_used(self) -> None:
        unused = self.packed.keys() - {str(width) for width in self.decoded}
        if unused:
            raise BundleError(f"row tables {sorted(unused)} are referenced by no array")


def _decode_array(obj: dict, where: str, tables: _RowTables) -> np.ndarray:
    """A packed array, or a 2-D float array's rows taken from the row tables."""
    if "rows" in obj:
        if obj.keys() != {"shape", "rows"}:
            raise BundleError(f"row references in {where} need only a shape and the rows, got {sorted(obj)}")
        return tables.take(obj["rows"], _shape(obj, where), where)
    return _unpacked(obj, where)


def _fits(value, hint) -> bool:
    """Whether a decoded value may stand in a field annotated ``hint``. Only
    table classes are built, so a class hint is met by its own class alone."""
    if type(value) is hint or (hint is float and type(value) is int):
        return True  # int, float, bool, str, None and the table classes
    if hint is np.ndarray:
        return isinstance(value, np.ndarray)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        return any(_fits(value, a) for a in args)
    if origin in (list, tuple):
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    return False


def _decode(obj, where: str, tables: _RowTables) -> Any:
    """Rebuild a payload value; ``where`` is the path of type tags above it,
    then ``.field`` for a field's value."""
    if isinstance(obj, list):
        if set(map(type, obj)) <= _PLAIN:
            return obj
        return [_decode(v, where, tables) for v in obj]
    if isinstance(obj, float):
        raise BundleError(f"bare number {obj!r} in {where}; reals are stored as {{\"hex\": ...}}")
    if not isinstance(obj, dict):
        return obj
    if _TYPE_KEY not in obj:
        return _decode_real(obj, where) if "hex" in obj else _decode_array(obj, where, tables)
    tag = obj[_TYPE_KEY]
    cls = BUNDLE_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise BundleError(f"unknown bundle type {tag!r} in {where}")
    where = f"{where.split('.')[0]}/{tag}"
    names = obj.keys() - {_TYPE_KEY}
    if names != _STORED_FIELDS[cls]:
        raise BundleError(f"malformed {where}: fields {sorted(names ^ _STORED_FIELDS[cls])} missing or unknown")
    fields = {name: _decode(obj[name], f"{where}.{name}", tables) for name in names}
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


def _payload_digest(payload: dict, rows: dict) -> str:
    return hashlib.sha256(_canonical({"payload": payload, "rows": rows}).encode("utf-8")).hexdigest()


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
    tables: dict[int, dict[bytes, int]] = {}
    payload = _encode(model, tables)
    rows = {
        str(width): {"shape": [len(table), width], "f64le": base64.b64encode(b"".join(table)).decode()}
        for width, table in tables.items()
    }
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "metadata": metadata,
        "payload": payload,
        "rows": rows,
        "payload_sha256": _payload_digest(payload, rows),
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
    for key in ("payload", "rows", "payload_sha256", "metadata"):
        if key not in bundle:
            raise BundleError(f"bundle is missing the {key!r} field")
    for key in ("metadata", "rows"):
        if not isinstance(bundle[key], dict):
            raise BundleError(f"bundle {key} must be a JSON object")
    if _payload_digest(bundle["payload"], bundle["rows"]) != bundle["payload_sha256"]:
        raise BundleError("payload digest mismatch (bundle corrupted or truncated)")
    if not isinstance(bundle["payload"], dict) or _TYPE_KEY not in bundle["payload"]:
        raise BundleError(f"bundle payload must be an object with a {_TYPE_KEY!r} tag")
    tables = _RowTables(bundle["rows"])
    model = _decode(bundle["payload"], "payload", tables)
    tables.check_all_used()
    object.__setattr__(model, _METADATA_ATTR, bundle["metadata"])
    return model
