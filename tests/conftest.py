import base64
import hashlib
import json

import numpy as np
import pytest

from cardiotox.dataset import LabeledDataset


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)


def make_blobs(rng, centers, per_class, scale=0.5):
    """Gaussian clusters, one class per center, rows grouped by class."""
    centers = np.asarray(centers, dtype=float)
    x = np.vstack([c + rng.normal(scale=scale, size=(per_class, centers.shape[1])) for c in centers])
    y = np.repeat(np.arange(len(centers)), per_class)
    return x, y


def labeled(x, y, names=None):
    if names is None:
        names = tuple(f"c{i}" for i in range(int(np.max(y)) + 1))
    return LabeledDataset(np.asarray(x, dtype=float), np.asarray(y, dtype=int), names)


def resigned(bundle: dict) -> str:
    """Bundle text after an edit, with the digest over the payload and the row
    tables recomputed so only the decoder's own checks can reject it."""
    signed = {"payload": bundle["payload"], "rows": bundle["rows"]}
    canonical = json.dumps(signed, sort_keys=True, separators=(",", ":"))
    bundle["payload_sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return json.dumps(bundle)


def packed_ints(values) -> dict:
    """An encoded integer array holding ``values``, 64 bits wide (the loader
    reads any width)."""
    values = np.asarray(values, dtype="<i8")
    return {"shape": list(values.shape), "i64le": base64.b64encode(values.tobytes()).decode()}


def unpacked_ints(array: dict) -> np.ndarray:
    """The values of an encoded integer array, at whatever width it is stored."""
    (key,) = array.keys() - {"shape"}
    width = int(key[1:-2]) // 8
    return np.frombuffer(base64.b64decode(array[key]), dtype=f"<i{width}").reshape(array["shape"])


def _cuts(forest: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(forest["threshold"]["f64le"]), dtype="<f8")


def _packed_cuts(cuts: np.ndarray) -> dict:
    return {"shape": [len(cuts)], "f64le": base64.b64encode(np.asarray(cuts, dtype="<f8").tobytes()).decode()}


def _first_tree_as(feature):
    """Edit giving an encoded forest's first tree the preorder ``feature``,
    keeping as many of its cuts and leaf rows as that has splits and leaves,
    so only the tree's shape can be refused."""

    def edit(forest):
        flat, nodes, value = (unpacked_ints(forest[name]) for name in ("feature", "tree_nodes", "value"))
        n = nodes[0]
        splits = int(np.sum(flat[:n] >= 0))
        new_splits = sum(f >= 0 for f in feature)
        new_leaves = len(feature) - new_splits
        cuts = _cuts(forest)
        forest.update(
            feature=packed_ints([*feature, *flat[n:]]),
            threshold=_packed_cuts(np.concatenate([cuts[:new_splits], cuts[splits:]])),
            value=packed_ints(np.concatenate([value[:new_leaves], value[n - splits:]])),
            tree_nodes=packed_ints([len(feature), *nodes[1:]]),
        )

    return edit


# Edits, by test id, that leave an encoded classification forest (whose
# first tree's root splits) malformed in its flat preorder form; each must
# be refused on load.
MALFORMED_TREE_EDITS = {
    "cut-count-not-split-count": lambda f: f.update(threshold=_packed_cuts(_cuts(f)[:-1])),
    "leaf-rows-not-leaf-count": lambda f: f.update(value=packed_ints(unpacked_ints(f["value"])[:-1])),
    "split-without-right-child": _first_tree_as([0, -1]),
    "node-after-closed-tree": _first_tree_as([-1, -1]),
}
