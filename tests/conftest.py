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


def _cuts(tree: dict, count: int) -> dict:
    """The first ``count`` cuts of an encoded tree's packed thresholds."""
    raw = base64.b64decode(tree["threshold"]["f64le"])[: 8 * count]
    return {"shape": [count], "f64le": base64.b64encode(raw).decode()}


def _leaf_rows(tree: dict, count: int) -> dict:
    """The first ``count`` class-count rows of an encoded tree's leaves."""
    width = tree["value"]["shape"][1]
    return {"shape": [count, width], "ints": tree["value"]["ints"][: count * width]}


def _reshaped(feature):
    """Edit giving an encoded tree ``feature`` with as many cuts and leaf rows
    as it has splits and leaves, so only the tree's shape can be refused."""

    def edit(tree):
        splits = sum(f >= 0 for f in feature)
        tree.update(feature=feature, threshold=_cuts(tree, splits), value=_leaf_rows(tree, len(feature) - splits))

    return edit


# Edits, by test id, that leave an encoded classification tree (whose root
# splits) malformed in its compact preorder form; each must be refused on load.
MALFORMED_TREE_EDITS = {
    "cut-count-not-split-count": lambda t: t.update(threshold=_cuts(t, t["threshold"]["shape"][0] - 1)),
    "leaf-rows-not-leaf-count": lambda t: t.update(value=_leaf_rows(t, t["value"]["shape"][0] - 1)),
    "split-without-right-child": _reshaped([0, -1]),
    "node-after-closed-tree": _reshaped([-1, -1]),
}
