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
    """Bundle text after an edit, with the payload digest recomputed so only
    the decoder's own checks can reject it."""
    canonical = json.dumps(bundle["payload"], sort_keys=True, separators=(",", ":"))
    bundle["payload_sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return json.dumps(bundle)
