"""Gini decision trees and bagged random forests (classifier and regressor).

Each tree draws its bootstrap and feature subsets from a generator seeded by
(forest seed, tree index), so a forest is bit-identical for a fixed seed no
matter how many threads build it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..dataset import LabeledDataset
from ..errors import InvalidInputError


@dataclass
class Tree:
    """One tree as parallel node arrays in preorder; node 0 is the root.

    ``feature`` is -1 at leaves, where ``threshold``, ``left`` and ``right``
    are unused. ``value`` holds each node's class counts (n_nodes x n_classes)
    for classifiers, or its target mean (n_nodes,) for regressors; predictions
    read it at leaves. Children always have larger indices than their parent,
    so every walk from the root ends at a leaf. The arrays are read-only once
    the tree is built: prediction walks copies taken at construction.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value)
        n = self.feature.shape[0]
        arrays = (self.feature, self.threshold, self.left, self.right)
        if n == 0 or any(a.shape != (n,) for a in arrays) or self.value.shape[:1] != (n,):
            raise InvalidInputError("tree node arrays must be non-empty and of equal length")
        if np.any(self.feature < -1):
            raise InvalidInputError("tree feature indices must be -1 (leaf) or nonnegative")
        inner = np.flatnonzero(self.feature >= 0)
        for child in (self.left[inner], self.right[inner]):
            if np.any(child <= inner) or np.any(child >= n):
                raise InvalidInputError("tree children must follow their parent and stay below the node count")
        # The per-row walk reads plain lists (numpy scalar indexing is slower),
        # and each node's output (winning class or mean) is derived once here.
        self._nodes = (self.feature.tolist(), self.threshold.tolist(), self.left.tolist(), self.right.tolist())
        self._output = (self.value.argmax(axis=1) if self.value.ndim == 2 else self.value).tolist()

    def depth(self) -> int:
        depth = np.zeros(len(self.feature), dtype=int)
        for i in np.flatnonzero(self.feature >= 0):  # parents precede children
            depth[self.left[i]] = depth[self.right[i]] = depth[i] + 1
        return int(depth.max())

    def predict(self, row: list[float]):
        """Winning class (classifier) or mean (regressor) of the leaf ``row`` reaches."""
        feature, threshold, left, right = self._nodes
        node = 0
        while feature[node] >= 0:
            node = left[node] if row[feature[node]] <= threshold[node] else right[node]
        return self._output[node]


def _gini_from_counts(counts: np.ndarray, total: int) -> float:
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.dot(p, p))


def _sorted_block(x, feature_ids):
    """The sampled columns sorted independently (stable), with each column's row order."""
    block = x[:, feature_ids]
    order = np.argsort(block, axis=0, kind="stable")
    return block[order, np.arange(block.shape[1])], order


def _pick_split(gain, xs, feature_ids, tol=0.0):
    """Winner over a (candidate, feature) gain matrix.

    Ties break to the lowest feature index (features scanned ascending, strict
    improvement by more than ``tol``) and then the lowest threshold (first
    argmax within a feature).
    """
    gain[xs[:-1] == xs[1:]] = -np.inf  # no threshold between equal values
    rows = np.argmax(gain, axis=0)
    best_j, best_gain = None, 0.0
    for j, g in enumerate(gain[rows, np.arange(gain.shape[1])].tolist()):
        if g > best_gain + tol:
            best_j, best_gain = j, g
    if best_j is None:
        return None, None, 0.0
    i = rows[best_j]
    return feature_ids[best_j], (xs[i, best_j] + xs[i + 1, best_j]) / 2.0, best_gain


def _best_gini_split(x, y, n_classes, feature_ids):
    """Best (feature, threshold, gain) over midpoint candidates of every
    sampled feature at once; ties break as in ``_pick_split``."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes)
    parent_gini = _gini_from_counts(parent_counts, n)
    xs, order = _sorted_block(x, feature_ids)
    onehot = (y[order][:, :, None] == np.arange(n_classes)).astype(float)
    left = np.cumsum(onehot, axis=0)[:-1]  # (n - 1, features, classes)
    right = parent_counts - left
    nl = np.arange(1, n, dtype=float)[:, None]
    nr = n - nl
    gini_l = 1.0 - ((left / nl[:, :, None]) ** 2).sum(axis=2)
    gini_r = 1.0 - ((right / nr[:, :, None]) ** 2).sum(axis=2)
    gain = parent_gini - (nl / n * gini_l + nr / n * gini_r)
    return _pick_split(gain, xs, feature_ids)


def _best_sse_split(x, y, feature_ids):
    """Best split by within-node squared-error reduction (regression)."""
    n = len(y)
    total_sum = y.sum()
    total_sq = (y * y).sum()
    parent_sse = total_sq - total_sum * total_sum / n
    xs, order = _sorted_block(x, feature_ids)
    ys = y[order]
    left_sum = np.cumsum(ys, axis=0)[:-1]
    left_sq = np.cumsum(ys * ys, axis=0)[:-1]
    nl = np.arange(1, n, dtype=float)[:, None]
    nr = n - nl
    right_sum = total_sum - left_sum
    right_sq = total_sq - left_sq
    sse = (left_sq - left_sum**2 / nl) + (right_sq - right_sum**2 / nr)
    gain = parent_sse - sse
    return _pick_split(gain, xs, feature_ids, tol=1e-12 * max(1.0, abs(parent_sse)))


def _leaf_mean(y: np.ndarray) -> float:
    # Unanimous targets return the exact value (float mean is not always exact).
    if np.all(y == y[0]):
        return float(y[0])
    return float(y.mean())


def tree_fit(
    x: np.ndarray,
    y: np.ndarray,
    max_depth: int | None,
    min_leaf: int,
    features_per_split: int,
    rng: np.random.Generator,
    n_classes: int | None = None,
    regression: bool = False,
) -> Tree:
    """Grow one tree by recursive best-gain splits over a random feature subset.

    Stops on max_depth, pure nodes, nodes smaller than min_leaf, or when no
    split improves the criterion. Nodes are written in preorder.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidInputError("tree_fit needs a non-empty 2-D matrix")
    if not regression:
        y = y.astype(int)
        if n_classes is None:
            n_classes = int(y.max()) + 1 if y.size else 1
    else:
        y = y.astype(float)
    d = x.shape[1]
    features_per_split = min(max(features_per_split, 1), d)
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(idx, depth):
        node = len(feature)
        yy = y[idx]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(_leaf_mean(yy) if regression else np.bincount(yy, minlength=n_classes))
        pure = np.all(yy == yy[0])
        if (
            pure
            or (max_depth is not None and depth >= max_depth)
            or len(idx) < min_leaf
            or len(idx) < 2
        ):
            return node
        if features_per_split < d:
            feats = np.sort(rng.choice(d, size=features_per_split, replace=False))
        else:
            feats = np.arange(d)
        xx = x[idx]
        if regression:
            f, split, gain = _best_sse_split(xx, yy, feats)
        else:
            f, split, gain = _best_gini_split(xx, yy, n_classes, feats)
        if f is None or gain <= 0.0:
            return node
        go_left = xx[:, f] <= split
        feature[node] = int(f)
        threshold[node] = float(split)
        left[node] = grow(idx[go_left], depth + 1)
        right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(x.shape[0]), 0)
    return Tree(feature, threshold, left, right, np.array(value, dtype=float if regression else np.int64))


@dataclass
class ForestModel:
    """Bagged tree ensemble.

    Classifiers (``n_classes`` set) vote over class indices with Gini trees;
    regressors (``n_classes`` None) average squared-error trees' leaf means.
    """

    trees: list[Tree]
    n_estimators: int
    max_depth: int | None
    features_per_split: int
    seed: int
    n_features: int
    n_classes: int | None
    min_leaf: int = 2

    def __post_init__(self):
        if len(self.trees) != self.n_estimators:
            raise InvalidInputError(f"forest has {len(self.trees)} trees but n_estimators={self.n_estimators}")
        value_shape = () if self.n_classes is None else (self.n_classes,)
        for tree in self.trees:
            if tree.feature.max() >= self.n_features:
                raise InvalidInputError(f"tree splits on a feature outside the model's {self.n_features}")
            if tree.value.shape[1:] != value_shape:
                raise InvalidInputError(f"tree values have shape {tree.value.shape[1:]}, expected {value_shape}")

    def observed_max_depth(self) -> int:
        return max(t.depth() for t in self.trees)


def _default_features_per_split(d: int) -> int:
    return max(1, math.ceil(math.sqrt(d)))


def _fit_forest(
    x, y, n_classes, n_estimators, max_depth, seed, features_per_split, min_leaf, threads
) -> ForestModel:
    """Fit n_estimators trees, each on its own N-row bootstrap; n_classes None
    grows regression trees."""
    if n_estimators < 1:
        raise InvalidInputError("n_estimators must be at least 1")
    if threads < 1:
        raise InvalidInputError(f"threads must be at least 1, got {threads}")
    d = x.shape[1]
    fps = features_per_split if features_per_split is not None else _default_features_per_split(d)

    def build(i: int) -> Tree:
        rng = np.random.default_rng((seed, i))
        boot = rng.integers(0, x.shape[0], x.shape[0])
        return tree_fit(
            x[boot], y[boot], max_depth, min_leaf, fps, rng, n_classes=n_classes, regression=n_classes is None
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, range(n_estimators)))
    else:
        trees = [build(i) for i in range(n_estimators)]
    return ForestModel(trees, n_estimators, max_depth, fps, seed, d, n_classes, min_leaf)


def forest_fit(
    dataset: LabeledDataset,
    n_estimators: int,
    max_depth: int | None = None,
    seed: int = 0,
    features_per_split: int | None = None,
    min_leaf: int = 2,
    threads: int = 1,
) -> ForestModel:
    """Gini classification forest over the dataset's class indices."""
    if dataset.matrix.shape[0] == 0:
        raise InvalidInputError("cannot fit a forest on an empty dataset")
    return _fit_forest(
        dataset.matrix, dataset.labels, len(dataset.class_names),
        n_estimators, max_depth, seed, features_per_split, min_leaf, threads,
    )


def forest_regress_fit(
    x: np.ndarray,
    y: np.ndarray,
    n_estimators: int,
    max_depth: int | None = None,
    seed: int = 0,
    features_per_split: int | None = None,
    min_leaf: int = 2,
    threads: int = 1,
) -> ForestModel:
    """Bagged regression trees; splits minimize within-node squared error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or y.shape != (x.shape[0],):
        raise InvalidInputError("x must be 2-D with one target per row")
    return _fit_forest(x, y, None, n_estimators, max_depth, seed, features_per_split, min_leaf, threads)


def _row_values(model: ForestModel, row: np.ndarray) -> list[float]:
    row = np.asarray(row, dtype=float)
    if row.shape != (model.n_features,):
        raise InvalidInputError(
            f"row has {row.shape} shape, model expects ({model.n_features},)"
        )
    return row.tolist()


def forest_vote_counts(model: ForestModel, row: np.ndarray) -> np.ndarray:
    """Integer votes per class; sums to n_estimators exactly."""
    if model.n_classes is None:
        raise InvalidInputError("vote counts need a classification forest")
    values = _row_values(model, row)
    votes = [0] * model.n_classes
    for tree in model.trees:
        votes[tree.predict(values)] += 1
    return np.array(votes)


def forest_predict_proba(model: ForestModel, row: np.ndarray) -> np.ndarray:
    """Fraction of trees voting each class."""
    return forest_vote_counts(model, row) / model.n_estimators


def forest_predict(model: ForestModel, row: np.ndarray) -> int:
    """Majority-vote class; ties resolve to the lower class index."""
    return int(np.argmax(forest_vote_counts(model, row)))


def forest_predict_many(model: ForestModel, matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    return np.array([forest_predict(model, r) for r in matrix], dtype=int)


def forest_regress_predict(model: ForestModel, row: np.ndarray) -> float:
    if model.n_classes is not None:
        raise InvalidInputError("regression predictions need a regression forest")
    values = _row_values(model, row)
    leaf_means = np.array([tree.predict(values) for tree in model.trees])
    if np.all(leaf_means == leaf_means[0]):
        return float(leaf_means[0])
    return float(leaf_means.mean())
