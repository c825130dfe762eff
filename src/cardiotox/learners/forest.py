"""Gini decision trees and bagged random forests (classifier and regressor).

Each tree draws its bootstrap and feature subsets from a generator seeded by
(forest seed, tree index), so a forest of n trees is the first n trees of any
larger forest with the same seed, and a grid search can score every tree
count on one forest. A forest's trees grow together in one thread: each step
scores one waiting node of every tree in one batched split search, while
each tree keeps its own preorder node numbering and its own generator
stream, so every tree is the one it would be if grown alone. A
classification tree holds its bootstrap as draw counts: each distinct drawn
row once, with the number of times it was drawn, so a split search sorts and
counts each row once however often it was drawn. Regression trees keep one
entry per draw (count 1), since their float running sums depend on row
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import LabeledDataset
from ..errors import InvalidInputError


def _node_ints(values, what: str) -> np.ndarray:
    """values as int64. Floats and bools are refused, not truncated or cast."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise InvalidInputError(f"tree {what} must be integers")
    return values.astype(np.int64, copy=False)


def _gini_from_counts(counts: np.ndarray, total: int) -> float:
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.dot(p, p))


def _leaf_mean(y: np.ndarray) -> float:
    # Unanimous targets return the exact value (float mean is not always exact).
    if np.all(y == y[0]):
        return float(y[0])
    return float(y.mean())


# Rows held (distinct bootstrap rows of a classification tree, draws of a
# regression tree) one lockstep step scores at most. A step always takes at
# least one node, so a larger node is scored alone; the cap bounds the
# batched search's working memory and does not change which splits are found.
_STEP_ROWS = 2048


def _check_tree_settings(max_depth, min_leaf, features_per_split) -> None:
    if features_per_split is not None and features_per_split < 1:
        raise InvalidInputError(f"features_per_split must be at least 1, got {features_per_split}")
    if max_depth is not None and max_depth < 0:
        raise InvalidInputError(f"max_depth must be nonnegative, got {max_depth}")
    if min_leaf < 1:
        raise InvalidInputError(f"min_leaf must be at least 1, got {min_leaf}")


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """Each cell's rank among its column's distinct values (NaNs share one).

    Ordering a node's rows by rank orders them by value with the same ties,
    so a stable sort on ranks is the stable sort on values."""
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    new_value = (xs[1:] != xs[:-1]) & ~(np.isnan(xs[1:]) & np.isnan(xs[:-1]))
    ranks = np.zeros(x.shape, dtype=np.int32)
    np.put_along_axis(ranks, order[1:], np.cumsum(new_value, axis=0), axis=0)
    return ranks


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort along the last axis of integer keys in [0, bound).

    numpy radix-sorts 16-bit keys, several times faster than its general
    stable sort; the order is the same."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, axis=-1, kind="stable")


def _class_sum(q: np.ndarray) -> np.ndarray:
    """``q`` summed over its leading class axis, bit for bit as numpy sums a
    contiguous row of classes. Two terms add to the same double in either
    order, so the binary case skips numpy's slow length-2 reduction."""
    if len(q) == 2:
        return q[0] + q[1]
    return np.moveaxis(q, 0, -1).copy().sum(axis=-1)


def _gini_gains(ys, ws, values, drawn, seg, nl, nr, n, n_left):
    """Gini decrease at every (feature slot, sorted row) cut; ``ys`` holds
    the class and ``ws`` the draw count of each sorted row, ``values`` each
    node's class counts and ``n_left`` the drawn rows left of each cut.
    Counts left of a cut are integer running sums of draw counts less those
    of the nodes before, so they are exact; class 0's are the rest of
    ``n_left``. Each node's own impurity stays a per-node
    ``_gini_from_counts``: its dot product rounds differently from an
    elementwise sum of squares."""
    classes = np.arange(1, values.shape[1])[:, None, None]
    before = (np.cumsum(values, axis=0) - values).T[1:, None, seg]  # (class 1.., 1, row)
    left = np.empty((len(classes) + 1, *ys.shape), dtype=np.int64)  # (class, slot, row)
    np.subtract(((ys == classes) * ws).cumsum(axis=2), before, out=left[1:])
    np.subtract(n_left, left[1:].sum(axis=0), out=left[0])
    right = values.T[:, None, seg] - left
    parent = np.array([_gini_from_counts(c, total) for c, total in zip(values, drawn.tolist())])
    gini_l = 1.0 - _class_sum((left / nl) ** 2)
    gini_r = 1.0 - _class_sum((right / nr) ** 2)
    return parent[seg] - (nl / n * gini_l + nr / n * gini_r), 0.0


def _sse_gains(ys, y_nodes, drawn, seg, starts, ends, nl, nr):
    """Squared-error decrease at every cut; ``ys`` holds the sorted targets
    and ``y_nodes`` each node's targets in node order.

    Float sums depend on their order, so each node's running sums start
    from zero at its first row and its totals sum its rows in node order."""
    left_sum = np.empty_like(ys)
    left_sq = np.empty_like(ys)
    for a, b in zip(starts.tolist(), ends.tolist()):
        np.cumsum(ys[:, a:b], axis=1, out=left_sum[:, a:b])
        np.cumsum(ys[:, a:b] * ys[:, a:b], axis=1, out=left_sq[:, a:b])
    total_sum = np.array([yy.sum() for yy in y_nodes])
    total_sq = np.array([(yy * yy).sum() for yy in y_nodes])
    parent = total_sq - total_sum * total_sum / drawn
    right_sum = total_sum[seg] - left_sum
    right_sq = total_sq[seg] - left_sq
    sse = (left_sq - left_sum**2 / nl) + (right_sq - right_sum**2 / nr)
    return parent[seg] - sse, 1e-12 * np.maximum(1.0, np.abs(parent))


def _best_splits(x, y, ranks, n_classes, rows, counts, sizes, drawn, feats, values):
    """Best feature and threshold of each node in one batch; feature -1
    where no cut improves the criterion.

    Node s owns ``sizes[s]`` consecutive entries of ``rows`` (indices into
    ``x``, in node order) and of ``counts`` (their draw counts, ``drawn[s]``
    in all), samples the features ``feats[s]`` and has leaf value
    ``values[s]``. All rows are sorted at once per feature slot by (node,
    rank), which puts each node's rows in the stable value order of its own
    feature. Cuts between equal values and after a node's last row are
    excluded. A node's winner is its first feature slot (lowest feature)
    whose best gain beats every earlier slot's by more than the criterion's
    tolerance, at the first (lowest-threshold) cut with that gain.
    """
    n_nodes, n_rows = len(sizes), len(rows)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    seg = np.repeat(np.arange(n_nodes), sizes)
    # Flat index into x (and ranks) of each row's cell in each feature slot.
    cells = rows * x.shape[1] + np.repeat(feats.T, sizes, axis=1)
    order = _stable_order(seg * x.shape[0] + ranks.ravel()[cells], n_nodes * x.shape[0])
    xs = x.ravel()[np.take_along_axis(cells, order, axis=1)]
    ws = counts[order]
    # Drawn rows up to each cut: a running sum over the step less the rows
    # of the nodes before.
    n_left = ws.cumsum(axis=1) - (np.cumsum(drawn) - drawn)[seg]
    nl = n_left.astype(float)
    n = drawn[seg].astype(float)
    nr = n - nl
    nr[:, ends - 1] = 1.0  # no cut after a node's last row; avoids 0/0
    if n_classes is None:
        y_nodes = [y[rows[a:b]] for a, b in zip(starts.tolist(), ends.tolist())]
        gain, tol = _sse_gains(y[rows][order], y_nodes, drawn, seg, starts, ends, nl, nr)
    else:
        gain, tol = _gini_gains(y[rows][order], ws, np.asarray(values), drawn, seg, nl, nr, n, n_left)
    gain[:, :-1][xs[:, :-1] == xs[:, 1:]] = -np.inf
    gain[:, ends - 1] = -np.inf
    top = np.maximum.reduceat(gain, starts, axis=1)  # (feature slot, node)
    slot = np.full(n_nodes, -1)
    best = np.zeros(n_nodes)
    for j, gains in enumerate(top):
        better = gains > best + tol
        slot[better] = j
        best[better] = gains[better]
    feature = np.full(n_nodes, -1)
    threshold = np.full(n_nodes, np.nan)
    # The first cut in each node's winning slot that reaches its best gain.
    win = gain[slot[seg], np.arange(n_rows)]
    first = np.minimum.reduceat(np.where(win == best[seg], np.arange(n_rows), n_rows), starts)
    split = np.flatnonzero(slot >= 0)
    j = slot[split]
    i = first[split]
    feature[split] = feats[split, j]
    threshold[split] = (xs[j, i] + xs[j, i + 1]) / 2.0
    return feature, threshold


def _children(x, y, n_classes, rows, counts, sizes, feature, threshold) -> dict:
    """The node tuple (see ``_node``) of the left (2s) and right (2s + 1)
    child of each node s with ``feature[s]`` >= 0 whose cut leaves rows on
    both sides; child rows keep node order.

    A midpoint can fail to separate its two values: it rounds onto one of
    two adjacent floats, overflows to infinity, or is NaN next to a NaN.
    Such a node gets no children and stays a leaf."""
    n_nodes = len(sizes)
    seg = np.repeat(np.arange(n_nodes), sizes)
    child = 2 * seg + ~(x.ravel()[rows * x.shape[1] + np.maximum(feature, 0)[seg]] <= threshold[seg])
    child_sizes = np.bincount(child, minlength=2 * n_nodes)
    grouped = _stable_order(child, 2 * n_nodes)
    grouped_rows, grouped_counts = rows[grouped], counts[grouped]
    ends = np.cumsum(child_sizes).tolist()
    if n_classes is not None:
        # Class counts over drawn rows; draw counts summed as doubles are exact.
        weighted = np.bincount(child * n_classes + y[rows], weights=counts, minlength=2 * n_nodes * n_classes)
        values = weighted.astype(np.int64).reshape(-1, n_classes)
        drawn = values.sum(axis=1)
        pure = (values.max(axis=1) == drawn).tolist()
        drawn = drawn.tolist()
    kids = {}
    for s in np.flatnonzero((feature >= 0) & (child_sizes[0::2] > 0) & (child_sizes[1::2] > 0)).tolist():
        for c in (2 * s, 2 * s + 1):
            part = slice(ends[c] - child_sizes[c], ends[c])
            if n_classes is None:
                kids[c] = _node(y, grouped_rows[part], grouped_counts[part], None)
            else:
                kids[c] = (grouped_rows[part], grouped_counts[part], drawn[c], values[c], pure[c])
    return kids


def _node(y, rows, counts, n_classes):
    """(rows, draw counts, drawn rows, leaf value, pure) of a node; the leaf
    value is its class counts over drawn rows, or its target mean (a
    regression node holds one entry per draw, each with count 1)."""
    yy = y[rows]
    if n_classes is None:
        return rows, counts, len(rows), _leaf_mean(yy), bool(np.all(yy == yy[0]))
    value = np.bincount(yy, weights=counts, minlength=n_classes).astype(np.int64)
    drawn = int(value.sum())
    return rows, counts, drawn, value, bool(value.max() == drawn)


class _GrowingTree:
    """One tree mid-growth: its generator, its preorder stack of nodes still
    to visit and its nodes so far as [feature, threshold, value]."""

    def __init__(self, rng: np.random.Generator, root: tuple):
        self.rng = rng
        # (depth, node tuple from _node); a split pushes its right child
        # first, so the left subtree is visited first.
        self.stack = [(0, root)]
        self.nodes: list[list] = []
        self.pending = None  # (node, depth, node tuple, features) awaiting a split search


def _grow_trees(x, y, ranks, n_classes, max_depth, min_leaf, features_per_split, roots) -> list[tuple]:
    """Grow one tree per (generator, rows, draw counts) root, all in lockstep;
    each comes back as its (feature, threshold, value) arrays (see
    ``ForestModel``).

    A root holds each of its rows once with the number of times it was
    drawn: a classification bootstrap as its distinct rows, a regression
    bootstrap as one entry per draw with count 1 (float running sums depend
    on row order, so repeats are not merged). Each tree visits its nodes in
    preorder, writing leaves, until it reaches a node that needs a split
    search; that node draws its feature subset from the tree's own generator
    and waits. One batched search then scores the waiting nodes of as many
    trees as fit in ``_STEP_ROWS`` rows held. A node stays a leaf when it is
    pure, at ``max_depth``, smaller than ``min_leaf`` or 2 drawn rows, when
    no cut improves the criterion, or when the winning cut sends every row
    one way (see ``_children``). So every tree's nodes, numbering, leaf
    class counts and generator draws are those of growing it alone by
    recursion on its drawn rows. ``n_classes`` None grows regression trees;
    rows are indices into ``x``, so a bootstrap needs no copy of the matrix.
    """
    x = np.ascontiguousarray(x)
    d = x.shape[1]
    all_features = np.arange(d)
    smallest = max(min_leaf, 2)

    def next_search(tree):
        stack, nodes = tree.stack, tree.nodes
        while stack:
            depth, held = stack.pop()
            _, _, drawn, value, pure = held
            node = len(nodes)
            nodes.append([-1, 0.0, value])
            if pure or (max_depth is not None and depth >= max_depth) or drawn < smallest:
                continue
            if features_per_split < d:
                feats = tree.rng.choice(d, size=features_per_split, replace=False)
                feats.sort()
            else:
                feats = all_features
            return node, depth, held, feats
        return None

    trees = [_GrowingTree(rng, _node(y, rows, counts, n_classes)) for rng, rows, counts in roots]
    active = trees
    while active:
        batch, left_out, total = [], [], 0
        for tree in active:
            if tree.pending is None:
                tree.pending = next_search(tree)
                if tree.pending is None:
                    continue
            size = len(tree.pending[2][0])
            if not batch or total + size <= _STEP_ROWS:
                batch.append(tree)
                total += size
            else:
                left_out.append(tree)
        if not batch:
            break
        # Trees left out lead the next step, so a node too large to share a
        # step does not hold its tree back until the trees before it finish.
        active = left_out + batch
        _, _, held, feats = zip(*(t.pending for t in batch))
        node_rows, node_counts, drawn, values, _ = zip(*held)
        rows = np.concatenate(node_rows)
        counts = np.concatenate(node_counts)
        sizes = np.array([len(r) for r in node_rows])
        feature, threshold = _best_splits(x, y, ranks, n_classes, rows, counts, sizes, np.array(drawn),
                                          np.array(feats), values)
        children = _children(x, y, n_classes, rows, counts, sizes, feature, threshold)
        for s, (tree, f, t) in enumerate(zip(batch, feature.tolist(), threshold.tolist())):
            node, depth = tree.pending[:2]
            tree.pending = None
            if 2 * s in children:
                tree.nodes[node][:2] = f, t
                tree.stack.append((depth + 1, children[2 * s + 1]))
                tree.stack.append((depth + 1, children[2 * s]))
    value_type = float if n_classes is None else np.int64
    return [
        (
            np.array([f for f, _, _ in t.nodes]),
            np.array([cut for f, cut, _ in t.nodes if f >= 0], dtype=float),
            np.array([v for f, _, v in t.nodes if f < 0], dtype=value_type),
        )
        for t in trees
    ]


def tree_fit(
    x: np.ndarray,
    y: np.ndarray,
    max_depth: int | None,
    min_leaf: int,
    features_per_split: int,
    rng: np.random.Generator,
    n_classes: int | None = None,
    regression: bool = False,
) -> ForestModel:
    """Grow one tree by best-gain splits over a random feature subset per
    node, as a forest of one tree.

    Stops on max_depth, pure nodes, nodes smaller than min_leaf, or when no
    split improves the criterion. Nodes are written in preorder. This is the
    lockstep grower run on a single tree.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or 0 in x.shape or y.shape != (x.shape[0],):
        raise InvalidInputError("tree_fit needs a 2-D matrix with rows and feature columns, and one target per row")
    _check_tree_settings(max_depth, min_leaf, features_per_split)
    if regression:
        y, n_classes = y.astype(float), None
    else:
        y = y.astype(int)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        if y.min() < 0 or y.max() >= n_classes:
            raise InvalidInputError(f"class labels must lie in [0, {n_classes})")
    fps = min(features_per_split, x.shape[1])
    roots = [(rng, np.arange(x.shape[0]), np.ones(x.shape[0], dtype=np.int64))]
    trees = _grow_trees(x, y, _dense_ranks(x), n_classes, max_depth, min_leaf, fps, roots)
    return ForestModel.from_trees(trees, x.shape[1], n_classes)


def _read_only(values: np.ndarray) -> np.ndarray:
    values = values.copy()
    values.flags.writeable = False
    return values


@dataclass
class ForestModel:
    """Bagged tree ensemble, stored as one flat node table; a single tree is
    a forest of one.

    Each tree is held in preorder, node 0 its root: ``feature`` holds every
    node's split feature (-1 at leaves), ``threshold`` one cut per split and
    ``value`` one row per leaf, a leaf's class counts (n_leaves x n_classes)
    for classifiers or its target mean (n_leaves,) for regressors. The
    forest lays every tree's arrays end to end and ``tree_nodes`` holds each
    tree's node count, as tree-ensemble exchange formats such as ONNX-ML's
    ``TreeEnsembleClassifier`` keep all of an ensemble's nodes in one set of
    arrays. The arrays are copied on construction and read-only.
    Classifiers (``n_classes`` set) vote over class indices with Gini trees;
    regressors (``n_classes`` None) average squared-error trees' leaf means.

    Preorder fixes the children, so none are stored: a split at node i has
    its left child at i + 1 and its right child just past the left subtree.
    One walk over the table on construction proves that each tree's slice is
    one complete binary tree and derives ``left`` and ``right`` (numbered in
    the table, -1 at leaves) and each node's depth. Predictions walk a table
    derived from these, held as plain lists (numpy scalar indexing is
    slower): each node's feature, cut, right child and leaf output (winning
    class or mean), plus each tree's root.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    tree_nodes: np.ndarray
    n_features: int
    n_classes: int | None

    def __post_init__(self):
        self.feature = _read_only(_node_ints(self.feature, "features"))
        self.threshold = _read_only(np.asarray(self.threshold, dtype=float))
        self.tree_nodes = _read_only(_node_ints(self.tree_nodes, "node counts"))
        value = np.asarray(self.value)
        self.value = _read_only(_node_ints(value, "class counts") if value.ndim == 2 else value)
        value_shape = () if self.n_classes is None else (self.n_classes,)
        if self.value.ndim != 1 + len(value_shape) or self.value.shape[1:] != value_shape:
            raise InvalidInputError(f"tree values have shape {self.value.shape[1:]}, expected {value_shape}")
        if self.feature.ndim != 1 or self.threshold.ndim != 1 or self.tree_nodes.ndim != 1:
            raise InvalidInputError("forest features, thresholds and node counts must be 1-D")
        if len(self.tree_nodes) == 0 or np.any(self.tree_nodes < 1):
            raise InvalidInputError("a forest needs at least one tree, and every tree at least one node")
        ends = np.cumsum(self.tree_nodes)
        if ends[-1] != len(self.feature):
            raise InvalidInputError(f"tree node counts sum to {ends[-1]}, but the forest has {len(self.feature)} nodes")
        if self.feature.min() < -1 or self.feature.max() >= self.n_features:
            raise InvalidInputError(f"tree features must be -1 (leaf) or one of the model's {self.n_features}")
        is_split = self.feature >= 0
        n_splits = int(is_split.sum())
        if (n_splits, len(self.feature) - n_splits) != (len(self.threshold), len(self.value)):
            raise InvalidInputError(
                f"forest has {n_splits} splits and {len(self.feature) - n_splits} leaves, but "
                f"{len(self.threshold)} thresholds and {len(self.value)} leaf values"
            )
        feature = self.feature.tolist()
        self._roots = [0, *ends[:-1].tolist()]
        right = [-1] * len(feature)
        depth = [0] * len(feature)
        for a, b in zip(self._roots, ends.tolist()):
            # Each node after a leaf is the right child of the latest split
            # still without one; the walk closes as one tree iff every node
            # but the root gets a parent and no split is left waiting.
            waiting = []
            below = 0  # depth of the next node
            for node in range(a, b):
                depth[node] = below
                if feature[node] >= 0:
                    waiting.append(node)
                    below += 1
                elif node + 1 < b:
                    if not waiting:
                        raise InvalidInputError(f"tree features complete one tree at node {node - a} of {b - a}")
                    parent = waiting.pop()
                    right[parent] = node + 1
                    below = depth[parent] + 1
            if waiting:
                raise InvalidInputError("tree features do not close one tree: a split lacks a child")
        self.left = _read_only(np.where(is_split, np.arange(1, len(feature) + 1), -1))
        self.right = _read_only(np.array(right))
        self._depth = np.array(depth)
        cut = np.zeros(len(feature))
        cut[is_split] = self.threshold
        output = np.zeros(len(feature), dtype=float if self.n_classes is None else np.int64)
        output[~is_split] = self.value if self.n_classes is None else self.value.argmax(axis=1)
        self._walk = (feature, cut.tolist(), right, output.tolist(), self._roots)

    @classmethod
    def from_trees(cls, trees, n_features: int, n_classes: int | None) -> "ForestModel":
        """The forest of ``trees``, each given as its (feature, threshold,
        value) preorder arrays, in tree order."""
        if not trees:
            raise InvalidInputError("a forest needs at least one tree")
        features, thresholds, values = zip(*trees)
        return cls(
            np.concatenate(features), np.concatenate(thresholds), np.concatenate(values),
            [len(f) for f in features], n_features, n_classes,
        )

    @property
    def n_estimators(self) -> int:
        return len(self.tree_nodes)

    @property
    def trees(self) -> list["ForestModel"]:
        """Each tree as a forest of one, in tree order; built anew on each read."""
        splits = np.cumsum(self.feature >= 0)
        cuts = [0, *splits[np.cumsum(self.tree_nodes) - 1].tolist()]
        nodes = [*self._roots, len(self.feature)]
        return [
            ForestModel(self.feature[a:b], self.threshold[c:d], self.value[a - c:b - d], [b - a], self.n_features,
                        self.n_classes)
            for a, b, c, d in zip(nodes, nodes[1:], cuts, cuts[1:])
        ]

    def tree_depths(self) -> list[int]:
        """Each tree's depth: its deepest node's distance from its root."""
        return np.maximum.reduceat(self._depth, self._roots).tolist()

    def observed_max_depth(self) -> int:
        return max(self.tree_depths())


def _default_features_per_split(d: int) -> int:
    return max(1, math.ceil(math.sqrt(d)))


def _fit_forest(
    x, y, n_classes, n_estimators, max_depth, seed, features_per_split, min_leaf, threads
) -> ForestModel:
    """Fit n_estimators trees, each on its own N-row bootstrap; n_classes None
    grows regression trees.

    Tree i draws its bootstrap and then its feature subsets from the
    generator seeded by (seed, i). All trees grow in one lockstep
    ``_grow_trees`` call in the calling thread; ``threads`` is only checked
    (at least 1) and has no effect.
    """
    if n_estimators < 1:
        raise InvalidInputError("n_estimators must be at least 1")
    if threads < 1:
        raise InvalidInputError(f"threads must be at least 1, got {threads}")
    _check_tree_settings(max_depth, min_leaf, features_per_split)
    n, d = x.shape
    if d == 0:
        raise InvalidInputError("cannot fit a forest on a matrix with no feature columns")
    fps = features_per_split if features_per_split is not None else _default_features_per_split(d)
    roots = []
    for i in range(n_estimators):
        rng = np.random.default_rng((seed, i))
        boot = rng.integers(0, n, n)
        if n_classes is None:
            roots.append((rng, boot, np.ones(n, dtype=np.int64)))
        else:
            draws = np.bincount(boot, minlength=n)
            rows = np.flatnonzero(draws)
            roots.append((rng, rows, draws[rows]))
    trees = _grow_trees(x, y, _dense_ranks(x), n_classes, max_depth, min_leaf, min(fps, d), roots)
    return ForestModel.from_trees(trees, d, n_classes)


def forest_fit(
    dataset: LabeledDataset,
    n_estimators: int,
    max_depth: int | None = None,
    seed: int = 0,
    features_per_split: int | None = None,
    min_leaf: int = 2,
    threads: int = 1,
) -> ForestModel:
    """Gini classification forest over the dataset's class indices;
    ``threads`` must be at least 1 and has no effect."""
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
    """Bagged regression trees; splits minimize within-node squared error.
    ``threads`` must be at least 1 and has no effect."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or y.shape != (x.shape[0],):
        raise InvalidInputError("x must be 2-D with one target per row")
    return _fit_forest(x, y, None, n_estimators, max_depth, seed, features_per_split, min_leaf, threads)


def _leaf_outputs(model: ForestModel, matrix: np.ndarray) -> np.ndarray:
    """The output of the leaf each row of ``matrix`` reaches in each tree,
    as a trees x rows array: a class index (classifier) or a mean (regressor).
    Each row takes the same path whatever rows come with it."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != model.n_features:
        raise InvalidInputError(f"matrix has shape {matrix.shape}, model expects (rows, {model.n_features})")
    feature, cut, right, output, roots = model._walk
    leaves = []
    for row in matrix.tolist():
        for node in roots:
            while feature[node] >= 0:
                node = node + 1 if row[feature[node]] <= cut[node] else right[node]
            leaves.append(output[node])
    dtype = float if model.n_classes is None else np.int64
    return np.array(leaves, dtype=dtype).reshape(len(matrix), len(roots)).T


def _one_row(model: ForestModel, row: np.ndarray) -> np.ndarray:
    """``row`` as a one-row matrix."""
    row = np.asarray(row, dtype=float)
    if row.shape != (model.n_features,):
        raise InvalidInputError(f"row has shape {row.shape}, model expects ({model.n_features},)")
    return row[None, :]


def forest_vote_counts(model: ForestModel, row: np.ndarray) -> np.ndarray:
    """Integer votes per class; sums to n_estimators exactly."""
    if model.n_classes is None:
        raise InvalidInputError("vote counts need a classification forest")
    return np.bincount(_leaf_outputs(model, _one_row(model, row))[:, 0], minlength=model.n_classes)


def forest_predict_proba(model: ForestModel, row: np.ndarray) -> np.ndarray:
    """Fraction of trees voting each class."""
    return forest_vote_counts(model, row) / model.n_estimators


def forest_predict(model: ForestModel, row: np.ndarray) -> int:
    """Majority-vote class; ties resolve to the lower class index."""
    return int(np.argmax(forest_vote_counts(model, row)))


def forest_predict_many(model: ForestModel, matrix: np.ndarray) -> np.ndarray:
    """``forest_predict`` of every row of ``matrix``."""
    return forest_prefix_votes(model, matrix)[-1].argmax(axis=1)


def forest_prefix_votes(model: ForestModel, matrix: np.ndarray) -> np.ndarray:
    """Votes per class of every prefix of the forest's trees on every row:
    entry [i, r, c] counts the first i + 1 trees voting class c on row r.

    Each tree classifies each row once, so the argmax over c of entry
    [n - 1, r] (ties to the lower class) is ``forest_predict`` of the
    forest's first n trees on row r, without building that forest."""
    if model.n_classes is None:
        raise InvalidInputError("vote counts need a classification forest")
    return (_leaf_outputs(model, matrix)[:, :, None] == np.arange(model.n_classes)).cumsum(axis=0)


def forest_regress_predict(model: ForestModel, row: np.ndarray) -> float:
    if model.n_classes is not None:
        raise InvalidInputError("regression predictions need a regression forest")
    leaf_means = _leaf_outputs(model, _one_row(model, row))[:, 0]
    if np.all(leaf_means == leaf_means[0]):
        return float(leaf_means[0])
    return float(leaf_means.mean())
