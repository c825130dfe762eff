import concurrent.futures
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardiotox.errors import InvalidInputError
from cardiotox.learners import forest as forest_module
from cardiotox.learners import (
    ForestModel,
    Tree,
    forest_fit,
    forest_predict,
    forest_predict_many,
    forest_predict_proba,
    forest_prefix_votes,
    forest_regress_fit,
    forest_regress_predict,
    forest_vote_counts,
    tree_fit,
)

from conftest import labeled, make_blobs


def checked_children(tree: Tree, children: dict) -> Tree:
    """``tree``, after checking that the children it derives from preorder
    are the (left, right) pairs, by split node, that a recursion found."""
    for node in range(len(tree.feature)):
        assert (tree.left[node], tree.right[node]) == children.get(node, (-1, -1))
    return tree


def oracle_tree(x, y, n_classes, max_depth):
    """Exhaustive enumeration of every (feature, midpoint) split; same
    tie-break (lowest feature, then lowest threshold) and strict gain.
    Nodes are laid out in preorder, with a cut per split and class counts
    per leaf; the children the recursion finds must be the ones the tree
    derives from preorder."""

    def gini(labels):
        n = len(labels)
        counts = np.bincount(labels, minlength=n_classes).astype(float)
        p = counts / n
        return 1.0 - float((p**2).sum())

    feature, threshold, value, children = [], [], [], {}

    def grow(x, y, depth):
        node = len(feature)
        feature.append(-1)
        n = len(y)
        if (max_depth is not None and depth >= max_depth) or np.all(y == y[0]) or n < 2:
            value.append(np.bincount(y, minlength=n_classes))
            return node
        parent = gini(y)
        best = (None, None, 0.0)
        for f in range(x.shape[1]):
            values = np.unique(x[:, f])
            for lo, hi in zip(values[:-1], values[1:]):
                t = (lo + hi) / 2.0
                below = y[x[:, f] <= t]
                above = y[x[:, f] > t]
                gain = parent - (len(below) / n * gini(below) + len(above) / n * gini(above))
                if gain > best[2]:
                    best = (f, t, gain)
        if best[0] is None:
            value.append(np.bincount(y, minlength=n_classes))
            return node
        f, t, _ = best
        mask = x[:, f] <= t
        feature[node] = f
        threshold.append(t)
        children[node] = grow(x[mask], y[mask], depth + 1), grow(x[~mask], y[~mask], depth + 1)
        return node

    grow(x, y, 0)
    return checked_children(Tree(feature, threshold, value), children)


def reference_gini_split(x, y, n_classes, feature_ids):
    """Per-feature loop the vectorized Gini split search must reproduce bit for bit."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes)
    parent_gini = forest_module._gini_from_counts(parent_counts, n)
    counts_splits = np.arange(1, n, dtype=float)
    best = (None, None, 0.0)
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y[order]] = 1.0
        left = np.cumsum(onehot, axis=0)[:-1]
        right = parent_counts - left
        nl = counts_splits
        nr = n - nl
        gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
        gain = parent_gini - (nl / n * gini_l + nr / n * gini_r)
        gain[xs[:-1] == xs[1:]] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best[2]:
            best = (f, (xs[i] + xs[i + 1]) / 2.0, float(gain[i]))
    return best


def reference_sse_split(x, y, feature_ids):
    """Per-feature loop the vectorized squared-error split search must reproduce."""
    n = len(y)
    total_sum = y.sum()
    total_sq = (y * y).sum()
    parent_sse = total_sq - total_sum * total_sum / n
    counts_splits = np.arange(1, n, dtype=float)
    tol = 1e-12 * max(1.0, abs(parent_sse))
    best = (None, None, 0.0)
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        left_sum = np.cumsum(ys)[:-1]
        left_sq = np.cumsum(ys * ys)[:-1]
        nl = counts_splits
        nr = n - nl
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        sse = (left_sq - left_sum**2 / nl) + (right_sq - right_sum**2 / nr)
        gain = parent_sse - sse
        gain[xs[:-1] == xs[1:]] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best[2] + tol:
            best = (f, (xs[i] + xs[i + 1]) / 2.0, float(gain[i]))
    return best


def reference_tree(x, y, n_classes, max_depth, min_leaf, features_per_split, rng):
    """One tree grown alone by recursion, each node scored by the per-feature
    reference split searches; n_classes None grows a regression tree.

    Nodes are written in preorder and a node draws its feature subset from
    ``rng`` when it is reached, so this is the tree the lockstep grower must
    reproduce bit for bit."""
    d = x.shape[1]
    feature, threshold, value, children = [], [], [], {}

    def grow(idx, depth):
        node = len(feature)
        yy = y[idx]
        feature.append(-1)
        leaf_value = forest_module._leaf_mean(yy) if n_classes is None else np.bincount(yy, minlength=n_classes)
        if np.all(yy == yy[0]) or (max_depth is not None and depth >= max_depth) or len(idx) < max(min_leaf, 2):
            value.append(leaf_value)
            return node
        if features_per_split < d:
            feats = np.sort(rng.choice(d, size=features_per_split, replace=False))
        else:
            feats = np.arange(d)
        xx = x[idx]
        if n_classes is None:
            f, split, _ = reference_sse_split(xx, yy, feats)
        else:
            f, split, _ = reference_gini_split(xx, yy, n_classes, feats)
        if f is None:
            value.append(leaf_value)
            return node
        go_left = xx[:, f] <= split
        feature[node] = int(f)
        threshold.append(float(split))
        children[node] = grow(idx[go_left], depth + 1), grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(len(y)), 0)
    tree = Tree(feature, threshold, np.array(value, dtype=float if n_classes is None else np.int64))
    return checked_children(tree, children)


def reference_forest(x, y, n_classes, n_estimators, max_depth, seed, features_per_split, min_leaf):
    """Each tree grown on its own: bootstrap, then feature draws, from (seed, i)."""
    trees = []
    for i in range(n_estimators):
        rng = np.random.default_rng((seed, i))
        boot = rng.integers(0, len(y), len(y))
        trees.append(reference_tree(x[boot], y[boot], n_classes, max_depth, min_leaf,
                                    min(features_per_split, x.shape[1]), rng))
    return trees


def trees_equal(a: Tree, b: Tree) -> bool:
    """The stored arrays, with their dtypes, and the derived children agree."""
    return all(
        getattr(a, name).dtype == getattr(b, name).dtype and np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("feature", "threshold", "value", "left", "right")
    )


class TestTreeFit:
    def test_pure_input_single_leaf(self, rng):
        x = rng.normal(size=(6, 2))
        tree = tree_fit(x, np.zeros(6, dtype=int), None, 2, 2, rng, n_classes=2)
        assert list(tree.feature) == [-1]
        assert list(tree.value[0]) == [6, 0]

    def test_stump_at_midpoint_gap(self, rng):
        x = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = tree_fit(x, y, max_depth=1, min_leaf=2, features_per_split=1, rng=rng, n_classes=2)
        assert list(tree.feature) == [0, -1, -1]
        assert tree.threshold[0] == pytest.approx(6.0)
        preds = [0 if row[0] <= tree.threshold[0] else 1 for row in x]
        assert preds == list(y)

    def test_matches_exhaustive_oracle(self, rng):
        for trial in range(25):
            x = rng.integers(0, 6, size=(8, 2)).astype(float)
            y = rng.integers(0, 2, size=8).astype(int)
            grown = tree_fit(x, y, max_depth=3, min_leaf=2, features_per_split=2, rng=rng, n_classes=2)
            expected = oracle_tree(x, y, 2, max_depth=3)
            assert trees_equal(grown, expected), f"trial {trial}"

    def test_depth_capped(self, rng):
        x = rng.normal(size=(64, 3))
        y = rng.integers(0, 2, size=64)
        tree = tree_fit(x, y, max_depth=2, min_leaf=2, features_per_split=3, rng=rng, n_classes=2)
        assert tree.depth() <= 2

    @pytest.mark.parametrize("regression", [False, True])
    def test_cut_separating_no_rows_leaves_a_leaf(self, rng, regression):
        # The best cut lies between 1 and inf; its midpoint is inf, so every
        # row falls left. The depth cap only bounds a failure.
        x = np.array([[0.0], [1.0], [np.inf], [np.inf]])
        y = np.array([0, 0, 1, 1])
        tree = tree_fit(x, y, max_depth=50, min_leaf=1, features_per_split=1, rng=rng, n_classes=2,
                        regression=regression)
        assert list(tree.feature) == [-1]

    def test_min_leaf_stops_split(self, rng):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 0])
        tree = tree_fit(x, y, max_depth=None, min_leaf=4, features_per_split=1, rng=rng, n_classes=2)
        assert list(tree.feature) == [-1]


@st.composite
def tied_problems(draw):
    """Small integer-valued matrices with duplicated rows, so split candidates
    tie within and across features; targets are 2-4 classes or regression."""
    n_distinct = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, 3), min_size=n_distinct * d, max_size=n_distinct * d))
    distinct = np.array(cells, dtype=float).reshape(n_distinct, d)
    picks = draw(st.lists(st.integers(0, n_distinct - 1), min_size=2, max_size=30))
    x = distinct[picks]
    n_classes = draw(st.sampled_from([None, 2, 3, 4]))
    if n_classes is None:
        y = np.array(draw(st.lists(st.sampled_from([-1.5, 0.0, 0.1, 2.0, 7.25]), min_size=len(picks),
                                   max_size=len(picks))))
    else:
        y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=len(picks), max_size=len(picks))))
    return x, y, n_classes, draw(st.integers(1, d)), draw(st.sampled_from([None, 1, 2, 4])), draw(st.integers(0, 2**32))


def fit_forest(x, y, n_classes, n_estimators, max_depth, seed, features_per_split, min_leaf, threads):
    if n_classes is None:
        return forest_regress_fit(x, y, n_estimators, max_depth, seed, features_per_split, min_leaf, threads)
    dataset = labeled(x, y, tuple(f"c{i}" for i in range(n_classes)))
    return forest_fit(dataset, n_estimators, max_depth, seed, features_per_split, min_leaf, threads)


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(tied_problems())
    def test_matches_per_feature_reference(self, problem):
        x, y, n_classes, features_per_split, max_depth, seed = problem
        grown = tree_fit(x, y, max_depth, 2, features_per_split, np.random.default_rng(seed),
                         n_classes=n_classes, regression=n_classes is None)
        expected = reference_tree(x, y, n_classes, max_depth, 2, features_per_split, np.random.default_rng(seed))
        assert trees_equal(grown, expected)

    @settings(max_examples=150, deadline=None)
    @given(tied_problems(), st.integers(1, 8), st.integers(1, 4),
           st.sampled_from([1, 7, 40, forest_module._STEP_ROWS]))
    def test_forest_matches_independent_trees(self, problem, n_estimators, min_leaf, step_rows):
        # Small row caps make a step take only some trees' nodes (the first
        # step's roots alone exceed a cap of 7 or 40 rows).
        x, y, n_classes, features_per_split, max_depth, seed = problem
        expected = reference_forest(x, y, n_classes, n_estimators, max_depth, seed, features_per_split, min_leaf)
        with mock.patch.object(forest_module, "_STEP_ROWS", step_rows):
            for threads in (1, 4):
                model = fit_forest(x, y, n_classes, n_estimators, max_depth, seed, features_per_split, min_leaf,
                                   threads)
                assert len(model.trees) == n_estimators
                for grown, tree in zip(model.trees, expected):
                    assert trees_equal(grown, tree)

    def test_regression_sums_restart_at_each_node(self):
        # Nodes of several trees share a step. Float running sums taken across
        # the whole step differ from each node's own in the last bit, and tied
        # targets turn such a bit into a different winning cut.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(4, 30)), int(rng.integers(1, 4))
            x = rng.integers(0, int(rng.integers(2, 8)), size=(n, d)).astype(float)
            y = rng.choice([-1.5, 0.0, 0.1, 0.7, 2.0, 7.25], size=n)
            model = forest_regress_fit(x, y, 8, None, seed, d, 2)
            for grown, tree in zip(model.trees, reference_forest(x, y, None, 8, None, seed, d, 2)):
                assert trees_equal(grown, tree), f"seed {seed}"

    @pytest.mark.parametrize("n_classes", [None, 2, 3])
    def test_first_step_beyond_row_cap(self, n_classes):
        # 8 roots of 600 rows each hold more rows than one step takes, also
        # as distinct bootstrap rows (a classification root's rows).
        n = 600
        rng = np.random.default_rng(5)
        x = rng.integers(0, 6, size=(n, 6)).astype(float)
        y = rng.normal(size=n) if n_classes is None else rng.integers(0, n_classes, size=n)
        distinct = sum(len(np.unique(np.random.default_rng((17, i)).integers(0, n, n))) for i in range(8))
        assert distinct > forest_module._STEP_ROWS
        expected = reference_forest(x, y, n_classes, 8, None, 17, 3, 2)
        for threads in (1, 4):
            model = fit_forest(x, y, n_classes, 8, None, 17, 3, 2, threads)
            for grown, tree in zip(model.trees, expected):
                assert trees_equal(grown, tree)


class TestDrawnRows:
    """A classification tree holds each bootstrap row once with its draw
    count; its stopping rules and leaf counts still count drawn rows."""

    @staticmethod
    def two_row_seed(classes_differ: bool) -> int:
        """First seed whose tree-0 bootstrap of 4 rows (classes 0, 1, 0, 1)
        draws exactly 2 distinct rows, of different or of equal classes."""
        for seed in range(1000):
            drawn = set(np.random.default_rng((seed, 0)).integers(0, 4, 4).tolist())
            if len(drawn) == 2 and (len({r % 2 for r in drawn}) == 2) == classes_differ:
                return seed
        raise AssertionError("no such seed")

    @pytest.mark.parametrize("min_leaf, max_depth, splits", [(3, None, True), (4, None, True), (5, None, False),
                                                             (3, 0, False)])
    def test_two_distinct_rows_drawn_four_times(self, min_leaf, max_depth, splits):
        # The root holds 2 distinct rows but 4 drawn ones: min_leaf compares
        # the 4, so min_leaf 3 or 4 lets it split, 5 does not.
        x = np.arange(4.0)[:, None]
        y = np.array([0, 1, 0, 1])
        seed = self.two_row_seed(classes_differ=True)
        model = forest_fit(labeled(x, y), 1, max_depth, seed, 1, min_leaf)
        (tree,) = reference_forest(x, y, 2, 1, max_depth, seed, 1, min_leaf)
        assert trees_equal(model.trees[0], tree)
        assert (model.trees[0].feature[0] >= 0) == splits
        assert model.trees[0].value.sum() == 4

    def test_pure_root_counts_every_draw(self):
        x = np.arange(4.0)[:, None]
        y = np.array([0, 1, 0, 1])
        seed = self.two_row_seed(classes_differ=False)
        model = forest_fit(labeled(x, y), 1, None, seed, 1, 1)
        (tree,) = reference_forest(x, y, 2, 1, None, seed, 1, 1)
        assert trees_equal(model.trees[0], tree)
        assert list(model.trees[0].feature) == [-1]
        assert sorted(model.trees[0].value[0].tolist()) == [0, 4]

    def test_stopping_rules_on_repeated_rows(self):
        # Tiny inputs repeat most bootstrap rows, so many nodes hold fewer
        # distinct rows than drawn ones; each tree must be the one grown on
        # its drawn rows, with every repeat.
        beyond_min_leaf = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 9))
            x = rng.integers(0, 4, size=(n, 2)).astype(float)
            y = rng.integers(0, 3, size=n)
            min_leaf = int(rng.integers(1, 6))
            max_depth = [None, 1, 2][seed % 3]
            model = forest_fit(labeled(x, y, ("a", "b", "c")), 6, max_depth, seed, 2, min_leaf)
            for grown, tree in zip(model.trees, reference_forest(x, y, 3, 6, max_depth, seed, 2, min_leaf)):
                assert trees_equal(grown, tree), f"seed {seed}"
            for i in range(6):
                distinct = len(np.unique(np.random.default_rng((seed, i)).integers(0, n, n)))
                beyond_min_leaf += distinct < min_leaf <= n
        assert beyond_min_leaf > 0


def forest_digest(model: ForestModel) -> str:
    digest = hashlib.sha256()
    for tree in model.trees:
        for array in (tree.feature, tree.threshold, tree.value):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# Digests of forests grown by the per-draw grower (each bootstrap draw its own
# row) before trees held their bootstrap as draw counts; any change to the
# trees a seed grows changes them.
GOLDEN_FORESTS = {
    (2, None, 2): "5a265414f73c27fd8b94bbc3d2988a536f90a863e927cf885d2bbaafdc4b6405",
    (2, 5, 4): "9947694dd83bffb63649a1ada4dbd2249bc6319e70cd325acaf8b8a5d83ddb86",
    (3, None, 2): "29528115a2886c03ef0f1af0257da9adc732ea008de7ced07d690cb252ed2958",
    (3, 5, 4): "a3b60a9f00377e0abc4820590f558faee68b0b966aa006ef8da53764a9065bf3",
    (None, None, 2): "6a09249a7639b36c4415ea13d41704db8610da0cf853ef3ce996eb584859d365",
    (None, 5, 4): "ec98bdfe49967ef4bd3bbf9d57551ccd81fb4f599d095c6b380dedb7710ee843",
}


@pytest.mark.parametrize("n_classes, max_depth, min_leaf", GOLDEN_FORESTS)
def test_forest_matches_golden_digest(n_classes, max_depth, min_leaf):
    rng = np.random.default_rng(1303)
    x = np.round(rng.normal(size=(600, 9)), 1)
    score = x[:, 0] + 0.6 * x[:, 1] * x[:, 2] + rng.normal(scale=0.7, size=600)
    if n_classes is None:
        model = forest_regress_fit(x, score, 12, max_depth, seed=7, min_leaf=min_leaf)
    else:
        y = np.digitize(score, np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]))
        names = tuple(f"c{i}" for i in range(n_classes))
        model = forest_fit(labeled(x, y, names), 12, max_depth, seed=7, min_leaf=min_leaf)
    assert forest_digest(model) == GOLDEN_FORESTS[n_classes, max_depth, min_leaf]


class TestInvalidSettings:
    @pytest.mark.parametrize("bad", [{"features_per_split": 0}, {"features_per_split": -3}, {"max_depth": -1},
                                     {"min_leaf": 0}])
    @pytest.mark.parametrize("fit", ["forest_fit", "forest_regress_fit", "tree_fit"])
    def test_rejected(self, rng, fit, bad):
        x, y = make_blobs(rng, [[0, 0], [4, 4]], 10)
        kwargs = {"max_depth": None, "min_leaf": 2, "features_per_split": 2, **bad}
        with pytest.raises(InvalidInputError):
            if fit == "forest_fit":
                forest_fit(labeled(x, y), 3, seed=0, **kwargs)
            elif fit == "forest_regress_fit":
                forest_regress_fit(x, y.astype(float), 3, seed=0, **kwargs)
            else:
                tree_fit(x, y, rng=rng, n_classes=2, **kwargs)

    @pytest.mark.parametrize("fit", ["forest_fit", "forest_regress_fit", "tree_fit"])
    def test_no_feature_columns_rejected(self, rng, fit):
        x, y = np.empty((20, 0)), np.repeat([0, 1], 10)
        with pytest.raises(InvalidInputError, match="feature columns"):
            if fit == "forest_fit":
                forest_fit(labeled(x, y), 3, seed=0)
            elif fit == "forest_regress_fit":
                forest_regress_fit(x, y.astype(float), 3, seed=0)
            else:
                tree_fit(x, y, max_depth=None, min_leaf=2, features_per_split=1, rng=rng)


class TestForestClassifier:
    def test_single_tree_equals_bootstrap_tree(self, rng):
        x, y = make_blobs(rng, [[0, 0], [4, 4]], 30)
        dataset = labeled(x, y)
        forest = forest_fit(dataset, n_estimators=1, max_depth=4, seed=11)
        probe = rng.normal(size=(20, 2)) * 3
        tree_rng = np.random.default_rng((11, 0))
        boot = tree_rng.integers(0, len(y), len(y))
        solo = tree_fit(
            x[boot], y[boot], 4, 2, forest.features_per_split, tree_rng, n_classes=2
        )
        # A node's cut and leaf row sit at its rank among the splits or leaves before it.
        split_rank = np.cumsum(solo.feature >= 0) - 1
        leaf_rank = np.cumsum(solo.feature < 0) - 1
        for row in probe:
            node = 0
            while solo.feature[node] >= 0:
                go_left = row[solo.feature[node]] <= solo.threshold[split_rank[node]]
                node = solo.left[node] if go_left else solo.right[node]
            assert forest_predict(forest, row) == int(np.argmax(solo.value[leaf_rank[node]]))

    def test_unanimous_votes_one_hot(self, rng):
        x = rng.normal(size=(20, 2))
        dataset = labeled(x, np.zeros(20, dtype=int), ("only", "other"))
        forest = forest_fit(dataset, 7, seed=0)
        proba = forest_predict_proba(forest, x[0])
        assert list(proba) == [1.0, 0.0]

    def test_blob_benchmark_holdout_accuracy(self, rng):
        x, y = make_blobs(rng, [[0, 0], [6, 0], [0, 6], [6, 6]], 100, scale=0.5)
        order = rng.permutation(len(y))
        train, test = order[:320], order[320:]
        dataset = labeled(x[train], y[train])
        forest = forest_fit(dataset, 30, seed=3)
        acc = np.mean(forest_predict_many(forest, x[test]) == y[test])
        assert acc >= 0.95

    def test_vote_counts_sum_exactly(self, rng):
        x, y = make_blobs(rng, [[0, 0], [3, 3], [0, 5]], 15)
        forest = forest_fit(labeled(x, y), 30, seed=1)
        for row in rng.normal(size=(25, 2)) * 4:
            votes = forest_vote_counts(forest, row)
            assert votes.sum() == 30
            proba = forest_predict_proba(forest, row)
            assert abs(proba.sum() - 1.0) < 1e-12
            assert forest_predict(forest, row) == int(np.argmax(votes))

    def test_thread_count_does_not_change_model(self, rng):
        from cardiotox.persistence import save_bundle
        import io

        x, y = make_blobs(rng, [[0, 0], [4, 4]], 40)
        dataset = labeled(x, y)
        blobs = []
        for threads in (1, 4):
            model = forest_fit(dataset, 12, max_depth=6, seed=9, threads=threads)
            buf = io.StringIO()
            save_bundle(model, buf, seed=9)
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1]

    def test_seed_changes_model(self, rng):
        x, y = make_blobs(rng, [[0, 0], [4, 4]], 40)
        dataset = labeled(x, y)
        a = forest_fit(dataset, 5, seed=1)
        b = forest_fit(dataset, 5, seed=2)
        probe = rng.normal(size=(50, 2)) * 3
        assert any(
            not np.array_equal(forest_predict_proba(a, r), forest_predict_proba(b, r))
            for r in probe
        )

    def test_tie_breaks_to_lower_class_index(self):
        # leaves voting 1:1 across two trees
        leaves = [([-1], [], [counts]) for counts in ([5, 0], [0, 5])]
        model = ForestModel.from_trees(leaves, None, 1, 0, n_features=1, n_classes=2)
        assert forest_predict(model, np.array([0.0])) == 0

    def test_prefix_votes_match_prefix_forests(self, rng):
        x, y = make_blobs(rng, [[0, 0], [2, 2], [4, 0]], 20, scale=1.0)
        forest = forest_fit(labeled(x, y), 9, seed=4)
        probe = rng.normal(size=(40, 2)) * 3
        votes = forest_prefix_votes(forest, probe)
        assert votes.shape == (9, 40, 3)
        arrays = [(t.feature, t.threshold, t.value) for t in forest.trees]
        for n in range(1, 10):
            prefix = ForestModel.from_trees(arrays[:n], None, forest.features_per_split, forest.seed, 2, 3)
            assert [forest_vote_counts(prefix, row).tolist() for row in probe] == votes[n - 1].tolist()

    def test_flat_arrays_are_read_only_and_trees_view_them(self, rng):
        x, y = make_blobs(rng, [[0, 0], [4, 4]], 20)
        forest = forest_fit(labeled(x, y), 3, seed=0)
        assert forest.n_estimators == 3 and forest.tree_nodes.sum() == len(forest.feature)
        for name in ("feature", "threshold", "value", "tree_nodes"):
            assert not getattr(forest, name).flags.writeable
        for tree in forest.trees:
            for name in ("feature", "threshold", "value"):
                assert np.shares_memory(getattr(tree, name), getattr(forest, name))
        with pytest.raises(ValueError):
            forest.trees[0].feature[0] = 1

    def test_rejects_empty_and_bad_counts(self, rng):
        dataset = labeled(rng.normal(size=(4, 2)), [0, 1, 0, 1])
        with pytest.raises(InvalidInputError):
            forest_fit(dataset, 0)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_rejected(self, rng, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        # The grower imports the pool only when it starts one.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        x, y = make_blobs(rng, [[0, 0], [4, 4]], 5)
        with pytest.raises(AssertionError, match="thread pool"):
            forest_fit(labeled(x, y), 3, threads=2)
        with pytest.raises(InvalidInputError):
            forest_fit(labeled(x, y), 3, threads=threads)
        with pytest.raises(InvalidInputError):
            forest_regress_fit(x, y.astype(float), 3, threads=threads)


class TestForestRegressor:
    def test_constant_target_exact(self, rng):
        x = rng.normal(size=(30, 2))
        y = np.full(30, 0.1)
        model = forest_regress_fit(x, y, 10, seed=0)
        assert forest_regress_predict(model, x[0]) == 0.1

    def test_single_tree_memorizes_distinct_rows(self, rng):
        x = np.arange(12.0)[:, None]
        y = rng.normal(size=12)
        model = forest_regress_fit(x, y, 1, max_depth=None, seed=4, features_per_split=1)
        # the bootstrap resamples rows, so check the tree on its own draw
        boot_rng = np.random.default_rng((4, 0))
        boot = boot_rng.integers(0, 12, 12)
        train_x, train_y = x[boot], y[boot]
        mse = np.mean(
            [
                (forest_regress_predict(model, row) - np.mean(train_y[(train_x == row).all(axis=1)])) ** 2
                for row in train_x
            ]
        )
        assert mse < 1e-24

    def test_linear_target_benchmark(self, rng):
        x = rng.uniform(0, 10, size=(400, 1))
        y = 3.0 * x[:, 0] + 2.0
        model = forest_regress_fit(x[:300], y[:300], 50, seed=7)
        preds = np.array([forest_regress_predict(model, r) for r in x[300:]])
        mse = np.mean((preds - y[300:]) ** 2)
        assert mse < 0.05 * y.var()

    def test_depth_limit_respected(self, rng):
        x = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        model = forest_regress_fit(x, y, 5, max_depth=3, seed=0)
        assert model.observed_max_depth() <= 3

    def test_kind_mismatched_predictions_rejected(self, rng):
        x, y = make_blobs(rng, [[0, 0], [4, 4]], 10)
        regressor = forest_regress_fit(x, y.astype(float), 3, seed=0)
        classifier = forest_fit(labeled(x, y), 3, seed=0)
        with pytest.raises(InvalidInputError):
            forest_vote_counts(regressor, x[0])
        with pytest.raises(InvalidInputError):
            forest_regress_predict(classifier, x[0])
