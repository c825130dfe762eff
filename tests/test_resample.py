import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardiotox.errors import InvalidInputError
from cardiotox.resample import ResamplePlan, Strategy, _pairwise_distances, balance, nearmiss, smote

from conftest import labeled


def on_segment(point, base, neighbor, tol=1e-9):
    """Collinear with (neighbor - base) and between the endpoints."""
    seg = neighbor - base
    rel = point - base
    denom = float(seg @ seg)
    if denom == 0.0:
        return np.linalg.norm(rel) <= tol
    t = float(rel @ seg) / denom
    residual = np.linalg.norm(rel - t * seg)
    return residual <= tol * (1.0 + np.linalg.norm(seg)) and -tol <= t <= 1.0 + tol


def reference_smote(minority, n_synthetic, k, seed):
    """smote with its neighbors found one row at a time, by the loop it once ran."""
    m = minority.shape[0]
    dist = _pairwise_distances(minority, minority)
    neighbors = np.empty((m, k), dtype=int)
    for i in range(m):
        order = np.argsort(dist[i], kind="stable")
        neighbors[i] = order[order != i][:k]
    rng = np.random.default_rng(seed)
    out = np.empty((n_synthetic, minority.shape[1]))
    for t in range(n_synthetic):
        i = t % m
        nn = neighbors[i, rng.integers(k)]
        u = rng.uniform()
        out[t] = minority[i] + u * (minority[nn] - minority[i])
    return out


@st.composite
def minority_with_repeats(draw):
    """Rows drawn with repetition from a few small-integer rows, so equal rows and distance ties are common."""
    d = draw(st.integers(1, 3))
    distinct = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=40))
    return np.array([distinct[i] for i in picks], dtype=float)


class TestSmote:
    @settings(max_examples=200, deadline=None)
    @given(minority=minority_with_repeats(), data=st.data())
    def test_matches_per_row_neighbor_search(self, minority, data):
        k = data.draw(st.integers(1, minority.shape[0] - 1))
        seed = data.draw(st.integers(0, 2**16))
        got = smote(minority, 3 * minority.shape[0], k, seed)
        assert np.array_equal(got, reference_smote(minority, 3 * minority.shape[0], k, seed))

    def test_overflowing_distances_never_pick_the_row_itself(self):
        # Squared distances overflow to inf - inf = NaN everywhere, the row's own included.
        minority = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            got = smote(minority, 20, 3, seed=4)
            assert np.array_equal(got, reference_smote(minority, 20, 3, seed=4))
        assert not np.any(got == minority[np.arange(20) % 5])

    def test_two_point_segment(self):
        minority = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = smote(minority, 5, k=1, seed=0)
        assert out.shape == (5, 2)
        for p in out:
            assert p[0] == pytest.approx(p[1], abs=1e-12)
            assert -1e-12 <= p[0] <= 1.0 + 1e-12

    def test_zero_requested(self):
        out = smote(np.array([[0.0], [1.0]]), 0, k=1, seed=0)
        assert out.shape == (0, 1)

    def test_too_few_minority_rows(self):
        with pytest.raises(InvalidInputError):
            smote(np.array([[0.0, 0.0]]), 3, k=1, seed=0)

    def test_oversized_k_clamped_with_warning(self):
        minority = np.array([[0.0], [1.0], [2.0]])
        with pytest.warns(UserWarning, match="clamp"):
            out = smote(minority, 4, k=10, seed=0)
        assert out.shape == (4, 1)

    def test_collinearity_and_segment_membership(self, rng):
        minority = rng.normal(size=(50, 4))
        k = 3
        out = smote(minority, 200, k=k, seed=7)
        dist = np.linalg.norm(minority[:, None, :] - minority[None, :, :], axis=2)
        for t, point in enumerate(out):
            i = t % 50
            order = np.argsort(dist[i], kind="stable")
            neighbors = [j for j in order if j != i][:k]
            assert any(on_segment(point, minority[i], minority[j]) for j in neighbors)

    def test_deterministic_per_seed(self, rng):
        minority = rng.normal(size=(10, 3))
        a = smote(minority, 20, k=4, seed=5)
        b = smote(minority, 20, k=4, seed=5)
        c = smote(minority, 20, k=4, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_round_robin_base_rows(self):
        # with k=1 every synthetic point lies on its base row's nearest segment
        minority = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        out = smote(minority, 6, k=1, seed=1)
        nearest = {0: 1, 1: 0, 2: 0}  # stable ties resolve to the lower index
        for t, point in enumerate(out):
            i = t % 3
            assert on_segment(point, minority[i], minority[nearest[i]])


def oracle_nearmiss(majority, minority, target, k):
    scored = []
    for i, row in enumerate(majority):
        dists = sorted(float(np.linalg.norm(row - m)) for m in minority)
        scored.append((sum(dists[:k]) / k, i))
    scored.sort()
    return sorted(i for _, i in scored[:target])


class TestNearmiss:
    def test_identity_selection(self, rng):
        majority = rng.normal(size=(8, 2))
        minority = rng.normal(size=(3, 2))
        selected = nearmiss(majority, minority, 8, k=3)
        assert np.array_equal(selected, np.arange(8))

    def test_small_instance_oracle(self, rng):
        majority = rng.normal(size=(5, 2))
        minority = rng.normal(size=(3, 2))
        assert list(nearmiss(majority, minority, 3, k=2)) == oracle_nearmiss(majority, minority, 3, 2)

    def test_twenty_point_oracle(self, rng):
        for trial in range(10):
            majority = rng.normal(size=(20, 3))
            minority = rng.normal(size=(6, 3))
            target = int(rng.integers(1, 20))
            k = int(rng.integers(1, 7))
            got = list(nearmiss(majority, minority, target, k))
            assert got == oracle_nearmiss(majority, minority, target, k)

    def test_ties_prefer_lower_index(self):
        majority = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        minority = np.array([[0.0, 0.0]])
        # all three majority rows are distance 1 from the minority point
        assert list(nearmiss(majority, minority, 2, k=1)) == [0, 1]

    def test_selection_is_subset_of_indices(self, rng):
        majority = rng.normal(size=(15, 2))
        minority = rng.normal(size=(4, 2))
        selected = nearmiss(majority, minority, 7, k=2)
        assert set(selected) <= set(range(15))
        assert len(set(selected.tolist())) == 7

    def test_empty_minority_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            nearmiss(rng.normal(size=(5, 2)), np.empty((0, 2)), 3, k=1)

    def test_target_bound(self, rng):
        with pytest.raises(InvalidInputError):
            nearmiss(rng.normal(size=(5, 2)), rng.normal(size=(2, 2)), 6, k=1)


class TestBalance:
    def binary(self, rng, n_blk, n_nblk):
        x = np.vstack([rng.normal(size=(n_blk, 3)), 5.0 + rng.normal(size=(n_nblk, 3))])
        y = np.array([0] * n_blk + [1] * n_nblk)
        return labeled(x, y, ("blocker", "non-blocker"))

    def test_already_balanced_unchanged(self, rng):
        dataset = self.binary(rng, 6, 6)
        out = balance(dataset, ResamplePlan(Strategy.OVER_SAMPLE, seed=1))
        assert out.n_rows == 12
        assert np.array_equal(out.matrix, dataset.matrix)

    def test_undersample_10_vs_4(self, rng):
        dataset = self.binary(rng, 4, 10)
        out = balance(dataset, ResamplePlan(Strategy.UNDER_SAMPLE, seed=1))
        assert out.class_counts() == (4, 4)
        # kept rows all existed before
        original = {tuple(r) for r in dataset.matrix}
        assert all(tuple(r) in original for r in out.matrix)

    def test_oversample_10_vs_4(self, rng):
        dataset = self.binary(rng, 4, 10)
        out = balance(dataset, ResamplePlan(Strategy.OVER_SAMPLE, seed=1))
        assert out.class_counts() == (10, 10)
        minority = dataset.matrix[dataset.labels == 0]
        synthetic = out.matrix[dataset.n_rows :]
        assert synthetic.shape == (6, 3)
        for point in synthetic:
            assert any(
                on_segment(point, minority[i], minority[j])
                for i in range(4)
                for j in range(4)
                if i != j
            )

    def test_original_strategy_passthrough(self, rng):
        dataset = self.binary(rng, 3, 9)
        assert balance(dataset, ResamplePlan(Strategy.ORIGINAL)) is dataset

    def test_equal_counts_property(self, rng):
        for strategy in (Strategy.OVER_SAMPLE, Strategy.UNDER_SAMPLE):
            for _ in range(8):
                n_a = int(rng.integers(3, 20))
                n_b = int(rng.integers(3, 20))
                out = balance(self.binary(rng, n_a, n_b), ResamplePlan(strategy, seed=3))
                counts = out.class_counts()
                assert counts[0] == counts[1]

    def test_herg_scale_oversample_counts(self, rng):
        # threshold-6 class mix: 1596 blockers vs 6784 non-blockers
        x = np.vstack([rng.normal(size=(1596, 3)), 4 + rng.normal(size=(6784, 3))])
        y = np.array([0] * 1596 + [1] * 6784)
        out = balance(labeled(x, y, ("blocker", "non-blocker")), ResamplePlan(Strategy.OVER_SAMPLE, seed=1))
        assert out.class_counts() == (6784, 6784)

    def test_herg_scale_undersample_counts(self, rng):
        # threshold-4.5 class mix: 7003 blockers vs 1377 non-blockers
        x = np.vstack([rng.normal(size=(7003, 3)), 4 + rng.normal(size=(1377, 3))])
        y = np.array([0] * 7003 + [1] * 1377)
        out = balance(labeled(x, y, ("blocker", "non-blocker")), ResamplePlan(Strategy.UNDER_SAMPLE, seed=1))
        assert out.class_counts() == (1377, 1377)

    def test_multiclass_rejected(self, rng):
        dataset = labeled(rng.normal(size=(9, 2)), np.repeat([0, 1, 2], 3))
        with pytest.raises(InvalidInputError):
            balance(dataset, ResamplePlan(Strategy.OVER_SAMPLE))
