import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve import autoencoder, baselines, metrics
from flowsieve.config import PipelineConfig
from flowsieve.errors import DataError
from flowsieve.stats import TAG_FOREST, pairwise_dists, seed_sequence


def brute_force_lof(train, test, k):
    """Direct-formula LOF with the same fixed-k, index-tiebreak neighbor
    convention as the implementation."""
    train = [np.asarray(p, dtype=float) for p in train]
    test = [np.asarray(p, dtype=float) for p in test]

    def neighbors(point, exclude=None):
        ranked = sorted(
            (
                (math.dist(point, q), j)
                for j, q in enumerate(train)
                if j != exclude
            )
        )
        return ranked[:k]

    k_distance = []
    train_neighbors = []
    for i, p in enumerate(train):
        ranked = neighbors(p, exclude=i)
        train_neighbors.append(ranked)
        k_distance.append(ranked[-1][0])

    def lrd(ranked):
        reach = [max(k_distance[j], d) for d, j in ranked]
        return 1.0 / max(sum(reach) / len(reach), 1e-12)

    lrd_train = [lrd(ranked) for ranked in train_neighbors]
    scores = []
    for p in test:
        ranked = neighbors(p)
        scores.append(sum(lrd_train[j] for _, j in ranked) / len(ranked) / lrd(ranked))
    return np.array(scores)


def _grid(rows=6, cols=5):
    return np.array([[float(r), float(c)] for r in range(rows) for c in range(cols)])


class TestLof:
    def test_in_grid_point_scores_near_one(self):
        train = _grid()
        inside = np.array([[2.5, 2.0]])
        [score] = baselines.score_lof(train, inside, n_neighbors=5)
        assert abs(score - 1.0) < 0.1

    def test_far_point_scores_high(self):
        train = _grid()
        outside = np.array([[15.0, 2.0]])  # 10 grid steps beyond the edge
        [score] = baselines.score_lof(train, outside, n_neighbors=5)
        assert score > 1.5

    def test_neighbor_count_precondition(self):
        train = _grid(3, 3)
        with pytest.raises(DataError):
            baselines.score_lof(train, train[:1], n_neighbors=9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(8, 31))
            train = rng.normal(size=(n, 3))
            test = rng.normal(size=(5, 3)) * 2.0
            k = int(rng.integers(2, min(n - 1, 8)))
            got = baselines.score_lof(train, test, n_neighbors=k)
            want = brute_force_lof(train, test, k)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_duplicate_heavy_data_stays_finite(self):
        train = np.zeros((10, 2))
        train[-1] = [5.0, 5.0]
        scores = baselines.score_lof(train, np.array([[0.0, 0.0], [9.0, 9.0]]), n_neighbors=3)
        assert np.isfinite(scores).all()


def full_sort_knn(queries, train, k, exclude_self):
    """`_knn_among_train` as it was before selection: a stable sort of every
    whole distance row."""
    n_queries = queries.shape[0]
    order = np.empty((n_queries, k), dtype=int)
    ordered_dists = np.empty((n_queries, k))
    for start in range(0, n_queries, 1024):
        stop = min(start + 1024, n_queries)
        dists = pairwise_dists(queries[start:stop], train)
        if exclude_self:
            rows = np.arange(start, stop)
            dists[rows - start, rows] = np.inf
        chunk_order = np.argsort(dists, axis=1, kind="stable")[:, :k]
        order[start:stop] = chunk_order
        ordered_dists[start:stop] = dists[np.arange(stop - start)[:, None], chunk_order]
    return order, ordered_dists


@st.composite
def tied_neighbors(draw, n):
    """Rounded training rows with duplicates, so distances tie, also at the
    k-th; queries drawn from the same rows plus fresh ones; k from 1 up to
    every other training row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 5, 25]))
    distinct = draw(st.integers(1, n))
    decimals = draw(st.integers(0, 1))
    rows = np.round(rng.normal(size=(distinct, d)) * 2.0, decimals)
    train = rows[rng.integers(0, distinct, size=n)]
    n_queries = draw(st.sampled_from([1, 5, 1024, 1025]))
    fresh = np.round(rng.normal(size=(n_queries, d)) * 2.0, decimals)
    repeated = rows[rng.integers(0, distinct, size=n_queries)]
    queries = np.where(rng.random((n_queries, 1)) < 0.5, repeated, fresh)
    ks = {1, min(2, n - 1), min(20, n - 1)}
    if n <= 513:
        ks.add(n - 1)  # beyond, k = n - 1 only sorts whole rows slowly either way
    return train, queries, draw(st.sampled_from(sorted(ks)))


class TestNeighborSelectionOracle:
    """Selection of the k nearest equals the first k of a stable sort, in
    index and distance, with ties at the k-th distance broken by index;
    training sizes cover the 1024-query chunks and the silhouette's edges."""

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 511, 512, 513])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_tied_data(self, n, data):
        self._assert_same_lof(*data.draw(tied_neighbors(n)))

    @pytest.mark.parametrize("n", [2047, 2048, 2049])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_random_tied_data_at_the_silhouette_limit(self, n, data):
        self._assert_same_lof(*data.draw(tied_neighbors(n)))

    def _assert_same_lof(self, train, queries, k):
        self._assert_same_neighbors(train, train, k, exclude_self=True)
        self._assert_same_neighbors(queries, train, k, exclude_self=False)
        self._assert_same_neighbors(queries, train, k + 1, exclude_self=False)
        got = baselines.score_lof(train, queries, n_neighbors=k)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(baselines, "_knn_among_train", full_sort_knn)
            want = baselines.score_lof(train, queries, n_neighbors=k)
        assert got.tobytes() == want.tobytes()

    def test_ties_at_the_kth_distance_break_by_index(self):
        train = _grid()  # 30 points on a unit grid
        k = 5
        order, dists = baselines._knn_among_train(train, train, k, exclude_self=True)
        want_order, want_dists = full_sort_knn(train, train, k, exclude_self=True)
        # an inner point has four neighbors at 1 and four at sqrt(2): the
        # fifth nearest is one of four tied ones, the lowest-indexed
        inner = 7
        all_order, all_dists = full_sort_knn(train, train, 8, exclude_self=True)
        assert all_dists[inner, k - 1] == all_dists[inner, k] == math.sqrt(2.0)
        assert order[inner, k - 1] == min(all_order[inner, k - 1 :])
        assert order.tobytes() == want_order.tobytes()
        assert dists.tobytes() == want_dists.tobytes()

    @staticmethod
    def _assert_same_neighbors(queries, train, k, exclude_self):
        got = baselines._knn_among_train(queries, train, k, exclude_self)
        want = full_sort_knn(queries, train, k, exclude_self)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestIsolationForest:
    def test_isolated_point_ranks_highest(self):
        rng = np.random.default_rng(1)
        cluster = rng.normal(scale=0.2, size=(19, 2))
        far = np.array([[8.0, 8.0]])
        data = np.vstack([cluster, far])
        scores = baselines.score_if(data, data, seed=3)
        assert scores.argmax() == 19

    def test_scores_in_open_unit_interval(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(100, 4))
        scores = baselines.score_if(data, data, seed=4)
        assert ((scores > 0.0) & (scores < 1.0)).all()

    def test_duplication_invariance_within_noise(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(150, 3))
        test = rng.normal(size=(30, 3))
        base = baselines.score_if(train, test, seed=5)
        doubled = baselines.score_if(np.vstack([train, train]), test, seed=5)
        assert np.max(np.abs(base - doubled)) < 0.05

    def test_average_path_normalizer(self):
        # c(2) = 1 by definition; c(1) = 0
        assert baselines._average_path_length(1) == 0.0
        assert baselines._average_path_length(2) == 1.0
        # harmonic-number form for larger m
        m = 256
        expected = 2.0 * (math.log(m - 1) + baselines.EULER_GAMMA) - 2.0 * (m - 1) / m
        assert baselines._average_path_length(m) == pytest.approx(expected)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(60, 2))
        first = baselines.score_if(data, data, seed=7)
        second = baselines.score_if(data.copy(), data.copy(), seed=7)
        assert np.array_equal(first, second)


class TestKMeansOneStep:
    def test_test_point_at_centroid_scores_zero(self):
        rng = np.random.default_rng(7)
        blob_a = rng.normal(loc=(0.0, 0.0), scale=0.2, size=(30, 2))
        blob_b = rng.normal(loc=(9.0, 9.0), scale=0.2, size=(30, 2))
        train = np.vstack([blob_a, blob_b])
        config = PipelineConfig(k_min=2, k_max=4, rng_seed=8)
        from flowsieve.clustering import train_filter2

        model = train_filter2(train, config)
        scores = baselines.score_kmeans_one_step(train, model.centroids[:1], config)
        assert scores[0] == pytest.approx(0.0, abs=1e-9)

    def test_planted_outliers_rank_above_inliers(self):
        rng = np.random.default_rng(8)
        blob_a = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(40, 2))
        blob_b = rng.normal(loc=(10.0, 0.0), scale=0.3, size=(40, 2))
        train = np.vstack([blob_a, blob_b])
        inliers = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(10, 2))
        outliers = np.array([[100.0, 100.0], [-100.0, 50.0]])
        config = PipelineConfig(k_min=2, k_max=5, rng_seed=9)
        scores = baselines.score_kmeans_one_step(train, np.vstack([inliers, outliers]), config)
        assert scores[10:].min() > scores[:10].max()


class TestAeOneStep:
    def test_score_vector_length(self, synth_partitions):
        from flowsieve import encode

        training, validation, test = synth_partitions
        config = PipelineConfig(epochs_max=3)
        recipe = encode.fit_recipe(training[:500], config)
        train_m = encode.apply_recipe(training[:500], recipe).values
        val_m = encode.apply_recipe(validation[:200], recipe).values
        test_m = encode.apply_recipe(test[:150], recipe).values
        model = autoencoder.train_filter1(train_m, val_m, config)
        scores = baselines.score_ae_one_step(model, test_m)
        assert scores.shape == (150,)
        assert np.isfinite(scores).all()

    def test_constant_data_gives_prevalence_auprc(self):
        # perfectly reconstructable constant rows: every score is (nearly)
        # equal, so average precision collapses to the positive prevalence
        constant = np.full((64, 4), 0.4)
        config = PipelineConfig(epochs_max=30, batch_size=8, rng_seed=10)
        model = autoencoder.train_filter1(constant, constant, config)
        scores = baselines.score_ae_one_step(model, constant)
        assert np.allclose(scores, scores[0], atol=1e-12)
        positives = np.array([True] * 16 + [False] * 48)
        ap = metrics.average_precision(scores, positives)
        assert ap == pytest.approx(0.25, abs=1e-6)


# Reference: the isolation forest as a tree of node objects, walked once
# per test row, as it was before the trees became node arrays.
@dataclass
class _OracleNode:
    size: int
    feature: int = -1
    cut: float = 0.0
    left: Optional["_OracleNode"] = None
    right: Optional["_OracleNode"] = None


def _oracle_grow(x, rng, depth, limit):
    size = x.shape[0]
    if size <= 1 or depth >= limit:
        return _OracleNode(size=size)
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    splittable = np.flatnonzero(maxs > mins)
    if splittable.size == 0:
        return _OracleNode(size=size)
    feature = int(rng.choice(splittable))
    cut = float(rng.uniform(mins[feature], maxs[feature]))
    mask = x[:, feature] < cut
    if not mask.any() or mask.all():
        return _OracleNode(size=size)
    return _OracleNode(
        size=size,
        feature=feature,
        cut=cut,
        left=_oracle_grow(x[mask], rng, depth + 1, limit),
        right=_oracle_grow(x[~mask], rng, depth + 1, limit),
    )


def _oracle_forest(train, seed, n_trees=100, subsample=256):
    n = train.shape[0]
    s = min(subsample, n)
    limit = max(1, math.ceil(math.log2(max(s, 2))))
    trees = []
    for child in seed_sequence(seed, TAG_FOREST).spawn(n_trees):
        rng = np.random.default_rng(child)
        sample = train[rng.choice(n, size=s, replace=False)]
        trees.append(_oracle_grow(sample, rng, depth=0, limit=limit))
    return trees, s


def _oracle_path_length(node, row):
    depth = 0
    while node.left is not None:
        node = node.left if row[node.feature] < node.cut else node.right
        depth += 1
    return depth + baselines._average_path_length(node.size)


def _oracle_score_if(train, test, seed):
    trees, s = _oracle_forest(train, seed)
    normalizer = baselines._average_path_length(s)
    scores = np.empty(test.shape[0])
    for i, row in enumerate(test):
        mean_path = sum(_oracle_path_length(tree, row) for tree in trees) / len(trees)
        scores[i] = 2.0 ** (-mean_path / normalizer)
    return scores


def _oracle_root_cuts(train, seed):
    """(feature, cut) of the root of every reference tree that splits; every
    test row is compared with each of them."""
    trees = _oracle_forest(train, seed)[0]
    return [(tree.feature, tree.cut) for tree in trees if tree.left is not None]


class TestIsolationForestOracle:
    """The node-array forest gives bit-identical scores to the node-object
    reference."""

    @staticmethod
    def _assert_identical(train, test, seed):
        got = baselines.score_if(train, test, seed=seed)
        want = _oracle_score_if(train, test, seed)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [42, 7])
    def test_random_data(self, seed):
        rng = np.random.default_rng(seed)
        train = rng.random((600, 5))
        test = np.vstack([rng.random((150, 5)), rng.random((20, 5)) * 3.0 - 1.0])
        self._assert_identical(train, test, seed)

    def test_duplicate_rows(self):
        rng = np.random.default_rng(11)
        distinct = np.round(rng.random((12, 3)), 1)
        train = distinct[rng.integers(0, 12, size=400)]
        test = np.vstack([distinct, train[:30]])
        self._assert_identical(train, test, 42)

    def test_constant_columns(self):
        rng = np.random.default_rng(12)
        train = rng.random((300, 4))
        train[:, 1] = 0.5
        train[:, 3] = 0.0
        test = rng.random((80, 4))
        self._assert_identical(train, test, 42)
        # every row identical: each tree is a single leaf
        self._assert_identical(np.full((50, 3), 0.25), test[:, :3], 42)

    def test_fewer_rows_than_the_subsample(self):
        rng = np.random.default_rng(13)
        train = rng.random((40, 3))
        test = rng.random((60, 3))
        self._assert_identical(train, test, 7)
        self._assert_identical(train[:2], test, 7)

    def test_test_values_equal_to_a_cut(self):
        rng = np.random.default_rng(14)
        train = rng.random((500, 4))
        cuts = _oracle_root_cuts(train, 42)
        assert len(cuts) == 100
        test = rng.random((len(cuts), 4))
        for row, (feature, cut) in zip(test, cuts):
            row[feature] = cut
        self._assert_identical(train, test, 42)

    def test_one_training_row_is_refused(self):
        with pytest.raises(DataError):
            baselines.score_if(np.zeros((1, 2)), np.zeros((3, 2)))
