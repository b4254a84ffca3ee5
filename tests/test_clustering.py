import math
import multiprocessing
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsieve import clustering
from flowsieve.config import DistanceMode, PipelineConfig
from flowsieve.errors import DataError, DegenerateDataError, SchemaError
from flowsieve.stats import TAG_SILHOUETTE_SAMPLE, derive_rng, pairwise_dists, pairwise_sq_dists


def _blobs(rng, centers, per_blob=30, spread=0.5):
    points = []
    labels = []
    for i, center in enumerate(centers):
        points.append(rng.normal(loc=center, scale=spread, size=(per_blob, len(center))))
        labels.extend([i] * per_blob)
    return np.vstack(points), np.array(labels)


def brute_force_silhouette(x: np.ndarray, assignments: np.ndarray) -> float:
    """Independent O(n^2) direct-formula computation."""
    n = x.shape[0]
    clusters = sorted(set(assignments.tolist()))
    scores = []
    for i in range(n):
        own = assignments[i]
        own_members = [j for j in range(n) if assignments[j] == own and j != i]
        if not own_members:
            scores.append(0.0)
            continue
        a = sum(np.linalg.norm(x[i] - x[j]) for j in own_members) / len(own_members)
        b = math.inf
        for c in clusters:
            if c == own:
                continue
            members = [j for j in range(n) if assignments[j] == c]
            b = min(b, sum(np.linalg.norm(x[i] - x[j]) for j in members) / len(members))
        denom = max(a, b)
        scores.append((b - a) / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


@st.composite
def _draw_weights(draw):
    """Non-negative k-means++ weights with a positive sum: zeros among
    them, a single nonzero one, or all scaled to tiny or subnormal sizes."""
    n = draw(st.integers(min_value=1, max_value=60))
    weights = np.zeros(n)
    if draw(st.booleans()):
        values = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6))
        weights[:] = draw(st.lists(values, min_size=n, max_size=n))
    weights[draw(st.integers(0, n - 1))] = draw(st.floats(min_value=1e-3, max_value=1e6))
    weights *= draw(st.sampled_from([1.0, 1e-300, 1e-320]))
    assert weights.sum() > 0
    return weights


class TestKMeans:
    def test_two_clouds_recovered(self):
        rng = np.random.default_rng(0)
        x, _ = _blobs(rng, [(0.0, 0.0), (10.0, 10.0)], per_blob=40, spread=0.3)
        result = clustering.kmeans_fit(x, 2, seed=1)
        means = sorted(result.centroids.tolist())
        expected = sorted([x[:40].mean(axis=0).tolist(), x[40:].mean(axis=0).tolist()])
        for got, want in zip(means, expected):
            assert np.linalg.norm(np.array(got) - np.array(want)) < 0.5

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        result = clustering.kmeans_fit(x, 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_duplicated_dataset_same_centroids(self):
        rng = np.random.default_rng(2)
        x, _ = _blobs(rng, [(0.0, 0.0), (12.0, 0.0)], per_blob=25, spread=0.4)
        doubled = np.vstack([x, x])
        single = clustering.kmeans_fit(x, 2, seed=3)
        double = clustering.kmeans_fit(doubled, 2, seed=3)
        got = sorted(double.centroids.tolist())
        want = sorted(single.centroids.tolist())
        assert np.allclose(got, want, atol=1e-6)

    def test_n_smaller_than_k_errors(self):
        with pytest.raises(DataError):
            clustering.kmeans_fit(np.zeros((3, 2)), 4, seed=0)

    def test_assignment_optimality(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 3))
        result = clustering.kmeans_fit(x, 5, seed=5)
        dists = np.linalg.norm(x[:, None, :] - result.centroids[None, :, :], axis=2)
        assert np.array_equal(result.assignments, dists.argmin(axis=1))

    def test_lloyd_ends_no_worse_than_its_seeding(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(120, 4))
        x_sq = np.einsum("ij,ij->i", x, x)
        init = clustering._plus_plus_init(x, 4, np.random.default_rng(7), x_sq)
        seeded_inertia = float(pairwise_sq_dists(x, init, x_sq).min(axis=1).sum())
        assert clustering._lloyd(x, init, x_sq).inertia <= seeded_inertia + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(weights=_draw_weights(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(weights=np.array([0.7]), seed=0)
    def test_weighted_draw_is_rng_choice(self, weights, seed):
        """The k-means++ draw takes the index, and leaves the generator in
        the state, that rng.choice(n, p=weights / total) does."""
        total = weights.sum()
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            index = clustering._weighted_index(weights, total, got)
            assert index == int(want.choice(len(weights), p=weights / total))
            assert weights[index] > 0
            assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("huge", [1e200, 1e154])
    def test_input_whose_squared_distances_overflow_is_data_error(self, huge):
        x = np.array([[huge, huge], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with np.errstate(all="ignore"), pytest.raises(DataError, match="overflow"):
            clustering.kmeans_fit(x, 2, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_data_error(self, bad):
        x = np.random.default_rng(16).normal(size=(20, 3))
        x[7, 1] = bad
        with pytest.raises(DataError, match="NaN or infinite"):
            clustering.kmeans_fit(x, 3, seed=0)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 2))
        first = clustering.kmeans_fit(x, 3, seed=9)
        second = clustering.kmeans_fit(x.copy(), 3, seed=9)
        assert np.array_equal(first.centroids, second.centroids)
        assert first.inertia == second.inertia


class TestSilhouette:
    def test_two_tight_pairs_correctly_clustered(self):
        x = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 0.0], [10.0, 0.1]])
        assignments = np.array([0, 0, 1, 1])
        assert clustering.silhouette_mean(x, assignments) > 0.9

    def test_wrong_split_scores_negative(self):
        x = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 0.0], [10.0, 0.1]])
        assignments = np.array([0, 1, 0, 1])  # one point of each pair per cluster
        assert clustering.silhouette_mean(x, assignments) < 0.0

    def test_all_singletons_score_zero(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert clustering.silhouette_mean(x, np.array([0, 1, 2])) == 0.0

    def test_single_cluster_errors(self):
        with pytest.raises(DataError):
            clustering.silhouette_mean(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_identical_points_degenerate(self):
        x = np.zeros((6, 2))
        with pytest.raises(DegenerateDataError):
            clustering.silhouette_mean(x, np.array([0, 0, 0, 1, 1, 1]))

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(4, 51))
            k = int(rng.integers(2, min(n, 6)))
            x = rng.normal(size=(n, int(rng.integers(2, 5))))
            assignments = rng.integers(0, k, size=n)
            if len(set(assignments.tolist())) < 2:
                assignments[0] = 0
                assignments[1] = 1
            got = clustering.silhouette_mean(x, assignments)
            want = brute_force_silhouette(x, assignments)
            # identical up to summation-order ulps
            assert got == pytest.approx(want, abs=5e-16)


class TestTrainFilter2:
    def test_three_planted_blobs_select_three(self):
        rng = np.random.default_rng(11)
        x, _ = _blobs(rng, [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], per_blob=30, spread=0.5)
        config = PipelineConfig(k_min=2, k_max=10, rng_seed=12)
        model = clustering.train_filter2(x, config)
        assert model.k_star == 3

    def test_identical_points_error(self):
        config = PipelineConfig(k_min=2, k_max=4)
        with pytest.raises(DegenerateDataError):
            clustering.train_filter2(np.ones((20, 3)), config)

    def test_tied_silhouettes_keep_the_smallest_k(self, monkeypatch):
        rng = np.random.default_rng(15)
        x, _ = _blobs(rng, [(0.0, 0.0), (6.0, 6.0)], per_blob=20)
        monkeypatch.setattr(clustering, "silhouette_means", lambda x, sets: [0.5] * len(sets))
        model = clustering.train_filter2(x, PipelineConfig(k_min=2, k_max=5, rng_seed=21))
        assert list(model.silhouette_by_k) == [2, 3, 4, 5]
        assert model.k_star == 2

    def test_k_max_shrinks_with_warning(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 2))
        config = PipelineConfig(k_min=2, k_max=20, rng_seed=0)
        model = clustering.train_filter2(x, config)
        assert any("k_max" in note for note in model.notes)
        assert model.k_star <= 5

    def test_seeded_determinism(self):
        rng = np.random.default_rng(14)
        x, _ = _blobs(rng, [(0.0, 0.0), (6.0, 6.0)], per_blob=20)
        config = PipelineConfig(k_min=2, k_max=5, rng_seed=21)
        first = clustering.train_filter2(x, config)
        second = clustering.train_filter2(x.copy(), config)
        assert first.k_star == second.k_star
        assert np.array_equal(first.centroids, second.centroids)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_data_error(self, bad):
        x = np.random.default_rng(17).normal(size=(30, 2))
        x[0, 0] = bad
        with pytest.raises(DataError, match="NaN or infinite"):
            clustering.train_filter2(x, PipelineConfig(k_min=2, k_max=4))

    def test_single_cluster_sample_extended_by_missed_clusters(self, monkeypatch):
        # 200 rows in one blob plus a tiny far-off cluster of 2 rows; with a
        # cap of 20 the seeded sample usually holds only blob rows.
        rng = np.random.default_rng(18)
        x = np.vstack([rng.normal(scale=0.1, size=(200, 2)), [[100.0, 100.0], [100.0, 100.1]]])
        cap = 20
        seed = next(
            s
            for s in range(100)
            if (derive_rng(s, TAG_SILHOUETTE_SAMPLE, 2).choice(202, size=cap, replace=False) < 200).all()
        )
        rows_scored = []
        real = clustering.silhouette_mean

        def recording(matrix, assignments):
            rows_scored.append(len(assignments))
            return real(matrix, assignments)

        monkeypatch.setattr(clustering, "silhouette_mean", recording)
        config = PipelineConfig(k_min=2, k_max=2, silhouette_sample_max=cap, rng_seed=seed)
        model = clustering.train_filter2(x, config)
        missed = 2
        assert rows_scored == [cap + missed]
        assert any("k=2" in note and "missed" in note for note in model.notes)
        assert model.silhouette_by_k[2] > 0.9

    def test_normalized_mode_stores_scales(self):
        rng = np.random.default_rng(15)
        x, _ = _blobs(rng, [(0.0, 0.0), (8.0, 8.0)], per_blob=25)
        config = PipelineConfig(
            k_min=2, k_max=4, distance_mode=DistanceMode.NORMALIZED_EUCLIDEAN, rng_seed=2
        )
        model = clustering.train_filter2(x, config)
        assert model.per_cluster_std is not None
        assert (model.per_cluster_std > 0).all()

    def test_normalized_scales_are_the_masked_stds_of_the_kept_fit(self):
        rng = np.random.default_rng(19)
        x, _ = _blobs(rng, [(0.0, 0.0, 0.0), (8.0, 8.0, 0.0), (0.0, 8.0, 8.0)], per_blob=25)
        config = PipelineConfig(
            k_min=2, k_max=5, distance_mode=DistanceMode.NORMALIZED_EUCLIDEAN, rng_seed=3
        )
        model = clustering.train_filter2(x, config)
        k = model.k_star
        kept = clustering.kmeans_fit(x, k, clustering.seed_for_k(config.rng_seed, k))
        stds = np.stack([x[kept.assignments == c].std(axis=0) for c in range(k)])
        assert (stds > 0).all()  # no zero-variance guard in play
        assert model.per_cluster_std.tobytes() == stds.tobytes()
        assert "per_cluster_mean" not in model.to_dict()


def masked_mean_lloyd(x: np.ndarray, centroids: np.ndarray) -> clustering.KMeansResult:
    """Lloyd's iteration with per-cluster boolean-mask means, updating until
    the shift falls below the tolerance and then making a final assignment
    pass: the reference that the sorted-slice centroid update and the stop
    at a repeated assignment must reproduce bit for bit."""
    n, _ = x.shape
    k = centroids.shape[0]
    centroids = centroids.copy()
    for _ in range(clustering.KMEANS_MAX_ITER):
        sq = pairwise_sq_dists(x, centroids)
        assignments = sq.argmin(axis=1)
        closest_sq = sq[np.arange(n), assignments]
        counts = np.bincount(assignments, minlength=k)
        if (counts == 0).any():
            spare = closest_sq.copy()
            for empty in np.flatnonzero(counts == 0):
                farthest = int(spare.argmax())
                centroids[empty] = x[farthest]
                spare[farthest] = -1.0
            sq = pairwise_sq_dists(x, centroids)
            assignments = sq.argmin(axis=1)
            counts = np.bincount(assignments, minlength=k)
        new_centroids = centroids.copy()
        for c in range(k):
            if counts[c] > 0:
                new_centroids[c] = x[assignments == c].mean(axis=0)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < clustering.KMEANS_SHIFT_TOL:
            break
    sq = pairwise_sq_dists(x, centroids)
    assignments = sq.argmin(axis=1)
    inertia = float(sq[np.arange(n), assignments].sum())
    return clustering.KMeansResult(centroids, assignments, inertia)


def one_clustering_silhouette(x: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette of one clustering, chunk by chunk, with the same
    arithmetic as the shared pass; the reference it must reproduce."""
    labels, relabeled = np.unique(assignments, return_inverse=True)
    k = labels.shape[0]
    n = x.shape[0]
    counts = np.bincount(relabeled, minlength=k).astype(float)
    membership = np.zeros((n, k))
    membership[np.arange(n), relabeled] = 1.0
    scores = np.zeros(n)
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        if n <= 2048:
            diff = x[start:stop, None, :] - x[None, :, :]
            dists = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        else:
            dists = pairwise_dists(x[start:stop], x)
        cluster_sums = dists @ membership
        own = relabeled[start:stop]
        rows = np.arange(stop - start)
        own_counts = counts[own]
        with np.errstate(invalid="ignore", divide="ignore"):
            a = cluster_sums[rows, own] / np.maximum(own_counts - 1.0, 1.0)
            mean_other = cluster_sums / counts[None, :]
            mean_other[rows, own] = np.inf
            b = mean_other.min(axis=1)
            denom = np.maximum(a, b)
            s = np.where(denom > 0.0, (b - a) / np.where(denom > 0.0, denom, 1.0), 0.0)
        scores[start:stop] = np.where(own_counts > 1.0, s, 0.0)
    return float(scores.mean())


@st.composite
def lloyd_starts(draw):
    """A matrix and starting centroids: continuous values, a small integer
    grid (exact ties and duplicate rows) or a few rows repeated; seeded
    k-means++ starts, starts at a far-off point (empty clusters to reseed)
    or all at one row."""
    d = draw(st.sampled_from([1, 25, 30, 40]))
    k = draw(st.integers(2, 8))
    n = draw(st.integers(k, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from(["normal", "grid", "repeated"]))
    if values == "normal":
        x = rng.normal(size=(n, d)) * rng.uniform(0.01, 50)
    elif values == "grid":
        x = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        distinct = rng.normal(size=(int(rng.integers(1, k + 2)), d))
        x = distinct[rng.integers(0, distinct.shape[0], size=n)]
    start = draw(st.sampled_from(["plus_plus", "far", "one_row"]))
    if start == "plus_plus":
        init = clustering._plus_plus_init(x, k, rng, np.einsum("ij,ij->i", x, x))
    elif start == "far":
        init = x[rng.integers(0, n, size=k)].copy()
        init[rng.integers(0, k) :] = 1e3
    else:
        init = np.repeat(x[rng.integers(0, n)][None, :], k, axis=0)
    return x, init


class TestExactness:
    """The fast paths must equal the straightforward computations exactly."""

    @pytest.mark.parametrize("n", [511, 512, 513, 2048, 2049])
    def test_shared_silhouette_pass_equals_per_k_scores(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        assignment_sets = [rng.integers(0, k, size=n) for k in range(2, 7)]
        assignment_sets.append(np.where(np.arange(n) == 5, 1, 0))  # a singleton cluster
        shared = clustering.silhouette_means(x, assignment_sets)
        per_k = [clustering.silhouette_mean(x, a) for a in assignment_sets]
        reference = [one_clustering_silhouette(x, a) for a in assignment_sets]
        assert shared == per_k == reference

    def test_sweep_keeps_the_fit_at_k_star(self):
        rng = np.random.default_rng(19)
        x, _ = _blobs(rng, [(0.0, 0.0), (7.0, 0.0), (0.0, 7.0), (7.0, 7.0)], per_blob=40, spread=1.5)
        config = PipelineConfig(k_min=2, k_max=8, rng_seed=23)
        model = clustering.train_filter2(x, config)
        refit = clustering.kmeans_fit(x, model.k_star, clustering.seed_for_k(23, model.k_star))
        assert np.array_equal(model.centroids, refit.centroids)

    @pytest.mark.parametrize("seed", range(6))
    def test_lloyd_equals_masked_mean_lloyd(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(int(rng.integers(40, 400)), int(rng.integers(1, 9)))) * rng.uniform(0.01, 50)
        k = int(rng.integers(2, 12))
        init = clustering._plus_plus_init(x, k, rng, np.einsum("ij,ij->i", x, x))
        self._assert_same_run(x, init)

    def test_lloyd_equals_masked_mean_lloyd_with_empty_cluster_reseed(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(150, 4))
        init = np.vstack([x[:3], np.full((1, 4), 1e3)])
        # no row is nearest the far-off centroid, so it must be reseeded
        assert (pairwise_sq_dists(x, init).argmin(axis=1) != 3).all()
        self._assert_same_run(x, init)

    @settings(max_examples=150, deadline=None)
    @given(start=lloyd_starts(), max_iter=st.sampled_from([None, 1, 2, 3]))
    def test_lloyd_equals_masked_mean_lloyd_on_ties_duplicates_and_capped_runs(self, start, max_iter):
        with pytest.MonkeyPatch.context() as patch:
            if max_iter is not None:
                patch.setattr(clustering, "KMEANS_MAX_ITER", max_iter)
            self._assert_same_run(*start)

    @staticmethod
    def _assert_same_run(x, init):
        got = clustering._lloyd(x, init, np.einsum("ij,ij->i", x, x))
        want = masked_mean_lloyd(x, init)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.assignments.tobytes() == want.assignments.tobytes()
        assert got.inertia == want.inertia


def _usable_cpus(monkeypatch, count):
    """Let the k sweep see `count` usable CPUs whatever the host has, or
    none of `os.sched_getaffinity` when `count` is None."""
    if count is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _sweep_case(case: str):
    rng = np.random.default_rng(24)
    if case == "exact":
        x, _ = _blobs(rng, [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)], per_blob=30)
        return x, dict(k_max=8, rng_seed=3)
    if case == "sampled":
        # one blob and a far-off pair: at k=2 a 20-row sample that misses
        # the pair holds one cluster
        x = np.vstack([rng.normal(scale=0.1, size=(200, 2)), [[100.0, 100.0], [100.0, 100.1]]])
        seed = next(
            s
            for s in range(100)
            if (derive_rng(s, TAG_SILHOUETTE_SAMPLE, 2).choice(202, size=20, replace=False) < 200).all()
        )
        return x, dict(k_max=5, silhouette_sample_max=20, rng_seed=seed)
    # fewer rows than k_max, and at k=2 a 4-row sample that holds one cluster
    return rng.normal(size=(6, 3)), dict(k_max=20, silhouette_sample_max=4, rng_seed=4)


class TestParallelSweep:
    """The k sweep gives the same bits on one CPU as on a pool of workers."""

    NOTES = {
        "exact": [],
        "sampled": ["at k=2: the seeded sample held one cluster", "seeded sample of 20 rows"],
        "shrunk": ["k_max shrunk to 6", "at k=2: the seeded sample held one cluster", "seeded sample of 4 rows"],
    }

    @pytest.mark.parametrize("mode", list(DistanceMode))
    @pytest.mark.parametrize("case", list(NOTES))
    def test_one_cpu_and_a_pool_give_the_same_model(self, monkeypatch, case, mode):
        x, fields = _sweep_case(case)
        config = PipelineConfig(k_min=2, distance_mode=mode, **fields)
        ks = range(2, min(config.k_max, len(x)) + 1)
        seed, cap = config.rng_seed, config.silhouette_sample_max
        real_fit = clustering.kmeans_fit
        runs = {}
        for cpus in (None, 1, 3):
            _usable_cpus(monkeypatch, cpus)
            if cpus == 3:
                monkeypatch.setattr(clustering, "_POOL_MIN_ROW_FITS", 0)
                pids = self._fit_pids(monkeypatch)
            model = clustering.train_filter2(x, config)
            runs[cpus] = model, clustering._fit_every_k(x, ks, seed, cap)
            assert multiprocessing.active_children() == []
        assert pids == []  # every pooled fit ran in a worker
        model, fits = runs[3]
        for phrase in self.NOTES[case]:
            assert any(phrase in note for note in model.notes), phrase
        # the sweep as one loop in the calling process
        serial = {k: real_fit(x, k, clustering.seed_for_k(seed, k)) for k in ks}
        notes = [] if len(x) >= config.k_max else [f"k_max shrunk to {len(x)}: fewer rows than the configured maximum"]
        if len(x) > cap:
            scores = [clustering._sampled_silhouette(x, serial[k].assignments, seed, k, cap, notes) for k in ks]
            notes.append(f"silhouette scored on a seeded sample of {cap} rows")
        else:
            scores = clustering.silhouette_means(x, [serial[k].assignments for k in ks])
        assert model.silhouette_by_k == dict(zip(ks, scores))
        assert model.notes[: len(notes)] == notes
        for other, other_fits in (runs[None], runs[1]):
            assert other.to_json() == model.to_json()
            assert other.silhouette_by_k == model.silhouette_by_k
            assert other.notes == model.notes
            assert np.array_equal(other.centroids, model.centroids)
            for k in ks:
                assert other_fits[k][1:] == fits[k][1:]  # sampled score and notes
                for result in (other_fits[k][0], fits[k][0]):
                    assert np.array_equal(result.centroids, serial[k].centroids)
                    assert np.array_equal(result.assignments, serial[k].assignments)
                    assert result.inertia == serial[k].inertia

    def test_a_small_sweep_fits_in_place(self, monkeypatch):
        _usable_cpus(monkeypatch, 3)
        x, _ = _sweep_case("exact")
        assert len(x) * 7 < clustering._POOL_MIN_ROW_FITS
        pids = self._fit_pids(monkeypatch)
        clustering.train_filter2(x, PipelineConfig(k_max=8))
        assert pids == [os.getpid()] * 7

    def test_a_process_with_threads_fits_in_place(self, monkeypatch):
        _usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(clustering, "_POOL_MIN_ROW_FITS", 0)
        pids = self._fit_pids(monkeypatch)
        x, _ = _sweep_case("exact")
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            clustering.train_filter2(x, PipelineConfig(k_max=8))
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert pids == [os.getpid()] * 7

    @staticmethod
    def _fit_pids(monkeypatch) -> list[int]:
        """Process ids of the k-means fits, as the calling process records
        them: a fit in a worker records into the worker's copy."""
        pids, real = [], clustering.kmeans_fit

        def fit(*args, **kwargs):
            pids.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(clustering, "kmeans_fit", fit)
        return pids

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_a_worker_error_reaches_the_caller_and_no_worker_outlives_it(self, monkeypatch, cpus):
        _usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(clustering, "_POOL_MIN_ROW_FITS", 0)
        real = clustering.kmeans_fit

        def fit(matrix, k, seed, restarts=clustering.KMEANS_RESTARTS):
            if k == 4:
                raise DegenerateDataError("no fit at k=4")
            return real(matrix, k, seed, restarts)

        monkeypatch.setattr(clustering, "kmeans_fit", fit)
        x, _ = _sweep_case("exact")
        with pytest.raises(DegenerateDataError, match="no fit at k=4"):
            clustering.train_filter2(x, PipelineConfig(k_max=8))
        assert multiprocessing.active_children() == []


def dense_silhouette_means(x: np.ndarray, assignment_sets) -> list[float]:
    """`silhouette_means` as it was before the symmetric distance matrix:
    a fresh (512, n, d) difference tensor per chunk, every pair computed
    twice."""
    n = x.shape[0]
    tallies = [clustering._SilhouetteTally(assignments, n) for assignments in assignment_sets]
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        if n <= 2048:
            diff = x[start:stop, None, :] - x[None, :, :]
            dists = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        else:
            dists = pairwise_dists(x[start:stop], x)
        for tally in tallies:
            tally.add_chunk(start, stop, dists)
    return [tally.mean() for tally in tallies]


def dense_distances(x: np.ndarray) -> np.ndarray:
    """Every row's direct-difference distances, computed the dense way."""
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@st.composite
def tied_clusterings(draw, n):
    """Rounded rows with duplicates, so exact distance ties abound, and a
    few clusterings of them; every clustering holds clusters 0 and 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 5, 25]))
    distinct = draw(st.integers(1, n))
    scale = draw(st.sampled_from([0.1, 1.0, 1e3]))
    decimals = draw(st.integers(0, 2))
    rows = np.round(rng.normal(scale=scale, size=(distinct, d)), decimals)
    x = rows[rng.integers(0, distinct, size=n)]
    assignment_sets = []
    for k in draw(st.lists(st.integers(2, 6), min_size=1, max_size=4)):
        assignments = rng.integers(0, k, size=n)
        assignments[:2] = (0, 1)
        assignment_sets.append(assignments)
    return x, assignment_sets


def _silhouette_outcome(score, x, assignment_sets):
    try:
        return [value.hex() for value in score(x, assignment_sets)]
    except (DataError, DegenerateDataError) as exc:
        return type(exc), str(exc)


class TestSymmetricSilhouetteOracle:
    """The symmetric distance matrix gives bit-identical silhouettes to the
    dense per-chunk differences, on both sides of the direct-difference
    blocks, the 512-row chunks and the switch to the expansion at 2048."""

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 511, 512, 513])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_small_and_chunk_edges(self, n, data):
        self._assert_identical(*data.draw(tied_clusterings(n)))

    @pytest.mark.parametrize("n", [2047, 2048, 2049])
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_exact_limit_edges(self, n, data):
        self._assert_identical(*data.draw(tied_clusterings(n)))

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 17, 513])
    def test_distance_matrix_equals_dense_differences(self, n):
        rng = np.random.default_rng(n)
        x = np.round(rng.normal(size=(n, 25)), 1)
        x[n // 2] = x[0]
        assert clustering._direct_distances(x).tobytes() == dense_distances(x).tobytes()

    @staticmethod
    def _assert_identical(x, assignment_sets):
        got = _silhouette_outcome(clustering.silhouette_means, x, assignment_sets)
        want = _silhouette_outcome(dense_silhouette_means, x, assignment_sets)
        assert got == want

    def test_peak_memory_at_the_exact_limit(self):
        # one (n, n) matrix of 32 MiB plus small blocks; with a fresh
        # (512, n, 25) tensor per chunk the peak was about 400 MiB
        rng = np.random.default_rng(0)
        n = clustering._SILHOUETTE_EXACT_N
        x = rng.normal(size=(n, 25))
        assignment_sets = [rng.integers(0, k, size=n) for k in (2, 3, 4, 5)]
        tracemalloc.start()
        try:
            clustering.silhouette_means(x, assignment_sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestClusterThresholds:
    def _model(self, centroids, mode=DistanceMode.RAW_EUCLIDEAN):
        from flowsieve.config import ClusteringFeatures

        return clustering.Filter2Model(
            k_star=len(centroids),
            centroids=np.asarray(centroids, dtype=float),
            per_cluster_thresholds=None,
            distance_mode=mode,
            feature_space=ClusteringFeatures.ALL,
        )

    def test_p100_is_max(self):
        model = self._model([[0.0], [100.0]])
        validation = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        thresholds = clustering.set_cluster_thresholds(model, validation, 100)
        assert thresholds[0] == 5.0
        assert thresholds[1] == 0.0  # no members

    def test_nearest_rank_p95(self):
        model = self._model([[0.0]])
        # distances 1..100
        validation = np.arange(1.0, 101.0).reshape(-1, 1)
        model = replace(model, per_cluster_thresholds=[0.0])
        thresholds = clustering.set_cluster_thresholds(model, validation, 95)
        assert thresholds[0] == 95.0

    def test_empty_validation_errors(self):
        model = self._model([[0.0], [1.0]])
        with pytest.raises(DataError):
            clustering.set_cluster_thresholds(model, np.zeros((0, 1)), 100)

    def test_empty_cluster_threshold_zero_means_unknown(self):
        model = self._model([[0.0], [100.0]])
        thresholds = clustering.set_cluster_thresholds(model, np.array([[1.0]]), 100)
        model = replace(model, per_cluster_thresholds=thresholds)
        scores = clustering.score_and_classify(np.array([[100.0]]), model, None)
        assert scores[0].assigned_cluster == 1
        assert scores[0].malicious == True


class TestScoreAndClassify:
    def _simple_model(self, thresholds=None, mode=DistanceMode.RAW_EUCLIDEAN, stds=None):
        from flowsieve.config import ClusteringFeatures

        model = clustering.Filter2Model(
            k_star=2,
            centroids=np.array([[0.0, 0.0], [10.0, 0.0]]),
            per_cluster_thresholds=thresholds,
            distance_mode=mode,
            feature_space=ClusteringFeatures.ALL,
        )
        if stds is not None:
            model.per_cluster_std = np.asarray(stds, dtype=float)
        return model

    def test_flow_at_centroid(self):
        model = self._simple_model(thresholds=[0.5, 0.5])
        [score] = clustering.score_and_classify(np.array([[0.0, 0.0]]), model, None)
        assert score.distance == 0.0
        assert score.tanh_score == 0.0
        assert score.malicious == False
        [score] = clustering.score_and_classify(np.array([[0.0, 0.0]]), model, 0.05)
        assert score.malicious == False

    def test_tanh_boundary_around_075(self):
        # atanh(0.75) ~ 0.9730: below it known, at/above it unknown
        model = self._simple_model()
        boundary = math.atanh(0.75)
        [below] = clustering.score_and_classify(np.array([[boundary - 1e-6, 0.0]]), model, 0.75)
        [above] = clustering.score_and_classify(np.array([[boundary + 1e-6, 0.0]]), model, 0.75)
        assert below.malicious == False
        assert above.malicious == True
        assert boundary == pytest.approx(0.9730, abs=1e-4)
        # a row whose tanh score equals tau exactly is unknown
        row = np.array([[boundary, 0.0]])
        [scored] = clustering.score_and_classify(row, model, 0.75)
        [again] = clustering.score_and_classify(row, model, float(scored.tanh_score))
        assert again.malicious == True

    def test_strict_threshold_comparison(self):
        model = self._simple_model(thresholds=[1.0, 1.0])
        [score] = clustering.score_and_classify(np.array([[1.0, 0.0]]), model, None)
        assert score.distance == pytest.approx(1.0)
        assert score.malicious == True  # distance == threshold is unknown

    def test_normalized_distance_definition(self):
        # ||(x - c) / std||_2 / sqrt(d)
        model = self._simple_model(
            mode=DistanceMode.NORMALIZED_EUCLIDEAN, stds=[[0.5, 1.0], [1.0, 1.0]]
        )
        x = np.array([[1.0, 2.0]])
        [score] = clustering.score_and_classify(x, model, 0.75)
        z = np.array([(1.0 - 0.0) / 0.5, (2.0 - 0.0) / 1.0])
        assert score.distance == pytest.approx(float(np.linalg.norm(z) / math.sqrt(2)))

    def test_missing_thresholds_error(self):
        model = self._simple_model(thresholds=None)
        with pytest.raises(DataError):
            clustering.score_and_classify(np.array([[0.0, 0.0]]), model, None)

    @settings(max_examples=100, deadline=None)
    @given(
        distance=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        threshold=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    )
    # tanh rounds neighbouring doubles to one value: tanh(5 - ulp) == tanh(5)
    @example(distance=4.999999999999999, threshold=5.0)
    def test_tanh_comparison_follows_distance_comparison(self, distance, threshold):
        # tanh is increasing, but rounded to doubles only non-decreasing, so a
        # strict tanh comparison implies the distance one and not conversely
        if math.tanh(distance) < math.tanh(threshold):
            assert distance < threshold
        if distance < threshold:
            assert math.tanh(distance) <= math.tanh(threshold)

    def test_per_cluster_vs_tanh_space_invariance(self):
        rng = np.random.default_rng(16)
        model = self._simple_model(thresholds=[0.8, 1.3])
        points = rng.uniform(-3, 13, size=(50, 2))
        raw = clustering.score_and_classify(points, model, None)
        tanh_model = replace(
            model, per_cluster_thresholds=[math.tanh(t) for t in model.per_cluster_thresholds]
        )
        for point, verdict in zip(points, raw):
            [tanh_side] = clustering.score_and_classify(point[None, :], tanh_model, None)
            # compare tanh(distance) against tanh(threshold) by hand
            assert (math.tanh(verdict.distance) < math.tanh(model.per_cluster_thresholds[verdict.assigned_cluster])) == (not verdict.malicious)
            assert tanh_side.assigned_cluster == verdict.assigned_cluster

    def test_tanh_score_range_and_monotonicity(self):
        model = self._simple_model()
        # stay inside cluster 0's half-space so distance grows with x
        distances = np.linspace(0.0, 4.9, 30)
        points = np.column_stack([distances, np.zeros(30)])
        scores = clustering.score_and_classify(points, model, 0.75)
        tanhs = [s.tanh_score for s in scores]
        assert all(0.0 <= t < 1.0 for t in tanhs)
        assert all(b > a for a, b in zip(tanhs, tanhs[1:]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        from flowsieve.config import ClusteringFeatures

        model = clustering.Filter2Model(
            k_star=2,
            centroids=np.array([[0.0, 1.0], [2.0, 3.0]]),
            per_cluster_thresholds=[0.4, 0.6],
            distance_mode=DistanceMode.RAW_EUCLIDEAN,
            feature_space=ClusteringFeatures.ALL,
            silhouette_by_k={2: 0.8},
            notes=["hello"],
        )
        path = tmp_path / "filter2.json"
        path.write_text(model.to_json(), encoding="utf-8")
        loaded = clustering.Filter2Model.load(path)
        assert loaded.k_star == 2
        assert np.array_equal(loaded.centroids, model.centroids)
        assert loaded.per_cluster_thresholds == [0.4, 0.6]
        assert loaded.silhouette_by_k == {2: 0.8}

    def _payload(self, **changes):
        payload = {
            "schema_version": 1,
            "k_star": 2,
            "centroids": [[0.0, 1.0], [2.0, 3.0]],
            "per_cluster_thresholds": [0.4, 0.6],
            "distance_mode": "normalized_euclidean",
            "feature_space": "all",
            "per_cluster_std": [[1.0, 1.0], [1.0, 1.0]],
        }
        payload.update(changes)
        return payload

    def test_well_formed_payload_loads(self):
        model = clustering.Filter2Model.from_dict(self._payload())
        assert model.per_cluster_std.shape == (2, 2)

    @pytest.mark.parametrize("means", [[[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0]]], ids=["centroid-shape", "short"])
    def test_per_cluster_mean_of_earlier_models_is_ignored(self, means):
        # models written before the key was dropped carry it; nothing reads it
        without = clustering.Filter2Model.from_dict(self._payload())
        carrying = clustering.Filter2Model.from_dict(self._payload(per_cluster_mean=means))
        assert carrying.to_json() == without.to_json()
        assert "per_cluster_mean" not in carrying.to_dict()

    @pytest.mark.parametrize(
        "changes",
        [
            {"centroids": [[0.0, 1.0], [2.0]]},
            {"centroids": [0.0, 1.0]},
            {"centroids": [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]},
            {"per_cluster_thresholds": [0.4]},
            {"per_cluster_thresholds": 0.4},
            {"per_cluster_std": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]},
            {"per_cluster_std": [[1.0, "x"], [1.0, 1.0]]},
            {"per_cluster_std": None},
        ],
    )
    def test_inconsistent_payload_is_schema_error(self, changes):
        with pytest.raises(SchemaError):
            clustering.Filter2Model.from_dict(self._payload(**changes))
