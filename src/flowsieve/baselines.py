"""One-step novelty detectors benchmarked against the two-step pipeline.

Each baseline emits one finite anomaly score per test row (higher = more
anomalous), so the same average-precision machinery applies to all of
them. All baselines consume the same encoding as the pipeline; this is
recorded in the benchmark report.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import autoencoder, clustering
from .config import PipelineConfig
from .errors import DataError
from .stats import TAG_FOREST, pairwise_dists, seed_sequence

EULER_GAMMA = 0.5772156649015329

LOF_DEFAULT_NEIGHBORS = 20
IF_TREES = 100
IF_SUBSAMPLE = 256

_REACHABILITY_FLOOR = 1e-12


def score_ae_one_step(model: autoencoder.Filter1Model, test: np.ndarray) -> np.ndarray:
    """Reconstruction MSE of the pipeline's frequency filter, used without
    the second filter."""
    return autoencoder.compute_mse(model, test)


def score_kmeans_one_step(train: np.ndarray, test: np.ndarray, config: PipelineConfig) -> np.ndarray:
    """tanh of the raw Euclidean distance to the nearest centroid; k is
    selected by mean silhouette on the full (unfiltered) training encoding."""
    model = clustering.train_filter2(train, config)
    dists = pairwise_dists(test, model.centroids).min(axis=1)
    return np.tanh(dists)


_KNN_CHUNK = 1024
_SELECT_ROWS = 64


def _knn_among_train(
    queries: np.ndarray, train: np.ndarray, k: int, exclude_self: bool
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest training rows per query; ties break by training index.

    Queries are processed in chunks so the full pairwise matrix is never
    materialized: one chunk's distances exist at a time, and the selection
    runs on a few of its rows at a time.
    """
    n_queries = queries.shape[0]
    order = np.empty((n_queries, k), dtype=int)
    ordered_dists = np.empty((n_queries, k))
    for start in range(0, n_queries, _KNN_CHUNK):
        stop = min(start + _KNN_CHUNK, n_queries)
        dists = pairwise_dists(queries[start:stop], train)
        if exclude_self:
            own = np.arange(start, stop)
            dists[own - start, own] = np.inf
        for sub in range(0, stop - start, _SELECT_ROWS):
            rows = slice(start + sub, min(start + sub + _SELECT_ROWS, stop))
            order[rows], ordered_dists[rows] = _k_smallest(dists[sub : sub + _SELECT_ROWS], k)
        del dists  # before the next chunk's distances exist
    return order, ordered_dists


def _k_smallest(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and values of each row's k smallest distances.

    Each row's k-th smallest distance is found by selection. The row keeps
    every distance below it and, of the ties at it, the lowest-indexed ones
    until it holds k; these k are sorted by (distance, index). So the result
    equals the first k of a stable sort of the whole row, at a cost that
    does not grow with the number of ties.
    """
    kth = np.partition(dists, k - 1, axis=1)[:, [k - 1]]  # a copy, so the partitioned rows are freed
    if np.isnan(kth).any():
        raise DataError("nearest-neighbor distances hold NaN")
    keep = dists < kth
    tied = dists == kth
    # a tie is kept while its rank among its row's ties, counted from the
    # lowest column, is within the places the row has left
    keep |= tied & (np.cumsum(tied, axis=1) <= (k - np.count_nonzero(keep, axis=1))[:, None])
    rows, cols = np.nonzero(keep)
    candidates = dists[rows, cols]
    chosen = np.lexsort((cols, candidates, rows)).reshape(-1, k)
    return cols[chosen], candidates[chosen]


def score_lof(train: np.ndarray, test: np.ndarray, n_neighbors: int = LOF_DEFAULT_NEIGHBORS) -> np.ndarray:
    """Local outlier factor in novelty mode: test points are scored against
    their training neighbors only. Higher means more anomalous."""
    n = train.shape[0]
    if n_neighbors < 1:
        raise DataError("n_neighbors must be at least 1")
    if n_neighbors >= n:
        raise DataError(f"n_neighbors={n_neighbors} must be smaller than the training size {n}")

    train_nn, train_nn_dists = _knn_among_train(train, train, n_neighbors, exclude_self=True)
    k_distance = train_nn_dists[:, -1]

    # Local reachability density of every training point.
    reach = np.maximum(k_distance[train_nn], train_nn_dists)
    lrd_train = 1.0 / np.maximum(reach.mean(axis=1), _REACHABILITY_FLOOR)

    test_nn, test_nn_dists = _knn_among_train(test, train, n_neighbors, exclude_self=False)
    reach_test = np.maximum(k_distance[test_nn], test_nn_dists)
    lrd_test = 1.0 / np.maximum(reach_test.mean(axis=1), _REACHABILITY_FLOOR)
    return lrd_train[test_nn].mean(axis=1) / lrd_test


def _average_path_length(m: float) -> float:
    """Expected path length of an unsuccessful BST search over m points."""
    if m <= 1:
        return 0.0
    if m == 2:
        return 1.0
    return 2.0 * (math.log(m - 1.0) + EULER_GAMMA) - 2.0 * (m - 1.0) / m


class _IsolationTree(NamedTuple):
    """One isolation tree as node arrays in depth-first order, so node 0 is
    the root and an internal node's left child is the node after it. A
    row goes left iff row[feature] < cut; a leaf has feature -1 and its
    path length, depth + c(size), in leaf_path."""

    feature: np.ndarray
    cut: np.ndarray
    right: np.ndarray
    leaf_path: np.ndarray

    def path_lengths(self, x: np.ndarray) -> np.ndarray:
        """Path length of every row, descending all rows one level at a time."""
        node = np.zeros(x.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            at = node[active]
            goes_left = x[active, self.feature[at]] < self.cut[at]
            node[active] = np.where(goes_left, at + 1, self.right[at])
            active = active[self.feature[node[active]] >= 0]
        return self.leaf_path[node]


def _grow_tree(x: np.ndarray, rng: np.random.Generator, limit: int) -> _IsolationTree:
    nodes: list[tuple[int, float, int, float]] = []  # (feature, cut, right, leaf_path)

    def grow(x: np.ndarray, depth: int) -> int:
        node = len(nodes)
        nodes.append((-1, 0.0, -1, depth + _average_path_length(x.shape[0])))
        if x.shape[0] <= 1 or depth >= limit:
            return node
        mins = x.min(axis=0)
        maxs = x.max(axis=0)
        splittable = np.flatnonzero(maxs > mins)
        if splittable.size == 0:
            return node
        # Draws the same stream as rng.choice(splittable).
        feature = int(splittable[rng.integers(0, splittable.size)])
        cut = float(rng.uniform(mins[feature], maxs[feature]))
        mask = x[:, feature] < cut
        if not 0 < np.count_nonzero(mask) < x.shape[0]:
            return node
        grow(x[mask], depth + 1)  # the left child is node + 1
        nodes[node] = (feature, cut, grow(x[~mask], depth + 1), 0.0)
        return node

    grow(x, 0)
    return _IsolationTree(*(np.array(column) for column in zip(*nodes)))


def score_if(train: np.ndarray, test: np.ndarray, seed: int = 42) -> np.ndarray:
    """Isolation-forest anomaly score 2^(-E[h(x)] / c(s)) in (0, 1).

    Trees split on a uniformly random feature at a uniformly random cut in
    the node's subsample range, height-limited at ceil(log2 s).
    """
    n = train.shape[0]
    if n < 2:
        raise DataError(f"isolation forest needs at least two training rows, got {n}")
    s = min(IF_SUBSAMPLE, n)
    limit = max(1, math.ceil(math.log2(max(s, 2))))
    total = np.zeros(test.shape[0])
    for child in seed_sequence(seed, TAG_FOREST).spawn(IF_TREES):
        rng = np.random.default_rng(child)
        sample = train[rng.choice(n, size=s, replace=False)]
        total += _grow_tree(sample, rng, limit).path_lengths(test)
    exponents = -(total / IF_TREES) / _average_path_length(s)
    # Python's float power (libm), not np.power, whose SIMD code may differ
    # in the last bit.
    return np.array([2.0**e for e in exponents.tolist()])


# Reference values from a prior published evaluation on the public
# dataset; the kernel-SVM detector itself is out of scope here.
OCSVM_REFERENCE_ROW = {
    "being scanned by Nmap": 0.885,
    "is executing cryptomining": 0.129,
    "macro": 0.507,
    "note": "reference values from a prior published evaluation; not reproduced by this package",
}
