"""The known-behavior filter: k-means over infrequent flows, silhouette
driven choice of k, per-cluster distance thresholds and the tanh
abnormality score.

k-means uses k-means++ seeding with ten seeded restarts and Lloyd's
iteration (centroid-shift tolerance 1e-4, at most 300 iterations); the
restart with the lowest inertia wins. Empty clusters are reseeded to the
point farthest from its nearest centroid.

The k sweep of `train_filter2` fits each k on one forked worker process
per usable CPU, capped at the number of k values, under the rules of
`workers.forked_map`; a sweep too small to pay for the pool runs in the
calling process. Each k draws only from its own seeds, so the model is
byte-identical either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .artifact import Artifact, finite_array, finite_float, integer, list_of, mapping, optional, text
from .config import ClusteringFeatures, DistanceMode, PipelineConfig
from .encode import PcaBasis
from .errors import DataError, DegenerateDataError
from .stats import (
    TAG_KMEANS,
    TAG_SILHOUETTE_SAMPLE,
    derive_rng,
    nearest_rank_percentile,
    pairwise_dists,
    pairwise_sq_dists,
    row_sq_norms,
    seed_sequence,
)
from .workers import forked_map

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
KMEANS_SHIFT_TOL = 1e-4

# Starting and ending a pool of forked workers costs about 20 ms on a
# 2-vCPU host, and serial k-means about 0.04 ms per row per k value: a
# k sweep of fewer rows x k values than this runs faster in the calling
# process (489 rows at k = 2..4: 29 ms serial, 40-75 ms on two workers).
_POOL_MIN_ROW_FITS = 2048

_SILHOUETTE_CHUNK = 512
# Below this row count distances come from direct differences, which are
# exact where the squared-norm expansion suffers cancellation.
_SILHOUETTE_EXACT_N = 2048
# Rows per block of direct differences: a block against n rows of d
# features is a (block, n, d) temporary.
_DIRECT_BLOCK = 8


@dataclass
class KMeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float


def _finite_values(matrix: np.ndarray) -> np.ndarray:
    x = np.asarray(matrix, dtype=float)
    if not np.isfinite(x).all():
        raise DataError("clustering input holds NaN or infinite values")
    return x


def _weighted_index(weights: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(weights), p=weights / total)`` draws,
    taking the same one number from rng, without choice's checks of p;
    total is the positive, finite sum of the non-negative weights."""
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _plus_plus_init(
    x: np.ndarray, k: int, rng: np.random.Generator, x_sq: np.ndarray
) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest_sq = pairwise_sq_dists(x, centroids[:1], x_sq)[:, 0]
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            choice = int(rng.integers(n))
        elif math.isfinite(total):
            choice = _weighted_index(closest_sq, total, rng)
        else:
            raise DataError("clustering input is too large: its squared distances overflow")
        centroids[i] = x[choice]
        np.minimum(closest_sq, pairwise_sq_dists(x, centroids[i : i + 1], x_sq)[:, 0], out=closest_sq)
    return centroids


def _lloyd(x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray) -> KMeansResult:
    """Lloyd's iteration from `centroids`; `x_sq` is `row_sq_norms(x)`."""
    n, _ = x.shape
    k = centroids.shape[0]
    centroids = centroids.copy()
    rows = np.arange(n)
    # The assignments the current centroids are the means of.
    previous = None
    for _ in range(KMEANS_MAX_ITER):
        sq = pairwise_sq_dists(x, centroids, x_sq)
        assignments = sq.argmin(axis=1)
        counts = np.bincount(assignments, minlength=k)
        if (counts == 0).any():
            # Reseed each empty cluster to the point farthest from its
            # nearest centroid, excluding points already chosen.
            spare = sq[rows, assignments]
            for empty in np.flatnonzero(counts == 0):
                farthest = int(spare.argmax())
                centroids[empty] = x[farthest]
                spare[farthest] = -1.0
            sq = pairwise_sq_dists(x, centroids, x_sq)
            assignments = sq.argmin(axis=1)
            counts = np.bincount(assignments, minlength=k)
        elif previous is not None and np.array_equal(assignments, previous):
            # The update would rebuild these centroids bit for bit and stop
            # on a zero shift, and the final pass would repeat `sq`.
            return KMeansResult(centroids, assignments, float(sq[rows, assignments].sum()))
        # A stable sort lays each cluster's rows out contiguously in index
        # order, so reducing its slice adds the same rows in the same order
        # as the mean over a boolean mask would: the centroids are
        # bit-identical to `x[assignments == c].mean(axis=0)`. The sort is
        # on the narrowest key type, where NumPy uses a radix sort.
        keys = assignments.astype(np.min_scalar_type(k - 1))
        grouped = x[np.argsort(keys, kind="stable")]
        new_centroids = centroids.copy()
        stop = 0
        for c, count in enumerate(counts.tolist()):
            start, stop = stop, stop + count
            if count:
                np.add.reduce(grouped[start:stop], axis=0, out=new_centroids[c])
        filled = counts > 0
        new_centroids[filled] /= counts[filled, None]
        previous = assignments
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < KMEANS_SHIFT_TOL:
            break
    sq = pairwise_sq_dists(x, centroids, x_sq)
    assignments = sq.argmin(axis=1)
    inertia = float(sq[rows, assignments].sum())
    return KMeansResult(centroids, assignments, inertia)


def kmeans_fit(
    matrix: np.ndarray, k: int, seed: int, restarts: int = KMEANS_RESTARTS
) -> KMeansResult:
    """Best of `restarts` seeded k-means++/Lloyd runs by inertia."""
    x = _finite_values(matrix)
    n = x.shape[0]
    if k < 2:
        raise DataError("k must be at least 2")
    if n < k:
        raise DataError(f"cannot fit {k} clusters on {n} rows")
    x_sq = row_sq_norms(x)
    best: Optional[KMeansResult] = None
    for child in seed_sequence(seed, TAG_KMEANS).spawn(restarts):
        rng = np.random.default_rng(child)
        result = _lloyd(x, _plus_plus_init(x, k, rng, x_sq), x_sq)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def silhouette_mean(matrix: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette over all points.

    Per point: a = mean distance to co-cluster points (excluding itself),
    b = smallest mean distance to any other cluster, s = (b-a)/max(a,b).
    Points in singleton clusters score zero. Raises on fewer than two
    non-empty clusters, or when every non-singleton point has zero
    distances in both terms (indistinguishable input).
    """
    return silhouette_means(matrix, [assignments])[0]


def silhouette_means(matrix: np.ndarray, assignment_sets: Sequence[np.ndarray]) -> list[float]:
    """`silhouette_mean` of each clustering of the same rows.

    Each chunk of pairwise distances is computed once and scored against
    every clustering, so scoring many clusterings costs little more than
    scoring one; each score is bit-identical to a call of its own.
    """
    x = np.asarray(matrix, dtype=float)
    n = x.shape[0]
    tallies = [_SilhouetteTally(assignments, n) for assignments in assignment_sets]
    exact = _direct_distances(x) if n <= _SILHOUETTE_EXACT_N else None
    for start in range(0, n, _SILHOUETTE_CHUNK):
        stop = min(start + _SILHOUETTE_CHUNK, n)
        dists = pairwise_dists(x[start:stop], x) if exact is None else exact[start:stop]
        for tally in tallies:
            tally.add_chunk(start, stop, dists)
        del dists  # before the next chunk's distances exist
    return [tally.mean() for tally in tallies]


def _direct_distances(x: np.ndarray) -> np.ndarray:
    """All pairwise distances from direct differences, each pair computed
    once: a few rows at a time against themselves and every later row,
    mirrored into the lower triangle. fl(a - b) = -fl(b - a), so the
    mirrored distance sums the same squares in the same order and equals
    the one computed the other way round bit for bit."""
    n = x.shape[0]
    dists = np.empty((n, n))
    for start in range(0, n, _DIRECT_BLOCK):
        stop = min(start + _DIRECT_BLOCK, n)
        diff = x[start:stop, None, :] - x[None, start:, :]
        block = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        dists[start:stop, start:] = block
        dists[start:, start:stop] = block.T
    return dists


class _SilhouetteTally:
    """Silhouette scores of one clustering, filled chunk by chunk."""

    def __init__(self, assignments: np.ndarray, n: int) -> None:
        labels, self.relabeled = np.unique(np.asarray(assignments), return_inverse=True)
        k = labels.shape[0]
        if k < 2:
            raise DataError("silhouette requires at least two non-empty clusters")
        self.counts = np.bincount(self.relabeled, minlength=k).astype(float)
        self.membership = np.zeros((n, k))
        self.membership[np.arange(n), self.relabeled] = 1.0
        self.scores = np.zeros(n)
        self.any_positive = False
        self.has_non_singleton = bool((self.counts[self.relabeled] > 1).any())

    def add_chunk(self, start: int, stop: int, dists: np.ndarray) -> None:
        """Score rows start..stop from their distances to every row."""
        counts = self.counts
        cluster_sums = dists @ self.membership  # (chunk, k)
        own = self.relabeled[start:stop]
        rows = np.arange(stop - start)
        own_counts = counts[own]
        with np.errstate(invalid="ignore", divide="ignore"):
            a = cluster_sums[rows, own] / np.maximum(own_counts - 1.0, 1.0)
            mean_other = cluster_sums / counts[None, :]
            mean_other[rows, own] = np.inf
            b = mean_other.min(axis=1)
            denom = np.maximum(a, b)
            s = np.where(denom > 0.0, (b - a) / np.where(denom > 0.0, denom, 1.0), 0.0)
        s = np.where(own_counts > 1.0, s, 0.0)  # singleton convention
        self.any_positive = self.any_positive or bool((denom[own_counts > 1.0] > 0.0).any())
        self.scores[start:stop] = s

    def mean(self) -> float:
        if self.has_non_singleton and not self.any_positive:
            raise DegenerateDataError("silhouette undefined: all pairwise distances are zero")
        return float(self.scores.mean())


@dataclass
class Filter2Model(Artifact):
    """Known-behavior filter: centroids, thresholds with the percentile
    they were calibrated at, and the feature space."""

    k_star: int
    centroids: np.ndarray
    per_cluster_thresholds: Optional[list[float]]
    # keyword-only, so that it can sit beside the thresholds it calibrates
    pctl_known: Optional[float] = field(default=None, kw_only=True)
    distance_mode: DistanceMode
    feature_space: ClusteringFeatures
    per_cluster_std: Optional[np.ndarray] = None
    pca_basis: Optional[PcaBasis] = None
    silhouette_by_k: dict[int, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    ARTIFACT = "cluster-filter"
    SCHEMA_VERSION = 1
    READERS = {
        "k_star": integer,
        "centroids": finite_array,
        "per_cluster_thresholds": optional(list_of(finite_float)),
        "pctl_known": optional(finite_float),
        "distance_mode": DistanceMode,
        "feature_space": ClusteringFeatures,
        "per_cluster_std": optional(finite_array),
        "pca_basis": optional(PcaBasis.from_dict),
        "silhouette_by_k": optional(mapping(int, finite_float), dict),
        "notes": optional(list_of(text), list),
    }

    @property
    def dimension(self) -> int:
        return int(self.centroids.shape[1])

    def check(self) -> None:
        k_star, shape = self.k_star, self.centroids.shape
        if len(shape) != 2 or shape[0] != k_star:
            raise self.invalid("centroids", f"expected a matrix of k_star={k_star} rows, got shape {shape}")
        thresholds = self.per_cluster_thresholds
        if thresholds is not None and len(thresholds) != k_star:
            raise self.invalid(
                "per_cluster_thresholds", f"expected k_star={k_star} values, got {len(thresholds)}"
            )
        if self.pctl_known is not None and not 0 < self.pctl_known <= 100:
            raise self.invalid("pctl_known", f"it must lie in (0, 100], got {self.pctl_known}")
        stds = self.per_cluster_std
        if stds is None and self.distance_mode is DistanceMode.NORMALIZED_EUCLIDEAN:
            raise self.invalid("per_cluster_std", "the normalized_euclidean distance mode needs one")
        if stds is not None and stds.shape != shape:
            raise self.invalid("per_cluster_std", f"expected the centroids' shape {shape}, got {stds.shape}")
        if stds is not None and not (stds > 0.0).all():
            raise self.invalid("per_cluster_std", "every std must be positive")
        if self.feature_space is ClusteringFeatures.PCA and self.pca_basis is None:
            raise self.invalid("pca_basis", "the pca feature space needs one")


def train_filter2(matrix: np.ndarray, config: PipelineConfig) -> Filter2Model:
    """Fit k-means for every k in [k_min, k_max] and keep the fit with the
    best mean silhouette (ties break to the smallest k).

    When fewer rows than k_max are available, k_max shrinks to the row
    count with a warning recorded in the model.
    """
    x = _finite_values(matrix)
    n = x.shape[0]
    notes: list[str] = []
    if n < 2:
        raise DataError(f"cannot cluster {n} rows")
    if not (x != x[0]).any():
        raise DegenerateDataError("all rows are identical; silhouette undefined for every k")
    k_max = config.k_max
    if n < k_max:
        k_max = n
        notes.append(f"k_max shrunk to {n}: fewer rows than the configured maximum")
    if k_max < config.k_min:
        raise DataError(f"only {n} rows available, k_min={config.k_min} not reachable")

    ks = range(config.k_min, k_max + 1)
    sample_cap = config.silhouette_sample_max
    fits = _fit_every_k(x, ks, config.rng_seed, sample_cap)
    if n > sample_cap:
        scores = []
        for k in ks:
            _, score, k_notes = fits[k]
            scores.append(score)
            notes.extend(k_notes)
        notes.append(f"silhouette scored on a seeded sample of {sample_cap} rows")
    else:
        scores = silhouette_means(x, [fits[k][0].assignments for k in ks])
    silhouette_by_k = dict(zip(ks, scores))
    best_k = max(silhouette_by_k, key=silhouette_by_k.get)

    final = fits[best_k][0]
    model = Filter2Model(
        k_star=best_k,
        centroids=final.centroids,
        per_cluster_thresholds=None,
        distance_mode=config.distance_mode,
        feature_space=config.clustering_features,
        silhouette_by_k=silhouette_by_k,
        notes=notes,
    )
    if config.distance_mode is DistanceMode.NORMALIZED_EUCLIDEAN:
        _attach_cluster_scales(model, x, final.assignments)
    return model


_KFit = tuple[KMeansResult, Optional[float], list[str]]


def _fit_k(x: np.ndarray, seed: int, cap: int, k: int) -> _KFit:
    """One k of the sweep: its seeded fit and, when `x` has more than `cap`
    rows, its sampled silhouette and the note that sample left, if any."""
    result = kmeans_fit(x, k, seed_for_k(seed, k))
    notes: list[str] = []
    score = None
    if x.shape[0] > cap:
        score = _sampled_silhouette(x, result.assignments, seed, k, cap, notes)
    return result, score, notes


def _fit_every_k(x: np.ndarray, ks: Sequence[int], seed: int, cap: int) -> dict[int, _KFit]:
    """`_fit_k` for every k, largest k first so that the workers' loads
    even out, through `workers.forked_map`.

    The fits are independent and each draws only from its own k's seeds,
    so a worker returns the same bits as the calling process would. A
    sweep under `_POOL_MIN_ROW_FITS` fits every k here.
    """
    order = sorted(ks, reverse=True)
    small = x.shape[0] * len(order) < _POOL_MIN_ROW_FITS
    with forked_map(partial(_fit_k, x, seed, cap), order, small=small) as results:
        return dict(zip(order, results()))


def _sampled_silhouette(
    x: np.ndarray, assignments: np.ndarray, seed: int, k: int, cap: int, notes: list[str]
) -> float:
    """Mean silhouette on a seeded sample of `cap` rows.

    A sample that holds a single cluster has no silhouette; it is extended
    by every row of the clusters it missed, in row order, rather than
    falling back to all n rows (quadratic in n).
    """
    rng = derive_rng(seed, TAG_SILHOUETTE_SAMPLE, k)
    sample = rng.choice(x.shape[0], size=cap, replace=False)
    sampled = assignments[sample]
    if np.unique(sampled).shape[0] < 2:
        missed = np.flatnonzero(~np.isin(assignments, sampled))
        sample = np.concatenate([sample, missed])
        notes.append(
            f"silhouette at k={k}: the seeded sample held one cluster, "
            f"so the {missed.size} rows of the clusters it missed were added"
        )
    return silhouette_mean(x[sample], assignments[sample])


def seed_for_k(seed: int, k: int) -> int:
    # Stable per-k k-means seed: the fit kept at k* is the sweep's own fit
    # at that k, and can be reproduced with kmeans_fit alone.
    return (seed * 1_000_003 + k) & 0xFFFFFFFFFFFFFFFF


def _attach_cluster_scales(model: Filter2Model, x: np.ndarray, assignments: np.ndarray) -> None:
    k, d = model.centroids.shape
    stds = np.zeros((k, d))
    for c in range(k):
        members = x[assignments == c]
        if members.shape[0] > 0:
            stds[c] = members.std(axis=0)
    # Degenerate-variance guard: a zero std cannot divide; substitute the
    # smallest positive std of the same cluster, then of any cluster.
    global_positive = stds[stds > 0.0]
    global_floor = float(global_positive.min()) if global_positive.size else 1.0
    replaced = []
    for c in range(k):
        zero_dims = np.flatnonzero(stds[c] <= 0.0)
        if zero_dims.size:
            row_positive = stds[c][stds[c] > 0.0]
            fill = float(row_positive.min()) if row_positive.size else global_floor
            stds[c, zero_dims] = fill
            replaced.append((c, len(zero_dims)))
    if replaced:
        detail = ", ".join(f"cluster {c}: {m} dims" for c, m in replaced)
        model.notes.append(f"zero-variance guard replaced stds ({detail})")
    model.per_cluster_std = stds


def assign_and_distance(model: Filter2Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row, with the distance of the configured mode
    used both for the assignment and as the abnormality measure."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.dimension:
        raise DataError(
            f"vector dimension {x.shape[1]} does not match cluster space {model.dimension}"
        )
    if model.distance_mode is DistanceMode.RAW_EUCLIDEAN:
        dists = pairwise_dists(x, model.centroids)
    else:
        if model.per_cluster_std is None:
            raise DataError("normalized distances require per-cluster scales")
        d = model.dimension
        k = model.centroids.shape[0]
        dists = np.empty((x.shape[0], k))
        for c in range(k):
            z = (x - model.centroids[c]) / model.per_cluster_std[c]
            dists[:, c] = np.sqrt(np.einsum("ij,ij->i", z, z) / d)
    assignments = dists.argmin(axis=1)
    return assignments, dists[np.arange(x.shape[0]), assignments]


def set_cluster_thresholds(
    model: Filter2Model, validation: np.ndarray, pctl_known: float
) -> list[float]:
    """Per-cluster nearest-rank percentile of the validation distances.

    Clusters without validation members get threshold zero: with no
    evidence that membership is benign, any future member counts as
    unknown.
    """
    x = np.asarray(validation, dtype=float)
    if x.shape[0] == 0:
        raise DataError("cannot calibrate cluster thresholds on an empty validation set")
    assignments, distances = assign_and_distance(model, x)
    thresholds = []
    for c in range(model.centroids.shape[0]):
        member_distances = distances[assignments == c]
        if member_distances.size == 0:
            thresholds.append(0.0)
        else:
            thresholds.append(nearest_rank_percentile(member_distances, pctl_known))
    return thresholds


def score_and_classify(
    vectors: np.ndarray, model: Filter2Model, tau: Optional[float]
) -> np.recarray:
    """Assign flows to their nearest cluster and decide known vs unknown.

    Returns the cluster fields of the verdict table (`assigned_cluster`,
    `distance`, `tanh_score`, `malicious`), one row per flow. A flow is
    known, and not malicious, when tanh(distance) < tau or, with tau None,
    when its distance is below its cluster's threshold. Both comparisons
    are strict: a flow exactly at the threshold is unknown.
    """
    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    assignments, distances = assign_and_distance(model, x)
    tanh_scores = np.tanh(distances)
    if tau is not None:
        known = tanh_scores < tau
    elif model.per_cluster_thresholds is None:
        raise DataError("per-cluster classification requires calibrated thresholds")
    else:
        th = np.asarray(model.per_cluster_thresholds, dtype=float)
        known = distances < th[assignments]
    return np.rec.fromarrays(
        [assignments, distances, tanh_scores, ~known],
        names="assigned_cluster,distance,tanh_score,malicious",
    )
