"""Small numeric helpers shared by both filters."""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import DataError


def nearest_rank_percentile(values: Sequence[float] | np.ndarray, p: float) -> float:
    """Nearest-rank percentile: the element at 1-based index ceil(p/100 * n)
    of the sorted array, clamped to [1, n]."""
    if not 0 < p <= 100:
        raise DataError(f"percentile must lie in (0, 100], got {p}")
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.shape[0]
    if n == 0:
        raise DataError("percentile of an empty array")
    if float(p).is_integer():
        # Exact integer arithmetic avoids float fuzz at rank boundaries.
        rank = -(-int(p) * n // 100)
    else:
        rank = math.ceil(p * n / 100.0)
    rank = min(max(rank, 1), n)
    return float(ordered[rank - 1])


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic RNG stream derived from a 64-bit seed and integer tags."""
    return np.random.default_rng(seed_sequence(seed, *tags))


def seed_sequence(seed: int, *tags: int) -> np.random.SeedSequence:
    entropy = [seed & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(tag & 0xFFFFFFFFFFFFFFFF for tag in tags)
    return np.random.SeedSequence(entropy)


# Stream tags; fixed so artifacts stay reproducible across releases.
TAG_AE_INIT = 0x01
TAG_AE_SHUFFLE = 0x02
TAG_KMEANS = 0x03
TAG_SILHOUETTE_SAMPLE = 0x04
TAG_SYNTH = 0x05
TAG_FOREST = 0x06
TAG_BENCH = 0x10


def row_sq_norms(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


# Cells of the (m, n) result finished per step in `pairwise_sq_dists`, so
# its row-sum temporary stays small whatever the shape.
_INPLACE_CELLS = 2**16


def pairwise_sq_dists(
    a: np.ndarray, b: np.ndarray, a_sq_norms: Optional[np.ndarray] = None
) -> np.ndarray:
    """Squared Euclidean distances between rows of a (m,d) and b (n,d).

    `a_sq_norms`, when given, must be `row_sq_norms(a)`; callers that
    measure the same `a` against many `b` pass it to skip recomputing it.

    The product a @ b.T is the only (m, n) array: (|a|^2 + |b|^2) - 2ab is
    applied to it in place a few rows at a time, the same correctly
    rounded operations on the same operands as the one-expression form.
    """
    a2 = row_sq_norms(a) if a_sq_norms is None else a_sq_norms
    b2 = row_sq_norms(b)
    d2 = a @ b.T
    step = max(1, _INPLACE_CELLS // max(d2.shape[1], 1))
    for start in range(0, d2.shape[0], step):
        block = d2[start : start + step]
        block *= 2.0
        np.subtract(a2[start : start + step, None] + b2, block, out=block)
    np.maximum(d2, 0.0, out=d2)
    return d2


def pairwise_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dists = pairwise_sq_dists(a, b)
    return np.sqrt(dists, out=dists)
