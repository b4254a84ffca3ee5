"""Feature encoding: cleansed flow records to numeric matrices in [0, 1].

A recipe is fitted on training flows only (categorical vocabularies plus
min-max statistics) and then applied unchanged everywhere else. Unseen
categorical values map to a dedicated OTHER bucket; numeric values outside
the training range clip to the [0, 1] boundary, where out-of-range
magnitude still shows up as reconstruction error.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

import numpy as np

from .artifact import Artifact, finite_array, finite_float, integer, list_of, mapping, text
from .config import ClusteringFeatures, IpTreatment, NumericTreatment, PipelineConfig
from .errors import ConfigError, DataError
from .records import TCP_BIT_NAMES, FlowRecord

if TYPE_CHECKING:
    from .autoencoder import Filter1Model

OTHER = "OTHER"

# Encoded features in declaration order: (kind, feature, record field).
# A categorical feature expands into one indicator per vocabulary value
# (lexicographic) plus OTHER, and encodes an absent field as "". An
# optional numeric field encodes an absent value, and -0.0, as 0. A binary
# feature is a TCP control bit or a boolean field.
_FEATURES: tuple[tuple[str, str, str], ...] = (
    ("categorical", "protocol_identifier", "protocol_identifier"),
    ("numeric", "flow_duration_milliseconds", "flow_duration_milliseconds"),
    ("numeric", "octet_delta_count", "octet_delta_count"),
    ("numeric", "packet_delta_count", "packet_delta_count"),
    ("numeric", "avg_packet_size", "avg_packet_size"),
    ("categorical", "flow_end_reason", "flow_end_reason"),
    *(("binary", f"tcp_{name}", "tcp_control_bits") for name in TCP_BIT_NAMES),
    ("categorical", "network_class_of_destination", "network_class_of_destination"),
    ("categorical", "destination_network_prefix", "destination_network_prefix"),
    ("optional", "inter_arrival_time_milliseconds", "inter_arrival_time_milliseconds"),
    ("categorical", "reputation_status", "reputation_status"),
    ("optional", "same_dest_port_count_pool", "same_dest_port_count_pool"),
    ("optional", "same_dest_ip_count_pool", "same_dest_ip_count_pool"),
    ("binary", "has_dns_request_from_pool", "has_dns_request_from_pool"),
    ("optional", "dns_host_pct_numerical_chars", "dns_host_pct_numerical_chars"),
)

_TCP_BITS = {f"tcp_{name}": bit for bit, name in enumerate(TCP_BIT_NAMES)}

# The manually selected clustering subset, in its documented order.
MANUAL_SUBSET_COLUMNS = (
    "octet_delta_count",
    "avg_packet_size",
    "flow_duration_milliseconds",
    "same_dest_ip_count_pool",
    "same_dest_port_count_pool",
)


def _numeric_range(value) -> tuple[float, float]:
    bounds = list_of(finite_float)(value)
    if len(bounds) != 2 or not bounds[0] <= bounds[1]:
        raise ValueError(f"expected finite [min, max], got {value!r:.40}")
    return bounds[0], bounds[1]


@dataclass(frozen=True)
class EncodingRecipe(Artifact):
    ip_treatment: IpTreatment
    numeric_treatment: NumericTreatment
    vocabularies: dict[str, tuple[str, ...]]  # sorted values, OTHER implied last
    numeric_stats: dict[str, tuple[float, float]]  # (min, max) of transformed values
    columns: tuple[str, ...]

    ARTIFACT = "recipe"
    SCHEMA_VERSION = 1
    READERS = {
        "ip_treatment": IpTreatment,
        "numeric_treatment": NumericTreatment,
        "vocabularies": mapping(text, list_of(text, tuple)),
        "numeric_stats": mapping(text, _numeric_range),
        "columns": list_of(text, tuple),
    }

    @property
    def dimension(self) -> int:
        return len(self.columns)

    def check(self) -> None:
        features = list(_active_features(self.ip_treatment))
        for key, kinds in (("vocabularies", ("categorical",)), ("numeric_stats", ("numeric", "optional"))):
            names = sorted(name for kind, name, _ in features if kind in kinds)
            if sorted(getattr(self, key)) != names:
                raise self.invalid(key, f"must hold exactly the features {', '.join(names)}")
        if self.columns != recipe_columns(self.ip_treatment, self.vocabularies):
            raise self.invalid("columns", "they differ from the columns of ip_treatment and vocabularies")


@dataclass(frozen=True)
class FeatureMatrix:
    """Encoded rows and the names of their columns."""

    values: np.ndarray  # (n, d) float64
    columns: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])


def _active_features(ip_treatment: IpTreatment):
    for kind, feature, field in _FEATURES:
        if feature == "destination_network_prefix" and ip_treatment is IpTreatment.DROP:
            continue
        yield kind, feature, field


def _categories(column: list) -> list[str]:
    return ["" if value is None else str(value) for value in column]


def _numeric_column(column: list, kind: str, name: str, treatment: NumericTreatment) -> np.ndarray:
    """One numeric column after its treatment; a value beyond float range
    or not finite after the treatment fails, naming the column."""
    if kind == "optional":
        column = [value or 0 for value in column]
    try:
        values = np.array(column, dtype=float)
    except OverflowError:
        raise DataError(f"column {name!r} holds an integer beyond float range") from None
    if treatment is NumericTreatment.LOG1P:
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.log1p(values)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise DataError(
            f"column {name!r} is not finite after {treatment.value} in {bad} of {len(column)} rows"
        )
    return values


def recipe_columns(ip_treatment: IpTreatment, vocabularies: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Encoded column names: one per vocabulary value plus OTHER for a
    categorical feature, else the feature's name."""
    columns: list[str] = []
    for kind, name, _ in _active_features(ip_treatment):
        if kind == "categorical":
            columns.extend(f"{name}={value}" for value in (*vocabularies[name], OTHER))
        else:
            columns.append(name)
    return tuple(columns)


def fit_recipe(training_flows: list[FlowRecord], config: PipelineConfig) -> EncodingRecipe:
    """Learn vocabularies and scaling statistics from training flows only.

    Zero-variance numeric columns are kept and scale to a constant zero.
    """
    if not training_flows:
        raise DataError("cannot fit an encoding recipe on an empty training set")
    vocabularies: dict[str, tuple[str, ...]] = {}
    numeric_stats: dict[str, tuple[float, float]] = {}
    for kind, name, field in _active_features(config.ip_treatment):
        column = list(map(attrgetter(field), training_flows))
        if kind == "categorical":
            vocabularies[name] = tuple(sorted(set(_categories(column))))
        elif kind != "binary":
            transformed = _numeric_column(column, kind, name, config.numeric_treatment)
            numeric_stats[name] = (float(transformed.min()), float(transformed.max()))
    return EncodingRecipe(
        ip_treatment=config.ip_treatment,
        numeric_treatment=config.numeric_treatment,
        vocabularies=vocabularies,
        numeric_stats=numeric_stats,
        columns=recipe_columns(config.ip_treatment, vocabularies),
    )


def apply_recipe(flows: list[FlowRecord], recipe: EncodingRecipe) -> FeatureMatrix:
    """Encode flows under a fitted recipe into an (n, d) matrix in [0, 1]."""
    values = np.zeros((len(flows), recipe.dimension), dtype=float)
    position = 0
    for kind, name, field in _active_features(recipe.ip_treatment):
        column = list(map(attrgetter(field), flows))
        if kind == "categorical":
            vocab = recipe.vocabularies[name]
            index = {value: i for i, value in enumerate(vocab)}
            offsets = [index.get(value, len(vocab)) for value in _categories(column)]
            values[np.arange(len(flows)), position + np.array(offsets, dtype=np.intp)] = 1.0
            position += len(vocab) + 1  # + OTHER
            continue
        if kind == "binary":
            bit = _TCP_BITS.get(name)
            values[:, position] = column if bit is None else [(value >> bit) & 1 for value in column]
        else:
            transformed = _numeric_column(column, kind, name, recipe.numeric_treatment)
            lo, hi = recipe.numeric_stats[name]
            # A subnormal range overflows to inf for rows beyond it; the clip maps that to 1.
            with np.errstate(over="ignore"):
                scaled = (transformed - lo) / (hi - lo) if hi > lo else np.zeros_like(transformed)
            values[:, position] = np.clip(scaled, 0.0, 1.0)
        position += 1
    return FeatureMatrix(values=values, columns=recipe.columns)


@dataclass(frozen=True)
class PcaBasis(Artifact):
    """Orthonormal principal axes of the fitting data.

    components[i] is the i-th axis (descending eigenvalue order); retained
    is the smallest prefix whose cumulative explained variance reaches 95%,
    with a floor of one component for degenerate (constant) data.
    """

    mean: np.ndarray
    components: np.ndarray  # (d, d), rows are components
    explained_variance_ratio: np.ndarray
    retained: int

    ARTIFACT = "PCA basis"
    READERS = {
        "mean": finite_array,
        "components": finite_array,
        "explained_variance_ratio": finite_array,
        "retained": integer,
    }

    def check(self) -> None:
        d = len(self.components) if self.components.ndim == 2 else 0
        for key, shape in (("components", (d, d)), ("mean", (d,)), ("explained_variance_ratio", (d,))):
            if getattr(self, key).shape != shape:
                raise self.invalid(key, f"must have shape {shape}, got {getattr(self, key).shape}")
        if not 1 <= self.retained <= d:
            raise self.invalid("retained", f"must lie in [1, {d}], got {self.retained}")


VARIANCE_TARGET = 0.95


def fit_pca(data: np.ndarray) -> PcaBasis:
    """Eigendecomposition of the sample covariance, descending eigenvalues."""
    n = data.shape[0]
    if n < 2:
        raise DataError("PCA requires at least two rows")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = (centered.T @ centered) / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    components = eigenvectors[:, order].T
    # Deterministic sign: the largest-magnitude entry of each axis is positive.
    for i in range(components.shape[0]):
        pivot = np.argmax(np.abs(components[i]))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    total = eigenvalues.sum()
    if total > 0:
        ratios = eigenvalues / total
        retained = int(np.searchsorted(np.cumsum(ratios), VARIANCE_TARGET - 1e-12) + 1)
        retained = min(retained, len(ratios))
    else:
        ratios = np.zeros_like(eigenvalues)
        retained = 1
    return PcaBasis(mean=mean, components=components, explained_variance_ratio=ratios, retained=retained)


def pca_project(basis: PcaBasis, values: np.ndarray, n_components: Optional[int] = None) -> np.ndarray:
    k = basis.retained if n_components is None else n_components
    return (values - basis.mean) @ basis.components[:k].T


def project_features(
    x: np.ndarray,
    feature_space: ClusteringFeatures,
    filter1: Filter1Model,
    pca_basis: Optional[PcaBasis],
) -> np.ndarray:
    """Map encoded rows into a clustering feature space.

    The manual subset picks its columns by name from the frequency
    filter's recipe, PCA projects onto the fitted basis, and the
    bottleneck space runs the frequency filter up to its narrowest layer.
    """
    if feature_space is ClusteringFeatures.ALL:
        return x
    if feature_space is ClusteringFeatures.MANUAL_SUBSET:
        columns = filter1.recipe.columns
        missing = [name for name in MANUAL_SUBSET_COLUMNS if name not in columns]
        if missing:
            raise ConfigError(
                f"manual clustering subset needs column {missing[0]!r}, absent from the recipe"
            )
        return x[:, [columns.index(name) for name in MANUAL_SUBSET_COLUMNS]]
    if feature_space is ClusteringFeatures.PCA:
        if pca_basis is None:
            raise ConfigError("PCA projection requires a fitted PcaBasis")
        return pca_project(pca_basis, x)
    if feature_space is ClusteringFeatures.AE_BOTTLENECK:
        from .autoencoder import bottleneck_activations  # local import, avoids a cycle

        return bottleneck_activations(filter1, x)
    raise ConfigError(f"unknown clustering feature mode: {feature_space!r}")
