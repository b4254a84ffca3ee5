"""Feature encoding: cleansed flow records to numeric matrices in [0, 1].

A recipe is fitted on training flows only (categorical vocabularies plus
min-max statistics) and then applied unchanged everywhere else. Unseen
categorical values map to a dedicated OTHER bucket; numeric values outside
the training range clip to the [0, 1] boundary, where out-of-range
magnitude still shows up as reconstruction error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import ClusteringFeatures, IpTreatment, NumericTreatment, PipelineConfig
from .errors import ConfigError, DataError, SchemaError, artifact_field
from .records import TCP_BIT_NAMES, FlowRecord

OTHER = "OTHER"

RECIPE_SCHEMA_VERSION = 1

# Column inventory in declaration order. Categorical columns expand into
# one indicator per vocabulary value (lexicographic) plus OTHER.
_CATEGORICAL_GETTERS: dict[str, Callable[[FlowRecord], str]] = {
    "protocol_identifier": lambda r: str(r.protocol_identifier),
    "flow_end_reason": lambda r: r.flow_end_reason,
    "network_class_of_destination": lambda r: r.network_class_of_destination,
    "destination_network_prefix": lambda r: r.destination_network_prefix or "",
    "reputation_status": lambda r: r.reputation_status,
}

_NUMERIC_GETTERS: dict[str, Callable[[FlowRecord], float]] = {
    "flow_duration_milliseconds": lambda r: float(r.flow_duration_milliseconds),
    "octet_delta_count": lambda r: float(r.octet_delta_count),
    "packet_delta_count": lambda r: float(r.packet_delta_count),
    "avg_packet_size": lambda r: r.avg_packet_size,
    "inter_arrival_time_milliseconds": lambda r: float(r.inter_arrival_time_milliseconds or 0),
    "same_dest_port_count_pool": lambda r: float(r.same_dest_port_count_pool or 0),
    "same_dest_ip_count_pool": lambda r: float(r.same_dest_ip_count_pool or 0),
    "dns_host_pct_numerical_chars": lambda r: float(r.dns_host_pct_numerical_chars or 0.0),
}

_BINARY_GETTERS: dict[str, Callable[[FlowRecord], float]] = {
    **{
        f"tcp_{name}": (lambda bit: (lambda r: float((r.tcp_control_bits >> bit) & 1)))(bit)
        for bit, name in enumerate(TCP_BIT_NAMES)
    },
    "has_dns_request_from_pool": lambda r: float(r.has_dns_request_from_pool),
}

# Declaration order of the encoded feature groups.
_FEATURE_ORDER: tuple[tuple[str, str], ...] = (
    ("categorical", "protocol_identifier"),
    ("numeric", "flow_duration_milliseconds"),
    ("numeric", "octet_delta_count"),
    ("numeric", "packet_delta_count"),
    ("numeric", "avg_packet_size"),
    ("categorical", "flow_end_reason"),
    ("binary", "tcp_syn"),
    ("binary", "tcp_ack"),
    ("binary", "tcp_fin"),
    ("binary", "tcp_psh"),
    ("binary", "tcp_rst"),
    ("binary", "tcp_urg"),
    ("categorical", "network_class_of_destination"),
    ("categorical", "destination_network_prefix"),
    ("numeric", "inter_arrival_time_milliseconds"),
    ("categorical", "reputation_status"),
    ("numeric", "same_dest_port_count_pool"),
    ("numeric", "same_dest_ip_count_pool"),
    ("binary", "has_dns_request_from_pool"),
    ("numeric", "dns_host_pct_numerical_chars"),
)

# The manually selected clustering subset, in its documented order.
MANUAL_SUBSET_COLUMNS = (
    "octet_delta_count",
    "avg_packet_size",
    "flow_duration_milliseconds",
    "same_dest_ip_count_pool",
    "same_dest_port_count_pool",
)


@dataclass(frozen=True)
class EncodingRecipe:
    ip_treatment: IpTreatment
    numeric_treatment: NumericTreatment
    vocabularies: dict[str, tuple[str, ...]]  # sorted values, OTHER implied last
    numeric_stats: dict[str, tuple[float, float]]  # (min, max) of transformed values
    columns: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return len(self.columns)

    def to_dict(self) -> dict:
        return {
            "schema_version": RECIPE_SCHEMA_VERSION,
            "ip_treatment": self.ip_treatment.value,
            "numeric_treatment": self.numeric_treatment.value,
            "vocabularies": {k: list(v) for k, v in self.vocabularies.items()},
            "numeric_stats": {k: [v[0], v[1]] for k, v in self.numeric_stats.items()},
            "columns": list(self.columns),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EncodingRecipe":
        version = data.get("schema_version")
        if version != RECIPE_SCHEMA_VERSION:
            raise SchemaError(f"unsupported recipe schema version: {version!r}")
        return cls(
            ip_treatment=artifact_field(data, "ip_treatment", IpTreatment, "recipe"),
            numeric_treatment=artifact_field(data, "numeric_treatment", NumericTreatment, "recipe"),
            vocabularies=artifact_field(
                data, "vocabularies", lambda v: {k: tuple(w) for k, w in v.items()}, "recipe"
            ),
            numeric_stats=artifact_field(
                data,
                "numeric_stats",
                lambda v: {k: (float(w[0]), float(w[1])) for k, w in v.items()},
                "recipe",
            ),
            columns=artifact_field(data, "columns", tuple, "recipe"),
        )


@dataclass(frozen=True)
class FeatureMatrix:
    """Encoded rows and the names of their columns."""

    values: np.ndarray  # (n, d) float64
    columns: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.values.shape[1])

    def take(self, mask_or_indices) -> "FeatureMatrix":
        return FeatureMatrix(values=self.values[np.asarray(mask_or_indices)], columns=self.columns)


def _active_features(ip_treatment: IpTreatment):
    for kind, name in _FEATURE_ORDER:
        if name == "destination_network_prefix" and ip_treatment is IpTreatment.DROP:
            continue
        yield kind, name


def _numeric_column(flows: list[FlowRecord], name: str, treatment: NumericTreatment) -> np.ndarray:
    """One numeric column after its treatment; a value beyond float range
    or not finite after the treatment fails, naming the column."""
    try:
        values = np.array([_NUMERIC_GETTERS[name](flow) for flow in flows], dtype=float)
    except OverflowError:
        raise DataError(f"column {name!r} holds an integer beyond float range") from None
    if treatment is NumericTreatment.LOG1P:
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.log1p(values)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise DataError(
            f"column {name!r} is not finite after {treatment.value} in {bad} of {len(flows)} rows"
        )
    return values


def fit_recipe(training_flows: list[FlowRecord], config: PipelineConfig) -> EncodingRecipe:
    """Learn vocabularies and scaling statistics from training flows only.

    Zero-variance numeric columns are kept and scale to a constant zero.
    """
    if not training_flows:
        raise DataError("cannot fit an encoding recipe on an empty training set")
    vocabularies: dict[str, tuple[str, ...]] = {}
    numeric_stats: dict[str, tuple[float, float]] = {}
    columns: list[str] = []
    for kind, name in _active_features(config.ip_treatment):
        if kind == "categorical":
            getter = _CATEGORICAL_GETTERS[name]
            vocab = tuple(sorted({getter(flow) for flow in training_flows}))
            vocabularies[name] = vocab
            columns.extend(f"{name}={value}" for value in vocab)
            columns.append(f"{name}={OTHER}")
        elif kind == "numeric":
            transformed = _numeric_column(training_flows, name, config.numeric_treatment)
            numeric_stats[name] = (float(transformed.min()), float(transformed.max()))
            columns.append(name)
        else:
            columns.append(name)
    return EncodingRecipe(
        ip_treatment=config.ip_treatment,
        numeric_treatment=config.numeric_treatment,
        vocabularies=vocabularies,
        numeric_stats=numeric_stats,
        columns=tuple(columns),
    )


def apply_recipe(flows: list[FlowRecord], recipe: EncodingRecipe) -> FeatureMatrix:
    """Encode flows under a fitted recipe into an (n, d) matrix in [0, 1]."""
    n = len(flows)
    values = np.zeros((n, recipe.dimension), dtype=float)
    position = 0
    for kind, name in _active_features(recipe.ip_treatment):
        if kind == "categorical":
            getter = _CATEGORICAL_GETTERS[name]
            vocab = recipe.vocabularies[name]
            index = {value: i for i, value in enumerate(vocab)}
            width = len(vocab) + 1  # + OTHER
            for row, flow in enumerate(flows):
                offset = index.get(getter(flow), len(vocab))
                values[row, position + offset] = 1.0
            position += width
        elif kind == "numeric":
            transformed = _numeric_column(flows, name, recipe.numeric_treatment)
            lo, hi = recipe.numeric_stats[name]
            if hi > lo:
                scaled = (transformed - lo) / (hi - lo)
            else:
                scaled = np.zeros_like(transformed)
            values[:, position] = np.clip(scaled, 0.0, 1.0)
            position += 1
        else:
            getter = _BINARY_GETTERS[name]
            values[:, position] = [getter(flow) for flow in flows]
            position += 1
    return FeatureMatrix(values=values, columns=recipe.columns)


@dataclass(frozen=True)
class PcaBasis:
    """Orthonormal principal axes of the fitting data.

    components[i] is the i-th axis (descending eigenvalue order); retained
    is the smallest prefix whose cumulative explained variance reaches 95%,
    with a floor of one component for degenerate (constant) data.
    """

    mean: np.ndarray
    components: np.ndarray  # (d, d), rows are components
    explained_variance_ratio: np.ndarray
    retained: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "explained_variance_ratio": self.explained_variance_ratio.tolist(),
            "retained": self.retained,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PcaBasis":
        def array(key: str) -> np.ndarray:
            return artifact_field(data, key, lambda v: np.asarray(v, dtype=float), "PCA basis")

        return cls(
            mean=array("mean"),
            components=array("components"),
            explained_variance_ratio=array("explained_variance_ratio"),
            retained=artifact_field(data, "retained", int, "PCA basis"),
        )


VARIANCE_TARGET = 0.95


def fit_pca(matrix: FeatureMatrix | np.ndarray) -> PcaBasis:
    """Eigendecomposition of the sample covariance, descending eigenvalues."""
    data = matrix.values if isinstance(matrix, FeatureMatrix) else np.asarray(matrix, dtype=float)
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
    matrix: FeatureMatrix,
    mode: ClusteringFeatures,
    aux=None,
) -> FeatureMatrix:
    """Map an encoded matrix into the clustering feature space.

    aux carries the mode-specific projection data: a PcaBasis for PCA, a
    trained frequency-filter model for the bottleneck mode.
    """
    if mode is ClusteringFeatures.ALL:
        return matrix
    if mode is ClusteringFeatures.MANUAL_SUBSET:
        positions = []
        for name in MANUAL_SUBSET_COLUMNS:
            try:
                positions.append(matrix.columns.index(name))
            except ValueError:
                raise ConfigError(
                    f"manual clustering subset needs column {name!r}, absent from the recipe"
                ) from None
        return FeatureMatrix(values=matrix.values[:, positions], columns=MANUAL_SUBSET_COLUMNS)
    if mode is ClusteringFeatures.PCA:
        if not isinstance(aux, PcaBasis):
            raise ConfigError("PCA projection requires a fitted PcaBasis")
        projected = pca_project(aux, matrix.values)
        return FeatureMatrix(
            values=projected,
            columns=tuple(f"pca_{i}" for i in range(projected.shape[1])),
        )
    if mode is ClusteringFeatures.AE_BOTTLENECK:
        from .autoencoder import bottleneck_activations  # local import, avoids a cycle

        if aux is None:
            raise ConfigError("bottleneck projection requires a trained frequency filter")
        activations = bottleneck_activations(aux, matrix.values)
        return FeatureMatrix(
            values=activations,
            columns=tuple(f"bottleneck_{i}" for i in range(activations.shape[1])),
        )
    raise ConfigError(f"unknown clustering feature mode: {mode!r}")
