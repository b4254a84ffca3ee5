"""Pipeline configuration: every knob of training and classification in
one immutable dataclass (ingest's port-count floor is its own option).

Defaults follow the best-performing configuration of the hyperparameter
grid (drop destination IPs, log-transform numerics, 60th-percentile
frequency threshold, all features for clustering, raw Euclidean cluster
distance).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from .artifact import encode_value
from .errors import ConfigError, not_utf8_message


class IpTreatment(Enum):
    DROP = "drop"
    PREFIX_ONE_HOT = "prefix_one_hot"


class NumericTreatment(Enum):
    AS_IS = "as_is"
    LOG1P = "log1p"


class ClusteringFeatures(Enum):
    ALL = "all"
    MANUAL_SUBSET = "manual_subset"
    PCA = "pca"
    AE_BOTTLENECK = "ae_bottleneck"


class DistanceMode(Enum):
    RAW_EUCLIDEAN = "raw_euclidean"
    NORMALIZED_EUCLIDEAN = "normalized_euclidean"


def _parse_enum(enum_cls, text: str):
    key = text.strip().lower().replace("-", "_")
    for member in enum_cls:
        if member.value == key or member.name.lower() == key:
            return member
    choices = ", ".join(m.value for m in enum_cls)
    raise ConfigError(f"unknown {enum_cls.__name__} value {text!r} (choices: {choices})")


@dataclass(frozen=True)
class PipelineConfig:
    epochs_max: int = 200
    delta_min: float = 0.00001
    patience_max: int = 5
    batch_size: int = 64
    pctl_frequent: float = 60.0
    pctl_known: float = 100.0
    k_min: int = 2
    k_max: int = 20
    ip_treatment: IpTreatment = IpTreatment.DROP
    numeric_treatment: NumericTreatment = NumericTreatment.LOG1P
    clustering_features: ClusteringFeatures = ClusteringFeatures.ALL
    distance_mode: DistanceMode = DistanceMode.RAW_EUCLIDEAN
    global_tanh_threshold: Optional[float] = 0.75
    rng_seed: int = 42
    # Cap on the number of rows used when scoring a clustering by mean
    # silhouette; keeps k selection tractable on six-figure datasets.
    silhouette_sample_max: int = 10_000

    def __post_init__(self) -> None:
        if self.epochs_max < 1 or self.patience_max < 1 or self.batch_size < 1:
            raise ConfigError("epochs_max, patience_max and batch_size must be positive")
        if not self.delta_min > 0:  # NaN too: it would never stop early
            raise ConfigError("delta_min must be positive")
        if not 0 < self.pctl_frequent < 100:
            raise ConfigError("pctl_frequent must lie in (0, 100)")
        if not 0 < self.pctl_known <= 100:
            raise ConfigError("pctl_known must lie in (0, 100]")
        if self.k_min < 2:
            raise ConfigError("k_min must be at least 2")
        if self.k_min > self.k_max:
            raise ConfigError("k_min must not exceed k_max")
        check_global_tanh_threshold(self.global_tanh_threshold)
        if self.silhouette_sample_max < 2:
            raise ConfigError("silhouette_sample_max must be at least 2")

    def replace(self, **changes) -> "PipelineConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return encode_value(self)

    def with_updates(self, updates: dict) -> "PipelineConfig":
        """Apply string-or-typed updates keyed by field name."""
        parsed = {}
        fields = {f.name: f for f in dataclasses.fields(self)}
        for key, value in updates.items():
            if key not in fields:
                raise ConfigError(f"unknown configuration key {key!r}")
            parsed[key] = _coerce_field(fields[key], value)
        return self.replace(**parsed)


def check_global_tanh_threshold(tau: Optional[float]) -> None:
    """A global tanh threshold lies in (0, 1); None selects the per-cluster
    thresholds."""
    if tau is not None and not 0 < tau < 1:
        raise ConfigError("global_tanh_threshold must lie in (0, 1)")


# The one field that may be None: per-cluster thresholds instead of tanh.
_OPTIONAL_FIELD = "global_tanh_threshold"


def _coerce_field(field: dataclasses.Field, value):
    """A value of the type of the field's default; strings are parsed, and
    a float must be finite."""
    kind = type(field.default)
    if field.name == _OPTIONAL_FIELD and (
        value is None or (isinstance(value, str) and value.strip().lower() in {"", "none"})
    ):
        return None
    if issubclass(kind, Enum):
        return value if isinstance(value, kind) else _parse_enum(kind, str(value))
    try:
        parsed = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {field.name!r}: {value!r}") from exc
    if kind is float and not math.isfinite(parsed):
        raise ConfigError(f"{field.name} must be finite, got {value!r}")
    return parsed


def load_config_file(path: str | Path) -> PipelineConfig:
    """Read a flat key=value configuration file.

    Blank lines and lines starting with '#' are ignored; keys mirror the
    PipelineConfig field names. A file that is not UTF-8 is a
    ConfigError naming the offset of its first invalid byte.
    """
    updates: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(not_utf8_message(path)) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        updates[key.strip()] = value.strip()
    return PipelineConfig().with_updates(updates)
