"""Two-step collaborative anomaly detection for smart-home flow telemetry.

Stage one reconstructs encoded flows with an autoencoder and splits them
into frequent and infrequent by a validation-calibrated MSE percentile;
stage two assigns infrequent flows to learned rare-but-benign clusters and
labels flows beyond the distance thresholds as malicious.
"""

from .config import (
    ClusteringFeatures,
    DistanceMode,
    IpTreatment,
    NumericTreatment,
    PipelineConfig,
)
from .records import FinalLabel, FlowRecord, LabelClass, PartitionTag

__version__ = "0.1.0"

__all__ = [
    "ClusteringFeatures",
    "DistanceMode",
    "FinalLabel",
    "FlowRecord",
    "IpTreatment",
    "LabelClass",
    "NumericTreatment",
    "PartitionTag",
    "PipelineConfig",
    "__version__",
]
