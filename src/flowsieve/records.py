"""Core domain types: flow records, labels, partitions and verdicts.

All types here are immutable after construction and safe to share across
threads. Timestamps are integer milliseconds since the capture origin; the
day component of a flow start is an absolute day index, so the five split
time fields published in the CSV schema can always be reconstructed.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

MS_PER_SECOND = 1_000
MS_PER_MINUTE = 60_000
MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000

# Published deployment convention: devices 0-6 live in home networks 0-4,
# device 7 is the single lab device in network 5, ingest's default lab.
LAB_DEVICE_ID = 7
LAB_NETWORK_ID = 5


class LabelClass(Enum):
    """Ground-truth class of a flow."""

    ASSUMED_BENIGN = "assumed benign"
    BEING_SCANNED_BY_NMAP = "being scanned by Nmap"
    EXECUTING_CRYPTOMINING = "is executing cryptomining"

    @property
    def is_attack(self) -> bool:
        return self is not LabelClass.ASSUMED_BENIGN

    @classmethod
    def parse(cls, text: str) -> "LabelClass":
        key = text.strip().lower().replace("_", " ")
        for member in cls:
            if member.value.lower() == key:
                return member
        raise ValueError(f"unknown label class: {text!r}")


ATTACK_CLASSES = (LabelClass.BEING_SCANNED_BY_NMAP, LabelClass.EXECUTING_CRYPTOMINING)


class PartitionTag(Enum):
    TRAINING = "training"
    VALIDATION = "validation"
    TEST = "test"

    @classmethod
    def parse(cls, text: str) -> "PartitionTag":
        key = text.strip().lower()
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown partition tag: {text!r}")


class FinalLabel(Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"


def flow_start_ms(day: int, hour: int, minute: int, second: int, millisecond: int) -> int:
    """Assemble a flow-start timestamp from the five split CSV fields."""
    return (
        day * MS_PER_DAY
        + hour * MS_PER_HOUR
        + minute * MS_PER_MINUTE
        + second * MS_PER_SECOND
        + millisecond
    )


def split_flow_start(ms: int) -> tuple[int, int, int, int, int]:
    """Decompose a timestamp back into (day, hour, minute, second, millisecond)."""
    day, rem = divmod(ms, MS_PER_DAY)
    hour, rem = divmod(rem, MS_PER_HOUR)
    minute, rem = divmod(rem, MS_PER_MINUTE)
    second, millisecond = divmod(rem, MS_PER_SECOND)
    return day, hour, minute, second, millisecond


class FlowRecord(NamedTuple):
    """One enriched outbound flow with identifiers and ground-truth label.

    Pool counters and the inter-arrival time are optional until the
    enrichment stages fill them; optional fields are represented as None,
    never as sentinel numbers (the only sanctioned zero-fill happens in
    preprocessing, for the pool counters).
    """

    device_id: int
    source_network_id: int
    flow_start: int  # ms since capture origin
    protocol_identifier: int
    flow_duration_milliseconds: int
    octet_delta_count: int
    packet_delta_count: int
    avg_packet_size: float
    flow_end_reason: str
    tcp_control_bits: int  # bit field: SYN|ACK|FIN|PSH|RST|URG
    network_class_of_destination: str
    destination_network_prefix: Optional[str]
    inter_arrival_time_milliseconds: Optional[int]
    reputation_status: str
    same_dest_port_count_pool: Optional[int]
    same_dest_ip_count_pool: Optional[int]
    has_dns_request_from_pool: bool
    dns_host_pct_numerical_chars: Optional[float]
    actual_label: LabelClass
    partition: Optional[PartitionTag]
    # Not part of the published feature set; carried when present so the
    # collaborative pool counters can be recomputed from raw exports.
    destination_port: Optional[int] = None

    @property
    def hour_index(self) -> int:
        return self.flow_start // MS_PER_HOUR

    @property
    def day_index(self) -> int:
        return self.flow_start // MS_PER_DAY


_FIELD_INDEX = {name: i for i, name in enumerate(FlowRecord._fields)}


def copy_record(record: FlowRecord, **changes) -> FlowRecord:
    """``FlowRecord._replace``, except that an unknown field name raises
    TypeError, not ValueError."""
    values = list(record)
    for name, value in changes.items():
        try:
            values[_FIELD_INDEX[name]] = value
        except KeyError:
            raise TypeError(f"FlowRecord has no field {name!r}") from None
    return FlowRecord._make(values)


# Names of the TCP control bits in bit-field order (bit 0 first).
TCP_BIT_NAMES = ("syn", "ack", "fin", "psh", "rst", "urg")


# One row per flow: the verdict table classify returns and eval reads.
VERDICT_DTYPE = np.dtype(
    [
        ("mse", np.float64),
        ("frequent", np.bool_),
        ("assigned_cluster", np.int64),
        ("distance", np.float64),
        ("tanh_score", np.float64),
        ("malicious", np.bool_),
    ]
)


def verdict_table(mse, frequent, assigned_cluster, distance, tanh_score, malicious) -> np.recarray:
    """Pipeline decisions as a record array, one row per flow in flow order.

    Every row has a non-negative mse. A frequent row carries no cluster
    fields (assigned_cluster -1, NaN distance and tanh_score) and is
    benign; an infrequent row carries all of them. Any other shape raises
    ValueError.
    """
    table = np.rec.fromarrays(
        [mse, frequent, assigned_cluster, distance, tanh_score, malicious], dtype=VERDICT_DTYPE
    )
    if (table.mse < 0).any():
        raise ValueError("mse must be non-negative")
    frequent = table.frequent
    nan_distance, nan_tanh = np.isnan(table.distance), np.isnan(table.tanh_score)
    empty = (table.assigned_cluster == -1) & nan_distance & nan_tanh
    full = (table.assigned_cluster >= 0) & ~nan_distance & ~nan_tanh
    if not empty[frequent].all():
        raise ValueError("frequent verdicts carry no cluster fields")
    if table.malicious[frequent].any():
        raise ValueError("frequent verdicts are benign")
    if not full[~frequent].all():
        raise ValueError("infrequent verdicts carry all cluster fields")
    table.flags.writeable = False
    return table
