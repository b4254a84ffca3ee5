"""Dataset ingestion: CSV parsing, derived/collaborative features,
cleansing, sanitization and chronological partitioning.

The external CSV schema uses the published column names verbatim; headers
are matched case-insensitively on read and written canonically. Malformed
data rows are counted and reported, never fatal; only schema-level
problems (missing mandatory columns, empty stream) abort ingestion.
"""
from __future__ import annotations

import csv
import io
import operator
from collections import Counter
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import IO, Iterable, Optional, Union

from .errors import DataError, SchemaError, not_utf8_message
from .records import (
    LAB_NETWORK_ID,
    FlowRecord,
    LabelClass,
    PartitionTag,
    copy_record,
    flow_start_ms,
    split_flow_start,
)

# Canonical column names of the published schema, in publication order.
CANONICAL_COLUMNS = (
    "device_id",
    "flow_start_day",
    "flow_start_hour",
    "flow_start_minute",
    "flow_start_second",
    "flow_start_millisecond",
    "source_network_id",
    "protocol_identifier",
    "flow_duration_milliseconds",
    "octet_delta_count",
    "packet_delta_count",
    "avg_packet_size",
    "flow_end_reason",
    "tcp_control_bits",
    "network_class_of_destination_IP_address",
    "network_prefix_of_destination_IP_address_anonimized",
    "inter_arrival_time_milliseconds",
    "reputation_status",
    "same_dest_port_count_pool",
    "same_dest_IP_count_pool",
    "has_DNS_request_from_pool",
    "DNS_host_percentage_of_numerical_chars_from_pool",
    "actual_label",
    "partition",
)

# Extension column: not part of the published feature set, but required to
# recompute the collaborative pool counters from raw exports. Written only
# when at least one record carries a port.
DESTINATION_PORT_COLUMN = "destination_port"

# Identifier and raw flow columns must be present in every input header.
MANDATORY_COLUMNS = CANONICAL_COLUMNS[:14]

_TRUE_STRINGS = {"true", "1", "yes", "t"}
_FALSE_STRINGS = {"false", "0", "no", "f", ""}


@dataclass
class ParseReport:
    rows_read: int = 0
    rows_rejected: int = 0
    reject_reasons: Counter = field(default_factory=Counter)

    def reject(self, reason: str) -> None:
        self.rows_rejected += 1
        self.reject_reasons[reason] += 1

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_rejected": self.rows_rejected,
            "reject_reasons": dict(sorted(self.reject_reasons.items())),
        }


def _parse_int(cell: str, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(f"unparsable numeric {what}") from None
        if value.is_integer():
            return int(value)
        raise ValueError(f"unparsable numeric {what}") from None


# A cell of at most this many characters holds an integer below 10**308,
# which converts to float; so does every cell of a row this short.
_FLOAT_SAFE_CHARS = 308


def _parse_int_in_float_range(cell: str, what: str = "integer") -> int:
    """`_parse_int`, rejecting a value that has no float (encoding fails
    on it)."""
    value = _parse_int(cell, what)
    if len(cell) > _FLOAT_SAFE_CHARS:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"numeric {what} beyond float range") from None
    return value


def _parse_float(cell: str, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"unparsable numeric {what}") from None
    if not isfinite(value):
        raise ValueError(f"non-finite numeric {what}")
    return value


def _parse_bool(cell: str, what: str) -> bool:
    key = cell.strip().lower()
    if key in _TRUE_STRINGS:
        return True
    if key in _FALSE_STRINGS:
        return False
    raise ValueError(f"unparsable boolean {what}")


def _parse_label(cell: str) -> LabelClass:
    try:
        return LabelClass.parse(cell)
    except ValueError:
        raise ValueError("unknown actual_label") from None


def _parse_partition(cell: str) -> PartitionTag:
    try:
        return PartitionTag.parse(cell)
    except ValueError:
        raise ValueError("unknown partition") from None


def parse_dataset(source: Union[str, Path, bytes]) -> tuple[list[FlowRecord], ParseReport]:
    """Parse a flow CSV, named by its path or given as bytes, into records
    plus a parse report.

    Every well-formed row becomes a FlowRecord; malformed rows are counted
    with a reason. An integer cell beyond float range is malformed too
    (`numeric <column> beyond float range`), so every row that parses can
    be encoded. A missing mandatory column, an empty stream or bytes that
    are not UTF-8 raise SchemaError.
    """
    try:
        if isinstance(source, bytes):
            return _parse_stream(io.StringIO(source.decode("utf-8")))
        with open(source, "r", encoding="utf-8", newline="") as stream:
            return _parse_stream(stream)
    except UnicodeDecodeError:
        raise SchemaError(not_utf8_message(source)) from None


# Columns a row is read from, in the order _row_to_record takes them.
_PARSED_COLUMNS = CANONICAL_COLUMNS + (DESTINATION_PORT_COLUMN,)


def _parse_stream(stream: IO[str]) -> tuple[list[FlowRecord], ParseReport]:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty stream: no header row") from None

    positions = {name.strip().lower(): idx for idx, name in enumerate(header)}
    missing = [name for name in MANDATORY_COLUMNS if name.lower() not in positions]
    if missing:
        raise SchemaError(f"header is missing mandatory columns: {', '.join(missing)}")

    # Every row is padded to `width` and gets one blank cell appended, so a
    # short row reads "" past its end and an absent column reads the
    # appended cell at index -1.
    picks = [positions.get(name.lower(), -1) for name in _PARSED_COLUMNS]
    width = max(picks) + 1
    pick = operator.itemgetter(*picks)
    strip = str.strip
    row_to_record = _row_converter(int, _parse_int)
    # Only a row longer than _FLOAT_SAFE_CHARS can hold an integer beyond
    # float range, so only such rows pay for the check.
    long_row_to_record = _row_converter(_parse_int_in_float_range, _parse_int_in_float_range)

    records: list[FlowRecord] = []
    report = ParseReport()
    for row in reader:
        line = "".join(row)
        if not line.strip():
            continue
        report.rows_read += 1
        if len(row) < width:
            row.extend([""] * (width - len(row)))
        row.append("")
        convert = row_to_record if len(line) <= _FLOAT_SAFE_CHARS else long_row_to_record
        try:
            records.append(convert(*map(strip, pick(row))))
        except ValueError as exc:
            report.reject(str(exc))
    return records, report


_UNSEEN = object()


def _row_converter(to_int, parse_int):
    """Return a row-to-record function over stripped cells in
    _PARSED_COLUMNS order, with its own memo of the label, partition and
    boolean cells it has parsed (failed parses are not remembered).

    Integer cells are read with `to_int(cell)` a group at a time; when a
    group fails, each of its cells is read again with `parse_int(cell,
    column)`, whose error names the column. Fields are checked in a fixed
    order, so a row with several bad cells is rejected for the first of
    them.
    """
    labels = {"": LabelClass.ASSUMED_BENIGN}
    partitions: dict[str, Optional[PartitionTag]] = {"": None}
    booleans: dict[str, bool] = {}

    def _row_to_record(
        device, day, hour, minute, second, millisecond, network, protocol, duration,
        octets, packets, avg_size, end_reason, tcp_bits, net_class, prefix, iat,
        reputation, port_pool, ip_pool, dns_flag, dns_pct, label, partition, port,
    ) -> FlowRecord:
        try:
            flow_start = flow_start_ms(
                to_int(day), to_int(hour), to_int(minute), to_int(second), to_int(millisecond)
            )
        except ValueError:
            flow_start = flow_start_ms(
                parse_int(day, "flow_start_day"),
                parse_int(hour, "flow_start_hour"),
                parse_int(minute, "flow_start_minute"),
                parse_int(second, "flow_start_second"),
                parse_int(millisecond, "flow_start_millisecond"),
            )

        avg_packet_size = _parse_float(avg_size, "avg_packet_size")
        dns_pct_value = (
            _parse_float(dns_pct, "DNS_host_percentage_of_numerical_chars_from_pool")
            if dns_pct
            else None
        )
        actual_label = labels.get(label)
        if actual_label is None:
            actual_label = labels[label] = _parse_label(label)
        tag = partitions.get(partition, _UNSEEN)
        if tag is _UNSEEN:
            tag = partitions[partition] = _parse_partition(partition)

        try:
            device_id, network_id, protocol_id, duration_ms, octet_count, packet_count, tcp = (
                to_int(device), to_int(network), to_int(protocol), to_int(duration),
                to_int(octets), to_int(packets), to_int(tcp_bits),
            )
            iat_ms = to_int(iat) if iat else None
            port_count = to_int(port_pool) if port_pool else None
            ip_count = to_int(ip_pool) if ip_pool else None
        except ValueError:
            device_id, network_id, protocol_id, duration_ms, octet_count, packet_count, tcp = (
                parse_int(device, "device_id"),
                parse_int(network, "source_network_id"),
                parse_int(protocol, "protocol_identifier"),
                parse_int(duration, "flow_duration_milliseconds"),
                parse_int(octets, "octet_delta_count"),
                parse_int(packets, "packet_delta_count"),
                parse_int(tcp_bits, "tcp_control_bits"),
            )
            iat_ms = parse_int(iat, "inter_arrival_time_milliseconds") if iat else None
            port_count = parse_int(port_pool, "same_dest_port_count_pool") if port_pool else None
            ip_count = parse_int(ip_pool, "same_dest_IP_count_pool") if ip_pool else None
        has_dns = booleans.get(dns_flag)
        if has_dns is None:
            has_dns = booleans[dns_flag] = _parse_bool(dns_flag, "has_DNS_request_from_pool")
        try:
            port_number = to_int(port) if port else None
        except ValueError:
            port_number = parse_int(port, DESTINATION_PORT_COLUMN)

        # FlowRecord(*fields), skipping the constructor's argument handling
        return tuple.__new__(FlowRecord, (
            device_id, network_id, flow_start, protocol_id, duration_ms, octet_count,
            packet_count, avg_packet_size, end_reason, tcp, net_class, prefix or None,
            iat_ms, reputation, port_count, ip_count, has_dns, dns_pct_value, actual_label,
            tag, port_number,
        ))

    return _row_to_record


def record_to_row(record: FlowRecord, include_port: bool) -> list[str]:
    (
        device_id, network_id, flow_start, protocol_id, duration_ms, octet_count, packet_count,
        avg_packet_size, end_reason, tcp_bits, net_class, prefix, iat_ms, reputation, port_count,
        ip_count, has_dns, dns_pct, actual_label, partition, port,
    ) = record
    day, hour, minute, second, millisecond = split_flow_start(flow_start)
    row = [
        str(device_id),
        str(day),
        str(hour),
        str(minute),
        str(second),
        str(millisecond),
        str(network_id),
        str(protocol_id),
        str(duration_ms),
        str(octet_count),
        str(packet_count),
        repr(avg_packet_size),
        end_reason,
        str(tcp_bits),
        net_class,
        "" if prefix is None else prefix,
        "" if iat_ms is None else str(iat_ms),
        reputation,
        "" if port_count is None else str(port_count),
        "" if ip_count is None else str(ip_count),
        "true" if has_dns else "false",
        "" if dns_pct is None else repr(dns_pct),
        actual_label.value,
        "" if partition is None else partition.value,
    ]
    if include_port:
        row.append("" if port is None else str(port))
    return row


def write_dataset(records: Iterable[FlowRecord], target: IO[str]) -> None:
    """Serialize records to the canonical CSV schema (header row) on a text stream."""
    records = list(records)
    include_port = any(r.destination_port is not None for r in records)
    header = list(CANONICAL_COLUMNS) + ([DESTINATION_PORT_COLUMN] if include_port else [])
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    # A generator, not a list: the rows of a large partition held at once
    # would raise peak memory for no gain in speed.
    writer.writerows(record_to_row(record, include_port) for record in records)


def compute_iat(flows: list[FlowRecord]) -> list[FlowRecord]:
    """Fill inter-arrival times per device: flow_start(t) - flow_start(t-1).

    The first flow of each device gets an absent IAT. Input order is
    preserved in the returned list. A flow that already carries the
    computed IAT is returned as it is; any other is copied with it.
    """
    starts = [flow.flow_start for flow in flows]
    order: dict[int, list[int]] = {}
    for index, flow in enumerate(flows):
        order.setdefault(flow.device_id, []).append(index)
    result: list[Optional[int]] = [None] * len(flows)
    for indices in order.values():
        # indices ascend, so the stable sort breaks start-time ties by index
        indices.sort(key=starts.__getitem__)
        previous = starts[indices[0]]
        for i in indices[1:]:
            start = starts[i]
            result[i] = start - previous
            previous = start
    return [
        flow
        if flow.inter_arrival_time_milliseconds == iat
        else copy_record(flow, inter_arrival_time_milliseconds=iat)
        for flow, iat in zip(flows, result)
    ]


def compute_pool_features(flows: list[FlowRecord]) -> list[FlowRecord]:
    """Fill the collaborative pool counters from the previous complete hour.

    For a flow whose start falls in wall-clock hour H, the window is hour
    H-1, i.e. [ (H-1)*3600s, H*3600s ). The counters tally flows from any
    monitored device in that window with the same destination port or the
    same destination network prefix. No history means zero.
    """
    port_counts: dict[int, Counter] = {}
    prefix_counts: dict[int, Counter] = {}
    for flow in flows:
        hour = flow.hour_index
        if flow.destination_port is not None:
            port_counts.setdefault(hour, Counter())[flow.destination_port] += 1
        if flow.destination_network_prefix is not None:
            prefix_counts.setdefault(hour, Counter())[flow.destination_network_prefix] += 1

    empty: Counter = Counter()
    out = []
    for flow in flows:
        window = flow.hour_index - 1
        port_count = 0
        if flow.destination_port is not None:
            port_count = port_counts.get(window, empty).get(flow.destination_port, 0)
        prefix_count = 0
        if flow.destination_network_prefix is not None:
            prefix_count = prefix_counts.get(window, empty).get(flow.destination_network_prefix, 0)
        out.append(
            copy_record(
                flow,
                same_dest_port_count_pool=port_count,
                same_dest_ip_count_pool=prefix_count,
            )
        )
    return out


@dataclass
class CleanseReport:
    dropped_by_reason: Counter = field(default_factory=Counter)
    pool_zero_filled: int = 0


WARMUP_REASON = "warm-up window"
MISSING_IAT_REASON = "missing inter-arrival time"
# The notes every cleansing report carries.
CLEANSE_NOTES = (
    "warm-up drop applied globally over the whole capture",
    "rows are assumed to be pre-filtered to external communications",
)


def preprocess(flows: list[FlowRecord]) -> tuple[list[FlowRecord], CleanseReport]:
    """Cleansing pass: drop the two warm-up hours and records without an
    IAT, zero-fill absent pool counters.

    The warm-up window is global (the first two wall-clock hours of the
    whole capture). Destination filtering to external communications is an
    input guarantee of the dataset, asserted rather than computed.
    """
    report = CleanseReport()
    if not flows:
        return [], report
    first_hour = min(flow.hour_index for flow in flows)
    kept: list[FlowRecord] = []
    for flow in flows:
        if flow.hour_index < first_hour + 2:
            report.dropped_by_reason[WARMUP_REASON] += 1
            continue
        if flow.inter_arrival_time_milliseconds is None:
            report.dropped_by_reason[MISSING_IAT_REASON] += 1
            continue
        if flow.same_dest_port_count_pool is None or flow.same_dest_ip_count_pool is None:
            report.pool_zero_filled += 1
            flow = copy_record(
                flow,
                same_dest_port_count_pool=flow.same_dest_port_count_pool or 0,
                same_dest_ip_count_pool=flow.same_dest_ip_count_pool or 0,
            )
        kept.append(flow)
    return kept, report


# `ingest` drops the training flows whose destination port occurs fewer times.
SANITIZE_MIN_PORT_COUNT = 10


def sanitize_training(
    flows: list[FlowRecord], min_port_count: int
) -> tuple[list[FlowRecord], int]:
    """Remove training flows whose destination port is scarce across the
    pooled training set (fewer than min_port_count occurrences).

    Records without a destination port are never removed: such datasets
    arrive pre-sanitized. Raises DataError if sanitization would empty a
    non-empty training set.
    """
    counts = Counter(
        flow.destination_port for flow in flows if flow.destination_port is not None
    )
    kept = [
        flow
        for flow in flows
        if flow.destination_port is None or counts[flow.destination_port] >= min_port_count
    ]
    if flows and not kept:
        raise DataError("sanitization would empty training set")
    return kept, len(flows) - len(kept)


@dataclass
class PartitionResult:
    training: list[FlowRecord]
    validation: list[FlowRecord]
    test: list[FlowRecord]
    dropped_by_reason: Counter


def partition_chronologically(
    flows: list[FlowRecord],
    split_days: tuple[int, int, int] = (13, 3, 5),
    lab_network_id: int = LAB_NETWORK_ID,
) -> PartitionResult:
    """Split flows into chronologically ordered training/validation/test.

    Day boundaries are aligned to the absolute day index of the earliest
    flow. The selection strategy is enforced here as well: test keeps only
    lab-network flows, training and validation keep only non-lab flows
    with an assumed-benign label. A kept flow already tagged with its
    partition is kept as it is; any other is copied with the tag.
    """
    if not flows:
        raise DataError("cannot partition an empty flow list")
    if any(d <= 0 for d in split_days):
        raise DataError("split_days must be positive")
    first_day = min(flow.day_index for flow in flows)
    last_day = max(flow.day_index for flow in flows)
    span = last_day - first_day + 1
    needed = sum(split_days)
    if span < needed:
        raise DataError(f"capture spans {span} days, {needed} required")

    train_end = first_day + split_days[0]
    val_end = train_end + split_days[1]
    test_end = val_end + split_days[2]

    dropped: Counter = Counter()
    training: list[FlowRecord] = []
    validation: list[FlowRecord] = []
    test: list[FlowRecord] = []
    for flow in sorted(flows, key=operator.attrgetter("flow_start", "device_id")):
        day = flow.day_index
        if day >= test_end:
            dropped["beyond requested span"] += 1
            continue
        if day >= val_end:
            if flow.source_network_id != lab_network_id:
                dropped["non-lab flow in test window"] += 1
                continue
            test.append(_tagged(flow, PartitionTag.TEST))
            continue
        if flow.source_network_id == lab_network_id:
            dropped["lab flow outside test window"] += 1
            continue
        if flow.actual_label.is_attack:
            dropped["attack label outside test window"] += 1
            continue
        if day >= train_end:
            validation.append(_tagged(flow, PartitionTag.VALIDATION))
        else:
            training.append(_tagged(flow, PartitionTag.TRAINING))
    return PartitionResult(training, validation, test, dropped)


def _tagged(flow: FlowRecord, tag: PartitionTag) -> FlowRecord:
    return flow if flow.partition is tag else copy_record(flow, partition=tag)
