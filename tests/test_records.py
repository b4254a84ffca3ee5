import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve import ingest
from flowsieve.cli import VERDICT_HEADER
from flowsieve.records import (
    FinalLabel,
    FlowRecord,
    LabelClass,
    PartitionTag,
    copy_record,
    flow_start_ms,
    split_flow_start,
    verdict_table,
)

from conftest import make_record


class TestTimestamps:
    def test_round_trip(self):
        ms = flow_start_ms(12, 10, 37, 5, 250)
        assert split_flow_start(ms) == (12, 10, 37, 5, 250)

    def test_day_is_absolute_index(self):
        assert flow_start_ms(1, 0, 0, 0, 0) == 86_400_000


NAN = float("nan")


class TestVerdictStateMachine:
    """The verdict table's two row shapes, built by `verdict_table`."""

    def test_frequent_verdict_shape(self):
        [verdict] = verdict_table([0.001], [True], [-1], [NAN], [NAN], [False])
        assert verdict.malicious == False
        assert verdict.assigned_cluster == -1
        assert np.isnan(verdict.distance) and np.isnan(verdict.tanh_score)

    def test_infrequent_verdict_shape(self):
        table = verdict_table([0.2, 0.2], [False, False], [4, 4], [1.2, 0.2], [0.83, 0.19], [True, False])
        assert table.malicious.tolist() == [True, False]
        assert table.assigned_cluster.tolist() == [4, 4]

    def test_frequent_with_cluster_fields_rejected(self):
        with pytest.raises(ValueError, match="no cluster fields"):
            verdict_table([0.1], [True], [2], [0.5], [0.46], [False])
        with pytest.raises(ValueError, match="no cluster fields"):
            verdict_table([0.1], [True], [-1], [0.5], [NAN], [False])

    def test_frequent_malicious_rejected(self):
        with pytest.raises(ValueError, match="benign"):
            verdict_table([0.1], [True], [-1], [NAN], [NAN], [True])

    def test_infrequent_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="all cluster fields"):
            verdict_table([0.1], [False], [-1], [0.5], [0.46], [False])
        with pytest.raises(ValueError, match="all cluster fields"):
            verdict_table([0.1], [False], [1], [0.5], [NAN], [False])

    def test_negative_mse_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            verdict_table([-0.1], [True], [-1], [NAN], [NAN], [False])

    def test_table_is_read_only(self):
        table = verdict_table([0.1], [True], [-1], [NAN], [NAN], [False])
        with pytest.raises(ValueError):
            table.malicious[0] = True


_labels = st.sampled_from(list(LabelClass))
_partitions = st.sampled_from(list(PartitionTag) + [None])


@st.composite
def flow_records(draw):
    packet_count = draw(st.integers(min_value=1, max_value=10_000))
    octets = draw(st.integers(min_value=packet_count, max_value=10_000_000))
    label = draw(_labels)
    in_lab = label.is_attack or draw(st.booleans())
    has_dns = draw(st.booleans())
    return make_record(
        device_id=7 if in_lab else draw(st.integers(min_value=0, max_value=6)),
        source_network_id=5 if in_lab else draw(st.integers(min_value=0, max_value=4)),
        flow_start=draw(st.integers(min_value=0, max_value=30 * 86_400_000)),
        protocol_identifier=draw(st.sampled_from([6, 17])),
        flow_duration_milliseconds=draw(st.integers(min_value=0, max_value=10_000_000)),
        octet_delta_count=octets,
        packet_delta_count=packet_count,
        avg_packet_size=octets / packet_count,
        flow_end_reason=draw(st.sampled_from(["idle timeout", "active timeout", "end of flow"])),
        tcp_control_bits=draw(st.integers(min_value=0, max_value=63)),
        network_class_of_destination=draw(st.sampled_from(["public", "private"])),
        destination_network_prefix=draw(st.one_of(st.none(), st.sampled_from(["pfx-a", "pfx-b"]))),
        inter_arrival_time_milliseconds=draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=10_000_000))
        ),
        reputation_status=draw(st.sampled_from(["ok", "flagged"])),
        same_dest_port_count_pool=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=100_000))),
        same_dest_ip_count_pool=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=100_000))),
        has_dns_request_from_pool=has_dns,
        dns_host_pct_numerical_chars=draw(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
        )
        if has_dns
        else None,
        actual_label=label,
        partition=draw(_partitions),
        destination_port=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=65_535))),
    )


class TestCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(flow_records(), min_size=1, max_size=8))
    def test_serialize_parse_identity(self, records):
        buffer = io.StringIO()
        ingest.write_dataset(records, buffer)
        parsed, report = ingest.parse_dataset(buffer.getvalue().encode("utf-8"))
        assert report.rows_rejected == 0
        assert parsed == records
        assert all(type(record) is FlowRecord for record in parsed)


# Every field with a value no other field holds, and the CSV cells that
# carry them.
_DISTINCT_FIELDS = {
    "device_id": 11,
    "source_network_id": 12,
    "flow_start": flow_start_ms(3, 4, 5, 6, 7),
    "protocol_identifier": 13,
    "flow_duration_milliseconds": 14,
    "octet_delta_count": 15,
    "packet_delta_count": 16,
    "avg_packet_size": 17.5,
    "flow_end_reason": "reason",
    "tcp_control_bits": 18,
    "network_class_of_destination": "class",
    "destination_network_prefix": "prefix",
    "inter_arrival_time_milliseconds": 19,
    "reputation_status": "reputation",
    "same_dest_port_count_pool": 20,
    "same_dest_ip_count_pool": 21,
    "has_dns_request_from_pool": True,
    "dns_host_pct_numerical_chars": 22.5,
    "actual_label": LabelClass.EXECUTING_CRYPTOMINING,
    "partition": PartitionTag.VALIDATION,
    "destination_port": 23,
}
_DISTINCT_CELLS = [
    "11", "3", "4", "5", "6", "7", "12", "13", "14", "15", "16", "17.5", "reason", "18", "class",
    "prefix", "19", "reputation", "20", "21", "true", "22.5", "is executing cryptomining",
    "validation", "23",
]


class TestRecordContract:
    """The parser and the partition writer build and read records by
    position, so the field order is part of the record type."""

    def test_fields_are_in_parser_order(self):
        assert FlowRecord._fields == tuple(_DISTINCT_FIELDS)
        header = ",".join(ingest.CANONICAL_COLUMNS + (ingest.DESTINATION_PORT_COLUMN,))
        text = f"{header}\n{','.join(_DISTINCT_CELLS)}\n"
        [record], report = ingest.parse_dataset(text.encode("utf-8"))
        assert report.rows_rejected == 0
        assert record._asdict() == _DISTINCT_FIELDS
        buffer = io.StringIO()
        ingest.write_dataset([record], buffer)
        assert buffer.getvalue() == text

    @settings(max_examples=50, deadline=None)
    @given(flow_records(), st.sampled_from(FlowRecord._fields), flow_records())
    def test_copy_record_returns_a_record(self, record, name, other):
        copied = copy_record(record, **{name: getattr(other, name)})
        assert type(copied) is FlowRecord
        assert copied == record._replace(**{name: getattr(other, name)})

    @pytest.mark.parametrize(
        "text",
        [*VERDICT_HEADER, *(label.value for label in LabelClass), *(label.value for label in FinalLabel)],
    )
    def test_verdict_words_need_no_csv_quoting(self, text):
        # detect joins verdict cells with commas instead of a csv writer
        assert not set(text) & set(',"\r\n')
