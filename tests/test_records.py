import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve import ingest
from flowsieve.records import (
    LabelClass,
    PartitionTag,
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
