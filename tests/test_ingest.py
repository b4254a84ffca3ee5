import io
import sys

import pytest

from flowsieve import ingest
from flowsieve.errors import DataError, SchemaError
from flowsieve.records import MS_PER_DAY, MS_PER_HOUR, LabelClass, PartitionTag

from conftest import make_record


def _csv_bytes(records) -> bytes:
    buffer = io.StringIO()
    ingest.write_dataset(records, buffer)
    return buffer.getvalue().encode("utf-8")


class TestParseDataset:
    def test_header_only(self):
        header = ",".join(ingest.CANONICAL_COLUMNS) + "\n"
        records, report = ingest.parse_dataset(header.encode("utf-8"))
        assert records == []
        assert report.rows_read == 0

    def test_empty_stream_is_schema_error(self):
        with pytest.raises(SchemaError):
            ingest.parse_dataset(b"")

    def test_non_utf8_bytes_are_schema_error_naming_the_offset(self, tmp_path):
        header = (",".join(ingest.CANONICAL_COLUMNS) + "\n").encode("utf-8")
        with pytest.raises(SchemaError, match=f"input is not UTF-8: invalid byte at offset {len(header)}"):
            ingest.parse_dataset(header + b"\xff\xfe\n")
        # past the first buffer a file is decoded in, the offset is still the file's
        data = header + b"x\n" * 10_000 + b"\xff\n"
        path = tmp_path / "capture.csv"
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=f"capture.csv is not UTF-8: invalid byte at offset {len(data) - 2}"):
            ingest.parse_dataset(path)

    def test_missing_mandatory_column_is_schema_error(self):
        columns = [c for c in ingest.CANONICAL_COLUMNS if c != "packet_delta_count"]
        header = ",".join(columns) + "\n"
        with pytest.raises(SchemaError, match="packet_delta_count"):
            ingest.parse_dataset(header.encode("utf-8"))

    def test_non_numeric_packet_count_rejected(self):
        text = _csv_bytes([make_record()]).decode("utf-8")
        lines = text.splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index("packet_delta_count")] = "lots"
        payload = "\n".join([lines[0], ",".join(row)]).encode("utf-8")
        records, report = ingest.parse_dataset(payload)
        assert records == []
        assert report.rows_read == 1
        assert report.rows_rejected == 1
        assert report.reject_reasons == {"unparsable numeric packet_delta_count": 1}

    def test_rejections_do_not_abort(self):
        good = make_record()
        text = _csv_bytes([good, good]).decode("utf-8")
        lines = text.splitlines()
        broken = lines[1].replace("1200", "noise", 1)
        payload = "\n".join([lines[0], broken, lines[2]]).encode("utf-8")
        records, report = ingest.parse_dataset(payload)
        assert len(records) == 1
        assert report.rows_rejected == 1

    def _one_row_with(self, **cells) -> bytes:
        text = _csv_bytes([make_record()]).decode("utf-8")
        lines = text.splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        for column, value in cells.items():
            row[header.index(column)] = value
        return "\n".join([lines[0], ",".join(row)]).encode("utf-8")

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e309"])
    @pytest.mark.parametrize(
        "column", ["avg_packet_size", "DNS_host_percentage_of_numerical_chars_from_pool"]
    )
    def test_non_finite_float_rejected(self, column, value):
        records, report = ingest.parse_dataset(self._one_row_with(**{column: value}))
        assert records == []
        assert report.reject_reasons == {f"non-finite numeric {column}": 1}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "column", ["packet_delta_count", "flow_start_day", "inter_arrival_time_milliseconds"]
    )
    def test_non_finite_int_rejected_as_unparsable(self, column, value):
        records, report = ingest.parse_dataset(self._one_row_with(**{column: value}))
        assert records == []
        assert report.reject_reasons == {f"unparsable numeric {column}": 1}

    def test_integral_float_int_cell_accepted(self):
        records, report = ingest.parse_dataset(self._one_row_with(packet_delta_count=" 3.0 "))
        assert report.rows_rejected == 0
        assert records[0].packet_delta_count == 3 and type(records[0].packet_delta_count) is int

    def test_unparsable_boolean_rejected(self):
        _, report = ingest.parse_dataset(self._one_row_with(has_DNS_request_from_pool="maybe"))
        assert report.reject_reasons == {"unparsable boolean has_DNS_request_from_pool": 1}

    def test_first_bad_field_names_the_reason(self):
        # fields are checked in a fixed order: the flow start, the floats,
        # label, partition, then the integer fields
        payload = self._one_row_with(
            device_id="?", actual_label="bogus", partition="bogus", avg_packet_size="nan"
        )
        assert ingest.parse_dataset(payload)[1].reject_reasons == {
            "non-finite numeric avg_packet_size": 1
        }
        payload = self._one_row_with(device_id="?", actual_label="bogus", partition="bogus")
        assert ingest.parse_dataset(payload)[1].reject_reasons == {"unknown actual_label": 1}
        payload = self._one_row_with(device_id="?", has_DNS_request_from_pool="maybe")
        assert ingest.parse_dataset(payload)[1].reject_reasons == {"unparsable numeric device_id": 1}

    @pytest.mark.parametrize(
        "column",
        ["octet_delta_count", "flow_start_day", "same_dest_IP_count_pool", "destination_port"],
    )
    def test_integer_beyond_float_range_rejected_with_float_range(self, column):
        payload = self._one_row_with(**{column: "9" * 401})
        records, report = ingest.parse_dataset(payload)
        assert records == []
        assert report.reject_reasons == {f"numeric {column} beyond float range": 1}

    @pytest.mark.parametrize(
        "cell, accepted",
        [
            (str(int(sys.float_info.max)), True),  # 309 digits, the largest float
            ("-" + str(int(sys.float_info.max)), True),
            (str(2**1024), False),  # 309 digits, rounds past the largest float
            ("0" * 400 + "17", True),  # long, but small
            ("9" * 308, True),  # as long as a cell can be without the check
            ("9" * 400 + ".0", False),  # integral float spelling beyond range
        ],
    )
    def test_float_range_boundary(self, cell, accepted):
        records, report = ingest.parse_dataset(self._one_row_with(octet_delta_count=cell))
        if accepted:
            assert report.rows_rejected == 0
            assert records[0].octet_delta_count == int(cell)
        else:
            assert records == [] and report.rows_rejected == 1

    def test_float_range_keeps_the_first_bad_field(self):
        payload = self._one_row_with(device_id="?", octet_delta_count="9" * 401)
        _, report = ingest.parse_dataset(payload)
        assert report.reject_reasons == {"unparsable numeric device_id": 1}
        payload = self._one_row_with(device_id="9" * 401, octet_delta_count="?")
        _, report = ingest.parse_dataset(payload)
        assert report.reject_reasons == {"numeric device_id beyond float range": 1}

    def test_float_range_parses_valid_rows_alike(self):
        short = make_record()
        # a long prefix makes the row long enough to take the checked path
        long = make_record(device_id=2, destination_network_prefix="p" * 400)
        payload = _csv_bytes([short, long, short])
        records, report = ingest.parse_dataset(payload)
        assert report.rows_rejected == 0
        assert records == [short, long, short]

    def test_header_case_insensitive(self):
        text = _csv_bytes([make_record()]).decode("utf-8")
        lines = text.splitlines()
        payload = "\n".join([lines[0].upper(), lines[1]]).encode("utf-8")
        records, _ = ingest.parse_dataset(payload)
        assert len(records) == 1


class TestComputeIat:
    def test_consecutive_flows(self):
        flows = [
            make_record(flow_start=1000, inter_arrival_time_milliseconds=None),
            make_record(flow_start=1450, inter_arrival_time_milliseconds=None),
        ]
        out = ingest.compute_iat(flows)
        assert out[0].inter_arrival_time_milliseconds is None
        assert out[1].inter_arrival_time_milliseconds == 450

    def test_single_flow_has_absent_iat(self):
        out = ingest.compute_iat([make_record(inter_arrival_time_milliseconds=None)])
        assert out[0].inter_arrival_time_milliseconds is None

    def test_identical_timestamps_give_zero(self):
        flows = [
            make_record(flow_start=9000, inter_arrival_time_milliseconds=None),
            make_record(flow_start=9000, inter_arrival_time_milliseconds=None),
        ]
        out = ingest.compute_iat(flows)
        assert out[1].inter_arrival_time_milliseconds == 0

    def test_grouped_per_device(self):
        flows = [
            make_record(device_id=1, flow_start=1000, inter_arrival_time_milliseconds=None),
            make_record(device_id=2, flow_start=2000, inter_arrival_time_milliseconds=None),
            make_record(device_id=1, flow_start=4000, inter_arrival_time_milliseconds=None),
        ]
        out = ingest.compute_iat(flows)
        assert out[1].inter_arrival_time_milliseconds is None  # first of device 2
        assert out[2].inter_arrival_time_milliseconds == 3000


class TestPoolFeatures:
    def _window_flows(self):
        # Three flows to port 443 from different devices inside [09:00, 10:00).
        nine = 9 * MS_PER_HOUR
        return [
            make_record(device_id=0, flow_start=nine + 60_000, destination_port=443),
            make_record(device_id=1, flow_start=nine + 120_000, destination_port=443),
            make_record(device_id=4, flow_start=nine + 180_000, destination_port=443),
        ]

    def test_port_count_over_previous_complete_hour(self):
        query = make_record(device_id=2, flow_start=10 * MS_PER_HOUR + 12 * 60_000, destination_port=443)
        out = ingest.compute_pool_features(self._window_flows() + [query])
        assert out[-1].same_dest_port_count_pool == 3

    def test_port_without_history_counts_zero(self):
        query = make_record(device_id=2, flow_start=10 * MS_PER_HOUR + 12 * 60_000, destination_port=8883)
        out = ingest.compute_pool_features(self._window_flows() + [query])
        assert out[-1].same_dest_port_count_pool == 0

    def test_no_prior_hour_means_zero(self):
        lone = make_record(flow_start=30 * 60_000, destination_port=443)
        out = ingest.compute_pool_features([lone])
        assert out[0].same_dest_port_count_pool == 0
        assert out[0].same_dest_ip_count_pool == 0

    def test_own_hour_does_not_count(self):
        # A same-hour flow to the same port must not contribute.
        ten = 10 * MS_PER_HOUR
        flows = [
            make_record(device_id=0, flow_start=ten + 1000, destination_port=443),
            make_record(device_id=1, flow_start=ten + 2000, destination_port=443),
        ]
        out = ingest.compute_pool_features(flows)
        assert out[1].same_dest_port_count_pool == 0

    def test_pool_counts_all_devices(self):
        # The inspected device contributes to the pool like any other: with
        # no own matching flows in the window, removing it changes nothing.
        window = self._window_flows()
        query = make_record(device_id=2, flow_start=10 * MS_PER_HOUR, destination_port=443)
        with_all = ingest.compute_pool_features(window + [query])[-1]
        without_own = ingest.compute_pool_features(
            [f for f in window if f.device_id != 2] + [query]
        )[-1]
        assert with_all.same_dest_port_count_pool == without_own.same_dest_port_count_pool

    def test_prefix_count(self):
        nine = 9 * MS_PER_HOUR
        flows = [
            make_record(device_id=0, flow_start=nine + 1, destination_network_prefix="pfx-x"),
            make_record(device_id=1, flow_start=nine + 2, destination_network_prefix="pfx-x"),
            make_record(
                device_id=2, flow_start=10 * MS_PER_HOUR + 5, destination_network_prefix="pfx-x"
            ),
        ]
        out = ingest.compute_pool_features(flows)
        assert out[2].same_dest_ip_count_pool == 2


class TestPreprocess:
    def test_warmup_window_dropped(self):
        flows = [
            make_record(flow_start=10 * 60_000),  # hour 0 of capture
            make_record(flow_start=3 * MS_PER_HOUR),
        ]
        kept, report = ingest.preprocess(flows)
        assert len(kept) == 1
        assert report.dropped_by_reason[ingest.WARMUP_REASON] == 1

    def test_missing_iat_dropped(self):
        flows = [
            make_record(flow_start=0),  # anchors the warm-up window
            make_record(flow_start=5 * MS_PER_HOUR),
            make_record(flow_start=8 * MS_PER_HOUR, inter_arrival_time_milliseconds=None),
        ]
        kept, report = ingest.preprocess(flows)
        assert len(kept) == 1
        assert report.dropped_by_reason[ingest.MISSING_IAT_REASON] == 1

    def test_retained_unchanged(self):
        flow = make_record(flow_start=3 * MS_PER_HOUR)
        kept, _ = ingest.preprocess([make_record(flow_start=0), flow])
        assert kept == [flow]

    def test_pool_zero_fill(self):
        flow = make_record(
            flow_start=4 * MS_PER_HOUR,
            same_dest_port_count_pool=None,
            same_dest_ip_count_pool=None,
        )
        kept, report = ingest.preprocess([make_record(flow_start=0), flow])
        assert kept[0].same_dest_port_count_pool == 0
        assert kept[0].same_dest_ip_count_pool == 0
        assert report.pool_zero_filled == 1


class TestSanitizeTraining:
    def _flows_with_ports(self, port_counts):
        flows = []
        for port, count in port_counts.items():
            flows.extend(make_record(destination_port=port) for _ in range(count))
        return flows

    def test_scarce_ports_removed(self):
        flows = self._flows_with_ports({443: 500, 80: 300, 31337: 2})
        kept, removed = ingest.sanitize_training(flows, 10)
        assert removed == 2
        assert all(f.destination_port != 31337 for f in kept)
        assert len(kept) == 800

    def test_zero_threshold_is_identity(self):
        flows = self._flows_with_ports({443: 5, 80: 1})
        kept, removed = ingest.sanitize_training(flows, 0)
        assert removed == 0
        assert kept == flows

    def test_emptying_threshold_errors(self):
        flows = self._flows_with_ports({443: 500, 80: 300, 31337: 2})
        with pytest.raises(DataError, match="empty"):
            ingest.sanitize_training(flows, 1000)

    def test_idempotent(self):
        flows = self._flows_with_ports({443: 20, 80: 9, 8883: 3})
        once, removed_once = ingest.sanitize_training(flows, 5)
        twice, removed_twice = ingest.sanitize_training(once, 5)
        assert twice == once
        assert removed_twice == 0

    def test_portless_flows_kept(self):
        flows = [make_record(destination_port=None) for _ in range(3)]
        kept, removed = ingest.sanitize_training(flows, 10)
        assert removed == 0
        assert len(kept) == 3


class TestPartitionChronologically:
    def _day_flow(self, day, network=1, device=2, label=LabelClass.ASSUMED_BENIGN, offset=0):
        if network == 5:
            device = 7
        return make_record(
            device_id=device,
            source_network_id=network,
            flow_start=day * MS_PER_DAY + 3 * MS_PER_HOUR + offset,
            actual_label=label,
        )

    def test_three_day_split(self):
        flows = []
        for day in range(3):
            flows.append(self._day_flow(day, network=1))
            flows.append(self._day_flow(day, network=5))
        result = ingest.partition_chronologically(flows, split_days=(1, 1, 1))
        assert [f.day_index for f in result.training] == [0]
        assert [f.day_index for f in result.validation] == [1]
        assert [f.day_index for f in result.test] == [2]
        assert all(f.partition is PartitionTag.TRAINING for f in result.training)
        assert all(f.partition is PartitionTag.TEST for f in result.test)

    def test_insufficient_span_errors(self):
        flows = [self._day_flow(0), self._day_flow(1)]
        with pytest.raises(DataError, match="days"):
            ingest.partition_chronologically(flows, split_days=(13, 3, 5))

    def test_selection_rules(self):
        flows = [
            self._day_flow(0, network=1),
            self._day_flow(0, network=5),  # lab flow during training days: dropped
            self._day_flow(2, network=1),  # home flow during test days: dropped
            self._day_flow(2, network=5),
            self._day_flow(2, network=5, label=LabelClass.EXECUTING_CRYPTOMINING, offset=1),
            self._day_flow(1, network=1),
        ]
        result = ingest.partition_chronologically(flows, split_days=(1, 1, 1))
        assert len(result.training) == 1
        assert len(result.validation) == 1
        assert len(result.test) == 2
        assert result.dropped_by_reason["lab flow outside test window"] == 1
        assert result.dropped_by_reason["non-lab flow in test window"] == 1

    def test_is_a_partition_of_the_selected_rows(self):
        flows = [self._day_flow(d, network=n, offset=i) for i, (d, n) in enumerate(
            [(0, 0), (0, 1), (1, 2), (1, 5), (2, 5), (2, 3), (0, 5), (2, 0)]
        )]
        result = ingest.partition_chronologically(flows, split_days=(1, 1, 1))
        pieces = result.training + result.validation + result.test
        assert len(pieces) + sum(result.dropped_by_reason.values()) == len(flows)
        starts = sorted((f.flow_start, f.device_id) for f in pieces)
        assert len(set(starts)) == len(starts)

    def test_synth_partition_matches_generated_tags(self, synth_flows, synth_config):
        cleansed, _ = ingest.preprocess(synth_flows)
        result = ingest.partition_chronologically(
            cleansed,
            split_days=synth_config.split_days,
            lab_network_id=synth_config.lab_network_id,
        )
        for part, tag in (
            (result.training, PartitionTag.TRAINING),
            (result.validation, PartitionTag.VALIDATION),
            (result.test, PartitionTag.TEST),
        ):
            assert part, "every partition should be populated"
            assert all(f.partition is tag for f in part)
