"""Exactness of the CSV record path against reference implementations.

The references below are the straightforward forms of the parser and of
the enrichment stages: one ``cell()`` lookup per field, keyword
construction, and ``dataclasses.replace`` for every copy. The reference
parser rejects a non-finite float where it parses it, as the package
does. The package's versions must produce the same records, reports and
reject reasons.
"""
import csv
import dataclasses
import filecmp
import io
from collections import Counter
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowsieve import ingest
from flowsieve.cli import main
from flowsieve.errors import SchemaError
from flowsieve.records import (
    FlowRecord,
    LabelClass,
    PartitionTag,
    copy_record,
    flow_start_ms,
)
from flowsieve.synth import SynthConfig, generate

from conftest import make_record


# -- reference parser ------------------------------------------------------


def _ref_parse_int(cell: str, what: str) -> int:
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


def _ref_parse_bool(cell: str, what: str) -> bool:
    key = cell.strip().lower()
    if key in {"true", "1", "yes", "t"}:
        return True
    if key in {"false", "0", "no", "f", ""}:
        return False
    raise ValueError(f"unparsable boolean {what}")


def _ref_parse_float(cell: str, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"unparsable numeric {what}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite numeric {what}")
    return value


def ref_parse(text: str):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty stream: no header row") from None
    positions = {name.strip().lower(): idx for idx, name in enumerate(header)}
    missing = [name for name in ingest.MANDATORY_COLUMNS if name.lower() not in positions]
    if missing:
        raise SchemaError(f"header is missing mandatory columns: {', '.join(missing)}")
    idx = {name: positions.get(name.lower()) for name in ingest.CANONICAL_COLUMNS}
    idx[ingest.DESTINATION_PORT_COLUMN] = positions.get(ingest.DESTINATION_PORT_COLUMN.lower())

    def cell(row, name):
        position = idx[name]
        if position is None or position >= len(row):
            return ""
        return row[position].strip()

    records = []
    report = ingest.ParseReport()
    for row in reader:
        if not any(piece.strip() for piece in row):
            continue
        report.rows_read += 1
        try:
            records.append(_ref_row_to_record(row, cell))
        except ValueError as exc:
            report.reject(str(exc))
    return records, report


def _ref_row_to_record(row, cell) -> FlowRecord:
    day = _ref_parse_int(cell(row, "flow_start_day"), "flow_start_day")
    hour = _ref_parse_int(cell(row, "flow_start_hour"), "flow_start_hour")
    minute = _ref_parse_int(cell(row, "flow_start_minute"), "flow_start_minute")
    second = _ref_parse_int(cell(row, "flow_start_second"), "flow_start_second")
    millisecond = _ref_parse_int(cell(row, "flow_start_millisecond"), "flow_start_millisecond")
    iat_cell = cell(row, "inter_arrival_time_milliseconds")
    port_cell = cell(row, ingest.DESTINATION_PORT_COLUMN)
    port_pool_cell = cell(row, "same_dest_port_count_pool")
    ip_pool_cell = cell(row, "same_dest_IP_count_pool")
    dns_pct_cell = cell(row, "DNS_host_percentage_of_numerical_chars_from_pool")
    prefix_cell = cell(row, "network_prefix_of_destination_IP_address_anonimized")
    label_cell = cell(row, "actual_label")
    partition_cell = cell(row, "partition")

    avg_packet_size = _ref_parse_float(cell(row, "avg_packet_size"), "avg_packet_size")
    dns_pct: Optional[float] = None
    if dns_pct_cell:
        dns_pct = _ref_parse_float(dns_pct_cell, "DNS_host_percentage_of_numerical_chars_from_pool")
    if label_cell:
        try:
            label = LabelClass.parse(label_cell)
        except ValueError:
            raise ValueError("unknown actual_label") from None
    else:
        label = LabelClass.ASSUMED_BENIGN
    partition: Optional[PartitionTag] = None
    if partition_cell:
        try:
            partition = PartitionTag.parse(partition_cell)
        except ValueError:
            raise ValueError("unknown partition") from None

    def opt_int(value: str, what: str) -> Optional[int]:
        return _ref_parse_int(value, what) if value else None

    return FlowRecord(
        device_id=_ref_parse_int(cell(row, "device_id"), "device_id"),
        source_network_id=_ref_parse_int(cell(row, "source_network_id"), "source_network_id"),
        flow_start=flow_start_ms(day, hour, minute, second, millisecond),
        protocol_identifier=_ref_parse_int(cell(row, "protocol_identifier"), "protocol_identifier"),
        flow_duration_milliseconds=_ref_parse_int(
            cell(row, "flow_duration_milliseconds"), "flow_duration_milliseconds"
        ),
        octet_delta_count=_ref_parse_int(cell(row, "octet_delta_count"), "octet_delta_count"),
        packet_delta_count=_ref_parse_int(cell(row, "packet_delta_count"), "packet_delta_count"),
        avg_packet_size=avg_packet_size,
        flow_end_reason=cell(row, "flow_end_reason"),
        tcp_control_bits=_ref_parse_int(cell(row, "tcp_control_bits"), "tcp_control_bits"),
        network_class_of_destination=cell(row, "network_class_of_destination_IP_address"),
        destination_network_prefix=prefix_cell or None,
        inter_arrival_time_milliseconds=opt_int(iat_cell, "inter_arrival_time_milliseconds"),
        reputation_status=cell(row, "reputation_status"),
        same_dest_port_count_pool=opt_int(port_pool_cell, "same_dest_port_count_pool"),
        same_dest_ip_count_pool=opt_int(ip_pool_cell, "same_dest_IP_count_pool"),
        has_dns_request_from_pool=_ref_parse_bool(
            cell(row, "has_DNS_request_from_pool"), "has_DNS_request_from_pool"
        ),
        dns_host_pct_numerical_chars=dns_pct,
        actual_label=label,
        partition=partition,
        destination_port=opt_int(port_cell, ingest.DESTINATION_PORT_COLUMN),
    )


# -- hostile inputs ----------------------------------------------------------

_INT_CELLS = ["0", "3", " 17 ", "-2", "3.0", " 4.0", "3.5", "1e3", "1_0", "x", "", "nan", "inf", "-inf"]
_FLOAT_CELLS = ["1.5", " 2 ", "400.0", "-0.0", "1e308", "1e309", "nan", "NaN", "inf", "-Infinity", "x", ""]
_LABEL_CELLS = [
    "assumed benign", "ASSUMED_BENIGN", " being scanned by Nmap ", "being_scanned_by_nmap",
    "is_executing_cryptomining", "Is Executing Cryptomining", "bogus", "",
]
_PARTITION_CELLS = ["training", " TEST ", "Validation", "train", "", "_test"]
_BOOL_CELLS = ["true", "1", "YES", "f", " t ", "0", "", "maybe"]
_TEXT_CELLS = ["idle timeout", " pfx-a ", "", "x,y", 'say "hi"', "public"]

_CELLS_BY_COLUMN = {
    "avg_packet_size": _FLOAT_CELLS,
    "DNS_host_percentage_of_numerical_chars_from_pool": _FLOAT_CELLS,
    "actual_label": _LABEL_CELLS,
    "partition": _PARTITION_CELLS,
    "has_DNS_request_from_pool": _BOOL_CELLS,
    "flow_end_reason": _TEXT_CELLS,
    "network_class_of_destination_IP_address": _TEXT_CELLS,
    "network_prefix_of_destination_IP_address_anonimized": _TEXT_CELLS,
    "reputation_status": _TEXT_CELLS,
}
_ALL_COLUMNS = ingest.CANONICAL_COLUMNS + (ingest.DESTINATION_PORT_COLUMN, "unrelated")


def _good_row(columns) -> list[str]:
    buffer = io.StringIO()
    ingest.write_dataset([make_record()], buffer)
    header, values = list(csv.reader(io.StringIO(buffer.getvalue())))
    good = dict(zip(header, values))
    return [good.get(name.strip(), "z") for name in columns]


@st.composite
def hostile_csv(draw):
    optional = [c for c in _ALL_COLUMNS if c not in ingest.MANDATORY_COLUMNS]
    dropped = draw(st.sets(st.sampled_from(optional), max_size=4))
    columns = [c for c in _ALL_COLUMNS if c not in dropped]
    columns = draw(st.permutations(columns))
    # a duplicate header: the later column wins
    if draw(st.booleans()):
        columns = columns + [draw(st.sampled_from(columns))]
    header = [
        draw(st.sampled_from([name, name.upper(), name.lower(), f" {name} "])) for name in columns
    ]
    base = _good_row(columns)
    rows = [header]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["good", "edited", "edited", "short", "long", "blank", "spaces"]))
        if kind == "blank":
            rows.append([])
            continue
        if kind == "spaces":
            rows.append([" "] * draw(st.integers(min_value=1, max_value=30)))
            continue
        row = list(base)
        if kind != "good":
            for _ in range(draw(st.integers(min_value=1, max_value=4))):
                position = draw(st.integers(min_value=0, max_value=len(row) - 1))
                pool = _CELLS_BY_COLUMN.get(columns[position].strip(), _INT_CELLS)
                row[position] = draw(st.sampled_from(pool))
        if kind == "short":
            row = row[: draw(st.integers(min_value=1, max_value=len(row) - 1))]
        elif kind == "long":
            row = row + ["extra"] * draw(st.integers(min_value=1, max_value=3))
        rows.append(row)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _assert_same_parse(text: str) -> None:
    expected_records, expected_report = ref_parse(text)
    records, report = ingest.parse_dataset(text.encode("utf-8"))
    assert [repr(r) for r in records] == [repr(r) for r in expected_records]
    assert records == expected_records
    assert report.to_dict() == expected_report.to_dict()
    assert report.rows_read == expected_report.rows_read


class TestParserMatchesReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hostile_csv())
    def test_hostile_rows(self, text):
        _assert_same_parse(text)

    def test_synthetic_capture(self, synth_flows):
        buffer = io.StringIO()
        ingest.write_dataset(synth_flows[:3000], buffer)
        _assert_same_parse(buffer.getvalue())

    def test_every_rejected_row_is_counted_by_reason(self):
        columns = list(ingest.CANONICAL_COLUMNS)
        row = _good_row(columns)
        row[columns.index("octet_delta_count")] = "many"
        text = "\n".join([",".join(columns)] + [",".join(row)] * 150) + "\n"
        _assert_same_parse(text)
        records, report = ingest.parse_dataset(text.encode("utf-8"))
        assert records == []
        assert report.to_dict() == {
            "rows_read": 150,
            "rows_rejected": 150,
            "reject_reasons": {"unparsable numeric octet_delta_count": 150},
        }

    def test_blank_rows_are_not_read(self):
        columns = list(ingest.CANONICAL_COLUMNS)
        bad = _good_row(columns)
        bad[columns.index("device_id")] = "?"
        good = _good_row(columns)
        text = "\n".join([",".join(columns), "", " , ", ",".join(bad), ",".join(good)]) + "\n"
        _assert_same_parse(text)
        records, report = ingest.parse_dataset(text.encode("utf-8"))
        assert len(records) == 1
        assert report.to_dict() == {
            "rows_read": 2,
            "rows_rejected": 1,
            "reject_reasons": {"unparsable numeric device_id": 1},
        }


# -- record copies -------------------------------------------------------------

_FIELD_VALUES = {
    "device_id": 5,
    "source_network_id": 3,
    "flow_start": 123_456_789,
    "protocol_identifier": 17,
    "flow_duration_milliseconds": 9,
    "octet_delta_count": 77,
    "packet_delta_count": 2,
    "avg_packet_size": 38.5,
    "flow_end_reason": "active timeout",
    "tcp_control_bits": 3,
    "network_class_of_destination": "private",
    "destination_network_prefix": None,
    "inter_arrival_time_milliseconds": None,
    "reputation_status": "bad",
    "same_dest_port_count_pool": 0,
    "same_dest_ip_count_pool": None,
    "has_dns_request_from_pool": False,
    "dns_host_pct_numerical_chars": None,
    "actual_label": LabelClass.BEING_SCANNED_BY_NMAP,
    "partition": None,
    "destination_port": 8883,
}


class TestCopyRecord:
    def test_values_cover_every_field(self):
        assert list(_FIELD_VALUES) == [f.name for f in dataclasses.fields(FlowRecord)]

    @pytest.mark.parametrize("name", sorted(_FIELD_VALUES))
    def test_each_field_matches_replace(self, name):
        record = make_record()
        changes = {name: _FIELD_VALUES[name]}
        copied = copy_record(record, **changes)
        expected = dataclasses.replace(record, **changes)
        assert copied == expected
        assert repr(copied) == repr(expected)
        assert hash(copied) == hash(expected)
        assert record == make_record()  # the source is untouched

    def test_all_fields_at_once(self):
        record = make_record()
        assert copy_record(record, **_FIELD_VALUES) == dataclasses.replace(record, **_FIELD_VALUES)

    def test_no_changes_gives_an_equal_new_record(self):
        record = make_record()
        copied = copy_record(record)
        assert copied == record and copied is not record

    def test_copy_stays_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy_record(make_record()).device_id = 1

    def test_unknown_field_is_type_error(self):
        record = make_record()
        with pytest.raises(TypeError):
            dataclasses.replace(record, no_such_field=1)
        with pytest.raises(TypeError, match="no_such_field"):
            copy_record(record, no_such_field=1)
        with pytest.raises(TypeError):
            copy_record(record, device_id=1, hour_index=2)


# -- reference enrichment stages ---------------------------------------------


def ref_compute_iat(flows):
    order = {}
    for index, flow in enumerate(flows):
        order.setdefault(flow.device_id, []).append(index)
    result = [None] * len(flows)
    for indices in order.values():
        indices.sort(key=lambda i: (flows[i].flow_start, i))
        previous = None
        for i in indices:
            result[i] = None if previous is None else flows[i].flow_start - flows[previous].flow_start
            previous = i
    return [
        dataclasses.replace(flow, inter_arrival_time_milliseconds=result[i])
        for i, flow in enumerate(flows)
    ]


def ref_compute_pool_features(flows):
    port_counts, prefix_counts = {}, {}
    for flow in flows:
        if flow.destination_port is not None:
            port_counts.setdefault(flow.hour_index, Counter())[flow.destination_port] += 1
        if flow.destination_network_prefix is not None:
            prefix_counts.setdefault(flow.hour_index, Counter())[flow.destination_network_prefix] += 1
    out = []
    for flow in flows:
        window = flow.hour_index - 1
        port_count = prefix_count = 0
        if flow.destination_port is not None:
            port_count = port_counts.get(window, Counter()).get(flow.destination_port, 0)
        if flow.destination_network_prefix is not None:
            prefix_count = prefix_counts.get(window, Counter()).get(flow.destination_network_prefix, 0)
        out.append(
            dataclasses.replace(
                flow, same_dest_port_count_pool=port_count, same_dest_ip_count_pool=prefix_count
            )
        )
    return out


def ref_preprocess(flows):
    first_hour = min(flow.hour_index for flow in flows)
    kept, dropped, zero_filled = [], Counter(), 0
    for flow in flows:
        if flow.hour_index < first_hour + 2:
            dropped[ingest.WARMUP_REASON] += 1
            continue
        if flow.inter_arrival_time_milliseconds is None:
            dropped[ingest.MISSING_IAT_REASON] += 1
            continue
        if flow.same_dest_port_count_pool is None or flow.same_dest_ip_count_pool is None:
            zero_filled += 1
            flow = dataclasses.replace(
                flow,
                same_dest_port_count_pool=flow.same_dest_port_count_pool or 0,
                same_dest_ip_count_pool=flow.same_dest_ip_count_pool or 0,
            )
        kept.append(flow)
    return kept, dropped, zero_filled


def ref_partition(flows, split_days, lab_network_id, copy=dataclasses.replace):
    first_day = min(flow.day_index for flow in flows)
    train_end = first_day + split_days[0]
    val_end = train_end + split_days[1]
    test_end = val_end + split_days[2]
    dropped = Counter()
    parts = {"training": [], "validation": [], "test": []}
    for flow in sorted(flows, key=lambda f: (f.flow_start, f.device_id)):
        day = flow.day_index
        if day >= test_end:
            dropped["beyond requested span"] += 1
        elif day >= val_end:
            if flow.source_network_id != lab_network_id:
                dropped["non-lab flow in test window"] += 1
            else:
                parts["test"].append(copy(flow, partition=PartitionTag.TEST))
        elif flow.source_network_id == lab_network_id:
            dropped["lab flow outside test window"] += 1
        elif flow.actual_label.is_attack:
            dropped["attack label outside test window"] += 1
        elif day >= train_end:
            parts["validation"].append(copy(flow, partition=PartitionTag.VALIDATION))
        else:
            parts["training"].append(copy(flow, partition=PartitionTag.TRAINING))
    return parts, dropped


def _reprs(flows):
    return [repr(flow) for flow in flows]


@pytest.fixture(scope="module")
def raw_flows(synth_flows):
    """The synthetic capture as ingest sees it: IAT and pool counters absent."""
    return [
        dataclasses.replace(
            flow,
            inter_arrival_time_milliseconds=None,
            same_dest_port_count_pool=None if i % 3 == 0 else flow.same_dest_port_count_pool,
            same_dest_ip_count_pool=None if i % 5 == 0 else flow.same_dest_ip_count_pool,
        )
        for i, flow in enumerate(synth_flows)
    ]


class TestStagesMatchReference:
    def test_compute_iat(self, raw_flows):
        # shuffle the input order so ties and out-of-order starts occur
        flows = raw_flows[1::2] + raw_flows[::2]
        assert _reprs(ingest.compute_iat(flows)) == _reprs(ref_compute_iat(flows))

    def test_compute_iat_with_equal_starts(self):
        flows = [
            make_record(device_id=d, flow_start=s, inter_arrival_time_milliseconds=None)
            for d, s in [(1, 500), (2, 500), (1, 500), (1, 100), (2, 700), (1, 500), (3, 9)]
        ]
        assert _reprs(ingest.compute_iat(flows)) == _reprs(ref_compute_iat(flows))

    def test_compute_pool_features(self, raw_flows):
        flows = raw_flows[::-1]
        assert _reprs(ingest.compute_pool_features(flows)) == _reprs(ref_compute_pool_features(flows))

    def test_preprocess(self, raw_flows):
        flows = ingest.compute_iat(raw_flows)
        kept, report = ingest.preprocess(flows)
        expected, dropped, zero_filled = ref_preprocess(flows)
        assert _reprs(kept) == _reprs(expected)
        assert report.dropped_by_reason == dropped
        assert report.pool_zero_filled == zero_filled > 0

    def test_partition_chronologically(self, raw_flows, synth_config):
        flows = ingest.preprocess(ingest.compute_iat(raw_flows))[0][::-1]
        result = ingest.partition_chronologically(
            flows, split_days=synth_config.split_days, lab_network_id=synth_config.lab_network_id
        )
        parts, dropped = ref_partition(flows, synth_config.split_days, synth_config.lab_network_id)
        assert _reprs(result.training) == _reprs(parts["training"])
        assert _reprs(result.validation) == _reprs(parts["validation"])
        assert _reprs(result.test) == _reprs(parts["test"])
        assert result.dropped_by_reason == dropped

    def test_partition_breaks_start_ties_by_device(self):
        day = 86_400_000
        flows = [
            make_record(device_id=d, source_network_id=n, flow_start=day * k + 3_600_000, partition=None)
            for k in (0, 1, 2)
            for d, n in ((4, 4), (7, 5), (1, 1), (7, 5), (0, 0))
        ]
        result = ingest.partition_chronologically(flows, split_days=(1, 1, 1))
        parts, dropped = ref_partition(flows, (1, 1, 1), 5)
        assert [f.device_id for f in result.training] == [0, 1, 4]
        assert _reprs(result.training) == _reprs(parts["training"])
        assert _reprs(result.validation) == _reprs(parts["validation"])
        assert _reprs(result.test) == _reprs(parts["test"])
        assert result.dropped_by_reason == dropped


def _mutated(flows, seed):
    """The flows with the IAT and the partition tag of each row kept,
    blanked or changed at random, the first row's IAT blanked."""
    rng = np.random.default_rng(seed)
    tags = [None, *PartitionTag]
    out = []
    for i, flow in enumerate(flows):
        iat, tag = flow.inter_arrival_time_milliseconds, flow.partition
        action = rng.integers(3)
        if action == 1 or i == 0:
            iat = None
        elif action == 2:
            iat = (iat or 0) + int(rng.integers(1, 1000))
        action = rng.integers(3)
        if action == 1:
            tag = None
        elif action == 2:
            tag = tags[(tags.index(tag) + int(rng.integers(1, len(tags)))) % len(tags)]
        out.append(copy_record(flow, inter_arrival_time_milliseconds=iat, partition=tag))
    return out


def _ref_partition_result(flows, split_days, lab_network_id):
    parts, dropped = ref_partition(flows, split_days, lab_network_id)
    return ingest.PartitionResult(parts["training"], parts["validation"], parts["test"], dropped)


class TestUnchangedFlowsPassThrough:
    """A flow already holding its computed IAT, or its partition tag, comes
    back as the same object; any other comes back as a new record."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_compute_iat(self, synth_flows, seed):
        flows = _mutated(synth_flows, seed)
        flows = flows[1::2] + flows[::2]
        got = ingest.compute_iat(flows)
        want = ref_compute_iat(flows)
        assert _reprs(got) == _reprs(want)
        kept = [
            flow.inter_arrival_time_milliseconds == expected.inter_arrival_time_milliseconds
            for flow, expected in zip(flows, want)
        ]
        assert [out is flow for out, flow in zip(got, flows)] == kept
        assert 0 < sum(kept) < len(flows)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_partition_chronologically(self, synth_flows, synth_config, seed):
        flows = _mutated(synth_flows, seed)[::-1]
        args = (synth_config.split_days, synth_config.lab_network_id)
        result = ingest.partition_chronologically(flows, *args)
        parts, dropped = ref_partition(flows, *args)
        sources, _ = ref_partition(flows, *args, copy=lambda flow, partition: (flow, partition))
        assert result.dropped_by_reason == dropped
        kept = 0
        for name in parts:
            got = getattr(result, name)
            assert _reprs(got) == _reprs(parts[name])
            for out, (flow, tag) in zip(got, sources[name]):
                assert (out is flow) == (flow.partition is tag)
                kept += out is flow
        assert 0 < kept < sum(len(part) for part in parts.values())

    def test_ingest_writes_the_same_files(self, tmp_path, monkeypatch):
        config = SynthConfig(n_homes=3, days=3, split_days=(1, 1, 1), seed=7)
        flows = generate(config)
        captures = {"carried": flows, "mutated": _mutated(flows, 2)}
        for name, records in captures.items():
            with open(tmp_path / f"{name}.csv", "w", encoding="utf-8", newline="") as stream:
                ingest.write_dataset(records, stream)

        def run_ingest(capture, outdir):
            argv = ["ingest", "--input", str(tmp_path / capture), "--outdir", str(tmp_path / outdir)]
            assert main([*argv, "--split", "1,1,1", "--lab-network", str(config.lab_network_id)]) == 0
            return sorted(path.name for path in (tmp_path / outdir).iterdir())

        names = run_ingest("carried.csv", "carried")
        assert run_ingest("mutated.csv", "mutated") == names
        monkeypatch.setattr(ingest, "compute_iat", ref_compute_iat)
        monkeypatch.setattr(ingest, "partition_chronologically", _ref_partition_result)
        assert run_ingest("carried.csv", "carried-ref") == names
        assert run_ingest("mutated.csv", "mutated-ref") == names
        for outdir in ("mutated", "carried-ref", "mutated-ref"):
            match, mismatch, errors = filecmp.cmpfiles(
                tmp_path / "carried", tmp_path / outdir, names, shallow=False
            )
            assert (match, mismatch, errors) == (names, [], [])
