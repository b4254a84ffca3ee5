"""The column encoder against a per-row reference.

`fit_recipe` and `apply_recipe` read each record field as one column. The
reference below reads every feature of every row through its own getter,
the way the encoder once did, and both must agree exactly: the same
recipe artifact and the same matrix bytes.
"""
import json
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve import encode
from flowsieve.config import IpTreatment, NumericTreatment, PipelineConfig
from flowsieve.encode import OTHER, EncodingRecipe
from flowsieve.errors import DataError
from flowsieve.records import TCP_BIT_NAMES, FlowRecord

from conftest import make_record
from test_records import flow_records

_CATEGORICAL: dict[str, Callable[[FlowRecord], str]] = {
    "protocol_identifier": lambda r: str(r.protocol_identifier),
    "flow_end_reason": lambda r: r.flow_end_reason,
    "network_class_of_destination": lambda r: r.network_class_of_destination,
    "destination_network_prefix": lambda r: r.destination_network_prefix or "",
    "reputation_status": lambda r: r.reputation_status,
}

_NUMERIC: dict[str, Callable[[FlowRecord], float]] = {
    "flow_duration_milliseconds": lambda r: float(r.flow_duration_milliseconds),
    "octet_delta_count": lambda r: float(r.octet_delta_count),
    "packet_delta_count": lambda r: float(r.packet_delta_count),
    "avg_packet_size": lambda r: r.avg_packet_size,
    "inter_arrival_time_milliseconds": lambda r: float(r.inter_arrival_time_milliseconds or 0),
    "same_dest_port_count_pool": lambda r: float(r.same_dest_port_count_pool or 0),
    "same_dest_ip_count_pool": lambda r: float(r.same_dest_ip_count_pool or 0),
    "dns_host_pct_numerical_chars": lambda r: float(r.dns_host_pct_numerical_chars or 0.0),
}

_BINARY: dict[str, Callable[[FlowRecord], float]] = {
    **{
        f"tcp_{name}": (lambda bit: (lambda r: float((r.tcp_control_bits >> bit) & 1)))(bit)
        for bit, name in enumerate(TCP_BIT_NAMES)
    },
    "has_dns_request_from_pool": lambda r: float(r.has_dns_request_from_pool),
}

_ORDER = (
    ("categorical", "protocol_identifier"),
    ("numeric", "flow_duration_milliseconds"),
    ("numeric", "octet_delta_count"),
    ("numeric", "packet_delta_count"),
    ("numeric", "avg_packet_size"),
    ("categorical", "flow_end_reason"),
    *(("binary", f"tcp_{name}") for name in TCP_BIT_NAMES),
    ("categorical", "network_class_of_destination"),
    ("categorical", "destination_network_prefix"),
    ("numeric", "inter_arrival_time_milliseconds"),
    ("categorical", "reputation_status"),
    ("numeric", "same_dest_port_count_pool"),
    ("numeric", "same_dest_ip_count_pool"),
    ("binary", "has_dns_request_from_pool"),
    ("numeric", "dns_host_pct_numerical_chars"),
)


def _features(ip_treatment):
    for kind, name in _ORDER:
        if not (name == "destination_network_prefix" and ip_treatment is IpTreatment.DROP):
            yield kind, name


def _reference_numeric(flows, name, treatment) -> np.ndarray:
    try:
        values = np.array([_NUMERIC[name](flow) for flow in flows], dtype=float)
    except OverflowError:
        raise DataError(f"column {name!r} holds an integer beyond float range") from None
    if treatment is NumericTreatment.LOG1P:
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.log1p(values)
    if not np.isfinite(values).all():
        raise DataError(f"column {name!r} is not finite after {treatment.value}")
    return values


def reference_fit_recipe(flows, config) -> EncodingRecipe:
    vocabularies, numeric_stats, columns = {}, {}, []
    for kind, name in _features(config.ip_treatment):
        if kind == "categorical":
            vocab = tuple(sorted({_CATEGORICAL[name](flow) for flow in flows}))
            vocabularies[name] = vocab
            columns.extend(f"{name}={value}" for value in vocab)
            columns.append(f"{name}={OTHER}")
        elif kind == "numeric":
            transformed = _reference_numeric(flows, name, config.numeric_treatment)
            numeric_stats[name] = (float(transformed.min()), float(transformed.max()))
            columns.append(name)
        else:
            columns.append(name)
    return EncodingRecipe(
        config.ip_treatment, config.numeric_treatment, vocabularies, numeric_stats, tuple(columns)
    )


def reference_apply_recipe(flows, recipe) -> np.ndarray:
    values = np.zeros((len(flows), recipe.dimension), dtype=float)
    position = 0
    for kind, name in _features(recipe.ip_treatment):
        if kind == "categorical":
            vocab = recipe.vocabularies[name]
            index = {value: i for i, value in enumerate(vocab)}
            for row, flow in enumerate(flows):
                values[row, position + index.get(_CATEGORICAL[name](flow), len(vocab))] = 1.0
            position += len(vocab) + 1
        elif kind == "numeric":
            transformed = _reference_numeric(flows, name, recipe.numeric_treatment)
            lo, hi = recipe.numeric_stats[name]
            with np.errstate(over="ignore"):  # a subnormal range overflows; the clip maps inf to 1
                scaled = (transformed - lo) / (hi - lo) if hi > lo else np.zeros_like(transformed)
            values[:, position] = np.clip(scaled, 0.0, 1.0)
            position += 1
        else:
            values[:, position] = [_BINARY[name](flow) for flow in flows]
            position += 1
    return values


TREATMENTS = [
    PipelineConfig(ip_treatment=ip, numeric_treatment=numeric)
    for ip in IpTreatment
    for numeric in NumericTreatment
]
TREATMENT_IDS = [f"{c.ip_treatment.value}-{c.numeric_treatment.value}" for c in TREATMENTS]


def assert_matches_reference(training, flows, config) -> np.ndarray:
    recipe = encode.fit_recipe(training, config)
    assert recipe == reference_fit_recipe(training, config)
    assert json.dumps(recipe.to_dict()) == json.dumps(reference_fit_recipe(training, config).to_dict())
    matrix = encode.apply_recipe(flows, recipe)
    assert matrix.values.shape[1] == len(recipe.columns)
    expected = reference_apply_recipe(flows, recipe)
    assert np.array_equal(matrix.values, expected)
    assert matrix.values.tobytes() == expected.tobytes()
    return matrix.values


@settings(max_examples=150, deadline=None)
@given(
    st.lists(flow_records(), min_size=1, max_size=8),
    st.lists(flow_records(), min_size=0, max_size=8),
    st.sampled_from(TREATMENTS),
)
def test_generated_records_match_the_reference(training, flows, config):
    assert_matches_reference(training, training + flows, config)


@pytest.mark.parametrize("config", TREATMENTS, ids=TREATMENT_IDS)
def test_synthetic_partitions_match_the_reference(synth_partitions, config):
    training, validation, test = synth_partitions
    assert_matches_reference(training, validation + test, config)


def _column(recipe, name: str) -> int:
    return recipe.columns.index(name)


@pytest.mark.parametrize("config", TREATMENTS, ids=TREATMENT_IDS)
def test_absent_fields_encode_as_empty_category_and_zero(config):
    absent = make_record(
        destination_network_prefix=None,
        inter_arrival_time_milliseconds=None,
        same_dest_port_count_pool=None,
        same_dest_ip_count_pool=None,
        has_dns_request_from_pool=False,
        dns_host_pct_numerical_chars=None,
    )
    zero = make_record(
        destination_network_prefix="",
        inter_arrival_time_milliseconds=0,
        same_dest_port_count_pool=0,
        same_dest_ip_count_pool=0,
        has_dns_request_from_pool=False,
        dns_host_pct_numerical_chars=0.0,
    )
    training = [make_record(), absent]
    values = assert_matches_reference(training, [absent, zero, make_record()], config)
    assert values[0].tobytes() == values[1].tobytes()
    recipe = encode.fit_recipe(training, config)
    if config.ip_treatment is IpTreatment.PREFIX_ONE_HOT:
        assert recipe.vocabularies["destination_network_prefix"] == ("", "pfx-a")
        assert values[0, _column(recipe, "destination_network_prefix=")] == 1.0


@pytest.mark.parametrize("config", TREATMENTS, ids=TREATMENT_IDS)
def test_309_digit_count_within_float_range(config):
    huge = 10**308  # 309 digits, below the largest double
    training = [make_record(), make_record(octet_delta_count=huge)]
    values = assert_matches_reference(training, training, config)
    recipe = encode.fit_recipe(training, config)
    assert values[:, _column(recipe, "octet_delta_count")].tolist() == [0.0, 1.0]


def test_tcp_bits_beyond_the_six_bit_field_read_as_python_ints():
    training = [
        make_record(tcp_control_bits=64 | 0b010001),  # SYN|RST above the six-bit field
        make_record(tcp_control_bits=2**70 | 0b000010),  # ACK, beyond int64
    ]
    values = assert_matches_reference(training, training, PipelineConfig())
    recipe = encode.fit_recipe(training, PipelineConfig())
    bits = {name: values[:, _column(recipe, f"tcp_{name}")].tolist() for name in TCP_BIT_NAMES}
    assert bits == {
        "syn": [1.0, 0.0],
        "ack": [0.0, 1.0],
        "fin": [0.0, 0.0],
        "psh": [0.0, 0.0],
        "rst": [1.0, 0.0],
        "urg": [0.0, 0.0],
    }


@pytest.mark.parametrize("config", TREATMENTS, ids=TREATMENT_IDS)
def test_unseen_categories_map_to_other(config):
    training = [make_record(), make_record(protocol_identifier=17, flow_end_reason="end of flow")]
    unseen = make_record(
        protocol_identifier=99,
        flow_end_reason="brand new",
        network_class_of_destination="multicast",
        destination_network_prefix="pfx-z",
        reputation_status="unknown",
    )
    values = assert_matches_reference(training, [unseen], config)
    recipe = encode.fit_recipe(training, config)
    for name, vocab in recipe.vocabularies.items():
        assert values[0, _column(recipe, f"{name}={OTHER}")] == 1.0
        assert values[0, [_column(recipe, f"{name}={value}") for value in vocab]].sum() == 0.0


@pytest.mark.parametrize("config", TREATMENTS, ids=TREATMENT_IDS)
def test_negative_zero_keeps_the_reference_sign(config):
    # a present average packet size keeps the sign of -0.0; an optional
    # field reads -0.0 as absent and encodes 0.0
    training = [
        make_record(octet_delta_count=0, avg_packet_size=-0.0, dns_host_pct_numerical_chars=-0.0),
        make_record(octet_delta_count=0, avg_packet_size=0.0, dns_host_pct_numerical_chars=0.0),
        make_record(),
    ]
    assert_matches_reference(training, training, config)
