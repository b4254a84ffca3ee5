import numpy as np
import pytest

from flowsieve import ingest
from flowsieve.records import FlowRecord, LabelClass, PartitionTag
from flowsieve.stats import row_sq_norms
from flowsieve.synth import SynthConfig, generate


def make_record(**overrides) -> FlowRecord:
    """A consistent benign record; override fields as needed."""
    base = dict(
        device_id=2,
        source_network_id=1,
        flow_start=3 * 3_600_000 + 15 * 60_000,
        protocol_identifier=6,
        flow_duration_milliseconds=420,
        octet_delta_count=1200,
        packet_delta_count=3,
        avg_packet_size=400.0,
        flow_end_reason="idle timeout",
        tcp_control_bits=0b001010,
        network_class_of_destination="public",
        destination_network_prefix="pfx-a",
        inter_arrival_time_milliseconds=5000,
        reputation_status="ok",
        same_dest_port_count_pool=4,
        same_dest_ip_count_pool=2,
        has_dns_request_from_pool=True,
        dns_host_pct_numerical_chars=12.5,
        actual_label=LabelClass.ASSUMED_BENIGN,
        partition=PartitionTag.TRAINING,
        destination_port=443,
    )
    base.update(overrides)
    return FlowRecord(**base)


def one_expression_sq_dists(a, b, a_sq_norms=None):
    """`stats.pairwise_sq_dists` as one expression, with (m, n) temporaries
    for the norm sum, the doubled product and the difference."""
    a2 = (row_sq_norms(a) if a_sq_norms is None else a_sq_norms)[:, None]
    b2 = row_sq_norms(b)[None, :]
    d2 = a2 + b2 - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


@pytest.fixture(scope="session")
def synth_config() -> SynthConfig:
    return SynthConfig()


@pytest.fixture(scope="session")
def synth_flows(synth_config):
    return generate(synth_config)


@pytest.fixture(scope="session")
def synth_partitions(synth_flows, synth_config):
    cleansed, _ = ingest.preprocess(synth_flows)
    parts = ingest.partition_chronologically(
        cleansed,
        split_days=synth_config.split_days,
        lab_network_id=synth_config.lab_network_id,
    )
    training, _ = ingest.sanitize_training(parts.training, ingest.SANITIZE_MIN_PORT_COUNT)
    return training, parts.validation, parts.test
