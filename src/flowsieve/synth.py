"""Seeded synthetic multi-home flow generator.

Plants frequent, rare-but-benign and attack-like behaviors across a small
fleet of identical devices so the full pipeline can be verified at desk
scale. Flow counts per device-hour are Poisson; feature values are
truncated normals with counts rounded and floored at their valid minima.
The collaborative pool counters and inter-arrival times are computed by
the real ingestion code, never faked.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import ingest
from .errors import ConfigError
from .records import (
    LAB_DEVICE_ID,
    MS_PER_DAY,
    MS_PER_HOUR,
    FlowRecord,
    LabelClass,
    PartitionTag,
)
from .stats import TAG_SYNTH, derive_rng

# The fleet mirrors the published deployment: seven home devices spread
# over the home networks plus one lab device in the highest-numbered
# network, where the attack behaviors are confined.
N_HOME_DEVICES = 7


class BehaviorKind(Enum):
    FREQUENT = "frequent"
    RARE_BENIGN = "rare_benign"
    SCAN_LIKE = "scan_like"
    MINING_LIKE = "mining_like"

    @property
    def label(self) -> LabelClass:
        if self is BehaviorKind.SCAN_LIKE:
            return LabelClass.BEING_SCANNED_BY_NMAP
        if self is BehaviorKind.MINING_LIKE:
            return LabelClass.EXECUTING_CRYPTOMINING
        return LabelClass.ASSUMED_BENIGN

    @property
    def is_attack(self) -> bool:
        return self.label.is_attack


@dataclass(frozen=True)
class BehaviorSpec:
    name: str
    kind: BehaviorKind
    rate_per_device_hour: float
    octets_mean: float
    octets_spread: float
    packets_mean: float
    packets_spread: float
    duration_mean_ms: float
    duration_spread_ms: float
    dest_ports: tuple[int, ...]
    dest_prefixes: tuple[str, ...]
    protocol: int = 6
    tcp_bits: int = 0b001010  # ACK|PSH
    flow_end_reason: str = "idle timeout"
    network_class: str = "public"
    has_dns: bool = True
    dns_pct_mean: float = 20.0


BEHAVIORS: tuple[BehaviorSpec, ...] = (
    BehaviorSpec(
        name="telemetry",
        kind=BehaviorKind.FREQUENT,
        rate_per_device_hour=5.0,
        octets_mean=1200.0,
        octets_spread=120.0,
        packets_mean=10.0,
        packets_spread=1.5,
        duration_mean_ms=400.0,
        duration_spread_ms=60.0,
        dest_ports=(443,),
        dest_prefixes=("pfx-telemetry",),
    ),
    BehaviorSpec(
        name="streaming",
        kind=BehaviorKind.FREQUENT,
        rate_per_device_hour=3.0,
        octets_mean=220_000.0,
        octets_spread=18_000.0,
        packets_mean=180.0,
        packets_spread=20.0,
        duration_mean_ms=1500.0,
        duration_spread_ms=220.0,
        dest_ports=(443, 8443),
        dest_prefixes=("pfx-cdn-a", "pfx-cdn-b"),
        tcp_bits=0b000010,  # ACK
        dns_pct_mean=10.0,
    ),
    BehaviorSpec(
        name="boot-check",
        kind=BehaviorKind.RARE_BENIGN,
        rate_per_device_hour=0.06,
        octets_mean=340.0,
        octets_spread=40.0,
        packets_mean=4.0,
        packets_spread=1.0,
        duration_mean_ms=90.0,
        duration_spread_ms=20.0,
        dest_ports=(123,),
        dest_prefixes=("pfx-ntp",),
        protocol=17,
        tcp_bits=0,
        flow_end_reason="end of flow",
        has_dns=False,
        dns_pct_mean=0.0,
    ),
    BehaviorSpec(
        name="voice-command",
        kind=BehaviorKind.RARE_BENIGN,
        rate_per_device_hour=0.08,
        octets_mean=5200.0,
        octets_spread=500.0,
        packets_mean=24.0,
        packets_spread=4.0,
        duration_mean_ms=2600.0,
        duration_spread_ms=350.0,
        dest_ports=(8883,),
        dest_prefixes=("pfx-voice",),
        tcp_bits=0b001010,
        dns_pct_mean=35.0,
    ),
    BehaviorSpec(
        name="port-sweep",
        kind=BehaviorKind.SCAN_LIKE,
        rate_per_device_hour=60.0,
        octets_mean=90.0,
        octets_spread=20.0,
        packets_mean=1.4,
        packets_spread=0.6,
        duration_mean_ms=4.0,
        duration_spread_ms=2.0,
        dest_ports=tuple(range(20_000, 20_256)),
        dest_prefixes=("pfx-scan-target",),
        tcp_bits=0b010001,  # SYN|RST
        flow_end_reason="end of flow",
        has_dns=False,
        dns_pct_mean=0.0,
    ),
    BehaviorSpec(
        name="coin-miner",
        kind=BehaviorKind.MINING_LIKE,
        rate_per_device_hour=20.0,
        octets_mean=9000.0,
        octets_spread=700.0,
        packets_mean=60.0,
        packets_spread=6.0,
        duration_mean_ms=290_000.0,
        duration_spread_ms=25_000.0,
        dest_ports=(3333,),
        dest_prefixes=("pfx-stratum",),
        tcp_bits=0b001010,
        flow_end_reason="active timeout",
        has_dns=False,
        dns_pct_mean=0.0,
    ),
)


@dataclass(frozen=True)
class SynthConfig:
    n_homes: int = 5
    days: int = 7
    split_days: tuple[int, int, int] = (4, 1, 2)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_homes < 2:
            raise ConfigError("need at least two home networks for collaboration")
        if self.days < 1:
            raise ConfigError("days must be positive")
        if sum(self.split_days) != self.days or any(d <= 0 for d in self.split_days):
            raise ConfigError("split_days must be positive and sum to days")

    @property
    def lab_network_id(self) -> int:
        return self.n_homes

    @property
    def test_day_range(self) -> tuple[int, int]:
        start = self.split_days[0] + self.split_days[1]
        return start, start + self.split_days[2]


def _device_network(device_id: int, config: SynthConfig) -> int:
    if device_id == LAB_DEVICE_ID:
        return config.lab_network_id
    return device_id % config.n_homes


def _partition_for_day(day: int, config: SynthConfig) -> PartitionTag:
    if day < config.split_days[0]:
        return PartitionTag.TRAINING
    if day < config.split_days[0] + config.split_days[1]:
        return PartitionTag.VALIDATION
    return PartitionTag.TEST


def _sample_flow(
    behavior: BehaviorSpec,
    device_id: int,
    network_id: int,
    start_ms: int,
    partition: PartitionTag,
    rng: Optional[np.random.Generator],
) -> FlowRecord:
    """One flow; rng=None plants the behavior's central values."""
    if rng is None:
        packets = max(1, round(behavior.packets_mean))
        octets = max(packets, round(behavior.octets_mean))
        duration = max(0, round(behavior.duration_mean_ms))
        port = behavior.dest_ports[0]
        prefix = behavior.dest_prefixes[0]
        dns_pct = behavior.dns_pct_mean if behavior.has_dns else None
    else:
        packets = max(1, round(float(rng.normal(behavior.packets_mean, behavior.packets_spread))))
        octets = max(packets, round(float(rng.normal(behavior.octets_mean, behavior.octets_spread))))
        duration = max(0, round(float(rng.normal(behavior.duration_mean_ms, behavior.duration_spread_ms))))
        port = int(behavior.dest_ports[int(rng.integers(len(behavior.dest_ports)))])
        prefix = behavior.dest_prefixes[int(rng.integers(len(behavior.dest_prefixes)))]
        dns_pct = (
            float(np.clip(rng.normal(behavior.dns_pct_mean, 4.0), 0.0, 100.0))
            if behavior.has_dns
            else None
        )
    return FlowRecord(
        device_id=device_id,
        source_network_id=network_id,
        flow_start=start_ms,
        protocol_identifier=behavior.protocol,
        flow_duration_milliseconds=duration,
        octet_delta_count=octets,
        packet_delta_count=packets,
        avg_packet_size=octets / packets,
        flow_end_reason=behavior.flow_end_reason,
        tcp_control_bits=behavior.tcp_bits,
        network_class_of_destination=behavior.network_class,
        destination_network_prefix=prefix,
        inter_arrival_time_milliseconds=None,
        reputation_status="ok",
        same_dest_port_count_pool=None,
        same_dest_ip_count_pool=None,
        has_dns_request_from_pool=behavior.has_dns,
        dns_host_pct_numerical_chars=dns_pct,
        actual_label=behavior.kind.label,
        partition=partition,
        destination_port=port,
    )


def generate(config: SynthConfig) -> list[FlowRecord]:
    """Deterministic labeled flow list, partition-tagged and fully
    enriched (inter-arrival times and pool counters computed by the real
    ingestion code)."""
    devices = [(d, _device_network(d, config)) for d in range(N_HOME_DEVICES)]
    devices.append((LAB_DEVICE_ID, config.lab_network_id))
    test_start, test_end = config.test_day_range

    flows: list[FlowRecord] = []
    for device_id, network_id in devices:
        rng = derive_rng(config.seed, TAG_SYNTH, network_id, device_id)
        is_lab = device_id == LAB_DEVICE_ID
        for day in range(config.days):
            partition = _partition_for_day(day, config)
            in_attack_window = is_lab and test_start <= day < test_end
            for hour in range(24):
                hour_base = day * MS_PER_DAY + hour * MS_PER_HOUR
                for behavior in BEHAVIORS:
                    if behavior.kind.is_attack and not in_attack_window:
                        continue
                    count = int(rng.poisson(behavior.rate_per_device_hour))
                    for _ in range(count):
                        start = hour_base + int(rng.integers(MS_PER_HOUR))
                        flows.append(
                            _sample_flow(behavior, device_id, network_id, start, partition, rng)
                        )

    # Guarantee the collaborative premise: every rare-benign behavior is
    # observed in at least two distinct home networks during training.
    plant_hour = 3  # past the two-hour warm-up window
    for i, behavior in enumerate(b for b in BEHAVIORS if b.kind is BehaviorKind.RARE_BENIGN):
        for slot, device_id in enumerate((0, 1)):
            start = plant_hour * MS_PER_HOUR + i * 60_000 + slot * 1000
            flows.append(
                _sample_flow(
                    behavior,
                    device_id,
                    _device_network(device_id, config),
                    start,
                    PartitionTag.TRAINING,
                    rng=None,
                )
            )

    flows.sort(key=lambda f: (f.flow_start, f.device_id, f.destination_port or 0))
    flows = ingest.compute_iat(flows)
    flows = ingest.compute_pool_features(flows)
    return flows
