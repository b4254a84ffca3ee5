import io
import math

import pytest

from flowsieve import ingest
from flowsieve.errors import ConfigError
from flowsieve.records import LabelClass, PartitionTag, validate_record
from separability import separability_check
from flowsieve.synth import (
    BehaviorKind,
    BehaviorSpec,
    SynthConfig,
    default_behaviors,
    generate,
)


def _csv_bytes(flows) -> bytes:
    buffer = io.StringIO()
    ingest.write_dataset(flows, buffer)
    return buffer.getvalue().encode("utf-8")


class TestConfigValidation:
    def test_rates_must_be_positive(self):
        bad = tuple(
            spec if spec.kind is not BehaviorKind.FREQUENT else
            BehaviorSpec(**{**spec.__dict__, "rate_per_device_hour": 0.0})
            for spec in default_behaviors()
        )
        with pytest.raises(ConfigError, match="rate"):
            SynthConfig(behaviors=bad)

    def test_needs_a_frequent_behavior(self):
        rare_only = tuple(s for s in default_behaviors() if s.kind is BehaviorKind.RARE_BENIGN)
        with pytest.raises(ConfigError, match="frequent"):
            SynthConfig(behaviors=rare_only)

    def test_split_must_sum_to_days(self):
        with pytest.raises(ConfigError, match="split_days"):
            SynthConfig(days=7, split_days=(4, 1, 1))


class TestGenerate:
    def test_deterministic_output(self, synth_config, synth_flows):
        again = generate(SynthConfig())
        assert _csv_bytes(again) == _csv_bytes(synth_flows)

    def test_different_seed_differs(self, synth_flows):
        other = generate(SynthConfig(seed=43))
        assert _csv_bytes(other) != _csv_bytes(synth_flows)

    def test_label_fidelity(self, synth_flows, synth_config):
        # attack labels only on the lab network, and all labels realized
        seen = set()
        for flow in synth_flows:
            seen.add(flow.actual_label)
            if flow.actual_label.is_attack:
                assert flow.source_network_id == synth_config.lab_network_id
        assert seen == set(LabelClass)

    def test_attacks_confined_to_test_days(self, synth_flows):
        for flow in synth_flows:
            if flow.actual_label.is_attack:
                assert flow.partition is PartitionTag.TEST

    def test_records_validate(self, synth_flows):
        for flow in synth_flows[::97]:
            assert validate_record(flow) == []

    def test_poisson_flow_count_within_three_sigma(self):
        config = SynthConfig(days=21, split_days=(13, 3, 5))
        flows = generate(config)
        hours = config.days * 24
        test_hours = config.split_days[2] * 24
        mean = 0.0
        for spec in config.behaviors:
            if spec.kind.is_attack:
                mean += spec.rate_per_device_hour * test_hours  # lab device only
            else:
                mean += spec.rate_per_device_hour * 8 * hours
        planted = 2 * sum(1 for s in config.behaviors if s.kind is BehaviorKind.RARE_BENIGN)
        mean += planted
        sigma = math.sqrt(mean)
        assert abs(len(flows) - mean) <= 3 * sigma

    def test_scan_port_diversity(self, synth_flows, synth_config):
        # distinct destination ports per attack hour at least 10x any
        # benign behavior's total port vocabulary
        benign_max_ports = max(
            len(s.dest_ports) for s in synth_config.behaviors if not s.kind.is_attack
        )
        scan_hours = {}
        for flow in synth_flows:
            if flow.actual_label is LabelClass.BEING_SCANNED_BY_NMAP:
                scan_hours.setdefault(flow.hour_index, set()).add(flow.destination_port)
        assert scan_hours
        median_distinct = sorted(len(ports) for ports in scan_hours.values())[len(scan_hours) // 2]
        assert median_distinct >= 10 * benign_max_ports

    def test_rare_benign_spans_networks(self, synth_flows, synth_config):
        rare_prefixes = {
            spec.dest_prefixes: spec.name
            for spec in synth_config.behaviors
            if spec.kind is BehaviorKind.RARE_BENIGN
        }
        for prefixes, name in rare_prefixes.items():
            networks = {
                f.source_network_id
                for f in synth_flows
                if f.destination_network_prefix in prefixes
            }
            assert len(networks) >= 2, f"behavior {name} seen in {networks}"

    def test_pool_features_filled_by_real_code(self, synth_flows):
        later = [f for f in synth_flows if f.hour_index >= 2]
        assert all(f.same_dest_port_count_pool is not None for f in later)
        # frequent behaviors must accumulate visible pool counts
        telemetry = [f for f in later if f.destination_port == 443]
        assert max(f.same_dest_port_count_pool for f in telemetry) > 10


class TestSeparability:
    def test_planted_anomalies_are_separable(self, synth_flows, synth_config):
        check = separability_check(synth_flows, synth_config)
        assert check.separable, (
            f"min attack distance {check.min_attack_distance:.3f} "
            f"<= benign p99 {check.benign_p99:.3f}"
        )
