import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve.config import (
    ClusteringFeatures,
    DistanceMode,
    IpTreatment,
    NumericTreatment,
    PipelineConfig,
    load_config_file,
)
from flowsieve.errors import ConfigError, DataError
from flowsieve.stats import nearest_rank_percentile


class TestPipelineConfig:
    def test_defaults_are_the_best_grid_combination(self):
        config = PipelineConfig()
        assert config.ip_treatment is IpTreatment.DROP
        assert config.numeric_treatment is NumericTreatment.LOG1P
        assert config.pctl_frequent == 60.0
        assert config.clustering_features is ClusteringFeatures.ALL
        assert config.distance_mode is DistanceMode.RAW_EUCLIDEAN
        assert config.epochs_max == 200
        assert config.delta_min == 0.00001
        assert config.patience_max == 5
        assert config.batch_size == 64
        assert config.k_min == 2 and config.k_max == 20
        assert config.global_tanh_threshold == 0.75
        assert config.rng_seed == 42

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k_min", 1),
            ("k_min", 10),  # with default k_max 20 this is fine; pair below fails
            ("pctl_frequent", 0.0),
            ("pctl_frequent", 100.0),
            ("pctl_known", 0.0),
            ("pctl_known", 100.5),
            ("delta_min", 0.0),
            ("global_tanh_threshold", 1.0),
            ("batch_size", 0),
        ],
    )
    def test_invariants(self, field, value):
        if field == "k_min" and value == 10:
            with pytest.raises(ConfigError):
                PipelineConfig(k_min=10, k_max=5)
            return
        with pytest.raises(ConfigError):
            PipelineConfig(**{field: value})

    def test_with_updates_parses_strings(self):
        config = PipelineConfig().with_updates(
            {
                "pctl_frequent": "70",
                "ip_treatment": "prefix_one_hot",
                "distance_mode": "normalized-euclidean",
                "rng_seed": "7",
            }
        )
        assert config.pctl_frequent == 70.0
        assert config.ip_treatment is IpTreatment.PREFIX_ONE_HOT
        assert config.distance_mode is DistanceMode.NORMALIZED_EUCLIDEAN
        assert config.rng_seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig().with_updates({"nonsense": 1})

    def test_to_dict_round_trip(self):
        config = PipelineConfig(pctl_known=98.0, k_max=12)
        assert PipelineConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "value", ["none", "", "nan", "inf", "-inf", "1e309", 1e309, float("nan"), 10**400],
        ids=["none", "empty", "nan", "inf", "-inf", "1e309", "float-inf", "float-nan", "int-10**400"],
    )
    def test_float_fields_take_finite_floats_only(self, value):
        for key in ("delta_min", "pctl_frequent", "pctl_known"):
            with pytest.raises(ConfigError):
                PipelineConfig().with_updates({key: value})

    def test_constructed_delta_min_may_be_infinite_but_not_nan(self):
        # inf never counts an epoch as an improvement; NaN would never stop
        assert PipelineConfig(delta_min=math.inf).delta_min == math.inf
        with pytest.raises(ConfigError):
            PipelineConfig(delta_min=math.nan)

    def test_only_the_tanh_threshold_may_be_none(self):
        for text in ("", "none", "None"):
            assert PipelineConfig().with_updates({"global_tanh_threshold": text}).global_tanh_threshold is None
        for key in ("delta_min", "epochs_max", "ip_treatment"):
            with pytest.raises(ConfigError):
                PipelineConfig().with_updates({key: None})

    def test_a_400_digit_seed_is_accepted(self):
        seed = "9" * 400
        assert PipelineConfig().with_updates({"rng_seed": seed}).rng_seed == int(seed)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([field.name for field in dataclasses.fields(PipelineConfig)]),
        st.sampled_from(["", "none", "nan", "inf", "1e309", "3.5", "x", "9" * 400, "-1", "0", "7"])
        | st.text(max_size=6),
    )
    def test_any_string_gives_a_valid_config_or_a_config_error(self, key, text):
        try:
            config = PipelineConfig().with_updates({key: text})
        except ConfigError:
            return
        value, default = getattr(config, key), getattr(PipelineConfig(), key)
        if value is None:
            assert key == "global_tanh_threshold"
        else:
            assert type(value) is type(default)
            if isinstance(value, float):
                assert math.isfinite(value)
        assert PipelineConfig.from_dict(config.to_dict()) == config


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# header\n\npctl_frequent=70\nnumeric_treatment=as_is\n")
        config = load_config_file(path)
        assert config.pctl_frequent == 70.0
        assert config.numeric_treatment is NumericTreatment.AS_IS

    def test_bad_value_is_config_error(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("delta_min=nan\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("pctl_frequent 70\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_non_utf8_file_is_config_error_naming_the_offset(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"pctl_frequent=70\n# \xe9t\xe9\n")
        with pytest.raises(ConfigError) as raised:
            load_config_file(path)
        assert str(raised.value) == f"{path} is not UTF-8: invalid byte at offset 19"


class TestNearestRankPercentile:
    def test_documented_examples(self):
        assert nearest_rank_percentile(list(range(1, 11)), 60) == 6
        assert nearest_rank_percentile(list(range(1, 11)), 100) == 10
        assert nearest_rank_percentile([5.0], 1) == 5.0

    def test_bounds(self):
        with pytest.raises(DataError):
            nearest_rank_percentile([1.0], 0)
        with pytest.raises(DataError):
            nearest_rank_percentile([], 50)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=500),
        st.integers(min_value=1, max_value=100),
    )
    def test_matches_sorted_indexing(self, values, p):
        expected_sorted = sorted(values)
        rank = min(max(math.ceil(p * len(values) / 100), 1), len(values))
        assert nearest_rank_percentile(values, p) == expected_sorted[rank - 1]
