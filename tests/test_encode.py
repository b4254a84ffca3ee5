import dataclasses
import math
import warnings

import numpy as np
import pytest

from flowsieve import autoencoder, encode
from flowsieve.config import (
    ClusteringFeatures,
    IpTreatment,
    NumericTreatment,
    PipelineConfig,
)
from flowsieve.errors import ConfigError, DataError

from conftest import make_record


def pca_reconstruct(basis: encode.PcaBasis, projected: np.ndarray) -> np.ndarray:
    """Rows back in the input space from their first projected components."""
    k = projected.shape[1]
    return projected @ basis.components[:k] + basis.mean


def _config(**overrides) -> PipelineConfig:
    return PipelineConfig(**overrides)


class TestFitRecipe:
    def test_drop_ip_omits_prefix_columns(self):
        flows = [make_record(destination_network_prefix=f"pfx-{i}") for i in range(4)]
        recipe = encode.fit_recipe(flows, _config(ip_treatment=IpTreatment.DROP))
        assert not any(c.startswith("destination_network_prefix") for c in recipe.columns)

    def test_prefix_one_hot_adds_vocab_plus_other(self):
        flows = [make_record(destination_network_prefix=f"pfx-{i % 4}") for i in range(8)]
        recipe = encode.fit_recipe(flows, _config(ip_treatment=IpTreatment.PREFIX_ONE_HOT))
        prefix_cols = [c for c in recipe.columns if c.startswith("destination_network_prefix=")]
        assert len(prefix_cols) == 4 + 1
        assert prefix_cols[-1].endswith("=OTHER")

    def test_log1p_prescale_values(self):
        # ln(1+0) = 0 and ln(1 + (e-1)) = 1
        flows = [
            make_record(flow_duration_milliseconds=0, inter_arrival_time_milliseconds=0),
            make_record(flow_duration_milliseconds=0, inter_arrival_time_milliseconds=0),
        ]
        recipe = encode.fit_recipe(flows, _config(numeric_treatment=NumericTreatment.LOG1P))
        assert recipe.numeric_stats["flow_duration_milliseconds"] == (0.0, 0.0)
        assert math.isclose(math.log1p(math.e - 1), 1.0)

    def test_zero_variance_column_scales_to_zero(self):
        flows = [make_record() for _ in range(3)]
        recipe = encode.fit_recipe(flows, _config())
        matrix = encode.apply_recipe(flows, recipe)
        column = recipe.columns.index("octet_delta_count")
        assert np.all(matrix.values[:, column] == 0.0)

    def test_determinism(self):
        flows = [make_record(flow_end_reason=r) for r in ("b", "a", "c", "a")]
        config = _config()
        first = encode.fit_recipe(flows, config)
        second = encode.fit_recipe(list(flows), config)
        assert first == second
        # vocabulary order is lexicographic
        assert first.vocabularies["flow_end_reason"] == ("a", "b", "c")

    def test_empty_training_errors(self):
        with pytest.raises(DataError):
            encode.fit_recipe([], _config())


class TestApplyRecipe:
    def test_training_rows_bounded(self):
        flows = [
            make_record(octet_delta_count=100 + 37 * i, packet_delta_count=1 + i,
                        avg_packet_size=(100 + 37 * i) / (1 + i))
            for i in range(10)
        ]
        recipe = encode.fit_recipe(flows, _config())
        matrix = encode.apply_recipe(flows, recipe)
        assert matrix.values.min() >= 0.0
        assert matrix.values.max() <= 1.0
        assert np.isfinite(matrix.values).all()

    def test_unseen_category_maps_to_other(self):
        train = [make_record(flow_end_reason="idle timeout")]
        recipe = encode.fit_recipe(train, _config())
        matrix = encode.apply_recipe([make_record(flow_end_reason="brand new")], recipe)
        other = recipe.columns.index("flow_end_reason=OTHER")
        seen = recipe.columns.index("flow_end_reason=idle timeout")
        assert matrix.values[0, other] == 1.0
        assert matrix.values[0, seen] == 0.0

    def test_out_of_range_numeric_clips_to_one(self):
        train = [
            make_record(octet_delta_count=100, packet_delta_count=1, avg_packet_size=100.0),
            make_record(octet_delta_count=200, packet_delta_count=1, avg_packet_size=200.0),
        ]
        recipe = encode.fit_recipe(train, _config())
        ten_x = make_record(octet_delta_count=2000, packet_delta_count=1, avg_packet_size=2000.0)
        matrix = encode.apply_recipe([ten_x], recipe)
        assert matrix.values[0, recipe.columns.index("octet_delta_count")] == 1.0

    def test_subnormal_range_clips_without_overflow_warning(self):
        # hi - lo = 5e-324: a row above the range overflows to inf in the
        # scaling, which the clip maps to 1.0 like a row at the maximum
        train = [make_record(dns_host_pct_numerical_chars=0.0), make_record(dns_host_pct_numerical_chars=5e-324)]
        recipe = encode.fit_recipe(train, _config(numeric_treatment=NumericTreatment.AS_IS))
        above = train + [make_record(dns_host_pct_numerical_chars=50.0)]
        at_max = train + [make_record(dns_host_pct_numerical_chars=5e-324)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = encode.apply_recipe(above, recipe)
        assert matrix.values[:, recipe.columns.index("dns_host_pct_numerical_chars")].tolist() == [0.0, 1.0, 1.0]
        assert matrix.values.tobytes() == encode.apply_recipe(at_max, recipe).values.tobytes()

    def test_tcp_bits_become_binary_columns(self):
        train = [make_record(tcp_control_bits=0b010001)]  # SYN|RST
        recipe = encode.fit_recipe(train, _config())
        matrix = encode.apply_recipe(train, recipe)
        assert matrix.values[0, recipe.columns.index("tcp_syn")] == 1.0
        assert matrix.values[0, recipe.columns.index("tcp_rst")] == 1.0
        assert matrix.values[0, recipe.columns.index("tcp_ack")] == 0.0


class TestNonFiniteEncoding:
    """log1p below -1 is NaN and at -1 is -inf: the encode boundary refuses
    both, naming the column and the number of rows."""

    def test_apply_recipe_names_column_and_bad_row_count(self):
        recipe = encode.fit_recipe([make_record(), make_record(octet_delta_count=9000)], _config())
        flows = [
            make_record(octet_delta_count=-5),
            make_record(),
            make_record(octet_delta_count=-1),
        ]
        with pytest.raises(DataError, match=r"'octet_delta_count' .* in 2 of 3 rows"):
            encode.apply_recipe(flows, recipe)

    def test_fit_recipe_statistics_refuse_non_finite_values(self):
        flows = [make_record(), make_record(flow_duration_milliseconds=-5)]
        with pytest.raises(DataError, match=r"'flow_duration_milliseconds' .* in 1 of 2 rows"):
            encode.fit_recipe(flows, _config())

    def test_as_is_treatment_keeps_negative_values_finite(self):
        config = _config(numeric_treatment=NumericTreatment.AS_IS)
        recipe = encode.fit_recipe([make_record(), make_record(octet_delta_count=9000)], config)
        matrix = encode.apply_recipe([make_record(octet_delta_count=-5)], recipe)
        assert matrix.values[0, recipe.columns.index("octet_delta_count")] == 0.0

    @pytest.mark.parametrize("treatment", list(NumericTreatment))
    def test_integers_beyond_float_range_name_the_column(self, treatment):
        huge = 10**400
        config = _config(numeric_treatment=treatment)
        with pytest.raises(DataError, match=r"'octet_delta_count' holds an integer beyond float range"):
            encode.fit_recipe([make_record(), make_record(octet_delta_count=huge)], config)
        recipe = encode.fit_recipe([make_record(), make_record(octet_delta_count=9000)], config)
        with pytest.raises(DataError, match=r"'packet_delta_count' holds an integer beyond float range"):
            encode.apply_recipe([make_record(packet_delta_count=-huge)], recipe)


class TestFitPca:
    def test_isotropic_gaussian_ratios(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(4000, 2))
        basis = encode.fit_pca(data)
        assert abs(basis.explained_variance_ratio[0] - 0.5) < 0.05
        assert abs(basis.explained_variance_ratio[1] - 0.5) < 0.05

    def test_line_collapses_to_one_component(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=300)
        data = np.column_stack([x, 2.0 * x])
        basis = encode.fit_pca(data)
        assert basis.explained_variance_ratio[0] >= 0.999
        assert basis.retained == 1

    def test_constant_matrix_degrades_gracefully(self):
        data = np.full((5, 3), 1.7)
        basis = encode.fit_pca(data)
        assert basis.retained == 1
        assert np.allclose(basis.explained_variance_ratio, 0.0)

    def test_rank_two_toy_needs_two_components(self):
        # third column is the sum of the first two: rank-2 covariance
        rng = np.random.default_rng(3)
        a = rng.normal(size=500)
        b = rng.normal(size=500)
        data = np.column_stack([a, b, a + b])
        basis = encode.fit_pca(data)
        cumulative = np.cumsum(basis.explained_variance_ratio)
        assert cumulative[1] >= 0.95
        assert basis.retained == 2

    def test_orthonormal_components(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(200, 6))
        basis = encode.fit_pca(data)
        gram = basis.components @ basis.components.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_full_reconstruction(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(50, 5))
        basis = encode.fit_pca(data)
        projected = encode.pca_project(dataclasses.replace(basis, retained=5), data)
        restored = pca_reconstruct(basis, projected)
        centered = data - basis.mean
        scale = np.abs(centered).max()
        assert np.max(np.abs(restored - data)) / scale < 1e-8

    def test_single_row_errors(self):
        with pytest.raises(DataError):
            encode.fit_pca(np.ones((1, 3)))


class TestProjectFeatures:
    def _encoded(self, n=12):
        flows = [
            make_record(
                octet_delta_count=100 + 13 * i,
                packet_delta_count=1 + i % 3,
                avg_packet_size=(100 + 13 * i) / (1 + i % 3),
                flow_duration_milliseconds=50 * i,
                same_dest_port_count_pool=i,
                same_dest_ip_count_pool=2 * i,
            )
            for i in range(n)
        ]
        recipe = encode.fit_recipe(flows, _config())
        filter1 = dataclasses.replace(autoencoder.build_ae(recipe.dimension, seed=0), recipe=recipe)
        return encode.apply_recipe(flows, recipe).values, filter1

    def test_all_is_identity(self):
        x, filter1 = self._encoded()
        assert encode.project_features(x, ClusteringFeatures.ALL, filter1, None) is x

    def test_manual_subset_columns_and_order(self):
        x, filter1 = self._encoded()
        projected = encode.project_features(x, ClusteringFeatures.MANUAL_SUBSET, filter1, None)
        columns = filter1.recipe.columns
        names = (
            "octet_delta_count",
            "avg_packet_size",
            "flow_duration_milliseconds",
            "same_dest_ip_count_pool",
            "same_dest_port_count_pool",
        )
        assert projected.shape == (12, 5)
        for i, name in enumerate(names):
            assert np.array_equal(projected[:, i], x[:, columns.index(name)])

    def test_manual_subset_missing_column_errors(self):
        x, filter1 = self._encoded()
        stripped = dataclasses.replace(
            filter1, recipe=dataclasses.replace(filter1.recipe, columns=filter1.recipe.columns[:4])
        )
        with pytest.raises(ConfigError):
            encode.project_features(x[:, :4], ClusteringFeatures.MANUAL_SUBSET, stripped, None)

    def test_pca_projection_dimension(self):
        x, filter1 = self._encoded()
        basis = encode.fit_pca(x)
        projected = encode.project_features(x, ClusteringFeatures.PCA, filter1, basis)
        assert projected.shape == (x.shape[0], basis.retained)
