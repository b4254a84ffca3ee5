import numpy as np
import pytest

from flowsieve import autoencoder, encode, experiments, ingest
from flowsieve.config import (
    ClusteringFeatures,
    DistanceMode,
    IpTreatment,
    NumericTreatment,
    PipelineConfig,
)
from flowsieve.errors import DataError
from flowsieve.experiments import (
    GRID_AXES,
    grid_configs,
    run_benchmark,
    run_grid,
    sensitivity_sweep,
)
from flowsieve.metrics import auprc, macro_average
from flowsieve.pipeline import classify_flows, train_pipeline
from flowsieve.records import ATTACK_CLASSES, LabelClass
from flowsieve.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def small_partitions():
    config = SynthConfig(days=3, split_days=(1, 1, 1), seed=11)
    flows = generate(config)
    cleansed, _ = ingest.preprocess(flows)
    parts = ingest.partition_chronologically(
        cleansed, split_days=config.split_days, lab_network_id=config.lab_network_id
    )
    return parts.training, parts.validation, parts.test


class TestGridConfigs:
    def test_full_grid_has_64_combinations(self):
        configs = grid_configs(PipelineConfig())
        assert len(configs) == 64
        assert len({tuple(sorted(c.to_dict().items())) for c in configs}) == 64

    def test_axes_cover_documented_values(self):
        assert set(GRID_AXES) == {
            "ip_treatment",
            "numeric_treatment",
            "pctl_frequent",
            "clustering_features",
            "distance_mode",
        }
        assert len(GRID_AXES["clustering_features"]) == 4

    def test_shared_base_seed(self):
        configs = grid_configs(PipelineConfig(rng_seed=99))
        assert {c.rng_seed for c in configs} == {99}


class TestRunGrid:
    def test_single_combination_grid(self, small_partitions):
        training, validation, test = small_partitions
        axes = {
            "ip_treatment": (IpTreatment.DROP,),
            "numeric_treatment": (NumericTreatment.LOG1P,),
            "pctl_frequent": (60.0,),
            "clustering_features": (ClusteringFeatures.ALL,),
            "distance_mode": (DistanceMode.RAW_EUCLIDEAN,),
        }
        results = run_grid(training, validation, test, PipelineConfig(rng_seed=3), axes)
        assert len(results) == 1
        assert results[0].error is None
        assert results[0].macro_auprc is not None

    def test_projection_axes_and_ordering(self, small_partitions):
        training, validation, test = small_partitions
        axes = {
            "clustering_features": (
                ClusteringFeatures.MANUAL_SUBSET,
                ClusteringFeatures.PCA,
                ClusteringFeatures.AE_BOTTLENECK,
            ),
            "distance_mode": (DistanceMode.NORMALIZED_EUCLIDEAN,),
        }
        results = run_grid(training, validation, test, PipelineConfig(rng_seed=3), axes)
        assert len(results) == 3
        assert all(r.error is None for r in results)
        scores = [r.macro_auprc for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_failed_combination_recorded_not_fatal(self, small_partitions):
        training, validation, test = small_partitions
        # a frequency percentile this extreme leaves almost nothing for the
        # second filter; with k_min above the row count training must fail
        axes = {"pctl_frequent": (99.99,), "clustering_features": (ClusteringFeatures.ALL,)}
        config = PipelineConfig(rng_seed=3, k_min=50, k_max=50)
        results = run_grid(training[:400], validation[:200], test[:100], config, axes)
        assert len(results) == 1
        assert results[0].error is not None
        assert results[0].report is None


class TestSensitivitySweep:
    def test_endpoint_comparison(self, small_partitions):
        training, validation, test = small_partitions
        pool = len(training) + len(validation)
        points = sensitivity_sweep(
            training, validation, test, [100, pool], PipelineConfig(rng_seed=3)
        )
        small, full = points
        assert small.error is None and full.error is None
        assert small.macro_f1 <= full.macro_f1 + 1e-9
        assert small.macro_recall <= full.macro_recall + 1e-9

    def test_oversized_and_tiny_sizes_fail_gracefully(self, small_partitions):
        training, validation, test = small_partitions
        pool = len(training) + len(validation)
        points = sensitivity_sweep(
            training, validation, test, [1, pool + 1], PipelineConfig(rng_seed=3)
        )
        assert all(p.error is not None for p in points)

    def test_split_is_80_20_chronological(self, small_partitions):
        training, validation, test = small_partitions
        points = sensitivity_sweep(training, validation, test, [500], PipelineConfig(rng_seed=3))
        assert points[0].error is None


class TestBenchmark:
    def test_rows_and_ordering(self, small_partitions):
        training, validation, test = small_partitions
        report = run_benchmark(training, validation, test, PipelineConfig(rng_seed=3))
        expected_rows = {"two_step", "autoencoder", "kmeans", "lof", "isolation_forest", "ocsvm"}
        assert set(report.rows) == expected_rows
        for name in expected_rows - {"ocsvm"}:
            assert 0.0 <= report.rows[name]["macro"] <= 1.0
        assert "not reproduced" in report.rows["ocsvm"]["note"]
        # the planted anomalies are separable, so the two-step pipeline
        # must do well in absolute terms here
        assert report.rows["two_step"]["macro"] > 0.9

    def test_autoencoder_row_equals_a_separately_trained_one_step_autoencoder(self, small_partitions):
        # reference: the one-step autoencoder as a second train_filter1 on
        # partitions encoded again under the pipeline's recipe
        training, validation, test = small_partitions
        config = PipelineConfig(rng_seed=5, epochs_max=8, patience_max=8, k_max=4)
        trained = train_pipeline(training, validation, config)
        train_m, val_m, test_m = (
            encode.apply_recipe(list(flows), trained.recipe).values for flows in (training, validation, test)
        )
        separate = autoencoder.compute_mse(autoencoder.train_filter1(train_m, val_m, config), test_m)
        assert np.array_equal(separate, classify_flows(trained, test).mse)

        labels = [flow.actual_label for flow in test]
        want = {s.value: auprc(separate, labels, s) for s in ATTACK_CLASSES}
        want["macro"] = macro_average(list(want.values()))
        report = run_benchmark(training, validation, test, config)
        assert report.rows["autoencoder"] == want

    def test_test_flows_without_attacks_fail_before_training(self, small_partitions, monkeypatch):
        training, validation, test = small_partitions
        benign = [flow for flow in test if flow.actual_label is LabelClass.ASSUMED_BENIGN]

        def no_encoding(*args):
            raise AssertionError("encoded before the label check")

        monkeypatch.setattr(experiments.encode, "fit_recipe", no_encoding)
        with pytest.raises(DataError, match="attack-labeled"):
            run_benchmark(training, validation, benign, PipelineConfig(rng_seed=3))

    def test_empty_partitions_are_data_errors(self, small_partitions):
        training, validation, test = small_partitions
        with pytest.raises(DataError, match="empty validation partition"):
            run_benchmark(training, [], test, PipelineConfig(rng_seed=3))
        with pytest.raises(DataError):
            run_benchmark([], validation, test, PipelineConfig(rng_seed=3))
