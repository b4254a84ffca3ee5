import dataclasses
import json

import pytest

from flowsieve import autoencoder, clustering, encode, pipeline
from flowsieve.config import ClusteringFeatures, DistanceMode, PipelineConfig
from flowsieve.errors import ConfigError, SchemaError
from flowsieve.records import LabelClass


@pytest.fixture(scope="module")
def trained(synth_partitions):
    training, validation, _ = synth_partitions
    return pipeline.train_pipeline(training, validation, PipelineConfig())


class TestTrainPipeline:
    def test_threshold_is_validation_percentile(self, trained, synth_partitions):
        _, validation, _ = synth_partitions
        matrix = encode.apply_recipe(validation, trained.recipe).values
        expected = autoencoder.set_frequency_threshold(
            trained.filter1, matrix, trained.filter1.pctl_frequent
        )
        assert trained.th_frequent == expected

    def test_cluster_thresholds_calibrated(self, trained):
        thresholds = trained.filter2.per_cluster_thresholds
        assert thresholds is not None
        assert len(thresholds) == trained.filter2.k_star
        assert all(t >= 0 for t in thresholds)

    def test_infrequent_share_matches_percentile(self, trained, synth_partitions):
        _, validation, _ = synth_partitions
        matrix = encode.apply_recipe(validation, trained.recipe).values
        mses = autoencoder.compute_mse(trained.filter1, matrix)
        frequent_share = float((mses < trained.th_frequent).mean())
        # nearest-rank 60th percentile: close to 0.6 up to ties
        assert 0.5 <= frequent_share <= 0.65


class TestClassify:
    def test_verdict_consistency(self, trained, synth_partitions):
        *_, test = synth_partitions
        verdicts = pipeline.classify_flows(trained, test)
        assert len(verdicts) == len(test)
        matrix = encode.apply_recipe(test, trained.recipe).values
        mses = autoencoder.compute_mse(trained.filter1, matrix)
        # row i of the table is the verdict on flow i
        for i, verdict in enumerate(verdicts):
            assert verdict.mse == pytest.approx(float(mses[i]))
            assert verdict.frequent == (mses[i] < trained.th_frequent)
            if verdict.frequent:
                assert verdict.malicious == False

    def test_attack_flows_all_infrequent(self, trained, synth_partitions):
        *_, test = synth_partitions
        verdicts = pipeline.classify_flows(trained, test)
        for flow, verdict in zip(test, verdicts):
            if flow.actual_label.is_attack:
                assert verdict.frequent == False

    def test_per_cluster_mode(self, trained, synth_partitions):
        *_, test = synth_partitions
        verdicts = pipeline.classify_flows(trained, test, tau=None)
        recall_hits = sum(
            1
            for flow, verdict in zip(test, verdicts)
            if flow.actual_label.is_attack and verdict.malicious
        )
        attacks = sum(1 for flow in test if flow.actual_label.is_attack)
        assert recall_hits / attacks >= 0.95

    def test_custom_tau(self, trained, synth_partitions):
        *_, test = synth_partitions
        strict = pipeline.classify_flows(trained, test, tau=0.999999)
        # an extremely permissive threshold lets (almost) everything pass
        malicious = int(strict.malicious.sum())
        default = pipeline.classify_flows(trained, test, tau=0.75)
        malicious_default = int(default.malicious.sum())
        assert malicious <= malicious_default
        with pytest.raises(ConfigError, match=r"global_tanh_threshold must lie in \(0, 1\)"):
            pipeline.classify_flows(trained, test, tau=1.0)


class TestEvaluate:
    def test_report_macro_quality(self, trained, synth_partitions):
        *_, test = synth_partitions
        report, verdicts = pipeline.evaluate_pipeline(trained, test)
        assert len(verdicts) == len(test)
        assert report["macro"]["recall"] >= 0.95
        assert report["macro"]["fpr"] <= 0.05
        assert set(report["scenarios"]) == {
            LabelClass.BEING_SCANNED_BY_NMAP.value,
            LabelClass.EXECUTING_CRYPTOMINING.value,
        }
        assert report["thresholds"]["global_tanh_threshold"] == 0.75
        assert "runtime" not in json.dumps(report)  # never serialized

    def test_report_names_the_per_cluster_rule(self, trained, synth_partitions):
        *_, test = synth_partitions
        report, verdicts = pipeline.evaluate_pipeline(trained, test, tau=None)
        assert report["thresholds"]["mode"] == "per_cluster"
        assert report["thresholds"]["global_tanh_threshold"] is None
        assert verdicts.tobytes() == pipeline.classify_flows(trained, test, tau=None).tobytes()


class TestFeatureSpaces:
    @pytest.mark.parametrize(
        "features,distance",
        [
            (ClusteringFeatures.MANUAL_SUBSET, DistanceMode.RAW_EUCLIDEAN),
            (ClusteringFeatures.PCA, DistanceMode.RAW_EUCLIDEAN),
            (ClusteringFeatures.AE_BOTTLENECK, DistanceMode.NORMALIZED_EUCLIDEAN),
        ],
    )
    def test_alternative_spaces_train_and_classify(
        self, synth_partitions, features, distance
    ):
        training, validation, test = synth_partitions
        config = PipelineConfig(
            clustering_features=features, distance_mode=distance, epochs_max=40
        )
        trained = pipeline.train_pipeline(training[:1500], validation[:600], config)
        verdicts = pipeline.classify_flows(trained, test[:300])
        assert len(verdicts) == 300
        if features is ClusteringFeatures.PCA:
            assert trained.filter2.pca_basis is not None
            assert trained.filter2.dimension == trained.filter2.pca_basis.retained
        if features is ClusteringFeatures.AE_BOTTLENECK:
            assert trained.filter2.dimension == trained.filter1.layer_dims[2]


class TestDeterminism:
    def test_two_runs_byte_identical(self, synth_partitions):
        training, validation, test = synth_partitions
        config = PipelineConfig(epochs_max=25, rng_seed=17)

        def run():
            trained = pipeline.train_pipeline(training, validation, config)
            report, _ = pipeline.evaluate_pipeline(trained, test)
            return (
                json.dumps(trained.filter1.to_dict()),
                json.dumps(trained.filter2.to_dict()),
                json.dumps(report, indent=2, sort_keys=True),
            )

        assert run() == run()


class TestRecalibrate:
    def test_idempotent_on_same_validation(self, trained, synth_partitions):
        _, validation, _ = synth_partitions
        recal = pipeline.recalibrate(trained, validation)
        assert recal.th_frequent == trained.th_frequent
        assert recal.filter2.per_cluster_thresholds == trained.filter2.per_cluster_thresholds

    @pytest.mark.parametrize("model, key", [("filter1", "pctl_frequent"), ("filter2", "pctl_known")])
    def test_a_model_without_its_percentile_is_schema_error(self, trained, synth_partitions, model, key):
        # as a model file written before the models recorded their percentiles
        _, validation, _ = synth_partitions
        unrecorded = dataclasses.replace(getattr(trained, model), **{key: None})
        with pytest.raises(SchemaError, match=f"artifact records no {key} to recalibrate at"):
            pipeline.recalibrate(dataclasses.replace(trained, **{model: unrecorded}), validation)

    @pytest.mark.parametrize(
        "features,distance",
        [
            (ClusteringFeatures.MANUAL_SUBSET, DistanceMode.RAW_EUCLIDEAN),
            (ClusteringFeatures.PCA, DistanceMode.RAW_EUCLIDEAN),
            (ClusteringFeatures.AE_BOTTLENECK, DistanceMode.NORMALIZED_EUCLIDEAN),
        ],
    )
    def test_every_clustering_space(self, synth_partitions, features, distance):
        training, validation, _ = synth_partitions
        config = PipelineConfig(
            clustering_features=features, distance_mode=distance, epochs_max=40
        )
        trained = pipeline.train_pipeline(training[:1500], validation[:600], config)
        same = pipeline.recalibrate(trained, validation[:600])
        assert same.th_frequent == trained.th_frequent
        assert same.filter2.per_cluster_thresholds == trained.filter2.per_cluster_thresholds

        # On other validation flows the cluster thresholds follow a by-hand
        # projection of the infrequent rows into the trained space.
        other = validation[600:1800]
        recal = pipeline.recalibrate(trained, other)
        matrix = encode.apply_recipe(other, trained.recipe).values
        th = autoencoder.set_frequency_threshold(trained.filter1, matrix, config.pctl_frequent)
        assert recal.th_frequent == th
        infrequent = matrix[autoencoder.compute_mse(trained.filter1, matrix) >= th]
        projected = encode.project_features(
            infrequent, features, trained.filter1, trained.filter2.pca_basis
        )
        assert projected.shape[1] == trained.filter2.dimension
        expected = clustering.set_cluster_thresholds(trained.filter2, projected, config.pctl_known)
        assert recal.filter2.per_cluster_thresholds == expected
