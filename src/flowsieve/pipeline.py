"""End-to-end glue: train both filters, calibrate thresholds and classify.

Stage order: encode (recipe fitted on training flows only), train the
frequency filter, calibrate its threshold on validation, select the
clustering feature space, train the known-behavior filter on the
infrequent training rows, calibrate its per-cluster thresholds on the
infrequent validation rows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autoencoder, clustering, encode
from .clustering import Filter2Model
from .config import ClusteringFeatures, PipelineConfig
from .encode import EncodingRecipe
from .errors import DataError
from .metrics import EvalReport, build_eval_report
from .records import FlowRecord, verdict_table


@dataclass
class TrainedPipeline:
    """Both trained filters and the configuration that classifies with them.

    `config.global_tanh_threshold` picks the verdict rule: tanh(distance)
    against that global threshold, or with None the per-cluster thresholds.
    """

    config: PipelineConfig
    filter1: autoencoder.Filter1Model
    filter2: Filter2Model

    @property
    def recipe(self) -> EncodingRecipe:
        assert self.filter1.recipe is not None
        return self.filter1.recipe

    @property
    def th_frequent(self) -> float:
        assert self.filter1.th_frequent is not None
        return self.filter1.th_frequent


def _infrequent_rows(filter1: autoencoder.Filter1Model, x: np.ndarray) -> np.ndarray:
    mses = autoencoder.compute_mse(filter1, x)
    return x[~autoencoder.classify_frequent_rows(mses, filter1.th_frequent)]


def _calibrate_filter2(
    filter1: autoencoder.Filter1Model,
    filter2: Filter2Model,
    val_matrix: np.ndarray,
    pctl_known: float,
) -> Filter2Model:
    """Set the per-cluster thresholds on the infrequent validation rows."""
    val_proj = encode.project_features(
        _infrequent_rows(filter1, val_matrix), filter2.feature_space, filter1, filter2.pca_basis
    )
    thresholds = clustering.set_cluster_thresholds(filter2, val_proj, pctl_known)
    return clustering.with_thresholds(filter2, thresholds)


def train_pipeline(
    training_flows: Sequence[FlowRecord],
    validation_flows: Sequence[FlowRecord],
    config: PipelineConfig,
) -> TrainedPipeline:
    recipe = encode.fit_recipe(list(training_flows), config)
    train_matrix = encode.apply_recipe(list(training_flows), recipe).values
    val_matrix = encode.apply_recipe(list(validation_flows), recipe).values
    return train_encoded(recipe, train_matrix, val_matrix, config)


def train_encoded(
    recipe: EncodingRecipe,
    train_matrix: np.ndarray,
    val_matrix: np.ndarray,
    config: PipelineConfig,
) -> TrainedPipeline:
    """Train and calibrate both filters on partitions encoded by `recipe`."""
    if len(train_matrix) == 0:
        raise DataError("empty training partition")
    if len(val_matrix) == 0:
        raise DataError("empty validation partition")

    filter1 = autoencoder.train_filter1(train_matrix, val_matrix, config)
    th_frequent = autoencoder.set_frequency_threshold(filter1, val_matrix, config.pctl_frequent)
    filter1 = replace(filter1, recipe=recipe, th_frequent=th_frequent)

    infrequent_train = _infrequent_rows(filter1, train_matrix)
    if len(infrequent_train) == 0:
        raise DataError("no infrequent training rows below the configured percentile")
    features = config.clustering_features
    pca_basis = encode.fit_pca(infrequent_train) if features is ClusteringFeatures.PCA else None
    train_proj = encode.project_features(infrequent_train, features, filter1, pca_basis)
    filter2 = clustering.train_filter2(train_proj, config)
    filter2.pca_basis = pca_basis
    filter2 = _calibrate_filter2(filter1, filter2, val_matrix, config.pctl_known)
    return TrainedPipeline(config=config, filter1=filter1, filter2=filter2)


def recalibrate(pipeline: TrainedPipeline, validation_flows: Sequence[FlowRecord]) -> TrainedPipeline:
    """Recompute both thresholds on (new) validation flows."""
    config = pipeline.config
    val_matrix = encode.apply_recipe(list(validation_flows), pipeline.recipe).values
    th_frequent = autoencoder.set_frequency_threshold(
        pipeline.filter1, val_matrix, config.pctl_frequent
    )
    filter1 = autoencoder.with_threshold(pipeline.filter1, th_frequent)
    filter2 = _calibrate_filter2(filter1, pipeline.filter2, val_matrix, config.pctl_known)
    return TrainedPipeline(config, filter1, filter2)


def classify_matrix(pipeline: TrainedPipeline, x: np.ndarray) -> np.recarray:
    """The verdict table of encoded rows (see `records.verdict_table`), in row order."""
    mses = autoencoder.compute_mse(pipeline.filter1, x)
    frequent = autoencoder.classify_frequent_rows(mses, pipeline.th_frequent)
    n = len(x)
    cluster_fields = {
        "assigned_cluster": np.full(n, -1),
        "distance": np.full(n, np.nan),
        "tanh_score": np.full(n, np.nan),
        "malicious": np.zeros(n, dtype=bool),
    }
    infrequent_rows = np.flatnonzero(~frequent)
    if infrequent_rows.size:
        filter2 = pipeline.filter2
        projected = encode.project_features(
            x[infrequent_rows], filter2.feature_space, pipeline.filter1, filter2.pca_basis
        )
        scores = clustering.score_and_classify(projected, filter2, pipeline.config.global_tanh_threshold)
        for name, column in cluster_fields.items():
            column[infrequent_rows] = scores[name]
    return verdict_table(mses, frequent, **cluster_fields)


def classify_flows(pipeline: TrainedPipeline, flows: Sequence[FlowRecord]) -> np.recarray:
    return classify_matrix(pipeline, encode.apply_recipe(list(flows), pipeline.recipe).values)


def evaluate_pipeline(
    pipeline: TrainedPipeline, test_flows: Sequence[FlowRecord]
) -> tuple[EvalReport, np.recarray]:
    """Classify the test flows and build the evaluation report."""
    tau = pipeline.config.global_tanh_threshold
    verdicts = classify_flows(pipeline, test_flows)
    labels = [flow.actual_label for flow in test_flows]
    thresholds = {
        "th_frequent": pipeline.th_frequent,
        "per_cluster_thresholds": pipeline.filter2.per_cluster_thresholds,
        "global_tanh_threshold": tau,
        "mode": "per_cluster" if tau is None else "global_tanh",
    }
    report = build_eval_report(
        verdicts,
        labels,
        config_snapshot=pipeline.config.to_dict(),
        thresholds=thresholds,
    )
    return report, verdicts
