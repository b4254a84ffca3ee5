"""Experiment drivers: the hyperparameter grid, the training-size
sensitivity sweep and the one-step baseline benchmark.

Every combination runs under the shared base seed of the supplied
configuration, so result differences come from the configuration axes,
not from reseeding. A failed combination is recorded, never fatal.
"""
from __future__ import annotations

import math
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import baselines, encode
from .config import (
    ClusteringFeatures,
    DistanceMode,
    IpTreatment,
    NumericTreatment,
    PipelineConfig,
)
from .errors import DataError, FlowSieveError
from .metrics import auprc, macro_average, present_scenarios, verdict_scores
from .pipeline import classify_matrix, evaluate_pipeline, train_encoded, train_pipeline
from .records import FlowRecord
from .stats import TAG_BENCH, derive_rng
from .workers import forked_map

GRID_AXES: dict[str, tuple] = {
    "ip_treatment": (IpTreatment.DROP, IpTreatment.PREFIX_ONE_HOT),
    "numeric_treatment": (NumericTreatment.LOG1P, NumericTreatment.AS_IS),
    "pctl_frequent": (60.0, 70.0),
    "clustering_features": (
        ClusteringFeatures.ALL,
        ClusteringFeatures.MANUAL_SUBSET,
        ClusteringFeatures.PCA,
        ClusteringFeatures.AE_BOTTLENECK,
    ),
    "distance_mode": (DistanceMode.RAW_EUCLIDEAN, DistanceMode.NORMALIZED_EUCLIDEAN),
}


def grid_configs(base: PipelineConfig, axes: Optional[dict[str, tuple]] = None) -> list[PipelineConfig]:
    axes = axes if axes is not None else GRID_AXES
    configs = [base]
    for key, values in axes.items():
        configs = [config.replace(**{key: value}) for config in configs for value in values]
    return configs


def _trial(
    training: Sequence[FlowRecord],
    validation: Sequence[FlowRecord],
    test: Sequence[FlowRecord],
    config: PipelineConfig,
) -> dict:
    """The test report's macro-averages of the pipeline trained under
    config, or the error that stopped it."""
    try:
        trained = train_pipeline(training, validation, config)
        report, _ = evaluate_pipeline(trained, test, config.global_tanh_threshold)
        return {"macro": report["macro"], "error": None}
    except FlowSieveError as exc:
        return {"macro": None, "error": str(exc)}


def run_grid(
    training: Sequence[FlowRecord],
    validation: Sequence[FlowRecord],
    test: Sequence[FlowRecord],
    base_config: PipelineConfig,
    axes: Optional[dict[str, tuple]] = None,
) -> list[dict]:
    """Train and evaluate the pipeline on every axis combination; each
    result holds its config, macro_auprc, macro averages and error, best
    macro-AUPRC first, failures last."""
    results = []
    for config in grid_configs(base_config, axes):
        trial = _trial(training, validation, test, config)
        macro_auprc = None if trial["macro"] is None else trial["macro"]["auprc"]
        results.append({"config": config.to_dict(), "macro_auprc": macro_auprc, **trial})
    results.sort(
        key=lambda r: r["macro_auprc"] if r["macro_auprc"] is not None else -math.inf,
        reverse=True,
    )
    return results


def sensitivity_sweep(
    training: Sequence[FlowRecord],
    validation: Sequence[FlowRecord],
    test: Sequence[FlowRecord],
    sizes: Sequence[int],
    config: PipelineConfig,
) -> list[dict]:
    """Retrain on the most recent N flows of the training+validation pool,
    N per requested size, split 80/20 chronologically; each point holds
    its size, macro averages and error."""
    pool = sorted(list(training) + list(validation), key=lambda f: (f.flow_start, f.device_id))
    points = []
    for size in sizes:
        if size < 2:
            trial = {"macro": None, "error": "size too small"}
        elif size > len(pool):
            trial = {"macro": None, "error": f"size exceeds pool of {len(pool)}"}
        else:
            selected = pool[-size:]
            cut = max(1, min(size - 1, int(math.floor(size * 0.8))))
            trial = _trial(selected[:cut], selected[cut:], test, config)
        points.append({"size": size, **trial})
    return points


# Training-row caps for the one-step baselines: LOF's cost is quadratic in
# its rows, and the k-means cap bounds Lloyd's linear cost (its silhouette
# is sampled already). Seeded subsamples keep six-figure benchmark runs
# tractable without touching the scores' meaning (they remain novelty
# detectors fit on benign traffic).
BENCH_LOF_MAX_TRAIN = 20_000
BENCH_KMEANS_MAX_TRAIN = 50_000


def _capped(values: np.ndarray, cap: int, seed: int, tag: int) -> tuple[np.ndarray, bool]:
    if values.shape[0] <= cap:
        return values, False
    rng = derive_rng(seed, TAG_BENCH, tag)
    return values[rng.choice(values.shape[0], size=cap, replace=False)], True


def run_benchmark(
    training: Sequence[FlowRecord],
    validation: Sequence[FlowRecord],
    test: Sequence[FlowRecord],
    config: PipelineConfig,
) -> dict:
    """AUPRC comparison of the two-step pipeline against the one-step
    detectors, all on the same encoded matrices; the one-step autoencoder
    is the pipeline's frequency filter used alone.

    The one-step k-means, LOF and isolation forest run through
    `workers.forked_map` while this process trains and classifies with the
    pipeline; where they run in this process, they run after it, so errors
    surface in the serial order: pipeline, k-means, LOF, isolation forest."""
    labels = [flow.actual_label for flow in test]
    present = present_scenarios(labels)
    if not present:
        raise DataError("benchmark needs attack-labeled test flows")

    recipe = encode.fit_recipe(list(training), config)
    train_matrix, val_matrix, test_matrix = (
        encode.apply_recipe(list(flows), recipe).values for flows in (training, validation, test)
    )

    notes = ["all reproduced detectors share the pipeline's feature encoding"]
    capped_train = {}
    for name, cap, tag in (("lof", BENCH_LOF_MAX_TRAIN, 1), ("kmeans", BENCH_KMEANS_MAX_TRAIN, 2)):
        capped_train[name], capped = _capped(train_matrix, cap, config.rng_seed, tag)
        if capped:
            notes.append(f"{name} fitted on a seeded sample of {cap} training rows")

    one_step = {
        "kmeans": partial(baselines.score_kmeans_one_step, capped_train["kmeans"], test_matrix, config),
        "lof": partial(baselines.score_lof, capped_train["lof"], test_matrix),
        "isolation_forest": partial(baselines.score_if, train_matrix, test_matrix, seed=config.rng_seed),
    }
    with forked_map(lambda name: one_step[name](), list(one_step)) as one_step_scores:
        trained = train_encoded(recipe, train_matrix, val_matrix, config)
        score_sets = {
            # scored by tanh distance, which no verdict threshold changes
            "two_step": verdict_scores(classify_matrix(trained, test_matrix)),
            "autoencoder": baselines.score_ae_one_step(trained.filter1, test_matrix),
        }
        score_sets.update(zip(one_step, one_step_scores()))
    rows: dict[str, dict] = {}
    for name, scores in score_sets.items():
        scores = np.asarray(scores, dtype=float)
        if not np.isfinite(scores).all():
            raise DataError(f"baseline {name} produced non-finite scores")
        per_scenario = {s.value: auprc(scores, labels, s) for s in present}
        per_scenario["macro"] = macro_average(list(per_scenario.values()))
        rows[name] = per_scenario
    rows["ocsvm"] = dict(baselines.OCSVM_REFERENCE_ROW)
    notes.append("ocsvm row is a published reference, not reproduced")
    return {"schema_version": 1, "rows": rows, "notes": notes}
