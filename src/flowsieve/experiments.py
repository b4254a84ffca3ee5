"""Experiment drivers: the hyperparameter grid, the training-size
sensitivity sweep and the one-step baseline benchmark.

Every combination runs under the shared base seed of the supplied
configuration, so result differences come from the configuration axes,
not from reseeding. A failed combination is recorded, never fatal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
from .metrics import EvalReport, auprc, macro_average, verdict_scores
from .pipeline import classify_matrix, evaluate_pipeline, train_encoded, train_pipeline
from .records import ATTACK_CLASSES, FlowRecord

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


@dataclass
class GridResult:
    config: PipelineConfig
    report: Optional[EvalReport]
    error: Optional[str] = None

    @property
    def macro_auprc(self) -> Optional[float]:
        if self.report is None:
            return None
        return self.report.macro.get("auprc")

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "macro_auprc": self.macro_auprc,
            "macro": None if self.report is None else dict(self.report.macro),
            "error": self.error,
        }


def grid_configs(base: PipelineConfig, axes: Optional[dict[str, tuple]] = None) -> list[PipelineConfig]:
    axes = axes if axes is not None else GRID_AXES
    configs = [base]
    for key, values in axes.items():
        configs = [config.replace(**{key: value}) for config in configs for value in values]
    return configs


def run_grid(
    training: Sequence[FlowRecord],
    validation: Sequence[FlowRecord],
    test: Sequence[FlowRecord],
    base_config: PipelineConfig,
    axes: Optional[dict[str, tuple]] = None,
) -> list[GridResult]:
    """Train and evaluate the pipeline on every axis combination; results
    are ordered by macro-AUPRC, best first, failures last."""
    results: list[GridResult] = []
    for config in grid_configs(base_config, axes):
        try:
            trained = train_pipeline(training, validation, config)
            report, _ = evaluate_pipeline(trained, test)
            results.append(GridResult(config=config, report=report))
        except FlowSieveError as exc:
            results.append(GridResult(config=config, report=None, error=str(exc)))
    results.sort(
        key=lambda r: r.macro_auprc if r.macro_auprc is not None else -math.inf,
        reverse=True,
    )
    return results


@dataclass
class SweepPoint:
    size: int
    macro_precision: Optional[float] = None
    macro_recall: Optional[float] = None
    macro_f1: Optional[float] = None
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "error": self.error,
        }


def sensitivity_sweep(
    training: Sequence[FlowRecord],
    validation: Sequence[FlowRecord],
    test: Sequence[FlowRecord],
    sizes: Sequence[int],
    config: PipelineConfig,
) -> list[SweepPoint]:
    """Retrain on the most recent N flows of the training+validation pool,
    N per requested size, split 80/20 chronologically."""
    pool = sorted(list(training) + list(validation), key=lambda f: (f.flow_start, f.device_id))
    points: list[SweepPoint] = []
    for size in sizes:
        if size < 2:
            points.append(SweepPoint(size=size, error="size too small"))
            continue
        if size > len(pool):
            points.append(SweepPoint(size=size, error=f"size exceeds pool of {len(pool)}"))
            continue
        selected = pool[-size:]
        cut = max(1, min(size - 1, int(math.floor(size * 0.8))))
        sub_train = selected[:cut]
        sub_val = selected[cut:]
        try:
            trained = train_pipeline(sub_train, sub_val, config)
            report, _ = evaluate_pipeline(trained, test)
            points.append(
                SweepPoint(
                    size=size,
                    macro_precision=report.macro.get("precision"),
                    macro_recall=report.macro.get("recall"),
                    macro_f1=report.macro.get("f1"),
                )
            )
        except FlowSieveError as exc:
            points.append(SweepPoint(size=size, error=str(exc)))
    return points


# Training-row caps for the quadratic-cost baselines; seeded subsamples
# keep six-figure benchmark runs tractable without touching the scores'
# meaning (they remain novelty detectors fit on benign traffic).
BENCH_LOF_MAX_TRAIN = 20_000
BENCH_KMEANS_MAX_TRAIN = 50_000
_TAG_BENCH = 0x10


def _capped(values: np.ndarray, cap: int, seed: int, tag: int) -> tuple[np.ndarray, bool]:
    if values.shape[0] <= cap:
        return values, False
    from .stats import derive_rng

    rng = derive_rng(seed, _TAG_BENCH, tag)
    return values[rng.choice(values.shape[0], size=cap, replace=False)], True


def run_benchmark(
    training: Sequence[FlowRecord],
    validation: Sequence[FlowRecord],
    test: Sequence[FlowRecord],
    config: PipelineConfig,
) -> baselines.BenchmarkReport:
    """AUPRC comparison of the two-step pipeline against the one-step
    detectors, all on the same encoded matrices; the one-step autoencoder
    is the pipeline's frequency filter used alone."""
    labels = [flow.actual_label for flow in test]
    present = [s for s in ATTACK_CLASSES if any(l is s for l in labels)]
    if not present:
        raise DataError("benchmark needs attack-labeled test flows")

    recipe = encode.fit_recipe(list(training), config)
    train_matrix, val_matrix, test_matrix = (
        encode.apply_recipe(list(flows), recipe).values for flows in (training, validation, test)
    )
    trained = train_encoded(recipe, train_matrix, val_matrix, config)
    verdicts = classify_matrix(trained, test_matrix)

    notes = ["all reproduced detectors share the pipeline's feature encoding"]
    capped_train = {}
    for name, cap, tag in (("lof", BENCH_LOF_MAX_TRAIN, 1), ("kmeans", BENCH_KMEANS_MAX_TRAIN, 2)):
        capped_train[name], capped = _capped(train_matrix, cap, config.rng_seed, tag)
        if capped:
            notes.append(f"{name} fitted on a seeded sample of {cap} training rows")

    score_sets = {
        "two_step": verdict_scores(verdicts),
        "autoencoder": baselines.score_ae_one_step(trained.filter1, test_matrix),
        "kmeans": baselines.score_kmeans_one_step(capped_train["kmeans"], test_matrix, config),
        "lof": baselines.score_lof(capped_train["lof"], test_matrix),
        "isolation_forest": baselines.score_if(train_matrix, test_matrix, seed=config.rng_seed),
    }
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
    return baselines.BenchmarkReport(rows=rows, notes=notes)
