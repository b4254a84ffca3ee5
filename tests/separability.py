"""Brute-force check that the synthetic generator's planted anomalies are
detectable in principle, shared by the synthetic-data and acceptance
tests."""
from __future__ import annotations

from dataclasses import dataclass

from flowsieve.clustering import kmeans_fit
from flowsieve.config import IpTreatment, NumericTreatment, PipelineConfig
from flowsieve.encode import apply_recipe, fit_recipe
from flowsieve.errors import DataError
from flowsieve.records import FlowRecord
from flowsieve.stats import nearest_rank_percentile, pairwise_dists
from flowsieve.synth import SynthConfig


@dataclass(frozen=True)
class SeparabilityCheck:
    min_attack_distance: float
    benign_p99: float

    @property
    def separable(self) -> bool:
        return self.min_attack_distance > self.benign_p99


def separability_check(flows: list[FlowRecord], config: SynthConfig) -> SeparabilityCheck:
    """Verify by brute force that the planted anomalies are detectable in
    principle: the closest attack flow must sit farther from every benign
    centroid than the 99th percentile of benign distances."""
    benign = [f for f in flows if not f.actual_label.is_attack]
    attacks = [f for f in flows if f.actual_label.is_attack]
    if not attacks:
        raise DataError("no attack flows to check")
    n_benign_behaviors = sum(1 for b in config.behaviors if not b.kind.is_attack)
    encoding = PipelineConfig(
        ip_treatment=IpTreatment.DROP, numeric_treatment=NumericTreatment.LOG1P
    )
    recipe = fit_recipe(benign, encoding)
    benign_x = apply_recipe(benign, recipe).values
    attack_x = apply_recipe(attacks, recipe).values

    k = max(2, n_benign_behaviors)
    result = kmeans_fit(benign_x, k, seed=config.seed)
    benign_dist = pairwise_dists(benign_x, result.centroids).min(axis=1)
    attack_dist = pairwise_dists(attack_x, result.centroids).min(axis=1)
    return SeparabilityCheck(
        min_attack_distance=float(attack_dist.min()),
        benign_p99=float(nearest_rank_percentile(benign_dist, 99)),
    )
