"""Evaluation: confusion accounting, FPR/precision/recall/F1, average
precision over the score sweep, and macro-averaging across attack
scenarios.

Undefined ratios (0/0) surface as None rather than silently becoming
zero, so degenerate runs fail loudly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError
from .records import ATTACK_CLASSES, LabelClass

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioOutcome:
    scenario: LabelClass
    tp: int
    fp: int
    tn: int
    fn: int


def _label_masks(
    labels: Sequence[LabelClass], scenario: LabelClass
) -> tuple[np.ndarray, np.ndarray]:
    """Flags of the scenario's attack flows and of the assumed-benign flows."""
    positive = np.array([label is scenario for label in labels], dtype=bool)
    negative = np.array([label is LabelClass.ASSUMED_BENIGN for label in labels], dtype=bool)
    return positive, negative


def confusion(
    verdicts: np.recarray, labels: Sequence[LabelClass], scenario: LabelClass
) -> ScenarioOutcome:
    """Confusion counts for one attack scenario over a verdict table.

    Positives are the flows of the scenario's attack class, negatives the
    assumed-benign flows; flows of other attack classes stay out of scope.
    """
    if not scenario.is_attack:
        raise DataError("a scenario must be an attack class")
    if len(verdicts) != len(labels):
        raise DataError(
            f"verdict/label count mismatch: {len(verdicts)} vs {len(labels)}"
        )
    malicious = verdicts.malicious
    positive, negative = _label_masks(labels, scenario)
    return ScenarioOutcome(
        scenario,
        tp=int(np.count_nonzero(positive & malicious)),
        fp=int(np.count_nonzero(negative & malicious)),
        tn=int(np.count_nonzero(negative & ~malicious)),
        fn=int(np.count_nonzero(positive & ~malicious)),
    )


@dataclass(frozen=True)
class ScenarioMetrics:
    fpr: Optional[float]
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]


def _ratio(numerator: int, denominator: int) -> Optional[float]:
    if denominator == 0:
        return None
    return numerator / denominator


def scenario_metrics(outcome: ScenarioOutcome) -> ScenarioMetrics:
    fpr = _ratio(outcome.fp, outcome.fp + outcome.tn)
    precision = _ratio(outcome.tp, outcome.tp + outcome.fp)
    recall = _ratio(outcome.tp, outcome.tp + outcome.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return ScenarioMetrics(fpr=fpr, precision=precision, recall=recall, f1=f1)


def _pr_sweep(scores: np.ndarray, positives: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold, precision and recall at each distinct score, descending.

    Tied scores enter together; a group's threshold is its first score in
    stable order, so a tie of 0.0 and -0.0 keeps the sign seen first.
    """
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    total_pos = int(positives.sum())
    if total_pos == 0:
        raise DataError("a precision-recall sweep needs at least one positive")
    if np.isnan(scores).any():
        raise DataError("a precision-recall sweep needs scores that are not NaN")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    true_positives = np.cumsum(positives[order])
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.shape[0]]
    tp = true_positives[ends - 1]
    return sorted_scores[starts], tp / ends, tp / total_pos


def average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    """AP = sum over descending unique score thresholds of (R_n - R_{n-1}) * P_n,
    ties processed together.

    The terms are added in sweep order (cumsum is sequential, where sum
    would pair them up and move the last bits).
    """
    _, precision, recall = _pr_sweep(scores, positives)
    steps = np.diff(recall, prepend=0.0) * precision
    return float(np.cumsum(steps)[-1])


def _scenario_rows(
    scores: Sequence[float], labels: Sequence[LabelClass], scenario: LabelClass
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and positive flags of the scenario's attack flows and the
    benign flows; flows of other attack classes are left out."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape[0] != len(labels):
        raise DataError("score/label count mismatch")
    positives, benign = _label_masks(labels, scenario)
    if not positives.any():
        raise DataError(f"no flows labeled {scenario.value!r}")
    mask = positives | benign
    return scores[mask], positives[mask]


def auprc(
    scores: Sequence[float], labels: Sequence[LabelClass], scenario: LabelClass
) -> float:
    """Average precision of the scenario's attack flows against benign flows."""
    return average_precision(*_scenario_rows(scores, labels, scenario))


def pr_curve(
    scores: Sequence[float], labels: Sequence[LabelClass], scenario: LabelClass
) -> list[tuple[float, float, float]]:
    """(threshold, precision, recall) points over descending unique scores."""
    thresholds, precision, recall = _pr_sweep(*_scenario_rows(scores, labels, scenario))
    return list(zip(thresholds.tolist(), precision.tolist(), recall.tolist()))


def macro_average(values: Sequence[Optional[float]]) -> Optional[float]:
    """Arithmetic mean over scenarios; any undefined value stays undefined."""
    values = list(values)
    if not values:
        raise DataError("macro average of zero scenarios")
    if any(v is None for v in values):
        return None
    return float(sum(values) / len(values))


def verdict_scores(verdicts: np.recarray) -> np.ndarray:
    """Anomaly score per flow of a verdict table: frequent flows score
    zero, infrequent flows their tanh cluster distance."""
    return np.where(verdicts.frequent, 0.0, verdicts.tanh_score)


@dataclass
class ScenarioReport:
    outcome: ScenarioOutcome
    metrics: ScenarioMetrics
    auprc: Optional[float]

    def to_dict(self) -> dict:
        return {
            "tp": self.outcome.tp,
            "fp": self.outcome.fp,
            "tn": self.outcome.tn,
            "fn": self.outcome.fn,
            "fpr": self.metrics.fpr,
            "precision": self.metrics.precision,
            "recall": self.metrics.recall,
            "f1": self.metrics.f1,
            "auprc": self.auprc,
        }


@dataclass
class EvalReport:
    """Per-scenario metrics, macro-averages and the run's configuration.

    The serialized artifact holds no timings, so reruns with the same seed
    are byte-identical.
    """

    scenarios: dict[str, ScenarioReport]
    macro: dict[str, Optional[float]]
    config_snapshot: dict
    thresholds: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "scenarios": {name: report.to_dict() for name, report in self.scenarios.items()},
            "macro": dict(self.macro),
            "config": dict(self.config_snapshot),
            "thresholds": dict(self.thresholds),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def build_eval_report(
    verdicts: np.recarray,
    labels: Sequence[LabelClass],
    config_snapshot: dict,
    thresholds: dict,
) -> EvalReport:
    """Assemble the full report for every attack scenario present."""
    scores = verdict_scores(verdicts)
    scenario_reports: dict[str, ScenarioReport] = {}
    for scenario in ATTACK_CLASSES:
        if not any(label is scenario for label in labels):
            continue
        outcome = confusion(verdicts, labels, scenario)
        scenario_reports[scenario.value] = ScenarioReport(
            outcome=outcome,
            metrics=scenario_metrics(outcome),
            auprc=auprc(scores, labels, scenario),
        )
    if not scenario_reports:
        raise DataError("no attack-labeled flows to evaluate")
    reports = list(scenario_reports.values())
    macro = {
        "fpr": macro_average([r.metrics.fpr for r in reports]),
        "precision": macro_average([r.metrics.precision for r in reports]),
        "recall": macro_average([r.metrics.recall for r in reports]),
        "f1": macro_average([r.metrics.f1 for r in reports]),
        "auprc": macro_average([r.auprc for r in reports]),
    }
    return EvalReport(
        scenarios=scenario_reports,
        macro=macro,
        config_snapshot=config_snapshot,
        thresholds=thresholds,
    )
