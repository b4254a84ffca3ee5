"""Evaluation: confusion accounting, FPR/precision/recall/F1, average
precision over the score sweep, and macro-averaging across attack
scenarios.

Undefined ratios (0/0) surface as None rather than silently becoming
zero, so degenerate runs fail loudly.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import DataError
from .records import ATTACK_CLASSES, LabelClass

REPORT_SCHEMA_VERSION = 2


def _label_masks(
    labels: Sequence[LabelClass], scenario: LabelClass
) -> tuple[np.ndarray, np.ndarray]:
    """Flags of the scenario's attack flows and of the assumed-benign flows."""
    positive = np.array([label is scenario for label in labels], dtype=bool)
    negative = np.array([label is LabelClass.ASSUMED_BENIGN for label in labels], dtype=bool)
    return positive, negative


def confusion(
    verdicts: np.recarray, labels: Sequence[LabelClass], scenario: LabelClass
) -> dict:
    """Confusion counts (tp, fp, tn, fn) for one attack scenario over a
    verdict table.

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
    return {
        "tp": int(np.count_nonzero(positive & malicious)),
        "fp": int(np.count_nonzero(negative & malicious)),
        "tn": int(np.count_nonzero(negative & ~malicious)),
        "fn": int(np.count_nonzero(positive & ~malicious)),
    }


def _ratio(numerator: int, denominator: int) -> Optional[float]:
    if denominator == 0:
        return None
    return numerator / denominator


def scenario_metrics(counts: dict) -> dict:
    """The confusion counts (tp, fp, tn, fn) with FPR, precision, recall
    and F1."""
    tp, fp, tn, fn = (counts[key] for key in ("tp", "fp", "tn", "fn"))
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {
        **counts,
        "fpr": _ratio(fp, fp + tn),
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


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


def present_scenarios(labels: Sequence[LabelClass]) -> list[LabelClass]:
    """The attack scenarios with at least one flow, in ATTACK_CLASSES order."""
    present = set(labels)
    return [scenario for scenario in ATTACK_CLASSES if scenario in present]


def build_eval_report(
    verdicts: np.recarray,
    labels: Sequence[LabelClass],
    thresholds: dict,
) -> dict:
    """The report of every attack scenario present: per-scenario metrics,
    their macro-averages and the thresholds that made the verdicts.

    The report holds no timings, so reruns with the same seed serialize
    byte-identically.
    """
    scores = verdict_scores(verdicts)
    scenarios = {
        scenario.value: {
            **scenario_metrics(confusion(verdicts, labels, scenario)),
            "auprc": auprc(scores, labels, scenario),
        }
        for scenario in present_scenarios(labels)
    }
    if not scenarios:
        raise DataError("no attack-labeled flows to evaluate")
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenarios": scenarios,
        "macro": {
            key: macro_average([entry[key] for entry in scenarios.values()])
            for key in ("fpr", "precision", "recall", "f1", "auprc")
        },
        "thresholds": dict(thresholds),
    }
