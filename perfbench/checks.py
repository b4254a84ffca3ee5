"""Output checks: what a run must reproduce, and how it is compared.

The exactness gate follows the project's rule for changes that may move
the last bits of float fields: the same k*, an identical ``final_label``
per flow and identical macro metrics in every report. Whole-file digests
of the artifacts are recorded for information only.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import DATA, MODELS, Workload

REFERENCES = Path(__file__).with_name("references.json")

_INFO_FILES = (
    f"{DATA}/training.csv",
    f"{DATA}/validation.csv",
    f"{DATA}/test.csv",
    f"{MODELS}/filter1.json",
    f"{MODELS}/filter2.json",
    "verdicts.csv",
    "verdicts_per_cluster.csv",
    "report.json",
    "pr.csv",
    "bench.json",
)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _verdict_labels(path: Path) -> dict:
    digest = hashlib.sha256()
    rows = 0
    with open(path, encoding="utf-8", newline="") as stream:
        for row in csv.DictReader(stream):
            digest.update(row["final_label"].encode())
            digest.update(b"\n")
            rows += 1
    return {"rows": rows, "final_label_sha256": digest.hexdigest()}


def checked_outputs(workload: Workload, workdir: Path) -> dict:
    """The outputs the exactness gate compares, read from one session."""
    cleansing = _load_json(workdir / DATA / "cleansing_report.json")
    out: dict = {
        "rows_read": cleansing["rows_read"],
        "partition_rows": cleansing["partition_rows"],
        "k_star": _load_json(workdir / MODELS / "filter2.json")["k_star"],
        "labels": {
            name: _verdict_labels(workdir / name)
            for name in ("verdicts.csv", "verdicts_per_cluster.csv")
            if (workdir / name).exists()
        },
    }
    if (workdir / "report.json").exists():
        out["report_macro"] = _load_json(workdir / "report.json")["macro"]
    if (workdir / "bench.json").exists():
        rows = _load_json(workdir / "bench.json")["rows"]
        out["bench_macro"] = {name: row.get("macro") for name, row in sorted(rows.items())}
    return out


def macro_auprc(workload: Workload, checked: dict) -> float:
    if workload.auprc_source == "report.json":
        return checked["report_macro"]["auprc"]
    return checked["bench_macro"]["two_step"]


def info_digests(workdir: Path) -> dict[str, str]:
    return {name: sha256_file(workdir / name) for name in _INFO_FILES if (workdir / name).exists()}


# The CLI's default global threshold on tanh(distance); no step passes --tau.
GLOBAL_TAU = 0.75


def _rule_breaks(path: Path, th_frequent: float, filter2: dict, per_cluster: bool) -> int:
    """Verdict rows that break the paper's decision rules.

    A flow is frequent iff its MSE is strictly below th_frequent, and then
    benign. An infrequent flow is benign iff its tanh score is strictly
    below the global threshold, or, in per-cluster mode, iff its distance
    is strictly below its cluster's threshold.
    """
    thresholds = filter2["per_cluster_thresholds"]
    breaks = 0
    with open(path, encoding="utf-8", newline="") as stream:
        for index, row in enumerate(csv.DictReader(stream)):
            frequent = row["frequent"] == "true"
            benign = row["final_label"] == "benign"
            ok = int(row["flow_index"]) == index and frequent == (float(row["mse"]) < th_frequent)
            if frequent:
                ok = ok and benign and row["assigned_cluster"] == ""
            else:
                cluster = int(row["assigned_cluster"])
                ok = ok and 0 <= cluster < filter2["k_star"]
                if per_cluster:
                    ok = ok and benign == (float(row["distance"]) < thresholds[cluster])
                else:
                    ok = ok and benign == (float(row["tanh_score"]) < GLOBAL_TAU)
            breaks += not ok
    return breaks


def sanity_failures(workload: Workload, checked: dict, workdir: Path) -> list[str]:
    """Checks that hold for any seed, with or without a reference."""
    failures = []
    th_frequent = _load_json(workdir / MODELS / "filter1.json")["th_frequent"]
    filter2 = _load_json(workdir / MODELS / "filter2.json")
    for name in checked["labels"]:
        breaks = _rule_breaks(workdir / name, th_frequent, filter2, per_cluster=name == "verdicts_per_cluster.csv")
        if breaks:
            failures.append(f"{name}: {breaks} verdicts break the decision rules")
    test_rows = checked["partition_rows"]["test"]
    for name, labels in checked["labels"].items():
        if labels["rows"] != test_rows:
            failures.append(f"{name} has {labels['rows']} rows, test partition has {test_rows}")
    value = macro_auprc(workload, checked)
    if not isinstance(value, float) or not math.isfinite(value) or not 0.0 < value <= 1.0:
        failures.append(f"macro AUPRC {value!r} is not in (0, 1]")
    return failures


def differences(expected: list[dict], actual: list[dict]) -> list[str]:
    """Keys of the exactness gate whose values differ, by capture."""
    return [
        f"capture {index}: {key}"
        for index, (want, got) in enumerate(zip(expected, actual))
        for key in sorted(set(want) | set(got))
        if want.get(key) != got.get(key)
    ]


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    return _load_json(REFERENCES)


def reference_for(references: dict, workload: Workload, seed: int, environment: dict):
    """The recorded outputs for this workload and seed, one per capture,
    or None.

    References recorded under other settings (thread count, Python, NumPy
    or BLAS version) are not compared: float summation order may differ.
    """
    entry = references.get(workload.name, {}).get(str(seed))
    if entry is None or entry["environment"] != comparable_environment(environment):
        return None
    return entry["checked"]


def comparable_environment(environment: dict) -> dict:
    return {key: environment[key] for key in ("blas_threads", "python", "numpy", "blas")}
