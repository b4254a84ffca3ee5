"""Self-tests of the benchmark, at tiny scale.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the package's own test collection;
they take about a minute.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

TINY_CONFIG = workloads.settings(epochs_max=2, patience_max=2, k_max=3)


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(
        workloads.WORKLOADS[name], name=f"tiny-{name}", split="1,1,1", config=TINY_CONFIG,
        bench_config=TINY_CONFIG, setup_repeats=2,
    )


def options(name: str, trace: int = 0, seconds: float = 0.0, seed: int = 42) -> Namespace:
    return Namespace(workload=name, seed=seed, seconds=seconds, trace=trace, write_reference=False)


def record(name: str, trace: int, seed: int = 42) -> dict:
    path = bench.WORK / "records" / f"{name}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_and_passes_its_checks(name):
    result = bench.run(options(name), workload=tiny(name))
    assert result["correct"] and result["failed"] == 0, record(f"tiny-{name}", 0)["failures"]
    assert result["attempted"] > len(tiny(name).setup) + len(tiny(name).timed)
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_verdicts_raise_failed_share():
    workload = tiny("fit-3d")
    detects = []

    def corrupt(step):
        if step.command != "detect":
            return
        detects.append(step)
        # the first capture's verdicts in the second session
        if len(detects) != workload.captures + 1:
            return
        path = Path("verdicts.csv")
        with open(path, encoding="utf-8", newline="") as stream:
            rows = list(csv.reader(stream))
        column = rows[0].index("final_label")
        rows[1][column] = "benign" if rows[1][column] == "malicious" else "malicious"
        with open(path, "w", encoding="utf-8", newline="") as stream:
            csv.writer(stream, lineterminator="\n").writerows(rows)

    result = bench.run(options("fit-3d", seconds=30.0), workload=workload, after_step=corrupt)
    assert len(detects) > workload.captures, "needs a second session"
    assert result["failed"] > 0 and not result["correct"]


def test_untraced_run_loads_no_wrappers_and_matches_reference():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fit-3d", "--seed", "42",
         "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    details = record("fit-3d", 0)
    assert details["tracer_imported"] is False
    assert details["reference"] == "compared"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_self_times_add_up_to_step_walls(name):
    import tracer

    result = bench.run(options(name, trace=1), workload=tiny(name))
    assert result["correct"], record(f"tiny-{name}", 1)["failures"]
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    assert set(metrics) == set(bench.per_layer_units())
    details = record(f"tiny-{name}", 1)
    assert details["tracer_imported"] is True
    (session,) = details["traced_sessions"]
    assert len(details["sessions"]) == 1, "untraced and traced sessions alternate"
    accounted = sum(metrics[key] for key in tracer.SELF_TIMES)
    accounted += sum(metrics[f"cli.{command}_self_s"] for command in workloads.CLI_COMMANDS)
    assert accounted == pytest.approx(sum(wall for _, wall in session), abs=1e-6)
    if name == "score-6d":
        # the models are fixed in set-up: no fitting is timed
        assert metrics["autoencoder.fits"] == metrics["clustering.fits"] == 0
        return
    # filter 2 refits at k*, repeating one k-means call per fit
    assert metrics["clustering.redundant_kmeans_calls"] >= metrics["clustering.fits"] >= 1
    # per capture, train fits the autoencoder once; in bench the one-step
    # autoencoder repeats the pipeline's own fit
    captures = tiny(name).captures
    assert metrics["autoencoder.fits"] == 3 * captures
    assert metrics["autoencoder.redundant_fits"] == captures


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()


def test_fails_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
