"""Invariants of the command chain on 1/1/1 synthetic captures.

- classify is row-order equivariant: the verdict table of permuted rows is
  the permuted table, bit for bit, in both verdict modes and for both IP
  treatments;
- `detect` on `training.csv` marks infrequent exactly the rows `train`
  clustered;
- the verdict file `detect` writes is the text a csv writer gives its
  rows, in both verdict modes;
- `calibrate` on the partitions `train` used rewrites both model files
  byte for byte;
- `ingest` of its own three partitions writes `validation.csv` and
  `test.csv` again byte for byte, while `training.csv` loses the rows in
  the warm-up window of the shorter capture, and then the rows whose
  destination port that loss leaves below `ingest.SANITIZE_MIN_PORT_COUNT`,
  and the cleansing report records that floor.

Each capture and each training runs once per module; hypothesis draws the
capture seeds from a small pool so that its examples share them.
"""
import csv
import functools
import json
import shutil
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve import autoencoder, encode, ingest, pipeline
from flowsieve.autoencoder import Filter1Model
from flowsieve.cli import _csv_text, main
from flowsieve.clustering import Filter2Model, kmeans_fit, seed_for_k
from flowsieve.config import PipelineConfig
from flowsieve.records import VERDICT_DTYPE

SEEDS = (42, 7, 1009)
RECIPES = ("drop", "prefix_one_hot")
PARTITIONS = ("training.csv", "validation.csv", "test.csv")
WARMUP_HOURS = 2


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("chain")


def _run(argv) -> None:
    assert main([str(arg) for arg in argv]) == 0, argv


@functools.cache
def _chain_root(root, seed):
    """A 1/1/1 capture of `seed` and its ingested partitions under root/seed."""
    work = root / str(seed)
    work.mkdir()
    _run(["synth", "--split", "1,1,1", "--seed", seed, "--out", work / "capture.csv"])
    _run(["ingest", "--input", work / "capture.csv", "--outdir", work / "data", "--split", "1,1,1"])
    return work


@functools.cache
def _models(root, seed, recipe, *overrides):
    work = _chain_root(root, seed)
    models = work / "-".join(["models", recipe, *overrides])
    sets = [arg for override in overrides for arg in ("--set", override)]
    _run(["train", "--data", work / "data", "--outdir", models, "--set", f"ip_treatment={recipe}", *sets])
    return models


@functools.cache
def _flows(path):
    records, report = ingest.parse_dataset(path)
    assert report.rows_rejected == 0
    return records


def _trained(models) -> pipeline.TrainedPipeline:
    return pipeline.TrainedPipeline(
        Filter1Model.load(models / "filter1.json"), Filter2Model.load(models / "filter2.json")
    )


def _assert_same_table(actual, expected) -> None:
    """Every field bit for bit, a NaN equal to a NaN."""
    for name in VERDICT_DTYPE.names:
        a, b = actual[name], expected[name]
        if a.dtype.kind == "f":
            assert np.array_equal(np.isnan(a), np.isnan(b)), name
            a, b = np.where(np.isnan(a), 0.0, a), np.where(np.isnan(b), 0.0, b)
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=12, deadline=None)
@given(
    seed=st.sampled_from(SEEDS),
    recipe=st.sampled_from(RECIPES),
    per_cluster=st.booleans(),
    order_seed=st.integers(0, 2**32 - 1),
)
def test_classify_of_permuted_rows_is_the_permuted_table(root, seed, recipe, per_cluster, order_seed):
    trained = _trained(_models(root, seed, recipe))
    tau = None if per_cluster else PipelineConfig.global_tanh_threshold
    x = encode.apply_recipe(_flows(_chain_root(root, seed) / "data" / "test.csv"), trained.recipe).values
    assert (x.shape[1] == 25) == (recipe == "drop")
    order = np.random.default_rng(order_seed).permutation(len(x))
    table = pipeline.classify_matrix(trained, x, tau)
    assert (~table.frequent).any()
    _assert_same_table(pipeline.classify_matrix(trained, x[order], tau), table[order])


@settings(max_examples=6, deadline=None)
@given(seed=st.sampled_from(SEEDS), recipe=st.sampled_from(RECIPES))
def test_detect_on_training_marks_infrequent_the_rows_train_clustered(root, seed, recipe):
    models = _models(root, seed, recipe)
    training_csv = _chain_root(root, seed) / "data" / "training.csv"
    verdicts = models / "training-verdicts.csv"
    _run(["detect", "--models", models, "--input", training_csv, "--out", verdicts])
    with open(verdicts, newline="") as stream:
        marked = np.array([row["frequent"] == "false" for row in csv.DictReader(stream)])

    # The rows train clustered, from the written models: filter 1's
    # infrequent training rows, whose k-means fit at k* is filter 2.
    trained = _trained(models)
    x = encode.apply_recipe(_flows(training_csv), trained.recipe).values
    mses = autoencoder.compute_mse(trained.filter1, x)
    clustered = ~autoencoder.classify_frequent_rows(mses, trained.th_frequent)
    k_star = trained.filter2.k_star
    refit = kmeans_fit(x[clustered], k_star, seed_for_k(PipelineConfig().rng_seed, k_star))
    assert np.array_equal(refit.centroids, trained.filter2.centroids)
    assert np.array_equal(marked, clustered)


@pytest.mark.parametrize("per_cluster", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_detect_writes_what_a_csv_writer_would(root, seed, per_cluster):
    models = _models(root, seed, "drop")
    verdicts = models / f"verdicts-{per_cluster}.csv"
    mode = ["--mode", "per-cluster"] if per_cluster else []
    _run(["detect", "--models", models, "--input", _chain_root(root, seed) / "data" / "test.csv",
          "--out", verdicts, *mode])
    text = verdicts.read_text(encoding="utf-8")
    with open(verdicts, newline="", encoding="utf-8") as stream:
        rows = list(csv.reader(stream))
    assert len(rows) > 1 and any(row[rows[0].index("frequent")] == "true" for row in rows[1:])
    assert text == _csv_text(rows)


@pytest.mark.parametrize("overrides", [(), ("pctl_frequent=70", "pctl_known=90")], ids=["default", "pctl"])
@pytest.mark.parametrize("seed", SEEDS)
def test_calibrate_on_the_training_partitions_is_a_fixed_point(root, seed, overrides):
    # calibrate reads the percentiles the models record, so it needs no --set
    models = _models(root, seed, "drop", *overrides)
    calibrated = models.with_name(models.name + "-calibrated")
    shutil.copytree(models, calibrated)
    _run(["calibrate", "--data", _chain_root(root, seed) / "data", "--models", calibrated])
    for name in ("filter1.json", "filter2.json"):
        assert (calibrated / name).read_bytes() == (models / name).read_bytes(), name


def _hour(row: list[str], header: list[str]) -> int:
    return int(row[header.index("flow_start_day")]) * 24 + int(row[header.index("flow_start_hour")])


def test_reingest_keeps_validation_and_test_and_drops_a_new_warmup(root):
    for seed in SEEDS:
        work = _chain_root(root, seed)
        lines = [(work / "data" / name).read_bytes().splitlines(keepends=True) for name in PARTITIONS]
        header_line = lines[0][0]
        assert all(part[0] == header_line for part in lines)
        joined = work / "partitions.csv"
        joined.write_bytes(header_line + b"".join(line for part in lines for line in part[1:]))
        _run(["ingest", "--input", joined, "--outdir", work / "again", "--split", "1,1,1"])

        for name, part in zip(PARTITIONS[1:], lines[1:]):
            assert (work / "again" / name).read_bytes() == b"".join(part), name
        header, *rows = csv.reader(line.decode() for line in lines[0])
        first_hour = min(_hour(row, header) for row in rows)
        # Training keeps the rows past the new warm-up window, and of them
        # those whose destination port is still frequent enough.
        port = header.index("destination_port")
        kept = [(line, row) for line, row in zip(lines[0][1:], rows) if _hour(row, header) >= first_hour + WARMUP_HOURS]
        counts = Counter(row[port] for _, row in kept)
        sanitized = [line for line, row in kept if not row[port] or counts[row[port]] >= ingest.SANITIZE_MIN_PORT_COUNT]
        assert 0 < len(sanitized) < len(rows)
        assert (work / "again" / "training.csv").read_bytes() == header_line + b"".join(sanitized)
        report = json.loads((work / "again" / "cleansing_report.json").read_text())
        assert report["sanitize_min_port_count"] == ingest.SANITIZE_MIN_PORT_COUNT
        assert report["sanitized_count"] == len(kept) - len(sanitized)
