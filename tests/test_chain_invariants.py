"""Invariants of the command chain on 1/1/1 synthetic captures.

- classify is row-order equivariant: the verdict table of permuted rows is
  the permuted table, bit for bit, in both verdict modes and for both IP
  treatments;
- `detect` on `training.csv` marks infrequent exactly the rows `train`
  clustered;
- `ingest` of its own three partitions writes `validation.csv` and
  `test.csv` again byte for byte, while `training.csv` loses the rows in
  the warm-up window of the shorter capture, and then the rows whose
  destination port that loss leaves below the sanitization count.

Each capture and each training runs once per module; hypothesis draws the
capture seeds from a small pool so that its examples share them.
"""
import csv
import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve import autoencoder, encode, ingest, pipeline
from flowsieve.autoencoder import Filter1Model
from flowsieve.cli import main
from flowsieve.clustering import Filter2Model, kmeans_fit, seed_for_k
from flowsieve.config import PipelineConfig
from flowsieve.records import VERDICT_DTYPE

SEEDS = (42, 7, 1009)
RECIPES = ("drop", "prefix_one_hot")
PARTITIONS = ("training.csv", "validation.csv", "test.csv")
WARMUP_HOURS = 2
MIN_PORT_COUNT = PipelineConfig().sanitize_min_port_count


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
def _models(root, seed, recipe):
    work = _chain_root(root, seed)
    models = work / f"models-{recipe}"
    _run(["train", "--data", work / "data", "--outdir", models, "--set", f"ip_treatment={recipe}"])
    return models


@functools.cache
def _flows(path):
    records, report = ingest.parse_dataset(path)
    assert report.rows_rejected == 0
    return records


def _trained(models) -> pipeline.TrainedPipeline:
    return pipeline.TrainedPipeline(
        config=PipelineConfig(),
        filter1=Filter1Model.load(models / "filter1.json"),
        filter2=Filter2Model.load(models / "filter2.json"),
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
    if per_cluster:
        trained = dataclasses.replace(trained, config=trained.config.replace(global_tanh_threshold=None))
    x = encode.apply_recipe(_flows(_chain_root(root, seed) / "data" / "test.csv"), trained.recipe).values
    assert (x.shape[1] == 25) == (recipe == "drop")
    order = np.random.default_rng(order_seed).permutation(len(x))
    table = pipeline.classify_matrix(trained, x)
    assert (~table.frequent).any()
    _assert_same_table(pipeline.classify_matrix(trained, x[order]), table[order])


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
        sanitized = [line for line, row in kept if not row[port] or counts[row[port]] >= MIN_PORT_COUNT]
        assert 0 < len(sanitized) < len(rows)
        assert (work / "again" / "training.csv").read_bytes() == header_line + b"".join(sanitized)
