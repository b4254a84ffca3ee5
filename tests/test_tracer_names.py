"""The benchmark's layer tracer (perfbench/tracer.py) wraps package
functions by name and binds some of their arguments by name. A refactor
that removes or renames one of them fails here, in the unit tests, rather
than in a benchmark run."""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("tracer", None)


def _package_wrappers() -> list[str]:
    return [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "flowsieve" or name.startswith("flowsieve.")
        for attr, value in vars(module).items()
        if getattr(value, "__perfbench_traced__", False)
    ]


def test_every_timed_name_is_a_package_function(tracer_module):
    for layer, names in tracer_module.TIMED.items():
        module = importlib.import_module(f"flowsieve.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"flowsieve.{layer}.{name} is gone"


def test_install_wraps_every_name_and_uninstall_restores_them(tracer_module):
    from flowsieve import autoencoder, clustering
    from flowsieve.config import PipelineConfig

    tracer = tracer_module.Tracer()
    tracer.begin_session(0)
    tracer.begin_step(0)
    tracer.install()
    try:
        for layer, names in tracer_module.TIMED.items():
            module = importlib.import_module(f"flowsieve.{layer}")
            for name in names:
                assert getattr(getattr(module, name), "__perfbench_traced__", False), name
        # the wrappers that bind arguments by name must find them
        x = np.random.default_rng(0).random((12, 4))
        fit = clustering.kmeans_fit(x, 2, seed=1, restarts=1)
        clustering.silhouette_mean(x, fit.assignments)
        config = PipelineConfig(epochs_max=1, patience_max=1, batch_size=4)
        autoencoder.train_filter1(x, x, config)
    finally:
        tracer.uninstall()
    assert not _package_wrappers()
    counts = tracer.counts
    assert counts["clustering.kmeans_calls"] == 1
    assert counts["clustering.silhouette_calls"] == 1
    assert counts["clustering.silhouette_rows"] == 12
    assert counts["autoencoder.fits"] == 1
    assert counts["autoencoder.epochs"] == 1


def test_bench_fits_the_autoencoder_once_and_encodes_every_flow_once(tracer_module):
    from flowsieve import ingest
    from flowsieve.config import PipelineConfig
    from flowsieve.experiments import run_benchmark
    from flowsieve.synth import SynthConfig, generate

    synth = SynthConfig(days=3, split_days=(1, 1, 1), seed=42)
    cleansed, _ = ingest.preprocess(generate(synth))
    parts = ingest.partition_chronologically(
        cleansed, split_days=synth.split_days, lab_network_id=synth.lab_network_id
    )
    flows = (parts.training, parts.validation, parts.test)
    config = PipelineConfig(epochs_max=3, patience_max=3, k_max=3)

    tracer = tracer_module.Tracer()
    tracer.begin_session(0)
    tracer.begin_step(0)
    tracer.install()
    try:
        run_benchmark(*flows, config)
    finally:
        tracer.uninstall()
    assert not _package_wrappers()
    counts = tracer.counts
    assert counts["autoencoder.fits"] == 1
    assert counts["autoencoder.redundant_fits"] == 0
    assert counts["encode.rows_encoded"] == sum(len(part) for part in flows)


def test_classify_counts_follow_the_verdict_table(tracer_module):
    # the tracer counts scored rows by len() of score_and_classify's result
    # and infrequent rows by each classify_matrix row's `frequent`
    from flowsieve import encode, ingest, pipeline
    from flowsieve.config import PipelineConfig
    from flowsieve.synth import SynthConfig, generate

    synth = SynthConfig(days=3, split_days=(1, 1, 1), seed=42)
    cleansed, _ = ingest.preprocess(generate(synth))
    parts = ingest.partition_chronologically(
        cleansed, split_days=synth.split_days, lab_network_id=synth.lab_network_id
    )
    config = PipelineConfig(epochs_max=3, patience_max=3, k_max=3)
    trained = pipeline.train_pipeline(parts.training, parts.validation, config)
    matrix = encode.apply_recipe(parts.test, trained.recipe)

    tracer = tracer_module.Tracer()
    tracer.begin_session(0)
    tracer.begin_step(0)
    tracer.install()
    try:
        table = pipeline.classify_matrix(trained, matrix)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0, [])
    assert 0 < metrics["clustering.scored_rows"] == np.count_nonzero(~table.frequent) < len(table)
    assert metrics["pipeline.infrequent_share"] == np.mean(~table.frequent)
