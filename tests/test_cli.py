import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowsieve
from flowsieve import clustering, ingest, pipeline
from flowsieve.autoencoder import Filter1Model
from flowsieve.cli import _write_outputs, main
from flowsieve.clustering import Filter2Model
from flowsieve.config import PipelineConfig
from flowsieve.errors import DegenerateDataError
from flowsieve.metrics import build_eval_report, pr_curve, verdict_scores
from flowsieve.records import ATTACK_CLASSES, LAB_NETWORK_ID


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth -> ingest -> train -> calibrate run shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data_csv = root / "synthetic.csv"
    data_dir = root / "data"
    models = root / "models"
    assert main(["synth", "--out", str(data_csv), "--seed", "42"]) == 0
    assert (
        main(
            [
                "ingest",
                "--input", str(data_csv),
                "--outdir", str(data_dir),
                "--split", "4,1,2",
                "--lab-network", "5",
            ]
        )
        == 0
    )
    assert main(["train", "--data", str(data_dir), "--outdir", str(models), "--seed", "42"]) == 0
    assert main(["calibrate", "--data", str(data_dir), "--models", str(models), "--seed", "42"]) == 0
    return root


def _rewrite_csv(source, target, edit):
    """Copy a CSV, letting edit(header, rows) change its cells in place."""
    with open(source, newline="") as stream:
        header, *rows = list(csv.reader(stream))
    edit(header, rows)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows([header, *rows])


def _run_cli(cwd, argv):
    """The CLI in a process of its own, so a traceback would reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(flowsieve.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "flowsieve.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def _set(artifact, key, value):
    def edit(payloads):
        payloads[artifact][key] = value

    return edit


def _edit_filter2(edit):
    return lambda payloads: edit(payloads["filter2.json"])


def _edit_recipe(edit):
    return lambda payloads: edit(payloads["filter1.json"]["recipe"])


def _single_layer_under_bottleneck(payloads):
    payloads["filter1.json"].update(layer_dims=[25, 25], weights=[np.eye(25).tolist()], biases=[[0.0] * 25])
    payloads["filter2.json"]["feature_space"] = "ae_bottleneck"


def _equal_width_layers(payloads):
    # shapes agree with layer_dims, but not the 100-50-25-50-100% network
    eye = np.eye(25).tolist()
    payloads["filter1.json"].update(layer_dims=[25] * 5, weights=[eye] * 4, biases=[[0.0] * 25] * 4)


def _pca_basis(**changes):
    def edit(payloads):
        basis = {"mean": [0.0] * 25, "components": np.eye(25).tolist(),
                 "explained_variance_ratio": [0.04] * 25, "retained": 25}
        payloads["filter2.json"].update(feature_space="pca", pca_basis={**basis, **changes})

    return edit


def _zero_std(filter2):
    centroids = filter2["centroids"]
    filter2.update(distance_mode="normalized_euclidean", per_cluster_mean=centroids,
                   per_cluster_std=[[0.0] * len(row) for row in centroids])


def _first_weight_nan(payloads):
    payloads["filter1.json"]["weights"][0][0][0] = float("nan")


# Model files that loaded and then crashed detect (exit 1) or gave verdicts
# with exit 0; each must exit 2 naming the key. (edit, key) by case.
MALFORMED_MODELS = {
    "thresholds-not-numbers": (
        _edit_filter2(lambda f2: f2.update(per_cluster_thresholds=["x"] * f2["k_star"])),
        "per_cluster_thresholds",
    ),
    "silhouette-value-x": (_set("filter2.json", "silhouette_by_k", {"2": "x"}), "silhouette_by_k"),
    "silhouette-list": (_set("filter2.json", "silhouette_by_k", [1, 2]), "silhouette_by_k"),
    "notes-5": (_set("filter2.json", "notes", 5), "notes"),
    "th-frequent-x": (_set("filter1.json", "th_frequent", "x"), "th_frequent"),
    "history-x": (_set("filter1.json", "training_history", ["x"]), "training_history"),
    "vocabularies-lack-feature": (
        _edit_recipe(lambda recipe: recipe["vocabularies"].pop("reputation_status")),
        "vocabularies",
    ),
    "single-layer-bottleneck": (_single_layer_under_bottleneck, "layer_dims"),
    "pca-mean-short": (_pca_basis(mean=[0.0] * 24), "mean"),
    "th-frequent-nan": (_set("filter1.json", "th_frequent", float("nan")), "th_frequent"),
    "th-frequent-inf": (_set("filter1.json", "th_frequent", float("inf")), "th_frequent"),
    "weight-nan": (_first_weight_nan, "weights"),
    "thresholds-nan": (
        _edit_filter2(lambda f2: f2.update(per_cluster_thresholds=[float("nan")] * f2["k_star"])),
        "per_cluster_thresholds",
    ),
    "k-star-fractional": (_edit_filter2(lambda f2: f2.update(k_star=f2["k_star"] + 0.7)), "k_star"),
    "std-zero": (_edit_filter2(_zero_std), "per_cluster_std"),
    "columns-renamed": (
        _edit_recipe(lambda recipe: recipe["columns"].__setitem__(0, "protocol_identifier=bogus")),
        "columns",
    ),
    "numeric-stats-lack-feature": (
        _edit_recipe(lambda recipe: recipe["numeric_stats"].pop("avg_packet_size")),
        "numeric_stats",
    ),
    "numeric-stats-min-above-max": (
        _edit_recipe(lambda recipe: recipe["numeric_stats"].update(octet_delta_count=[5.0, 1.0])),
        "numeric_stats",
    ),
    "equal-width-layers": (_equal_width_layers, "layer_dims"),
    "pca-components-narrow": (_pca_basis(components=[[1.0] * 24] * 25), "components"),
    "pca-ratios-short": (_pca_basis(explained_variance_ratio=[0.04] * 24), "explained_variance_ratio"),
    "pca-retained-above-width": (_pca_basis(retained=26), "retained"),
    "pca-basis-null": (_edit_filter2(lambda f2: f2.update(feature_space="pca")), "pca_basis"),
    "pca-basis-narrower-than-recipe": (
        _pca_basis(mean=[0.0] * 24, components=np.eye(24).tolist(),
                   explained_variance_ratio=[1 / 24] * 24, retained=24),
        "pca_basis",
    ),
}


class TestPipelineComposability:
    def test_artifacts_exist(self, workdir):
        assert (workdir / "data" / "training.csv").exists()
        assert (workdir / "data" / "cleansing_report.json").exists()
        assert (workdir / "models" / "filter1.json").exists()
        assert (workdir / "models" / "filter2.json").exists()

    def test_cleansing_report_shape(self, workdir):
        report = json.loads((workdir / "data" / "cleansing_report.json").read_text())
        assert report["rows_read"] > 0
        assert "rows_dropped_by_reason" in report
        assert "sanitized_count" in report

    def test_model_files_carry_schema_version(self, workdir):
        for name in ("filter1.json", "filter2.json"):
            payload = json.loads((workdir / "models" / name).read_text())
            assert payload["schema_version"] == 1

    def test_detect_then_eval(self, workdir):
        verdicts_csv = workdir / "verdicts.csv"
        report_json = workdir / "report.json"
        pr_csv = workdir / "pr.csv"
        assert (
            main(
                [
                    "detect",
                    "--models", str(workdir / "models"),
                    "--input", str(workdir / "data" / "test.csv"),
                    "--out", str(verdicts_csv),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "eval",
                    "--verdicts", str(verdicts_csv),
                    "--out", str(report_json),
                    "--pr-curve", str(pr_csv),
                ]
            )
            == 0
        )
        report = json.loads(report_json.read_text())
        assert report["macro"]["recall"] >= 0.95
        assert report["macro"]["fpr"] <= 0.05
        with open(pr_csv) as stream:
            rows = list(csv.DictReader(stream))
        assert rows and {"scenario", "threshold", "precision", "recall"} == set(rows[0])

    def test_frequent_verdict_rows_have_empty_cluster_fields(self, workdir):
        with open(workdir / "verdicts.csv") as stream:
            rows = list(csv.DictReader(stream))
        frequent = [r for r in rows if r["frequent"] == "true"]
        assert frequent, "expected at least one frequent flow"
        for row in frequent:
            assert row["assigned_cluster"] == ""
            assert row["distance"] == ""
            assert row["final_label"] == "benign"

    def test_eval_of_detect_output_matches_the_in_memory_table(self, workdir, tmp_path):
        models, test_csv = workdir / "models", workdir / "data" / "test.csv"
        verdicts_csv, report_json, pr_csv = (tmp_path / n for n in ("v.csv", "report.json", "pr.csv"))
        assert main(["detect", "--models", str(models), "--input", str(test_csv), "--out", str(verdicts_csv)]) == 0
        argv = ["eval", "--verdicts", str(verdicts_csv), "--out", str(report_json), "--pr-curve", str(pr_csv)]
        assert main(argv) == 0

        trained = pipeline.TrainedPipeline(
            PipelineConfig(global_tanh_threshold=0.75),
            Filter1Model.load(models / "filter1.json"),
            Filter2Model.load(models / "filter2.json"),
        )
        records, _ = ingest.parse_dataset(test_csv)
        table = pipeline.classify_flows(trained, records)
        labels = [record.actual_label for record in records]
        expected = build_eval_report(table, labels, config_snapshot={}, thresholds={})
        report = json.loads(report_json.read_text())
        assert report["scenarios"] == expected["scenarios"]
        assert report["macro"] == expected["macro"]
        scores = verdict_scores(table)
        expected_rows = [
            [scenario.value, repr(threshold), repr(precision), repr(recall)]
            for scenario in ATTACK_CLASSES
            if scenario in labels
            for threshold, precision, recall in pr_curve(scores, labels, scenario)
        ]
        with open(pr_csv, newline="") as stream:
            assert list(csv.reader(stream))[1:] == expected_rows

    def test_detect_per_cluster_mode(self, workdir):
        out = workdir / "verdicts_pc.csv"
        assert (
            main(
                [
                    "detect",
                    "--models", str(workdir / "models"),
                    "--input", str(workdir / "data" / "test.csv"),
                    "--out", str(out),
                    "--mode", "per-cluster",
                ]
            )
            == 0
        )
        assert out.exists()


class TestFromConfusion:
    def test_published_counts(self, workdir, capsys):
        assert (
            main(["eval", "--from-confusion", "tp=3032", "fn=48", "fp=315", "tn=22157"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["f1"] == pytest.approx(0.944, abs=1e-3)
        assert payload["precision"] == pytest.approx(0.906, abs=1e-3)
        assert payload["fpr"] == pytest.approx(0.014, abs=1e-3)

    def test_bad_tokens_are_usage_errors(self):
        assert main(["eval", "--from-confusion", "tp=1", "fn=2", "fp=3", "oops=4"]) == 1


class TestErrorPaths:
    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--nope", "x"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--input", "capture.csv", "--outdir", "data", "--split", "a,1,1"],
            ["synth", "--out", "capture.csv", "--split", "1,x,1"],
            ["synth", "--out", "capture.csv", "--split", "1,1"],
            ["sweep", "--data", "data", "--out", "sweep.csv", "--sizes", "10,abc"],
        ],
        ids=["ingest-split-a11", "synth-split-1x1", "synth-split-11", "sweep-sizes-10abc"],
    )
    def test_malformed_split_or_sizes_is_usage_error(self, tmp_path, argv):
        done = _run_cli(tmp_path, argv)
        assert done.returncode == 1
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr
        assert not any(tmp_path.iterdir())

    def test_non_utf8_input_is_schema_error(self, tmp_path):
        capture = tmp_path / "capture.csv"
        capture.write_bytes(b"flow_start_day\n\xff\xfe\n")
        done = _run_cli(tmp_path, ["ingest", "--input", "capture.csv", "--outdir", "data"])
        assert done.returncode == 2
        assert done.stderr == "error: capture.csv is not UTF-8: invalid byte at offset 15\n"
        assert list(tmp_path.iterdir()) == [capture]

    @pytest.mark.parametrize(
        "name, argv, code",
        [
            ("verdicts.csv", ["eval", "--verdicts", "verdicts.csv", "--out", "eval.json"], 2),
            ("run.conf", ["train", "--config", "run.conf", "--data", "data", "--outdir", "models"], 1),
        ],
        ids=["eval-verdicts", "train-config"],
    )
    def test_non_utf8_verdict_or_config_file_is_an_error_naming_the_offset(self, tmp_path, name, argv, code):
        path = tmp_path / name
        path.write_bytes(b"k_min=2\n\xff\xfe\n")
        done = _run_cli(tmp_path, argv)
        assert done.returncode == code
        assert done.stderr == f"error: {name} is not UTF-8: invalid byte at offset 8\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_split_of_zero_days_is_usage_error(self, workdir, tmp_path, capsys):
        argv = ["ingest", "--input", str(workdir / "synthetic.csv"), "--outdir", str(tmp_path / "data")]
        assert main(argv + ["--split", "0,1,1"]) == 1
        assert capsys.readouterr().err.startswith("error: argument --split: ")
        assert main(["synth", "--out", str(tmp_path / "capture.csv"), "--split", "1,-1,1"]) == 1
        assert capsys.readouterr().err.startswith("error: argument --split: ")
        assert not any(tmp_path.iterdir())

    def test_a_sweep_worker_error_exits_as_on_one_cpu(self, workdir, tmp_path, monkeypatch, capsys):
        real = clustering.kmeans_fit

        def fit(matrix, k, seed, restarts=clustering.KMEANS_RESTARTS):
            if k == 19:
                raise DegenerateDataError("no fit at k=19")
            return real(matrix, k, seed, restarts)

        monkeypatch.setattr(clustering, "kmeans_fit", fit)
        monkeypatch.setattr(clustering, "_POOL_MIN_ROW_FITS", 0)
        errors = []
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            models = tmp_path / f"models-{cpus}"
            argv = ["train", "--data", str(workdir / "data"), "--outdir", str(models), "--set", "pctl_frequent=95"]
            assert main(argv) == 3
            assert not models.exists() or not any(models.iterdir())
            assert multiprocessing.active_children() == []
            errors.append(capsys.readouterr().err)
        assert errors == ["error: no fit at k=19\n"] * 2

    def test_attacks_off_the_lab_network_are_data_error(self, tmp_path, capsys):
        # ten homes put the lab, and every attack, on network 10
        capture = tmp_path / "capture.csv"
        assert main(["synth", "--out", str(capture), "--homes", "10", "--split", "1,1,1"]) == 0
        capsys.readouterr()
        argv = ["ingest", "--input", str(capture), "--outdir", str(tmp_path / "data"), "--split", "1,1,1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: no attack-labeled flow is on --lab-network 5; network(s) 10 carry them\n"
        )
        assert list(tmp_path.iterdir()) == [capture]
        assert main(argv + ["--lab-network", "10"]) == 0

    def test_lab_network_defaults_to_the_records_constant(self, workdir, tmp_path):
        # the shared run names --lab-network 5; leaving it out writes the same files
        assert LAB_NETWORK_ID == 5
        outdir = tmp_path / "data"
        argv = ["ingest", "--input", str(workdir / "synthetic.csv"), "--outdir", str(outdir)]
        assert main(argv + ["--split", "4,1,2"]) == 0
        for name in ("training.csv", "validation.csv", "test.csv", "cleansing_report.json"):
            assert (outdir / name).read_bytes() == (workdir / "data" / name).read_bytes()

    def test_missing_input_is_data_error(self, tmp_path):
        assert (
            main(["ingest", "--input", str(tmp_path / "absent.csv"), "--outdir", str(tmp_path)])
            == 2
        )

    def test_schema_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["ingest", "--input", str(bad), "--outdir", str(tmp_path)]) == 2

    def test_ingest_rejects_integer_beyond_float_range(self, workdir, tmp_path):
        # the capture with the widened row ingests like the capture without it
        def widen(header, rows):
            rows[100][header.index("octet_delta_count")] = "9" * 401

        def drop(header, rows):
            del rows[100]

        outputs = {}
        for name, edit in (("widened", widen), ("dropped", drop)):
            capture = tmp_path / f"{name}.csv"
            _rewrite_csv(workdir / "synthetic.csv", capture, edit)
            outdir = tmp_path / name
            argv = ["ingest", "--input", str(capture), "--outdir", str(outdir)]
            assert main(argv + ["--split", "4,1,2", "--lab-network", "5"]) == 0
            outputs[name] = outdir
        report = json.loads((outputs["widened"] / "cleansing_report.json").read_text())
        assert report["rows_rejected"] == 1
        assert report["reject_reasons"] == {"numeric octet_delta_count beyond float range": 1}
        for name in ("training.csv", "validation.csv", "test.csv"):
            partition = (outputs["widened"] / name).read_bytes()
            assert partition == (outputs["dropped"] / name).read_bytes()
            assert b"9" * 401 not in partition

    def _detect_with_edited_filter2(self, workdir, tmp_path, edit, artifact="filter2.json"):
        return self._detect_with_edited_models(workdir, tmp_path, lambda payloads: edit(payloads[artifact]))

    def _detect_with_edited_models(self, workdir, tmp_path, edit):
        """detect --mode per-cluster after edit({file name: payload}) of both models."""
        models = tmp_path / "models"
        models.mkdir()
        names = ("filter1.json", "filter2.json")
        payloads = {name: json.loads((workdir / "models" / name).read_text()) for name in names}
        edit(payloads)
        for name in names:
            (models / name).write_text(json.dumps(payloads[name]))
        return main(
            [
                "detect",
                "--models", str(models),
                "--input", str(workdir / "data" / "test.csv"),
                "--out", str(tmp_path / "verdicts.csv"),
                "--mode", "per-cluster",
            ]
        )

    def test_truncated_cluster_thresholds_are_schema_errors(self, workdir, tmp_path):
        def truncate(payload):
            payload["per_cluster_thresholds"] = payload["per_cluster_thresholds"][:-1]

        assert self._detect_with_edited_filter2(workdir, tmp_path, truncate) == 2

    def test_ragged_centroids_are_schema_errors(self, workdir, tmp_path):
        def ragged(payload):
            payload["centroids"][0] = payload["centroids"][0][:-1]

        assert self._detect_with_edited_filter2(workdir, tmp_path, ragged) == 2

    @pytest.mark.parametrize("key", ["k_star", "centroids", "distance_mode", "feature_space"])
    def test_filter2_missing_key_is_schema_error(self, workdir, tmp_path, key):
        assert self._detect_with_edited_filter2(workdir, tmp_path, lambda p: p.pop(key)) == 2

    @pytest.mark.parametrize("edit, key", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
    def test_malformed_model_value_is_schema_error(self, workdir, tmp_path, capsys, edit, key):
        assert self._detect_with_edited_models(workdir, tmp_path, edit) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and f"invalid {key}:" in error

    def test_model_file_that_is_not_json_is_schema_error(self, workdir, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        (models / "filter1.json").write_text('{"schema_version": 1, "layer_dims": [25, 13')
        (models / "filter2.json").write_bytes((workdir / "models" / "filter2.json").read_bytes())
        out = tmp_path / "verdicts.csv"
        argv = ["detect", "--models", str(models), "--input", str(workdir / "data" / "test.csv")]
        assert main(argv + ["--out", str(out)]) == 2
        assert "filter1.json is not JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["distance_mode", "feature_space"])
    def test_filter2_unknown_enum_value_is_schema_error(self, workdir, tmp_path, key):
        def unknown(payload):
            payload[key] = "manhattan"

        assert self._detect_with_edited_filter2(workdir, tmp_path, unknown) == 2

    def _detect_with_edited_filter1(self, workdir, tmp_path, edit):
        return self._detect_with_edited_filter2(workdir, tmp_path, edit, artifact="filter1.json")

    @pytest.mark.parametrize("key", ["layer_dims", "weights", "biases", "seed"])
    def test_filter1_missing_key_is_schema_error(self, workdir, tmp_path, key):
        assert self._detect_with_edited_filter1(workdir, tmp_path, lambda p: p.pop(key)) == 2

    def test_filter1_weight_shape_is_checked(self, workdir, tmp_path, capsys):
        def drop_column(payload):
            payload["weights"][1] = [row[:-1] for row in payload["weights"][1]]

        assert self._detect_with_edited_filter1(workdir, tmp_path, drop_column) == 2
        assert "weights[1] must have shape" in capsys.readouterr().err

    def test_filter1_bias_shape_is_checked(self, workdir, tmp_path, capsys):
        def drop_entry(payload):
            payload["biases"][2] = payload["biases"][2][:-1]

        assert self._detect_with_edited_filter1(workdir, tmp_path, drop_entry) == 2
        assert "biases[2] must have shape" in capsys.readouterr().err

    def test_filter1_recipe_dimension_is_checked(self, workdir, tmp_path, capsys):
        def drop_vocabulary_value(payload):
            # the recipe agrees with itself but encodes one column fewer
            recipe = payload["recipe"]
            dropped = recipe["vocabularies"]["protocol_identifier"].pop()
            recipe["columns"].remove(f"protocol_identifier={dropped}")

        assert self._detect_with_edited_filter1(workdir, tmp_path, drop_vocabulary_value) == 2
        assert "layer_dims[0]" in capsys.readouterr().err

    def test_detect_refuses_rows_without_inter_arrival_time(self, workdir, tmp_path, capsys):
        # the raw capture leaves the first flow of each device without an
        # inter-arrival time; ingest drops those rows
        out = tmp_path / "verdicts.csv"
        code = main(
            [
                "detect",
                "--models", str(workdir / "models"),
                "--input", str(workdir / "synthetic.csv"),
                "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()
        with open(workdir / "synthetic.csv", newline="") as stream:
            lacking = sum(1 for row in csv.DictReader(stream) if not row["inter_arrival_time_milliseconds"])
        assert lacking > 0
        error = capsys.readouterr().err
        assert f"inter_arrival_time_milliseconds in {lacking} rows" in error
        assert "same_dest_port_count_pool" not in error

    def test_detect_refuses_rows_without_pool_counter(self, workdir, tmp_path, capsys):
        with open(workdir / "data" / "test.csv", newline="") as stream:
            rows = list(csv.reader(stream))
        column = rows[0].index("same_dest_IP_count_pool")
        for row in rows[1:4]:
            row[column] = ""
        edited = tmp_path / "test.csv"
        with open(edited, "w", newline="") as stream:
            csv.writer(stream, lineterminator="\n").writerows(rows)
        code = main(
            [
                "detect",
                "--models", str(workdir / "models"),
                "--input", str(edited),
                "--out", str(tmp_path / "verdicts.csv"),
            ]
        )
        assert code == 2
        assert "same_dest_IP_count_pool in 3 rows" in capsys.readouterr().err

    def _detect(self, workdir, out, *extra, input_csv=None):
        return main(
            [
                "detect",
                "--models", str(workdir / "models"),
                "--input", str(input_csv or workdir / "data" / "test.csv"),
                "--out", str(out),
                *extra,
            ]
        )

    @pytest.mark.parametrize("tau", ["1.5", "-0.5", "0", "1"])
    def test_detect_tau_outside_unit_interval_is_usage_error(self, workdir, tmp_path, capsys, tau):
        out = tmp_path / "verdicts.csv"
        assert self._detect(workdir, out, "--tau", tau) == 1
        assert not out.exists()
        assert "global_tanh_threshold must lie in (0, 1)" in capsys.readouterr().err

    def test_per_cluster_mode_ignores_tau(self, workdir, tmp_path):
        plain, with_tau = tmp_path / "plain.csv", tmp_path / "with_tau.csv"
        assert self._detect(workdir, plain, "--mode", "per-cluster") == 0
        assert self._detect(workdir, with_tau, "--mode", "per-cluster", "--tau", "1.5") == 0
        assert plain.read_bytes() == with_tau.read_bytes()

    def test_no_configured_threshold_falls_back_to_the_field_default(self, workdir, tmp_path):
        by_default, unset = tmp_path / "default.csv", tmp_path / "unset.csv"
        default = PipelineConfig().global_tanh_threshold
        assert self._detect(workdir, by_default, "--tau", str(default)) == 0
        assert self._detect(workdir, unset, "--set", "global_tanh_threshold=none") == 0
        assert unset.read_bytes() == by_default.read_bytes()

    def test_tau_and_configured_threshold_agree(self, workdir, tmp_path):
        by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
        assert self._detect(workdir, by_flag, "--tau", "0.5") == 0
        assert self._detect(workdir, by_config, "--set", "global_tanh_threshold=0.5") == 0
        assert by_flag.read_bytes() == by_config.read_bytes()

    def test_detect_refuses_non_finite_encoded_values(self, workdir, tmp_path, capsys):
        # a negative octet count has no log1p; ingest drops such rows
        with open(workdir / "data" / "test.csv", newline="") as stream:
            rows = list(csv.reader(stream))
        column = rows[0].index("octet_delta_count")
        for row in rows[1:3]:
            row[column] = "-5"
        edited = tmp_path / "test.csv"
        with open(edited, "w", newline="") as stream:
            csv.writer(stream, lineterminator="\n").writerows(rows)
        out = tmp_path / "verdicts.csv"
        assert self._detect(workdir, out, input_csv=edited) == 2
        assert not out.exists()
        error = capsys.readouterr().err
        assert f"'octet_delta_count' is not finite after log1p in 2 of {len(rows) - 1} rows" in error

    def test_integer_beyond_float_range_is_data_error(self, workdir, tmp_path, capsys):
        def widen(header, rows):
            rows[0][header.index("octet_delta_count")] = "9" * 401

        edited = tmp_path / "test.csv"
        _rewrite_csv(workdir / "data" / "test.csv", edited, widen)
        out = tmp_path / "verdicts.csv"
        assert self._detect(workdir, out, input_csv=edited) == 2
        assert not out.exists()
        assert "rows rejected: numeric octet_delta_count beyond float range (1)" in capsys.readouterr().err

        data = tmp_path / "data"
        for name in ("validation.csv", "test.csv"):
            _rewrite_csv(workdir / "data" / name, data / name, lambda header, rows: None)
        _rewrite_csv(workdir / "data" / "training.csv", data / "training.csv", widen)
        models = tmp_path / "models"
        assert main(["train", "--data", str(data), "--outdir", str(models)]) == 2
        assert not models.exists() or not list(models.iterdir())
        assert "numeric octet_delta_count beyond float range (1)" in capsys.readouterr().err

    def test_detect_refuses_a_rejected_row(self, workdir, tmp_path, capsys):
        def garble(header, rows):
            rows[5][header.index("packet_delta_count")] = "lots"

        edited = tmp_path / "test.csv"
        _rewrite_csv(workdir / "data" / "test.csv", edited, garble)
        out = tmp_path / "verdicts.csv"
        assert self._detect(workdir, out, input_csv=edited) == 2
        assert not out.exists()
        assert "rows rejected: unparsable numeric packet_delta_count (1)" in capsys.readouterr().err

    def test_train_refuses_rows_without_inter_arrival_time(self, workdir, tmp_path, capsys):
        def blank(header, rows):
            for row in rows[:3]:
                row[header.index("inter_arrival_time_milliseconds")] = ""

        data = tmp_path / "data"
        _rewrite_csv(workdir / "data" / "training.csv", data / "training.csv", blank)
        for name in ("validation.csv", "test.csv"):
            _rewrite_csv(workdir / "data" / name, data / name, lambda header, rows: None)
        models = tmp_path / "models"
        assert main(["train", "--data", str(data), "--outdir", str(models)]) == 2
        assert not models.exists()
        assert "inter_arrival_time_milliseconds in 3 rows" in capsys.readouterr().err

    def test_commands_read_only_the_partitions_they_use(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("training.csv", "validation.csv"):
            (data / name).write_bytes((workdir / "data" / name).read_bytes())
        models = tmp_path / "models"
        quick = ["--set", "epochs_max=3", "--set", "k_max=3"]
        assert main(["train", "--data", str(data), "--outdir", str(models), *quick]) == 0
        (data / "training.csv").unlink()
        assert main(["calibrate", "--data", str(data), "--models", str(models)]) == 0
        capsys.readouterr()
        assert main(["bench", "--data", str(data), "--out", str(tmp_path / "bench.json"), *quick]) == 2
        assert "missing partition file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, edit",
        [
            ("assigned_cluster", "blank_cluster"),
            ("assigned_cluster", "negative_cluster"),
            ("distance", "nan_distance"),
            ("actual_label", "unknown_label"),
            ("mse", "negative_mse"),
            ("mse", "missing_mse"),
        ],
    )
    def test_malformed_verdict_file_is_data_error(self, workdir, tmp_path, capsys, column, edit):
        verdicts = tmp_path / "verdicts.csv"
        assert self._detect(workdir, verdicts) == 0
        line = {}

        def damage(header, rows):
            at = header.index(column)
            if edit == "missing_mse":
                for row in [header, *rows]:
                    del row[at]
                return
            cells = {
                "blank_cluster": "",
                "negative_cluster": "-1",
                "nan_distance": "nan",
                "unknown_label": "bogus",
                "negative_mse": "-1",
            }
            if edit in ("blank_cluster", "negative_cluster", "nan_distance"):
                index = next(i for i, row in enumerate(rows) if row[header.index("frequent")] == "false")
            else:
                index = 3
            rows[index][at] = cells[edit]
            line["number"] = index + 2  # the header is line 1

        edited = tmp_path / "edited.csv"
        _rewrite_csv(verdicts, edited, damage)
        report = tmp_path / "report.json"
        assert main(["eval", "--verdicts", str(edited), "--out", str(report)]) == 2
        assert not report.exists()
        error = capsys.readouterr().err
        assert column in error
        if line:
            assert f"line {line['number']}:" in error

    def test_bench_refuses_an_empty_validation_partition(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        for name in ("training.csv", "test.csv"):
            _rewrite_csv(workdir / "data" / name, data / name, lambda header, rows: None)
        _rewrite_csv(workdir / "data" / "validation.csv", data / "validation.csv", lambda header, rows: rows.clear())
        out = tmp_path / "bench.json"
        assert main(["bench", "--data", str(data), "--out", str(out)]) == 2
        assert not out.exists()
        assert "empty validation partition" in capsys.readouterr().err

    def test_no_partial_outputs_on_failure(self, tmp_path, workdir):
        # train with an un-trainable configuration must leave no artifacts
        out = tmp_path / "models"
        code = main(
            [
                "train",
                "--data", str(workdir / "data"),
                "--outdir", str(out),
                "--set", "k_min=2",
                "--set", "k_max=2",
                "--set", "pctl_frequent=99.9999",
            ]
        )
        assert code in (2, 3) or not list(out.glob("*.tmp"))
        assert not list(out.glob("*.tmp"))

    def test_unknown_config_key_is_usage_error(self, workdir, tmp_path):
        assert (
            main(
                [
                    "train",
                    "--data", str(workdir / "data"),
                    "--outdir", str(tmp_path),
                    "--set", "bogus_knob=1",
                ]
            )
            == 1
        )


class TestIdempotentReruns:
    def test_models_byte_identical(self, workdir, tmp_path):
        rerun = tmp_path / "models2"
        assert main(["train", "--data", str(workdir / "data"), "--outdir", str(rerun), "--seed", "42"]) == 0
        for name in ("filter1.json", "filter2.json"):
            # calibrate rewrote the originals with identical thresholds, so
            # a fresh train must reproduce them byte for byte
            original = (workdir / "models" / name).read_bytes()
            again = (rerun / name).read_bytes()
            assert again == original

    def test_synth_byte_identical(self, workdir, tmp_path):
        out = tmp_path / "again.csv"
        assert main(["synth", "--out", str(out), "--seed", "42"]) == 0
        assert out.read_bytes() == (workdir / "synthetic.csv").read_bytes()


class TestConfigFile:
    def test_config_file_round_trip(self, workdir, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            "# comment and blank lines are fine\n\n"
            "pctl_frequent=70\n"
            "distance_mode=normalized_euclidean\n"
            "rng_seed=5\n"
        )
        out = tmp_path / "models"
        assert (
            main(
                [
                    "train",
                    "--data", str(workdir / "data"),
                    "--outdir", str(out),
                    "--config", str(config_file),
                ]
            )
            == 0
        )
        payload = json.loads((out / "filter2.json").read_text())
        assert payload["distance_mode"] == "normalized_euclidean"
        # the same values as --set overrides train the same models
        sets = ["pctl_frequent=70", "distance_mode=normalized_euclidean", "rng_seed=5"]
        again = tmp_path / "models-set"
        argv = ["train", "--data", str(workdir / "data"), "--outdir", str(again)]
        assert main(argv + [arg for value in sets for arg in ("--set", value)]) == 0
        for name in ("filter1.json", "filter2.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()


class TestStagedOutputs:
    def test_failed_write_leaves_no_staged_file_and_keeps_existing_output(self, tmp_path):
        kept = tmp_path / "report.json"
        kept.write_text("earlier run\n")
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        files = {kept: "new report\n", blocker / "pr.csv": "scenario\n"}
        # the error is the failed mkdir, not one raised while cleaning up
        with pytest.raises(FileExistsError):
            _write_outputs(files)
        assert kept.read_text() == "earlier run\n"
        assert blocker.read_text() == "a regular file, not a directory\n"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("alias", ["same", "sub/../same"])
    def test_eval_refuses_one_file_for_report_and_pr_curve(self, tmp_path, capsys, alias):
        (tmp_path / "sub").mkdir()
        out = tmp_path / "same"
        out.write_text("earlier report\n")
        code = main(
            [
                "eval",
                "--verdicts", str(tmp_path / "no-such-verdicts.csv"),
                "--out", str(out),
                "--pr-curve", str(tmp_path / alias),
            ]
        )
        assert code == 1
        error = capsys.readouterr().err
        assert "--out" in error and "--pr-curve" in error
        assert out.read_text() == "earlier report\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_output_under_a_regular_file_is_a_file_system_error(self, tmp_path, capsys):
        blockfile = tmp_path / "blockfile"
        blockfile.write_text("a regular file, not a directory\n")
        out = blockfile / "conf.json"
        code = main(["eval", "--from-confusion", "tp=5", "fn=1", "fp=2", "tn=90", "--out", str(out)])
        assert code == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and str(blockfile) in error
        assert "Traceback" not in error
        assert blockfile.read_text() == "a regular file, not a directory\n"
        assert not list(tmp_path.rglob("*.tmp"))


class TestConfigValues:
    @pytest.mark.parametrize("setting", ["delta_min=none", "delta_min=nan", "pctl_known=", "k_max=3.5"])
    def test_bad_set_value_is_usage_error(self, tmp_path, capsys, setting):
        argv = ["train", "--data", str(tmp_path / "data"), "--outdir", str(tmp_path / "models")]
        code = main([*argv, "--set", setting])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())
