"""Operator command line: ingest, train, calibrate, detect, eval, bench,
grid, sweep and synth.

Exit codes: 0 success, 1 usage/configuration, 2 data, schema or
file-system problem, 3 numeric failure. Output files are staged with a
.tmp suffix and renamed only after every write succeeded, so partial
outputs are never left in place. Artifacts contain no timestamps; reruns
with the same seed and inputs are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import ingest, pipeline
from .autoencoder import Filter1Model
from .clustering import Filter2Model
from .config import PipelineConfig, check_global_tanh_threshold, load_config_file
from .errors import (
    ConfigError,
    DataError,
    FlowSieveError,
    NumericError,
    SchemaError,
    not_utf8_message,
)
from .experiments import run_benchmark, run_grid, sensitivity_sweep
from .metrics import (
    build_eval_report,
    pr_curve,
    present_scenarios,
    scenario_metrics,
    verdict_scores,
)
from .records import LAB_NETWORK_ID, FinalLabel, FlowRecord, LabelClass, verdict_table
from .synth import SynthConfig, generate

TRAINING_CSV = "training.csv"
VALIDATION_CSV = "validation.csv"
TEST_CSV = "test.csv"
PARTITION_CSVS = (TRAINING_CSV, VALIDATION_CSV, TEST_CSV)
CLEANSING_REPORT = "cleansing_report.json"
FILTER1_FILE = "filter1.json"
FILTER2_FILE = "filter2.json"

# Columns ingest fills and every partition reader needs on every row, with
# their record fields.
_ENRICHED_COLUMNS = {
    "inter_arrival_time_milliseconds": "inter_arrival_time_milliseconds",
    "same_dest_port_count_pool": "same_dest_port_count_pool",
    "same_dest_IP_count_pool": "same_dest_ip_count_pool",
}


class UsageError(FlowSieveError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with its own code
        raise UsageError(message)


def _write_outputs(files: dict[Path, str]) -> None:
    """Write every text to <name>.tmp, then rename each over its target.

    On a failure the staged files written so far are removed, existing
    outputs keep their bytes, and the error propagates.
    """
    staged: list[Path] = []
    try:
        for path, text in files.items():
            tmp = path.with_name(path.name + ".tmp")
            tmp.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as stream:
                staged.append(tmp)
                stream.write(text)
        for tmp, path in zip(staged, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise


def _json_text(payload) -> str:
    """A JSON report as written: indented, keys sorted, one final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _build_config(args) -> PipelineConfig:
    config = load_config_file(args.config) if args.config else PipelineConfig()
    updates = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in args.unread_keys:
            raise UsageError(f"{args.command} does not read {key}")
        updates[key] = value.strip()
    if args.seed is not None:
        updates["rng_seed"] = args.seed
    if updates:
        config = config.with_updates(updates)
    return config


def _add_config_options(parser: argparse.ArgumentParser, unread: tuple[str, ...] = ()) -> None:
    """--config, --set and --seed, of the commands that train. `--set` of
    a key in `unread`, which the command never reads, is a usage error; a
    --config file may hold it, so one file serves every such command."""
    parser.set_defaults(unread_keys=unread)
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one configuration field (repeatable)",
    )
    seed_help = f"RNG seed (default {PipelineConfig.rng_seed})"
    parser.add_argument("--seed", type=int, default=None, help=seed_help)


def _read_partition(path: Path) -> list[FlowRecord]:
    """The records of a file ingest wrote.

    A row that does not parse is a data error, and so is a row that lacks
    a value ingest fills in: ingest computes the inter-arrival time and
    the pool counters (or drops the row), and the recipe would silently
    encode an absent one as 0, so the model would see data prepared
    differently from its training data.
    """
    if not path.exists():
        raise DataError(f"missing partition file: {path}")
    records, report = ingest.parse_dataset(path)
    if report.rows_rejected:
        reasons = ", ".join(f"{reason} ({count})" for reason, count in sorted(report.reject_reasons.items()))
        raise DataError(f"{path}: {report.rows_rejected} of {report.rows_read} rows rejected: {reasons}")
    missing = {
        column: sum(1 for record in records if getattr(record, attribute) is None)
        for column, attribute in _ENRICHED_COLUMNS.items()
    }
    lacking = [f"{column} in {count} rows" for column, count in missing.items() if count]
    if lacking:
        raise DataError(f"{path} ({len(records)} rows) lacks {', '.join(lacking)}; run ingest on it first")
    return records


def _csv_text(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _dataset_text(records) -> str:
    buffer = io.StringIO()
    ingest.write_dataset(records, buffer)
    return buffer.getvalue()


def _split_days(text: str) -> tuple[int, int, int]:
    """--split: three comma-separated day counts."""
    try:
        split = tuple(int(v) for v in text.split(","))
    except ValueError:
        split = ()
    if len(split) != 3 or min(split) < 1:
        raise argparse.ArgumentTypeError(f"expected three comma-separated positive day counts, got {text!r}")
    return split  # type: ignore[return-value]


def _sizes(text: str) -> list[int]:
    """--sizes: a comma-separated list of integers; blank items are skipped."""
    try:
        sizes = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}")
    return sizes


def _cmd_synth(args) -> int:
    config = SynthConfig(n_homes=args.homes, days=sum(args.split), split_days=args.split, seed=args.seed)
    flows = generate(config)
    _write_outputs({Path(args.out): _dataset_text(flows)})
    print(f"wrote {len(flows)} synthetic flows to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    records, parse_report = ingest.parse_dataset(Path(args.input))
    if not records:
        raise DataError("no parseable rows in input")
    # The test partition keeps only lab flows: a capture whose attacks all
    # lie elsewhere would give a test partition with no attack to detect.
    attack_networks = {r.source_network_id for r in records if r.actual_label.is_attack}
    if attack_networks and args.lab_network not in attack_networks:
        raise DataError(
            f"no attack-labeled flow is on --lab-network {args.lab_network}; "
            f"network(s) {', '.join(map(str, sorted(attack_networks)))} carry them"
        )
    # A capture lacks the first inter-arrival time of every device, so this
    # recomputes all of them; a flow carrying a different value gets the
    # computed one, and a flow already carrying it passes through as it is.
    needs_iat = any(r.inter_arrival_time_milliseconds is None for r in records)
    if needs_iat:
        records = ingest.compute_iat(records)
    needs_pool = any(
        r.same_dest_port_count_pool is None or r.same_dest_ip_count_pool is None for r in records
    )
    if needs_pool and any(r.destination_port is not None for r in records):
        records = ingest.compute_pool_features(records)
    cleansed, cleanse_report = ingest.preprocess(records)
    if not cleansed:
        raise DataError("preprocessing dropped every row")
    partitions = ingest.partition_chronologically(
        cleansed, split_days=args.split, lab_network_id=args.lab_network
    )
    training, sanitized_count = ingest.sanitize_training(
        partitions.training, ingest.SANITIZE_MIN_PORT_COUNT
    )

    report = {
        "schema_version": 1,
        **parse_report.to_dict(),
        "rows_dropped_by_reason": dict(cleanse_report.dropped_by_reason + partitions.dropped_by_reason),
        "pool_zero_filled": cleanse_report.pool_zero_filled,
        "sanitized_count": sanitized_count,
        "sanitize_min_port_count": ingest.SANITIZE_MIN_PORT_COUNT,
        "partition_rows": {
            "training": len(training),
            "validation": len(partitions.validation),
            "test": len(partitions.test),
        },
        "notes": list(ingest.CLEANSE_NOTES),
    }
    outdir = Path(args.outdir)
    _write_outputs(
        {
            outdir / TRAINING_CSV: _dataset_text(training),
            outdir / VALIDATION_CSV: _dataset_text(partitions.validation),
            outdir / TEST_CSV: _dataset_text(partitions.test),
            outdir / CLEANSING_REPORT: _json_text(report),
        }
    )
    print(
        f"ingested {parse_report.rows_read} rows -> "
        f"{len(training)}/{len(partitions.validation)}/{len(partitions.test)} "
        f"training/validation/test"
    )
    return 0


def _cmd_train(args) -> int:
    config = _build_config(args)
    data = Path(args.data)
    training, validation = (_read_partition(data / name) for name in (TRAINING_CSV, VALIDATION_CSV))
    trained = pipeline.train_pipeline(training, validation, config)
    _write_models(Path(args.outdir), trained)
    print(
        f"trained: d={trained.recipe.dimension}, epochs={len(trained.filter1.training_history)}, "
        f"th_frequent={trained.th_frequent:.6g}, k*={trained.filter2.k_star}"
    )
    return 0


def _write_models(models_dir: Path, trained: pipeline.TrainedPipeline) -> None:
    _write_outputs(
        {
            models_dir / FILTER1_FILE: trained.filter1.to_json(),
            models_dir / FILTER2_FILE: trained.filter2.to_json(),
        }
    )


def _load_pipeline(models_dir: Path) -> pipeline.TrainedPipeline:
    """The calibrated pipeline saved under models_dir."""
    filter1 = Filter1Model.load(models_dir / FILTER1_FILE)
    filter2 = Filter2Model.load(models_dir / FILTER2_FILE)
    if filter1.recipe is None:
        raise SchemaError("frequency-filter artifact lacks its encoding recipe")
    if filter1.th_frequent is None:
        raise DataError("frequency filter is not calibrated (missing threshold)")
    basis = filter2.pca_basis
    if basis is not None and basis.mean.size != filter1.input_dim:
        raise Filter2Model.invalid("pca_basis", f"it has {basis.mean.size} columns, not {filter1.input_dim}")
    return pipeline.TrainedPipeline(filter1, filter2)


def _cmd_calibrate(args) -> int:
    models = Path(args.models)
    trained = _load_pipeline(models)
    validation = _read_partition(Path(args.data) / VALIDATION_CSV)
    try:
        recalibrated = pipeline.recalibrate(trained, validation)
    except SchemaError as exc:  # a model records no percentile
        raise SchemaError(f"{models}: {exc}") from None
    _write_models(models, recalibrated)
    thresholds = recalibrated.filter2.per_cluster_thresholds or []
    print(
        f"calibrated: th_frequent={recalibrated.th_frequent:.6g}, "
        f"{len(thresholds)} cluster thresholds"
    )
    return 0


VERDICT_HEADER = [
    "flow_index",
    "device_id",
    "flow_start_ms",
    "mse",
    "frequent",
    "assigned_cluster",
    "distance",
    "tanh_score",
    "final_label",
    "actual_label",
]


def _cmd_detect(args) -> int:
    # the models carry everything else; --mode and --tau pick the verdict rule
    tau = None if args.mode == "per-cluster" else args.tau
    check_global_tanh_threshold(tau)
    trained = _load_pipeline(Path(args.models))
    records = _read_partition(Path(args.input))
    if not records:
        raise DataError("no parseable rows in input")
    table = pipeline.classify_flows(trained, records, tau)
    blank = np.flatnonzero(table.frequent).tolist()

    def cluster_cells(values) -> list[str]:
        cells = list(values)
        for i in blank:
            cells[i] = ""
        return cells

    label = {True: FinalLabel.MALICIOUS.value, False: FinalLabel.BENIGN.value}
    columns = [
        map(str, range(len(records))),
        [str(record.device_id) for record in records],
        [str(record.flow_start) for record in records],
        map(repr, table.mse.tolist()),
        ["true" if cell else "false" for cell in table.frequent.tolist()],
        cluster_cells(map(str, table.assigned_cluster.tolist())),
        cluster_cells(map(repr, table.distance.tolist())),
        cluster_cells(map(repr, table.tanh_score.tolist())),
        [label[cell] for cell in table.malicious.tolist()],
        [record.actual_label.value for record in records],
    ]
    # No verdict cell holds a comma, a quote or a line break, so joining
    # the cells writes the bytes csv.writer would.
    lines = [",".join(VERDICT_HEADER), *map(",".join, zip(*columns))]
    _write_outputs({Path(args.out): "\n".join(lines) + "\n"})
    print(f"classified {len(table)} flows, {int(table.malicious.sum())} malicious")
    return 0


def _parse_confusion_tokens(tokens: Sequence[str]) -> dict:
    values = {}
    for token in tokens:
        if "=" not in token:
            raise UsageError(f"--from-confusion expects tp=/fn=/fp=/tn= tokens, got {token!r}")
        key, _, value = token.partition("=")
        key = key.strip().lower()
        if key not in {"tp", "fn", "fp", "tn"}:
            raise UsageError(f"unknown confusion field {key!r}")
        try:
            values[key] = int(value)
        except ValueError:
            raise UsageError(f"confusion counts must be integers, got {token!r}") from None
    missing = {"tp", "fn", "fp", "tn"} - values.keys()
    if missing:
        raise UsageError(f"--from-confusion is missing {', '.join(sorted(missing))}")
    return values


def _non_negative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise ValueError(text)
    return value


_INT64_MAX = int(np.iinfo(np.int64).max)


def _cluster_index(text: str) -> int:
    value = int(text)
    if not 0 <= value <= _INT64_MAX:
        raise ValueError(text)
    return value


def _not_nan_float(text: str) -> float:
    value = float(text)
    if value != value:
        raise ValueError(text)
    return value


def _true_or_false(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _memoized(parse):
    """`parse` with a memo of the cells it parsed; a cell that fails is
    not remembered, so it fails again wherever it occurs."""
    memo = {}

    def parse_cell(cell: str):
        value = memo.get(cell)
        if value is None:
            value = memo[cell] = parse(cell)
        return value

    return parse_cell


def _read_verdict_csv(path: Path):
    """The verdict table and actual labels of a file detect wrote; a
    missing column, a cell that does not parse or a frequent row labeled
    malicious is a data error naming its line and column, and so is a file
    that is not UTF-8. Cluster cells of frequent rows are not read."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as stream:
            reader = csv.reader(stream)
            header = next(reader, [])
            position = {column: i for i, column in enumerate(header)}
            missing = [column for column in VERDICT_HEADER if column not in position]
            if missing:
                raise DataError(f"verdict file {path} lacks column(s) {', '.join(missing)}")
            rows, lines = [], []
            for row in reader:
                if row:
                    rows.append(row + [""] * (len(header) - len(row)))
                    lines.append(reader.line_num)
    except UnicodeDecodeError:
        raise DataError(not_utf8_message(path)) from None

    def column(name: str, parse, where=range(len(rows))) -> list:
        at = position[name]
        values = []
        for i in where:
            try:
                values.append(parse(rows[i][at]))
            except ValueError:
                raise DataError(
                    f"verdict file {path} line {lines[i]}: invalid {name} {rows[i][at]!r}"
                ) from None
        return values

    def cluster_column(name: str, parse, absent) -> np.ndarray:
        values = np.full(len(rows), absent)
        values[infrequent] = column(name, parse, infrequent)
        return values

    labels = column("actual_label", _memoized(LabelClass.parse))
    mse = column("mse", _non_negative_float)
    frequent = np.array(column("frequent", _true_or_false), dtype=bool)
    malicious = np.array(
        [label is FinalLabel.MALICIOUS for label in column("final_label", _memoized(FinalLabel))], dtype=bool
    )
    flagged = np.flatnonzero(frequent & malicious)
    if flagged.size:
        raise DataError(
            f"verdict file {path} line {lines[flagged[0]]}: final_label 'malicious' on a frequent row"
        )
    infrequent = np.flatnonzero(~frequent)
    table = verdict_table(
        mse,
        frequent,
        cluster_column("assigned_cluster", _cluster_index, -1),
        cluster_column("distance", _not_nan_float, np.nan),
        cluster_column("tanh_score", _not_nan_float, np.nan),
        malicious,
    )
    return table, labels


def _cmd_eval(args) -> int:
    if args.out and args.pr_curve and Path(args.out).resolve() == Path(args.pr_curve).resolve():
        raise UsageError(f"eval --out and --pr-curve name the same file: {args.out}")
    if args.from_confusion:
        text = _json_text(scenario_metrics(_parse_confusion_tokens(args.from_confusion)))
        if args.out:
            _write_outputs({Path(args.out): text})
        print(text, end="")
        return 0
    if not args.verdicts:
        raise UsageError("eval needs --verdicts or --from-confusion")
    if not args.out:
        raise UsageError("eval --verdicts needs --out for the report")

    table, labels = _read_verdict_csv(Path(args.verdicts))
    report = build_eval_report(table, labels, thresholds={"source": "verdict csv"})
    outputs = {Path(args.out): _json_text(report)}
    if args.pr_curve:
        scores = verdict_scores(table)
        rows = [["scenario", "threshold", "precision", "recall"]]
        for scenario in present_scenarios(labels):
            for threshold, precision, recall in pr_curve(scores, labels, scenario):
                rows.append([scenario.value, repr(threshold), repr(precision), repr(recall)])
        outputs[Path(args.pr_curve)] = _csv_text(rows)
    _write_outputs(outputs)
    print(json.dumps(report["macro"], sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    config = _build_config(args)
    training, validation, test = (_read_partition(Path(args.data) / name) for name in PARTITION_CSVS)
    report = run_benchmark(training, validation, test, config)
    _write_outputs({Path(args.out): _json_text(report)})
    macro = {name: row.get("macro") for name, row in report["rows"].items()}
    print(json.dumps(macro, sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    config = _build_config(args)
    training, validation, test = (_read_partition(Path(args.data) / name) for name in PARTITION_CSVS)
    results = run_grid(training, validation, test, config)
    best = results[0] if results else None
    payload = {"schema_version": 1, "results": results, "best": best}
    _write_outputs({Path(args.out): _json_text(payload)})
    if best is not None and best["macro"] is not None:
        print(f"best macro-AUPRC {best['macro_auprc']:.3f} with {best['config']}")
    return 0


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    training, validation, test = (_read_partition(Path(args.data) / name) for name in PARTITION_CSVS)
    points = sensitivity_sweep(training, validation, test, args.sizes, config)
    rows = [["size", "macro_precision", "macro_recall", "macro_f1", "error"]]
    for point in points:
        macro = point["macro"] or {}
        cells = [point["size"], *(macro.get(key) for key in ("precision", "recall", "f1")), point["error"]]
        # str of a float is its repr
        rows.append(["" if cell is None else str(cell) for cell in cells])
    _write_outputs({Path(args.out): _csv_text(rows)})
    print(f"swept {len(points)} sizes")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="flowsieve",
        description="Two-step collaborative anomaly detection for smart-home flow telemetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--homes", type=int, default=SynthConfig.n_homes)
    p.add_argument(
        "--split", type=_split_days, default=SynthConfig.split_days, help="training,validation,test days"
    )
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse, cleanse and partition a dataset CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--split", type=_split_days, default="13,3,5")
    p.add_argument("--lab-network", type=int, default=LAB_NETWORK_ID)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("train", help="train both filters on an ingested dataset")
    p.add_argument("--data", required=True, help="directory produced by ingest")
    p.add_argument("--outdir", required=True)
    _add_config_options(p, unread=("global_tanh_threshold",))
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("calibrate", help="recompute thresholds on validation data")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("detect", help="classify flows with trained models")
    p.add_argument("--models", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["global-tanh", "per-cluster"], default="global-tanh")
    p.add_argument(
        "--tau",
        type=float,
        default=PipelineConfig.global_tanh_threshold,
        help="global tanh threshold in (0, 1) (default %(default)s); per-cluster mode ignores it",
    )
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="evaluate verdicts or raw confusion counts")
    p.add_argument("--verdicts")
    p.add_argument("--out")
    p.add_argument("--pr-curve")
    p.add_argument(
        "--from-confusion",
        nargs=4,
        metavar="K=V",
        help="compute metrics from tp= fn= fp= tn= counts",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="compare against one-step baselines")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    # bench's two-step row is scored by tanh distance, not by a verdict
    _add_config_options(p, unread=("global_tanh_threshold",))
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("grid", help="run the hyperparameter grid")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_options(p)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("sweep", help="training-size sensitivity sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--sizes", type=_sizes, required=True)
    p.add_argument("--out", required=True)
    _add_config_options(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file-system failure other than a missing file
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
