"""The benchmark's workloads.

Every workload drives the package's command line (``flowsieve.cli.main``)
in two parts:

- ``setup``: ``synth`` writes the capture, then the steps that prepare
  what the timed steps start from (partitions, models). Set-up is timed
  as a whole (``setup_s``) and its steps one by one.
- ``timed``: the steps the workload is about. They make up ``wall_s`` and
  are repeated, session after session, for the length of a run.

The end-to-end metrics named after a step (``train_s``,
``ingest_flows_per_s``, ``detect_flows_per_s``) come from the timed steps
where the workload times that step, and otherwise from the same step in
set-up: ``score-6d`` trains only in set-up, so that no fitting is timed.

Each ``train`` and ``bench`` step runs with a fixed autoencoder epoch
budget (``patience_max`` equal to ``epochs_max``, so early stopping never
fires). Where early stopping fires swings between about 50 and 200 epochs
from one capture seed to the next, which would make the work of a run
depend on its seed; with the budget fixed, another seed changes the data
but not the amount of work.

A workload may run on several captures, each generated from its own seed
(``capture_seeds``) and kept in its own directory: set-up prepares every
capture and a session runs the timed steps on each in turn. How much work
filter 2 does depends on the capture (the infrequent rows it clusters, the
Lloyd iterations to converge); on 1/1/1 days it swings by about 15% from
one seed to the next, so ``fit-3d`` times three captures per session and
reports their sum, which moves far less from seed to seed. The data path
of ``score-6d`` does the same work per flow on every seed and needs one.

There are two workloads, so that each run can be about a minute long:
on a shared host the speed of the same code drifts by a third over tens
of seconds, and only long runs average that out. ``fit-3d`` therefore
ends its retraining chain with ``bench``, which keeps the one-step
baselines and the ``experiments`` layer measured. The shares in each
``why`` are traced self times over the traced wall time of the timed
steps, as medians over seeds 1-3 (the ``traced`` section of
``BENCH_baseline.json``).
"""
from __future__ import annotations

from dataclasses import dataclass

CAPTURE = "capture.csv"
DATA = "data"
MODELS = "models"
# Capture j of a run is generated from seed + j * CAPTURE_SEED_STRIDE, so
# the first capture of every run is the one its seed names.
CAPTURE_SEED_STRIDE = 100_003
# Placeholders in a step's argv for the workload's --set overrides of
# ``train`` and of ``bench``.
CONFIG = "{config}"
BENCH_CONFIG = "{bench_config}"


@dataclass(frozen=True)
class Step:
    """One command-line call; ``argv`` may hold ``{seed}``, ``{split}``
    and ``CONFIG``."""

    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


SYNTH = Step(("synth", "--split", "{split}", "--out", CAPTURE, "--seed", "{seed}"))
INGEST = Step(("ingest", "--input", CAPTURE, "--outdir", DATA, "--split", "{split}"))
TRAIN = Step(("train", "--data", DATA, "--outdir", MODELS, "--seed", "{seed}", CONFIG))
DETECT = Step(("detect", "--models", MODELS, "--input", f"{DATA}/test.csv", "--out", "verdicts.csv"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    split: str
    # --set overrides for ``train``
    config: tuple[str, ...]
    # set-up steps after synth
    prepare: tuple[Step, ...]
    # set-up runs per untraced run; more where set-up is cheap, because a
    # set-up-only metric's median needs as many samples as time allows
    setup_repeats: int
    timed: tuple[Step, ...]
    # artifact whose macro-AUPRC the workload reports
    auprc_source: str
    # --set overrides for ``bench``
    bench_config: tuple[str, ...] = ()
    # captures per run, each set up and timed in turn
    captures: int = 1

    @property
    def setup(self) -> tuple[Step, ...]:
        return (SYNTH,) + self.prepare


def settings(**values: int) -> tuple[str, ...]:
    return tuple(part for key, value in values.items() for part in ("--set", f"{key}={value}"))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # seed 42, first capture: 6,558 flows; 1,248 / 1,370 / 2,101
        # training/validation/test
        Workload(
            name="fit-3d",
            why="ingest/train/detect/eval then bench on 3 captures of 1/1/1 days, k 2..20 (bench k<=5); "
            "traced: silhouette 29%, k-means 22%, isolation forest 14%, parse 11%, LOF 7%, autoencoder 6%",
            split="1,1,1",
            # the paper's k range 2..20; only the epoch budget is fixed
            config=settings(epochs_max=40, patience_max=40),
            prepare=(),
            setup_repeats=5,
            timed=(
                INGEST,
                TRAIN,
                DETECT,
                Step(("eval", "--verdicts", "verdicts.csv", "--out", "report.json")),
                Step(("bench", "--data", DATA, "--out", "bench.json", "--seed", "{seed}", BENCH_CONFIG)),
            ),
            auprc_source="report.json",
            # k up to 5 and 10 epochs in both the pipeline and the one-step
            # detectors; the paper's range would make bench 8 s of a session
            bench_config=settings(epochs_max=10, patience_max=10, k_max=5),
            captures=3,
        ),
        # seed 42: 16,981 flows; 1,248 / 1,370 / 8,346. The models are
        # fixed in set-up, so no fitting is timed.
        Workload(
            name="score-6d",
            why="data path, models fixed in set-up, 1/1/4 days, ingest + two detects + eval timed: "
            "parse 46%, inter-arrival 11%, verdict and report I/O 15% of traced time",
            split="1,1,4",
            config=settings(epochs_max=10, patience_max=10, k_max=4),
            prepare=(INGEST, TRAIN),
            setup_repeats=5,
            timed=(
                INGEST,
                DETECT,
                Step(
                    (
                        "detect", "--models", MODELS, "--input", f"{DATA}/test.csv",
                        "--out", "verdicts_per_cluster.csv", "--mode", "per-cluster",
                    )
                ),
                Step(("eval", "--verdicts", "verdicts.csv", "--out", "report.json", "--pr-curve", "pr.csv")),
            ),
            auprc_source="report.json",
        ),
    )
}

# Commands whose wall time minus their traced layer spans is reported as
# cli.<command>_self_s.
CLI_COMMANDS = ("ingest", "train", "detect", "eval", "bench")


def capture_seeds(workload: Workload, seed: int) -> list[int]:
    return [seed + j * CAPTURE_SEED_STRIDE for j in range(workload.captures)]


def step_argv(workload: Workload, step: Step, seed: int) -> list[str]:
    argv: list[str] = []
    for part in step.argv:
        if part == CONFIG:
            argv += workload.config
        elif part == BENCH_CONFIG:
            argv += workload.bench_config
        else:
            argv.append(part.format(seed=seed, split=workload.split))
    return argv
