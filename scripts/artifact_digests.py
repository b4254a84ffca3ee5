"""Digest every artifact and every stdout of the synthetic CLI chain.

    python scripts/artifact_digests.py [--src DIR] --seed N --split A,B,C

runs, in a temporary directory and with one BLAS thread,

    synth -> ingest -> ingest of the capture as a raw export
    -> train -> train with silhouette_sample_max=200
    -> train with silhouette_sample_max=2
    -> train with pctl_frequent=70 pctl_known=90
    -> calibrate (of a copy of the models, and of the pctl models)
    -> detect (global-tanh, per-cluster and global-tanh with --tau 0.6)
    -> eval --pr-curve of each -> eval --from-confusion (with a 0/0 case)
    -> bench -> bench with silhouette_sample_max=200
    -> grid (epochs_max=2 patience_max=2 k_max=3) -> sweep --sizes 200,600

with the package under DIR/src (default: this checkout), and prints
"<sha256>  <path>" for every file the chain wrote and for the stdout of
every step. The raw export, raw.csv, is the capture with the cells
ingest computes left blank (inter-arrival times, pool counters and
partition tags), so its ingest into data-raw/ copies every record it
keeps. A fit on more infrequent rows than `silhouette_sample_max` scores
its silhouettes on a seeded sample; no sweep of a synthetic capture of a
few days has that many, so the two steps with a cap of 200 take that
path. A sample of 2 rows holds one cluster at some k, and is extended by
the rows of the clusters it missed, so the step with a cap of 2 takes
that path too. `calibrate` recomputes the thresholds at the percentiles
the models record, so each calibrated copy is digested as the models it
was copied from. Two checkouts that write the same bytes print the same
lines, so `diff` of two outputs checks a change against its parent, or
a rerun against itself.

Each step runs in a session of its own. When a process of that session
is still running a second after the step exited, such as a forked worker
the step failed to reap, the script kills the session and exits non-zero
naming the step.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CHAIN = [
    ("synth", ["synth", "--split", "{split}", "--seed", "{seed}", "--out", "capture.csv"]),
    ("ingest", ["ingest", "--input", "capture.csv", "--outdir", "data", "--split", "{split}"]),
    # ingest of raw.csv, written from capture.csv first
    ("ingest-raw", ["ingest", "--input", "raw.csv", "--outdir", "data-raw", "--split", "{split}"]),
    ("train", ["train", "--data", "data", "--outdir", "models"]),
    (
        "train-sampled",
        ["train", "--data", "data", "--outdir", "models-sampled", "--set", "silhouette_sample_max=200"],
    ),
    (
        "train-extended",
        ["train", "--data", "data", "--outdir", "models-extended", "--set", "silhouette_sample_max=2"],
    ),
    (
        "train-pctl",
        ["train", "--data", "data", "--outdir", "models-pctl",
         "--set", "pctl_frequent=70", "--set", "pctl_known=90"],
    ),
    # calibrate loads both models of a copy (see CALIBRATED) and writes them back
    ("calibrate", ["calibrate", "--data", "data", "--models", "calibrated"]),
    ("calibrate-pctl", ["calibrate", "--data", "data", "--models", "calibrated-pctl"]),
    ("detect-global", ["detect", "--models", "models", "--input", "data/test.csv", "--out", "global.csv"]),
    (
        "detect-per-cluster",
        ["detect", "--models", "models", "--input", "data/test.csv", "--out", "cluster.csv",
         "--mode", "per-cluster"],
    ),
    (
        "detect-tau",
        ["detect", "--models", "models", "--input", "data/test.csv", "--out", "tau.csv", "--tau", "0.6"],
    ),
    ("eval-global", ["eval", "--verdicts", "global.csv", "--out", "global.json", "--pr-curve", "global-pr.csv"]),
    (
        "eval-per-cluster",
        ["eval", "--verdicts", "cluster.csv", "--out", "cluster.json", "--pr-curve", "cluster-pr.csv"],
    ),
    ("eval-tau", ["eval", "--verdicts", "tau.csv", "--out", "tau.json", "--pr-curve", "tau-pr.csv"]),
    (
        "confusion",
        ["eval", "--from-confusion", "tp=3032", "fn=48", "fp=315", "tn=22157", "--out", "confusion.json"],
    ),
    (
        "confusion-undefined",
        ["eval", "--from-confusion", "tp=0", "fn=0", "fp=0", "tn=5", "--out", "confusion-undefined.json"],
    ),
    ("bench", ["bench", "--data", "data", "--out", "bench.json"]),
    (
        "bench-sampled",
        ["bench", "--data", "data", "--out", "bench-sampled.json", "--set", "silhouette_sample_max=200"],
    ),
    (
        "grid",
        ["grid", "--data", "data", "--out", "grid.json",
         "--set", "epochs_max=2", "--set", "patience_max=2", "--set", "k_max=3"],
    ),
    ("sweep", ["sweep", "--data", "data", "--sizes", "200,600", "--out", "sweep.csv"]),
]


# The models directory each calibrate step copies before it rewrites the copy.
CALIBRATED = {"calibrate": ("models", "calibrated"), "calibrate-pctl": ("models-pctl", "calibrated-pctl")}

# Columns a raw export leaves blank: ingest computes them.
RAW_BLANK_COLUMNS = (
    "inter_arrival_time_milliseconds",
    "same_dest_port_count_pool",
    "same_dest_IP_count_pool",
    "partition",
)


def write_raw_export(capture: Path, target: Path) -> None:
    """Copy capture to target with the RAW_BLANK_COLUMNS cells blank."""
    with open(capture, newline="", encoding="utf-8") as stream:
        header, *rows = csv.reader(stream)
    blank = [header.index(name) for name in RAW_BLANK_COLUMNS]
    for row in rows:
        for i in blank:
            row[i] = ""
    with open(target, "w", newline="", encoding="utf-8") as stream:
        csv.writer(stream, lineterminator="\n").writerows([header, *rows])


def run_chain(src: Path, seed: int, split: str, workdir: Path) -> None:
    """Run every step in workdir; each step's stdout goes to stdout/<step>."""
    env = {**os.environ, "PYTHONPATH": str(src / "src"), "OPENBLAS_NUM_THREADS": "1"}
    (workdir / "stdout").mkdir()
    for step, argv in CHAIN:
        argv = [arg.format(seed=seed, split=split) for arg in argv]
        if step in CALIBRATED:  # it rewrites its models in place
            source, copy = CALIBRATED[step]
            shutil.copytree(workdir / source, workdir / copy)
        elif step == "ingest-raw":
            write_raw_export(workdir / "capture.csv", workdir / "raw.csv")
        run_step(step, [sys.executable, "-m", "flowsieve.cli", *argv], workdir, env)


def run_step(step: str, command: list[str], workdir: Path, env: dict) -> None:
    """Run one step in a session of its own; exit naming the step if it
    fails or leaves a process of its session running.

    The step writes to files, not pipes, so a process it leaves behind
    holding them open cannot stall this script."""
    with open(workdir / "stdout" / step, "wb") as out, tempfile.TemporaryFile() as err:
        with subprocess.Popen(
            command, cwd=workdir, env=env, stdout=out, stderr=err, start_new_session=True
        ) as child:
            code = child.wait()
        # the step led its session, whose process group id is its pid
        left_running = session_left_running(child.pid)
        if code != 0:
            err.seek(0)
            sys.exit(f"{step} exited {code}: {err.read().decode(errors='replace')}")
    if left_running:
        sys.exit(f"{step} left a process of its session running; the session was killed")


def session_left_running(pgid: int, grace: float = 1.0) -> bool:
    """Whether a process of process group `pgid` is still running after
    `grace` seconds; if one is, the group is killed."""
    deadline = time.monotonic() + grace
    try:
        while True:
            os.killpg(pgid, 0)
            if time.monotonic() >= deadline:
                os.killpg(pgid, signal.SIGKILL)
                return True
            time.sleep(0.05)
    except ProcessLookupError:  # no process of the group is left
        return False


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ holds the package (default: this one)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--split", default="1,1,1", help="training,validation,test days")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        workdir = Path(tmp)
        run_chain(args.src.resolve(), args.seed, args.split, workdir)
        for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(workdir).as_posix()}")


if __name__ == "__main__":
    main()
