"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workloads fit-3d,score-6d --seeds 1-10 \
        --seconds 25 [--trace 0] [--out perfbench/BENCH_baseline.json --section untraced]

Runs ``run.py`` once per workload and seed, one run at a time, and reports
for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median. Traced runs
also report each layer's share: the median self time of a layer metric
over the sum of the median self times of all of them, which is the traced
wall time of the timed steps. With ``--out`` the summary is written into
that JSON file under ``--section``, keeping its other sections.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result and the environment it recorded."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    environment = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), environment


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as stream:
        for line in stream:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def layer_shares(metrics: dict) -> dict[str, float]:
    """Each self-time metric's share of the traced wall time."""
    self_times = {name: m["median"] for name, m in metrics.items()
                  if name.endswith("_s") and name not in ("autoencoder.epoch_s",)}
    total = sum(self_times.values())
    return {name: value / total for name, value in sorted(self_times.items(), key=lambda kv: -kv[1]) if value}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--section", default="untraced")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    summary: dict = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "cpu": cpu_model(), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        results = [result for result, _ in runs]
        environment = dict(runs[0][1])
        environment.pop("seed")
        summary["environment"] = environment
        metrics = {}
        for name, first in results[0]["metrics"].items():
            metrics[name] = {"unit": first["unit"], **summarize([r["metrics"][name]["value"] for r in results])}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        if args.trace:
            shares = layer_shares(metrics)
            summary["workloads"][workload]["shares"] = shares
            print(f"{workload:10s} shares " + ", ".join(f"{k} {v:.3f}" for k, v in list(shares.items())[:8]))
        for name, m in metrics.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:10s} {name:22s} median {m['median']:.6g} {m['unit']:8s} spread {spread}", flush=True)
        print(f"{workload:10s} correct {summary['workloads'][workload]['correct']} "
              f"failed {summary['workloads'][workload]['failed']} of {summary['workloads'][workload]['attempted']}",
              flush=True)
    if args.out:
        out = Path(args.out)
        document = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        document[args.section] = summary
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
