"""flowsieve benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit-3d --seed 42 --seconds 55 --trace 0

Run from the root of a source checkout. Everything runs in this process
through the operator command line (``flowsieve.cli.main``). Set-up runs
the workload's set-up steps (``synth`` and what the timed steps start
from) on each of the workload's captures, several times, and the run
reports the median as ``setup_s``. A session runs the timed steps on each
capture in turn (see ``workloads.py``). Sessions repeat, with the set-up
repeats spread evenly between them, until set-up and sessions together
would exceed ``--seconds`` (at least one session); the run reports
medians over the sessions, and for throughputs over every call of the
step. On a shared host the same work can take a third longer from one
minute to the next, so a run is as long as the series of runs allows,
and medians move less from run to run than a single measurement or the
fastest one. Every session's outputs are checked (see ``checks.py``);
the last line of standard output is the JSON result.

With ``--trace 1`` set-up runs once, and untraced and traced sessions
alternate for ``--seconds``: the tracer (``tracer.py``) is installed for
each traced session only. The run reports the per-layer metrics of the
traced sessions plus ``trace.overhead_share``, the traced over the
untraced median session wall time, minus one. End-to-end metrics come
only from untraced runs.

Every run pins BLAS and OpenMP to one thread before NumPy loads: float
sums in the silhouette scores depend on the thread count, and the
recorded references assume one thread.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from workloads import CAPTURE, CLI_COMMANDS, WORKLOADS, Step, Workload, capture_seeds, step_argv  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# No new session starts after this many seconds, so a run ends well
# inside three minutes even on a slow machine.
RUN_BUDGET_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_s": "s",
    "ingest_flows_per_s": "flows/s",
    "detect_flows_per_s": "flows/s",
    "peak_rss_mb": "MiB",
    "macro_auprc": "ratio",
}


class RunError(Exception):
    """The run cannot produce a result (missing sources, failed set-up)."""


class Tally:
    """Steps and checks attempted, and those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def load_cli():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "flowsieve" / "cli.py").is_file():
        raise RunError(f"no flowsieve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from flowsieve import cli

    if Path(cli.__file__).resolve().parent != (SRC / "flowsieve").resolve():
        raise RunError(f"flowsieve was imported from {cli.__file__}, not from {SRC}")
    return cli


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
    }


def wrappers_installed() -> bool:
    """True if any function of the package is a tracing wrapper."""
    for name, module in list(sys.modules.items()):
        if name == "flowsieve" or name.startswith("flowsieve."):
            if any(getattr(v, "__perfbench_traced__", False) for v in vars(module).values()):
                return True
    return False


def capture_dir(workdir: Path, index: int) -> Path:
    return workdir / f"capture{index}"


def run_steps(cli, workload: Workload, steps: tuple[Step, ...], seed: int, workdir: Path, tally: Tally,
              tracer=None, after_step=None):
    """Run ``steps`` once on every capture, in order, each in its own
    directory; returns [(command, wall s)] or None if a step failed."""
    walls = []
    for capture, capture_seed in enumerate(capture_seeds(workload, seed)):
        os.chdir(capture_dir(workdir, capture))
        if not _run_capture_steps(cli, workload, steps, capture_seed, tally, tracer, after_step, walls):
            return None
    return walls


def _run_capture_steps(cli, workload, steps, seed, tally, tracer, after_step, walls) -> bool:
    for step in steps:
        if tracer is not None:
            tracer.begin_step(len(walls))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(step_argv(workload, step, seed))
            wall = time.perf_counter() - start
        if not tally.check(code == 0, f"step {step.command} exited {code}: {err.getvalue().strip()}"):
            return False
        walls.append((step.command, wall))
        if after_step is not None:
            after_step(step)
    return True


def checked_outputs(workload: Workload, workdir: Path) -> list[dict]:
    return [checks.checked_outputs(workload, capture_dir(workdir, i)) for i in range(workload.captures)]


def set_up(cli, workload: Workload, seed: int, workdir: Path, tally: Tally, runs: list, digests: list) -> None:
    """Run the set-up steps once; appends their walls to ``runs``."""
    walls = run_steps(cli, workload, workload.setup, seed, workdir, tally)
    if walls is None:
        raise RunError(f"set-up failed: {tally.failures[-1]}")
    runs.append(walls)
    digests.append(tuple(checks.sha256_file(capture_dir(workdir, i) / CAPTURE) for i in range(workload.captures)))


def measure(cli, workload, seed, workdir, seconds, setup_repeats, started, tally, tracer=None, after_step=None):
    """Set up ``setup_repeats`` times and repeat the timed steps.

    Set-up and sessions together fill ``seconds``: a session starts only
    if it and the set-up repeats still due are expected to end in time;
    there is at least one session, or with a tracer at least two, as
    untraced and traced sessions alternate. The set-up repeats are spread
    evenly over the run, so that set-up and timed steps are measured under
    the same host load. Every set-up repeat rewrites the same files, and
    each session's outputs are checked against the first session's.
    Returns (set-up walls, sessions).
    """
    setup_runs: list[list] = []
    digests: list[tuple[str, ...]] = []
    sessions: list[dict] = []
    traced_count = 0
    session_time = 0.0
    begin = time.perf_counter()
    set_up(cli, workload, seed, workdir, tally, setup_runs, digests)
    while True:
        traced = tracer is not None and len(sessions) % 2 == 1
        start = time.perf_counter()
        if traced:
            tracer.begin_session(traced_count)
            tracer.install()
            try:
                walls = run_steps(cli, workload, workload.timed, seed, workdir, tally, tracer)
            finally:
                tracer.uninstall()
            tally.check(not wrappers_installed(), "tracing wrappers left installed after a traced session")
        else:
            walls = run_steps(cli, workload, workload.timed, seed, workdir, tally, None, after_step)
        if walls is None:
            break
        session = {"traced": traced, "walls": walls, "checked": checked_outputs(workload, workdir)}
        if traced:
            session["layers"] = tracer.layer_metrics(traced_count, walls)
            traced_count += 1
        if sessions:
            tally.check(
                session["checked"] == sessions[0]["checked"],
                f"session {len(sessions)} outputs differ from session 0: "
                f"{checks.differences(sessions[0]['checked'], session['checked'])}",
            )
        sessions.append(session)
        session_time += time.perf_counter() - start
        now = time.perf_counter()
        elapsed = now - begin
        setup_due = (setup_repeats - len(setup_runs)) * _median(_total(walls) for walls in setup_runs)
        enough = tracer is None or traced_count > 0
        if enough and (elapsed + session_time / len(sessions) + setup_due > seconds
                       or now - started > RUN_BUDGET_S):
            break
        if len(setup_runs) < setup_repeats and elapsed >= len(setup_runs) / setup_repeats * seconds:
            set_up(cli, workload, seed, workdir, tally, setup_runs, digests)
    while sessions and len(setup_runs) < setup_repeats:
        set_up(cli, workload, seed, workdir, tally, setup_runs, digests)
    if setup_repeats > 1:
        tally.check(len(set(digests)) == 1, "set-up captures differ between repeats")
    return setup_runs, sessions


def _median(values) -> float:
    return statistics.median(list(values))


def _total(walls, command=None) -> float:
    return sum(w for c, w in walls if command is None or c == command)


def end_to_end(workload: Workload, sessions: list[dict], setup_runs: list[list]) -> dict:
    """Times are medians over sessions (or set-up repeats) of the sum over
    all captures. Throughputs are medians over every call of the step, of
    the flows it handled over its wall time: a call takes a fraction of a
    second, so a session holds a few of them. A step's metric comes from
    the timed sessions if the workload times that step, else from the
    set-up repeats."""

    def runs_of(command: str) -> tuple[list[list], int]:
        if command in {step.command for step in workload.timed}:
            return [s["walls"] for s in sessions], len(workload.timed)
        return setup_runs, len(workload.setup)

    def throughput(command: str, flows) -> float:
        runs, steps = runs_of(command)
        return _median(
            flows(checked[index // steps]) / wall
            for walls in runs
            for index, (name, wall) in enumerate(walls)
            if name == command
        )

    checked = sessions[0]["checked"]
    return {
        "setup_s": _median(_total(walls) for walls in setup_runs),
        "wall_s": _median(_total(s["walls"]) for s in sessions),
        "train_s": _median(_total(walls, "train") for walls in runs_of("train")[0]),
        "ingest_flows_per_s": throughput("ingest", lambda capture: capture["rows_read"]),
        # every detect step classifies the capture's test partition
        "detect_flows_per_s": throughput("detect", lambda capture: capture["partition_rows"]["test"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "macro_auprc": statistics.fmean(checks.macro_auprc(workload, capture) for capture in checked),
    }


def per_layer_units() -> dict[str, str]:
    import tracer

    units = {name: "s" for name in tracer.SELF_TIMES}
    units.update({name: "count" for name in tracer.COUNTS})
    units["autoencoder.epoch_s"] = "s"
    units["pipeline.infrequent_share"] = "ratio"
    units.update({f"cli.{command}_self_s": "s" for command in CLI_COMMANDS})
    units["trace.overhead_share"] = "ratio"
    return units


def per_layer(sessions: list[dict], tally: Tally) -> dict:
    import tracer

    layers = [s["layers"] for s in sessions if s["traced"]]
    for index, other in enumerate(layers[1:], start=1):
        same = all(other[name] == layers[0][name] for name in tracer.COUNTS)
        tally.check(same, f"traced session {index} counts differ from traced session 0")
    out = {}
    for name in per_layer_units():
        if name in tracer.COUNTS or name == "pipeline.infrequent_share":
            out[name] = layers[0][name]
        elif name != "trace.overhead_share":
            out[name] = _median(layer.get(name, 0.0) for layer in layers)
    traced_wall = _median(_total(s["walls"]) for s in sessions if s["traced"])
    untraced_wall = _median(_total(s["walls"]) for s in sessions if not s["traced"])
    out["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    return out


def compare_with_reference(workload, seed, env, checked, workdir, tally: Tally) -> str:
    for index, capture in enumerate(checked):
        failures = checks.sanity_failures(workload, capture, capture_dir(workdir, index))
        tally.check(not failures, f"capture {index}: " + "; ".join(failures))
    reference = checks.reference_for(checks.load_references(), workload, seed, env)
    if reference is None:
        return "none recorded for this seed and environment"
    tally.check(len(reference) == len(checked), "the reference has another number of captures")
    for index, (expected, actual) in enumerate(zip(reference, checked)):
        for key in sorted(set(expected) | set(actual)):
            tally.check(expected.get(key) == actual.get(key), f"capture {index}: {key} differs from the reference")
    return "compared"


def write_reference(workload, seed, env, checked, digests) -> None:
    references = checks.load_references()
    references.setdefault(workload.name, {})[str(seed)] = {
        "environment": checks.comparable_environment(env),
        "checked": checked,
        "digests": digests,
    }
    checks.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run(args, workload: Workload | None = None, after_step=None) -> dict:
    """One benchmark run; returns the result object.

    ``workload`` replaces the named workload and ``after_step`` is called
    with each untraced timed step after it ran; both serve the self-tests.
    """
    started = time.perf_counter()
    workload = workload or WORKLOADS[args.workload]
    cli = load_cli()
    env = environment(args.seed)
    tally = Tally()
    workdir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    for index in range(workload.captures):
        capture_dir(workdir, index).mkdir(parents=True)
    home = Path.cwd()
    try:
        spans = None
        if args.trace:
            import tracer

            spans = tracer.Tracer()
        setup_runs, sessions = measure(cli, workload, args.seed, workdir, args.seconds,
                                       1 if args.trace else workload.setup_repeats, started, tally, spans, after_step)
        if not sessions:
            raise RunError("; ".join(tally.failures))
        checked = sessions[0]["checked"]
        digests = [checks.info_digests(capture_dir(workdir, i)) for i in range(workload.captures)]
        reference = compare_with_reference(workload, args.seed, env, checked, workdir, tally)
        record = {"environment": env, "workload": workload.name, "reference": reference,
                  "checked": checked, "digests": digests, "setup_runs": setup_runs,
                  "sessions": [s["walls"] for s in sessions if not s["traced"]]}
        if args.trace:
            if not any(s["traced"] for s in sessions):
                raise RunError("; ".join(tally.failures))
            metrics = per_layer(sessions, tally)
            units = per_layer_units()
            record["traced_sessions"] = [s["walls"] for s in sessions if s["traced"]]
            record["spans"] = spans.span_records()
        else:
            metrics = end_to_end(workload, sessions, setup_runs)
            units = END_TO_END_UNITS
        if args.write_reference:
            write_reference(workload, args.seed, env, checked, digests)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    record["metrics"] = metrics
    record["tracer_imported"] = "tracer" in sys.modules
    record["failures"] = tally.failures
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8"
    )
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(setup_runs)} set-ups, {len(sessions)} sessions, reference {reference}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("partition_rows " + json.dumps([capture["partition_rows"] for capture in checked], sort_keys=True))
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    print(f"failed_share {tally.failed / tally.attempted:.6g} ratio ({tally.failed} of {tally.attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's checked outputs as the reference for its seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
