"""Layer spans and counters, recorded from outside the package.

``Tracer.install`` replaces the public functions that do each layer's work
with wrappers that record a span (name, start, end, parent) and update
counters. A function is patched in its defining module and in every
``flowsieve`` module that imported it by name (for example ``cli`` holds
its own references to ``run_benchmark`` and ``pr_curve``), so calls through a
module attribute and calls through an imported name are both covered.
Per-row and per-batch helpers are left alone: their time is charged to
the calling function, which belongs to the same layer.

Spans stay in memory and are written out when the run ends. Only the
traced run imports this module; the untraced run measures the package
unmodified.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Self time of each wrapped function is charged to the metric named here.
TIMED: dict[str, dict[str, str]] = {
    "ingest": {
        "parse_dataset": "ingest.parse_s",
        "compute_iat": "ingest.iat_s",
        "compute_pool_features": "ingest.pool_s",
        "preprocess": "ingest.preprocess_s",
        "partition_chronologically": "ingest.partition_s",
        "sanitize_training": "ingest.sanitize_s",
        "write_dataset": "ingest.write_s",
    },
    "encode": {
        "fit_recipe": "encode.fit_recipe_s",
        "apply_recipe": "encode.apply_s",
        "fit_pca": "encode.fit_pca_s",
        "project_features": "encode.project_s",
    },
    "autoencoder": {
        "train_filter1": "autoencoder.fit_s",
        "set_frequency_threshold": "autoencoder.fit_s",
        "compute_mse": "autoencoder.mse_s",
    },
    "clustering": {
        "train_filter2": "clustering.fit_s",
        "kmeans_fit": "clustering.kmeans_s",
        "silhouette_mean": "clustering.silhouette_s",
        "set_cluster_thresholds": "clustering.threshold_s",
        "score_and_classify": "clustering.score_s",
    },
    "pipeline": {
        "train_pipeline": "pipeline.train_self_s",
        "recalibrate": "pipeline.train_self_s",
        "classify_flows": "pipeline.classify_self_s",
        "classify_matrix": "pipeline.classify_self_s",
        "evaluate_pipeline": "pipeline.classify_self_s",
    },
    "metrics": {
        "build_eval_report": "metrics.report_s",
        "verdict_scores": "metrics.report_s",
        "auprc": "metrics.auprc_s",
        "pr_curve": "metrics.pr_curve_s",
    },
    "baselines": {
        "score_kmeans_one_step": "baselines.kmeans_s",
        "score_lof": "baselines.lof_s",
        "score_ae_one_step": "baselines.ae_s",
        "score_if": "baselines.if_s",
    },
    "experiments": {
        "run_benchmark": "experiments.bench_self_s",
    },
}

COUNTS = (
    "ingest.rows_parsed",
    "ingest.rows_rejected",
    "encode.rows_encoded",
    "autoencoder.fits",
    "autoencoder.redundant_fits",
    "autoencoder.epochs",
    "autoencoder.mse_rows",
    "clustering.fits",
    "clustering.kmeans_calls",
    "clustering.redundant_kmeans_calls",
    "clustering.silhouette_calls",
    "clustering.silhouette_rows",
    "clustering.k_star",
    "clustering.scored_rows",
)
RATIOS = ("autoencoder.epoch_s", "pipeline.infrequent_share")
SELF_TIMES = tuple(dict.fromkeys(m for funcs in TIMED.values() for m in funcs.values()))

# Configuration fields train_filter1 reads.
_FILTER1_FIELDS = ("epochs_max", "delta_min", "patience_max", "batch_size", "rng_seed")


def _array(matrix) -> np.ndarray:
    return matrix if isinstance(matrix, np.ndarray) else matrix.values


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
            h.update(repr((part.shape, part.dtype.str)).encode())
            h.update(memoryview(part).cast("B"))
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.digest()


class Tracer:
    def __init__(self) -> None:
        # [name, metric, start, end, parent, session, step]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.session = -1
        self.step = -1
        self.counts: dict[str, float] = {}
        self._seen: dict[str, set] = {}
        self._rows = [0, 0]  # classified rows, infrequent rows

    # -- session and step scopes ---------------------------------------

    def begin_session(self, session: int) -> None:
        self.session = session
        self.counts = dict.fromkeys(COUNTS, 0)
        self._rows = [0, 0]

    def begin_step(self, step: int) -> None:
        """Redundant work is counted within one command, as one process
        would see it."""
        self.step = step
        self._seen = defaultdict(set)

    def _redundant(self, kind: str, key: bytes) -> int:
        seen = self._seen[kind]
        if key in seen:
            return 1
        seen.add(key)
        return 0

    # -- counters, by wrapped function ----------------------------------

    def _before(self, name: str, bound: inspect.BoundArguments) -> None:
        a = bound.arguments
        c = self.counts
        if name == "train_filter1":
            config = a["config"]
            key = _digest(
                _array(a["training"]),
                _array(a["validation"]),
                *(getattr(config, f) for f in _FILTER1_FIELDS),
            )
            c["autoencoder.fits"] += 1
            c["autoencoder.redundant_fits"] += self._redundant(name, key)
        elif name == "kmeans_fit":
            key = _digest(_array(a["matrix"]), a["k"], a["seed"], a["restarts"])
            c["clustering.kmeans_calls"] += 1
            c["clustering.redundant_kmeans_calls"] += self._redundant(name, key)
        elif name == "silhouette_mean":
            c["clustering.silhouette_calls"] += 1
            c["clustering.silhouette_rows"] += len(a["assignments"])

    def _after(self, name: str, result) -> None:
        c = self.counts
        if name == "parse_dataset":
            c["ingest.rows_parsed"] += len(result[0])
            c["ingest.rows_rejected"] += result[1].rows_rejected
        elif name == "apply_recipe":
            c["encode.rows_encoded"] += result.n_rows
        elif name == "train_filter1":
            c["autoencoder.epochs"] += len(result.training_history)
        elif name == "compute_mse":
            c["autoencoder.mse_rows"] += len(result)
        elif name == "train_filter2":
            # k* of the session's first filter-2 fit: the pipeline's own
            # model, not a one-step baseline's
            if not c["clustering.fits"]:
                c["clustering.k_star"] = result.k_star
            c["clustering.fits"] += 1
        elif name == "score_and_classify":
            c["clustering.scored_rows"] += len(result)
        elif name == "classify_matrix":
            self._rows[0] += len(result)
            self._rows[1] += sum(1 for verdict in result if not verdict.frequent)

    # -- patching ---------------------------------------------------------

    def _wrap(self, func, name: str, metric: str):
        tracer = self
        needs_args = name in ("train_filter1", "kmeans_fit", "silhouette_mean")
        signature = inspect.signature(func) if needs_args else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._before(name, bound)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, metric, time.perf_counter(), None, parent, tracer.session, tracer.step]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            tracer._after(name, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"flowsieve.{layer}") for layer in TIMED]
        importlib.import_module("flowsieve.cli")
        package = [m for n, m in sys.modules.items() if n == "flowsieve" or n.startswith("flowsieve.")]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, metric in TIMED[layer].items():
                original = getattr(module, name)
                wrapper = self._wrap(original, name, metric)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self, session: int, step_walls: list[tuple[str, float]]) -> dict[str, float]:
        """Per-layer metrics of one traced session.

        ``step_walls`` lists (command, wall seconds) per step, in order. A
        span's self time is its duration minus its direct children's; the
        self times of a step's spans add up to the duration of its
        top-level spans, and cli.<command>_self_s is the rest of the step.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == session]
        children: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s[4] >= 0:
                children[s[4]] += s[3] - s[2]
        out = dict.fromkeys(SELF_TIMES, 0.0)
        top = defaultdict(float)
        for i, s in spans:
            duration = s[3] - s[2]
            out[s[1]] += duration - children[i]
            if s[4] < 0:
                top[s[6]] += duration
        for step, (command, wall) in enumerate(step_walls):
            key = f"cli.{command}_self_s"
            out[key] = out.get(key, 0.0) + wall - top[step]
        out.update(self.counts)
        epochs = self.counts["autoencoder.epochs"]
        out["autoencoder.epoch_s"] = out["autoencoder.fit_s"] / epochs if epochs else 0.0
        classified, infrequent = self._rows
        out["pipeline.infrequent_share"] = infrequent / classified if classified else 0.0
        return out

    def span_records(self) -> list[dict]:
        keys = ("name", "metric", "start", "end", "parent", "session", "step")
        return [dict(zip(keys, s)) for s in self.spans]

