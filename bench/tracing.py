"""Span tracing for the benchmark, installed from outside the package.

Each wrapper replaces one public function at the name its caller looks it up
by: ``from .x import y`` binds ``y`` in the importing module, so
``matchltr.train.accumulate_gradient`` and ``matchltr.cli.save_dataset`` are
wrapped where the calls are made.  Spans are kept in memory as
``(id, name, start, end, parent, run_id)`` and written out when the run ends.
A span's self time is its duration minus the part of it that its child spans
cover; the self times of all spans plus the time no top-level span covers add
up to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("simulate", "train", "ranker", "metrics", "core", "verify", "cli")

# (module, attribute, span name); the first part of a span name is its layer
CALL_SITES = (
    ("matchltr.cli", "synth_preferences", "simulate.synth_preferences"),
    ("matchltr.cli", "make_folds", "simulate.make_folds"),
    ("matchltr.cli", "exposure_from_popularity", "simulate.exposure_from_popularity"),
    ("matchltr.cli", "sample_dataset", "simulate.sample_dataset"),
    ("matchltr.cli", "save_preferences", "simulate.save_preferences"),
    ("matchltr.cli", "save_dataset", "simulate.save_dataset"),
    ("matchltr.cli", "load_dataset", "simulate.load_dataset"),
    ("matchltr.cli", "load_preferences", "simulate.load_preferences"),
    ("matchltr.cli", "train_model", "train.train_model"),
    ("matchltr.cli", "save_training_log", "train.save_training_log"),
    ("matchltr.cli", "test_dcg_records", "train.test_dcg_records"),
    ("matchltr.cli", "save_model", "ranker.save_model"),
    ("matchltr.cli", "load_model", "ranker.load_model"),
    ("matchltr.cli", "save_eval_report", "metrics.save_eval_report"),
    ("matchltr.cli", "load_eval_report", "metrics.load_eval_report"),
    ("matchltr.train", "make_folds", "simulate.make_folds"),
    ("matchltr.train", "exposure_from_popularity", "simulate.exposure_from_popularity"),
    ("matchltr.train", "sample_dataset", "simulate.sample_dataset"),
    ("matchltr.train", "train_model", "train.train_model"),
    ("matchltr.train", "validation_metric", "train.validation_metric"),
    ("matchltr.train", "test_dcg_records", "train.test_dcg_records"),
    ("matchltr.train", "accumulate_gradient", "ranker.accumulate_gradient"),
    ("matchltr.train", "score_matrix", "ranker.score_matrix"),
    ("matchltr.train", "estimate_metric", "metrics.estimate_metric"),
    ("matchltr.train", "rank_candidates", "metrics.rank_candidates"),
    ("matchltr.train", "dcg_at_k", "metrics.dcg"),
    ("matchltr.train", "dcg_from_gains", "metrics.dcg"),
    ("matchltr.metrics", "rank_candidates", "metrics.rank_candidates"),
    ("matchltr.verify", "check_instance", "verify.check_instance"),
    ("matchltr.verify", "expected_metric_exact", "metrics.expected_metric_exact"),
    ("matchltr.verify", "metric_ground_truth", "metrics.metric_ground_truth"),
)

# per-layer metrics that are inclusive span durations, by span name
DURATIONS = {
    "simulate.synth_preferences_s": "simulate.synth_preferences",
    "simulate.sample_dataset_s": "simulate.sample_dataset",
    "simulate.save_dataset_s": "simulate.save_dataset",
    "simulate.save_preferences_s": "simulate.save_preferences",
    "simulate.load_dataset_s": "simulate.load_dataset",
    "simulate.load_preferences_s": "simulate.load_preferences",
    "train.prepare_s": "train.prepare",
    "train.validation_s": "train.validation_metric",
    "train.test_dcg_s": "train.test_dcg_records",
    "ranker.accumulate_gradient_s": "ranker.accumulate_gradient",
    "ranker.score_matrix_s": "ranker.score_matrix",
    "ranker.save_model_s": "ranker.save_model",
    "ranker.load_model_s": "ranker.load_model",
    "metrics.estimate_metric_s": "metrics.estimate_metric",
    "metrics.rank_candidates_s": "metrics.rank_candidates",
    "metrics.dcg_s": "metrics.dcg",
    "metrics.expected_metric_exact_s": "metrics.expected_metric_exact",
    "metrics.metric_ground_truth_s": "metrics.metric_ground_truth",
    "verify.check_instance_s": "verify.check_instance",
}

# per-layer metrics that count the spans of one name
CALLS = {
    "train.validation_calls": "train.validation_metric",
    "ranker.accumulate_gradient_calls": "ranker.accumulate_gradient",
    "core.ranked_lists": "core.from_indices",
    "verify.instances": "verify.check_instance",
}

# per-layer metrics kept as counters by the wrappers: (counter, unit)
COUNTERS = {
    "simulate.dataset_rows": ("dataset_rows", "count"),
    "simulate.dataset_mb": ("dataset_mb", "MB"),
    "simulate.preferences_mb": ("preferences_mb", "MB"),
    "train.epochs": ("epochs", "count"),
    "verify.failures": ("failures", "count"),
}

MB = 1e6


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans as [id, name, start, first_grad_seen]
        self._next_id = 0

    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), False]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((frame[0], frame[1], frame[2], end, parent, self.run_id))

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            if name == "ranker.accumulate_gradient":
                self._mark_prepare_end()
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _mark_prepare_end(self) -> None:
        """Close a ``train.prepare`` span at the first gradient call of a run."""
        if not self._stack or self._stack[-1][1] != "train.train_model":
            return
        owner = self._stack[-1]
        if owner[3]:
            return
        owner[3] = True
        self.spans.append((
            self._next_id, "train.prepare", owner[2], time.perf_counter(), owner[0], self.run_id,
        ))
        self._next_id += 1

    def adopt(self, spans, counts, parent) -> None:
        """Merge spans written by a child process under the span ``parent``."""
        remap = {}
        for sid, *_ in spans:
            remap[sid] = self._next_id
            self._next_id += 1
        for sid, name, start, end, par, run_id in spans:
            self.spans.append((remap[sid], name, start, end,
                               parent if par is None else remap[par], run_id))
        self.counts.update(counts)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _observers():
    """Counters kept by the wrappers of some spans, keyed by span name."""

    def file_mb(counter):
        def observe(tr, args, result):
            tr.counts[counter] += os.path.getsize(args[1]) / MB
        return observe

    def dataset_rows(tr, args, result):
        tr.counts["dataset_rows"] += len(result)

    def gradient_flops(tr, args, result):
        model, candidates = args[0], args[2]
        tr.counts["gradient_flops"] += 12 * len(candidates) * model.dim

    def epochs(tr, args, result):
        tr.counts["epochs"] += len(result[1].records)

    return {
        "simulate.save_dataset": file_mb("dataset_mb"),
        "simulate.save_preferences": file_mb("preferences_mb"),
        "simulate.load_dataset": dataset_rows,
        "ranker.accumulate_gradient": gradient_flops,
        "train.train_model": epochs,
    }


@contextmanager
def installed(tracer: Tracer):
    """Wrap every call site in ``CALL_SITES`` and ``RankedList.from_indices``."""
    from matchltr.core import RankedList

    observers = _observers()
    restore = []
    try:
        for module_name, attr, name in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            restore.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, observers.get(name)))
        original = RankedList.__dict__["from_indices"]
        restore.append((RankedList, "from_indices", original))
        RankedList.from_indices = staticmethod(tracer.wrap("core.from_indices", original.__func__))
        yield tracer
    finally:
        for obj, attr, original in reversed(restore):
            setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(intervals, start, end):
    return [(max(s, start), min(e, end)) for s, e in intervals if e > start and s < end]


def per_layer(spans, counts, wall: tuple[float, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced run.

    ``wall`` is the (start, end) of the traced part of the run; the layer self
    times plus ``trace.unattributed_s`` equal ``trace.wall_s``.
    """
    children = defaultdict(list)
    for sid, name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((sid, name, start, end))
    self_s = dict.fromkeys(LAYERS, 0.0)
    total = Counter()
    calls = Counter()
    top = []
    gradient_s = 0.0
    for sid, name, start, end, parent, _ in spans:
        kids = children.get(sid, [])
        covered = _union(_clip([(s, e) for _, _, s, e in kids], start, end))
        self_s[name.split(".", 1)[0]] += (end - start) - covered
        total[name] += end - start
        calls[name] += 1
        if parent is None:
            top.append((start, end))
        if name == "train.train_model":
            gradient_s += (end - start) - _union(_clip(
                [(s, e) for _, kid, s, e in kids
                 if kid in ("train.prepare", "train.validation_metric")], start, end))

    wall_s = wall[1] - wall[0]
    out: dict[str, tuple[float, str]] = {}
    for metric, span_name in DURATIONS.items():
        out[metric] = (total[span_name], "s")
    for metric, span_name in CALLS.items():
        out[metric] = (calls[span_name], "count")
    for metric, (counter, unit) in COUNTERS.items():
        out[metric] = (counts.get(counter, 0), unit)
    out["train.gradient_s"] = (gradient_s, "s")
    grad_time = total["ranker.accumulate_gradient"]
    out["ranker.gradient_gflops"] = (
        counts.get("gradient_flops", 0) / grad_time / 1e9 if grad_time > 0 else 0.0, "GFLOP/s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.unattributed_s"] = (wall_s - _union(_clip(top, *wall)), "s")
    return out
