"""Span recording around the serving stack's layer boundaries.

The recorder wraps the public entry points of each layer from outside
the program: it replaces a class attribute (or a module function) with
a timing wrapper and puts the original back on :meth:`Tracer.remove`.
Nothing under ``src/`` changes.

Every wrapped call becomes one span ``[name, start, end, parent, size]``
kept in memory; ``parent`` is the index of the enclosing span (-1 at
top level) and ``size`` a per-call work count (pairs featurized, rows
scored, batch size) or -1.  All wrapped calls are synchronous and run on
the event-loop thread, so one stack gives every span its parent.  The
loop's own idle time is recorded as ``loop.idle`` spans by
:class:`TimedSelector`, so the part of the load phase no span covers is
what the loop spent on bookkeeping, the load generator and service glue.
"""

from __future__ import annotations

import gc
import gzip
import json
import math
import selectors
import time
from pathlib import Path

import numpy as np

# (owner import path, attribute, span name, size argument index).
# ``size`` takes len() of the positional argument at that index (0 is
# self), or .shape[0] for arrays; None records no size.
WRAPPED = [
    ("repro.core.serving.service:ServingCore", "process_query_batch",
     "core.query_batch", 1),
    ("repro.core.serving.service:ServingCore", "process_event",
     "core.event", None),
    ("repro.core.topic_context:TopicModelContext", "infer_body",
     "topics.foldin", None),
    ("repro.core.features:FeatureExtractor", "feature_matrix",
     "features", 1),
    ("repro.core.pipeline:ForumPredictor", "predict_matrix", "heads", 1),
    ("repro.core.routing:QuestionRouter", "recommend", "routing", None),
    ("repro.core.state:ForumState", "append", "state.append", None),
    ("repro.core.state:ForumState", "evict", "state.evict", None),
    ("repro.core.resilience:StreamGuard", "admit", "guard.admit", None),
    ("repro.core.pipeline:ForumPredictor", "refit_from_state", "refit", None),
    ("repro.core.pipeline:ForumPredictor", "fit_topics", "refit.topics",
     None),
    ("repro.core.pipeline:ForumPredictor", "build_state", "refit.state",
     None),
]

# Spans whose descendants are training work, not serving work.
REFIT_SPANS = ("refit", "refit.topics", "refit.state")


def _resolve(path: str):
    import importlib

    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape is not None else len(value)


class Tracer:
    """In-memory span recorder with install/remove of layer wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # Guard outcomes, counted where the guard decides.
        self.guard_repaired = 0
        self.guard_quarantined = 0
        self.bodies: list[str] = []

    def record(self, name: str, start: float, end: float, size=-1) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, size])

    def _wrap(self, owner, attr: str, name: str, size_arg):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            size = _size(args[size_arg]) if size_arg is not None else -1
            # Build the record before taking its index: allocating it may
            # run a collection, which records a span of its own.
            span = [name, clock(), math.nan, stack[-1] if stack else -1, size]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            if name == "topics.foldin":
                tracer.bodies.append(args[1])
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == "guard.admit":
                if result is None:
                    tracer.guard_quarantined += 1
                elif result is not args[1]:
                    tracer.guard_repaired += 1
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        """Record each garbage collection as a ``gc.gen<n>`` span."""
        if phase == "start":
            span = [f"gc.gen{info['generation']}", time.perf_counter(),
                    math.nan, self._stack[-1] if self._stack else -1, -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
        elif self._stack and self.spans[self._stack[-1]][0].startswith("gc."):
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def install(self) -> "Tracer":
        for path, attr, name, size_arg in WRAPPED:
            self._wrap(_resolve(path), attr, name, size_arg)
        gc.callbacks.append(self._on_gc)
        return self

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, size in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "size": size}
                    )
                )
                fh.write("\n")


class TimedSelector(selectors.DefaultSelector):
    """The event loop's selector: polls instead of sleeping.

    The loop never blocks for a timed wait: it polls until the next
    timer is due, so the process never gives its CPU up between
    requests.  On a virtual machine whose host is busy, a CPU that halts
    while the loop sleeps can be woken late, and every request due in
    the meantime would carry the host's delay.  The CPU time spent
    waiting is kept in :attr:`idle_cpu_s` so it can be taken out of the
    load phase's.  A wait with no timer at all still blocks.

    With a tracer, each wait is recorded as a ``loop.idle`` span.  Given
    a speed probe, the selector also runs it in the loop's idle time:
    once every ``PROBE_EVERY_S`` at most, and only when nothing is due
    for at least ``PROBE_IDLE_S``, so no request waits for it.
    """

    PROBE_IDLE_S = 0.01
    PROBE_EVERY_S = 0.05

    def __init__(self, tracer: Tracer | None = None, probe=None):
        super().__init__()
        self.tracer = tracer
        self.probe = probe
        self.idle_cpu_s = 0.0
        self._probed = -math.inf

    def select(self, timeout=None):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            if timeout is None or timeout <= 0:
                return super().select(timeout)
            deadline = start + timeout
            if (
                self.probe is not None
                and timeout >= self.PROBE_IDLE_S
                and start - self._probed >= self.PROBE_EVERY_S
            ):
                self._probed = start
                self.probe.run()
            while True:
                events = super().select(0)
                if events or time.perf_counter() >= deadline:
                    return events
        finally:
            self.idle_cpu_s += time.process_time() - cpu
            if self.tracer is not None:
                self.tracer.record("loop.idle", start, time.perf_counter())


def exclusive_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    duration = np.array([s[2] - s[1] for s in spans], dtype=float)
    self_time = duration.copy()
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_time[span[3]] -= duration[i]
    return self_time


def _under_refit(spans: list[list]) -> np.ndarray:
    """True for spans with a refit span among their ancestors."""
    flags = np.zeros(len(spans), dtype=bool)
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            flags[i] = flags[parent] or spans[parent][0] in REFIT_SPANS
    return flags


def _p50_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def layer_metrics(
    tracer: Tracer, window: tuple[float, float]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans that started inside ``window``.

    Serving layers (features, heads, fold-in, state) count only calls
    made outside a refit; refits are reported as their own layer.
    """
    spans = tracer.spans
    begin, end = window
    self_time = exclusive_times(spans)
    in_refit = _under_refit(spans)
    inside = np.array([begin <= s[1] <= end for s in spans], dtype=bool)

    def pick(name, serving=True):
        idx = [
            i for i, s in enumerate(spans)
            if s[0] == name and inside[i] and not (serving and in_refit[i])
        ]
        return np.asarray(idx, dtype=np.int64)

    def total_ms(idx, exclusive=False):
        if not idx.size:
            return 0.0
        if exclusive:
            return float(self_time[idx].sum()) * 1e3
        return float(sum(spans[i][2] - spans[i][1] for i in idx)) * 1e3

    def durations(idx):
        return [spans[i][2] - spans[i][1] for i in idx]

    out: dict[str, tuple[float, str]] = {}
    batches = pick("core.query_batch")
    out["core.query_batch_ms_p50"] = (_p50_ms(durations(batches)), "ms")
    out["core.query_batch_self_ms"] = (total_ms(batches, True), "ms")
    events = pick("core.event")
    out["core.event_ms_p50"] = (_p50_ms(durations(events)), "ms")

    foldin = pick("topics.foldin")
    foldin_ms = total_ms(foldin)
    bodies = [
        tracer.bodies[k]
        for k, i in enumerate(
            i for i, s in enumerate(spans) if s[0] == "topics.foldin"
        )
        if inside[i] and not in_refit[i]
    ]
    out["foldin.calls"] = (float(foldin.size), "count")
    out["foldin.ms"] = (foldin_ms, "ms")
    out["foldin.ms_per_call"] = (
        foldin_ms / foldin.size if foldin.size else 0.0, "ms"
    )
    out["foldin.distinct_body_ratio"] = (
        len(set(bodies)) / len(bodies) if bodies else 0.0, "ratio"
    )

    features = pick("features")
    pairs = float(sum(spans[i][4] for i in features))
    features_ms = total_ms(features, True)
    out["features.calls"] = (float(features.size), "count")
    out["features.pairs"] = (pairs, "count")
    out["features.ms"] = (features_ms, "ms")
    out["features.us_per_pair"] = (
        features_ms * 1e3 / pairs if pairs else 0.0, "us"
    )

    heads = pick("heads")
    rows = float(sum(spans[i][4] for i in heads))
    heads_ms = total_ms(heads)
    out["heads.rows"] = (rows, "count")
    out["heads.ms"] = (heads_ms, "ms")
    out["heads.us_per_row"] = (heads_ms * 1e3 / rows if rows else 0.0, "us")

    routing = pick("routing")
    routing_ms = total_ms(routing)
    out["routing.calls"] = (float(routing.size), "count")
    out["routing.ms"] = (routing_ms, "ms")
    out["routing.us_per_call"] = (
        routing_ms * 1e3 / routing.size if routing.size else 0.0, "us"
    )

    appends = pick("state.append")
    out["state.appends"] = (float(appends.size), "count")
    out["state.append_self_ms"] = (total_ms(appends, True), "ms")
    out["state.evict_ms"] = (total_ms(pick("state.evict", False)), "ms")

    admits = pick("guard.admit")
    out["guard.admits"] = (float(admits.size), "count")
    out["guard.ms"] = (total_ms(admits), "ms")

    refits = pick("refit", False)
    refit_top = np.asarray(
        [
            i for i, s in enumerate(spans)
            if s[0] in REFIT_SPANS and inside[i] and not in_refit[i]
        ],
        dtype=np.int64,
    )
    collections = np.concatenate([pick(f"gc.gen{g}", False) for g in range(3)])
    gen2 = pick("gc.gen2", False)
    out["gc.gen2_collections"] = (float(gen2.size), "count")
    out["gc.gen2_ms_max"] = (
        max(durations(gen2)) * 1e3 if gen2.size else 0.0, "ms"
    )
    out["gc.ms"] = (total_ms(collections), "ms")

    out["refit.calls"] = (float(refits.size), "count")
    out["refit.ms_p50"] = (_p50_ms(durations(refits)), "ms")
    out["refit.ms"] = (total_ms(refit_top), "ms")
    return out


def guard_outcomes(tracer: Tracer) -> dict[str, tuple[float, str]]:
    return {
        "guard.repaired": (float(tracer.guard_repaired), "count"),
        "guard.quarantined": (float(tracer.guard_quarantined), "count"),
    }


def unattributed_ms(tracer: Tracer, window: tuple[float, float]) -> float:
    """Load-phase wall time outside every top-level span."""
    begin, end = window
    covered = sum(
        min(s[2], end) - max(s[1], begin)
        for s in tracer.spans
        if s[3] < 0 and s[2] > begin and s[1] < end
    )
    return max(0.0, (end - begin) - covered) * 1e3


def cost_model_fit(
    tracer: Tracer, window: tuple[float, float]
) -> dict[str, tuple[float, str]]:
    """Measured service times in the shape of ``CostModel``'s fields.

    ``event_s`` is the median ``process_event`` time; a batch costs
    ``query_batch_s + query_s * n``, fitted by least squares over the
    batches served in ``window`` (refit time inside a batch removed).
    With a single batch size in the run the intercept cannot be told
    apart, so it is 0 and ``query_s`` is the mean per-query time.
    """
    spans = tracer.spans
    begin, end = window
    refit_in = np.zeros(len(spans))
    for i, span in enumerate(spans):
        if span[0] == "refit" and span[3] >= 0:
            # Charge the refit to its top-level ancestor.
            j = span[3]
            while spans[j][3] >= 0:
                j = spans[j][3]
            refit_in[j] += span[2] - span[1]
    sizes, seconds, events = [], [], []
    for i, span in enumerate(spans):
        if not begin <= span[1] <= end:
            continue
        if span[0] == "core.query_batch":
            sizes.append(span[4])
            seconds.append(span[2] - span[1] - refit_in[i])
        elif span[0] == "core.event":
            events.append(span[2] - span[1] - refit_in[i])
    event_s = float(np.median(events)) if events else 0.0
    batch_s, query_s = 0.0, 0.0
    if sizes:
        n = np.asarray(sizes, dtype=float)
        t = np.asarray(seconds)
        if np.unique(n).size > 1:
            design = np.column_stack([np.ones_like(n), n])
            (batch_s, query_s), *_ = np.linalg.lstsq(design, t, rcond=None)
            batch_s, query_s = max(0.0, batch_s), max(0.0, query_s)
        else:
            query_s = float(t.sum() / n.sum())
    return {
        "costmodel.event_s": (event_s, "s"),
        "costmodel.query_batch_s": (float(batch_s), "s"),
        "costmodel.query_s": (float(query_s), "s"),
    }
