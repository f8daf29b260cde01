"""In-memory span tracing around calls into the program's layers.

Each probe replaces one public function (or method) under the name its
caller looks it up by, for example `dialcoh.cli.load_checkpoint` rather than
`dialcoh.models.checkpoint.load_checkpoint`, because `cli` binds the name at
import. A wrapper records a span (name, start, end, parent) and optional
counts taken from the call's arguments and result. Nothing in the program is
edited; `Tracer.installed()` puts every original back on exit.

Per-op autodiff functions are deliberately not probed: an epoch makes
millions of those calls, and the wrapper cost would swamp what it measures.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


@dataclass(frozen=True)
class Probe:
    span: str
    target: str  # "module:attr" or "module:Class.attr"
    count: Callable | None = None  # (bound_args, result) -> {counter: amount}


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bind


def _file_bytes(arg: str):
    return lambda a, r: {arg: os.path.getsize(a["path"])}


PROBES = (
    Probe("cli.main", "dialcoh.cli:main"),
    Probe("corpus.load", "dialcoh.cli:load_corpus"),
    Probe("corpus.vocab", "dialcoh.cli:derive_vocabularies"),
    Probe("swapgen.build", "dialcoh.swapgen:build_selection_dataset",
          lambda a, r: {"swapgen.instances": len(r[0]), "swapgen.pairs": r[1]["pairs"]}),
    Probe("swapgen.save", "dialcoh.swapgen:save_instances", _file_bytes("swapgen.save_bytes")),
    Probe("swapgen.load", "dialcoh.swapgen:load_instances"),
    Probe("linearize.encode", "dialcoh.models.neural:encode_pairwise_inputs",
          lambda a, r: {"linearize.streams": 1, "linearize.positions": r.length}),
    Probe("grid.features", "dialcoh.models.linear:extract_features",
          lambda a, r: {"grid.extract_calls": 1}),
    Probe("linear.pair_features", "dialcoh.cli:build_pair_features",
          lambda a, r: {"grid.instances": len(a["instances"])}),
    Probe("linear.sgd", "dialcoh.cli:train_linear_ranker",
          lambda a, r: {"linear.sgd_steps": a["epochs"] * len(a["pairs"])}),
    Probe("linear.score", "dialcoh.models.linear:LinearRanker.score_candidates",
          lambda a, r: {"grid.instances": 1}),
    Probe("neural.train", "dialcoh.cli:train_neural"),
    Probe("neural.score_candidates", "dialcoh.models.neural:NeuralScorer.score_candidates"),
    Probe("neural.score_streams", "dialcoh.models.neural:NeuralScorer.score_streams"),
    Probe("neural.forward", "dialcoh.models.neural:forward_scores",
          lambda a, r: {"neural.forward_calls": 1, "neural.rows": r.shape[0]}),
    Probe("rnn.scan", "dialcoh.models.neural:run_gru", lambda a, r: {"rnn.scan_calls": 1}),
    Probe("autodiff.backward", "dialcoh.engine.autodiff:Tensor.backward"),
    Probe("losses.hinge", "dialcoh.models.neural:pairwise_hinge"),
    Probe("optim.adam", "dialcoh.models.neural:adam_step", lambda a, r: {"optim.steps": 1}),
    Probe("evaluate.selection", "dialcoh.cli:evaluate_selection"),
    Probe("checkpoint.save", "dialcoh.cli:save_checkpoint", _file_bytes("checkpoint.bytes")),
    Probe("checkpoint.save", "dialcoh.models.checkpoint:save_checkpoint",
          _file_bytes("checkpoint.bytes")),
    Probe("checkpoint.load", "dialcoh.cli:load_checkpoint"),
    Probe("ranking.rank", "dialcoh.cli:rank_candidates"),
)


def _resolve(target: str):
    """(owner, attribute name) or None when the module, class or attribute
    no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.fired: Counter = Counter()
        self.present: dict[str, bool] = {}
        self._stack: list[int] = []

    def wrap(self, span_name: str, fn, count=None, key: str | None = None):
        bind = _bound(fn) if count is not None else None
        spans, stack, counters, fired = self.spans, self._stack, self.counters, self.fired
        key = key or span_name

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(span_name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            fired[key] += 1
            if count is not None:
                counters.update(count(bind(args, kwargs), result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        restore = []
        try:
            for probe in self.probes:
                found = _resolve(probe.target)
                self.present[probe.target] = found is not None
                if found is None:
                    continue
                owner, attr = found
                restore.append((owner, attr, vars(owner).get(attr)))
                setattr(owner, attr, self.wrap(probe.span, getattr(owner, attr),
                                               probe.count, key=probe.target))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def coverage(self) -> list[dict]:
        return [
            {"span": p.span, "target": p.target, "exists": self.present.get(p.target, False),
             "fired": self.fired[p.target] > 0}
            for p in self.probes
        ]


# -- analysis -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def span_table(spans: list[Span]) -> dict[str, dict]:
    """calls, total and self seconds per span name."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return table


def _has_ancestor(spans: list[Span], s: Span, name: str) -> bool:
    p = s.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


# per-layer metric -> the spans it needs; a metric whose spans have no probe
# target left in the program reads None and is reported as untraced.
METRIC_SPANS = {
    "cli.self_s": ("cli.main",),
    "corpus.load_s": ("corpus.load",),
    "corpus.vocab_s": ("corpus.vocab",),
    "swapgen.build_s": ("swapgen.build",),
    "swapgen.save_s": ("swapgen.save",),
    "swapgen.save_bytes": ("swapgen.save",),
    "swapgen.instances": ("swapgen.build",),
    "swapgen.pairs": ("swapgen.build",),
    "swapgen.load_s": ("swapgen.load",),
    "linearize.encode_s": ("linearize.encode",),
    "linearize.streams": ("linearize.encode",),
    "linearize.positions": ("linearize.encode",),
    "grid.features_s": ("grid.features",),
    "grid.extract_calls": ("grid.features",),
    "grid.calls_per_instance": ("grid.features", "linear.pair_features", "linear.score"),
    "linear.sgd_s": ("linear.sgd",),
    "linear.sgd_steps": ("linear.sgd",),
    "linear.score_s": ("linear.score",),
    "evaluate.selection_s": ("evaluate.selection",),
    "metrics.self_s": ("evaluate.selection", "linear.score", "neural.score_candidates"),
    "neural.forward_grad_s": ("neural.forward", "neural.score_streams"),
    "neural.forward_nograd_s": ("neural.forward", "neural.score_streams"),
    "neural.dev_eval_s": ("neural.score_streams", "neural.train"),
    "neural.forward_calls": ("neural.forward",),
    "neural.rows_per_forward": ("neural.forward",),
    "autodiff.backward_s": ("autodiff.backward",),
    "losses.hinge_s": ("losses.hinge",),
    "optim.adam_s": ("optim.adam",),
    "optim.steps": ("optim.adam",),
    "rnn.scan_s": ("rnn.scan",),
    "rnn.scan_calls": ("rnn.scan",),
    "checkpoint.save_s": ("checkpoint.save",),
    "checkpoint.load_s": ("checkpoint.load",),
    "checkpoint.bytes": ("checkpoint.save",),
    "ranking.rank_s": ("ranking.rank",),
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float | None], list[str]]:
    """Per-layer metrics from the recorded spans and counts, and the list of
    metrics left untraced because a probe target is missing."""
    spans = tracer.spans
    table = span_table(spans)
    c = tracer.counters

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def forward_s(under_eval: bool):
        return sum(s.end - s.start for s in spans if s.name == "neural.forward"
                   and _has_ancestor(spans, s, "neural.score_streams") == under_eval)

    calls = c["neural.forward_calls"]
    values = {
        "cli.self_s": table.get("cli.main", {}).get("self_s", 0.0),
        "corpus.load_s": total("corpus.load"),
        "corpus.vocab_s": total("corpus.vocab"),
        "swapgen.build_s": total("swapgen.build"),
        "swapgen.save_s": total("swapgen.save"),
        "swapgen.save_bytes": c["swapgen.save_bytes"],
        "swapgen.instances": c["swapgen.instances"],
        "swapgen.pairs": c["swapgen.pairs"],
        "swapgen.load_s": total("swapgen.load"),
        "linearize.encode_s": total("linearize.encode"),
        "linearize.streams": c["linearize.streams"],
        "linearize.positions": c["linearize.positions"],
        "grid.features_s": total("grid.features"),
        "grid.extract_calls": c["grid.extract_calls"],
        "grid.calls_per_instance": (c["grid.extract_calls"] / c["grid.instances"]
                                    if c["grid.instances"] else 0.0),
        "linear.sgd_s": total("linear.sgd"),
        "linear.sgd_steps": c["linear.sgd_steps"],
        "linear.score_s": total("linear.score"),
        "evaluate.selection_s": total("evaluate.selection"),
        "metrics.self_s": table.get("evaluate.selection", {}).get("self_s", 0.0),
        "neural.forward_grad_s": forward_s(False),
        "neural.forward_nograd_s": forward_s(True),
        "neural.dev_eval_s": sum(s.end - s.start for s in spans
                                 if s.name == "neural.score_streams"
                                 and _has_ancestor(spans, s, "neural.train")),
        "neural.forward_calls": calls,
        "neural.rows_per_forward": c["neural.rows"] / calls if calls else 0.0,
        "autodiff.backward_s": total("autodiff.backward"),
        "losses.hinge_s": total("losses.hinge"),
        "optim.adam_s": total("optim.adam"),
        "optim.steps": c["optim.steps"],
        "rnn.scan_s": total("rnn.scan"),
        "rnn.scan_calls": c["rnn.scan_calls"],
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.bytes": c["checkpoint.bytes"],
        "ranking.rank_s": total("ranking.rank"),
    }
    traced_spans = {p.span for p in tracer.probes if tracer.present.get(p.target)}
    untraced = sorted(m for m, needs in METRIC_SPANS.items()
                      if not all(n in traced_spans for n in needs))
    for m in untraced:
        values[m] = None
    return values, untraced
