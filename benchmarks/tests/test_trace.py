import types

import pytest

import bench_trace
from bench_trace import Probe, Span, Tracer, layer_metrics, self_times, span_table


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 9]
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # Self times of a properly nested tree add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, -1), Span("x", 1.0, 6.0, 0), Span("y", 4.0, 8.0, 0),
             Span("z", 9.0, 12.0, 0)]
    # Children cover [1, 8] and [9, 10] of the parent: 8 of its 10 seconds.
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_span_table_sums_calls_total_and_self():
    spans = [Span("f", 0.0, 4.0, -1), Span("g", 1.0, 2.0, 0), Span("f", 5.0, 6.0, -1)]
    table = span_table(spans)
    assert table["f"] == {"calls": 2, "total_s": pytest.approx(5.0), "self_s": pytest.approx(4.0)}
    assert table["g"]["calls"] == 1


def _fake_module():
    mod = types.ModuleType("fake_layer")

    def outer(n):
        return mod.inner(n) + 1

    def inner(n):
        return n * 2

    mod.outer, mod.inner = outer, inner
    return mod


def test_probes_record_nesting_counts_and_restore(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", mod)
    original = mod.inner
    tracer = Tracer((
        Probe("outer", "fake_layer:outer"),
        Probe("inner", "fake_layer:inner", lambda a, r: {"inner.n": a["n"]}),
        Probe("gone", "fake_layer:missing"),
    ))
    with tracer.installed():
        assert mod.outer(3) == 7
    assert mod.inner is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.counters["inner.n"] == 3
    coverage = {c["target"]: (c["exists"], c["fired"]) for c in tracer.coverage()}
    assert coverage == {"fake_layer:outer": (True, True), "fake_layer:inner": (True, True),
                        "fake_layer:missing": (False, False)}


def test_missing_target_reads_null_and_is_listed():
    probes = tuple(p for p in bench_trace.PROBES if p.target != "dialcoh.models.neural:run_gru")
    probes += (Probe("rnn.scan", "dialcoh.models.neural:no_such_function"),)
    tracer = Tracer(probes)
    with tracer.installed():
        pass
    values, untraced = layer_metrics(tracer)
    assert values["rnn.scan_s"] is None and values["rnn.scan_calls"] is None
    assert untraced == ["rnn.scan_calls", "rnn.scan_s"]
    assert values["optim.steps"] == 0


def test_every_layer_metric_is_listed_in_benchmark_json():
    import json
    from pathlib import Path

    spec = json.loads((Path(bench_trace.__file__).parents[1] / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    values, _ = layer_metrics(Tracer())
    assert set(values) | {"trace.overhead_s", "trace.overhead_share"} == listed
    assert set(bench_trace.METRIC_SPANS) == set(values)
