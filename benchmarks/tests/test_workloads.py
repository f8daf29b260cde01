import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_gen
import bench_workloads
from bench_gen import CorpusSpec
from bench_workloads import WORKLOADS, measure, measure_traced, parse_rate_output, throughput

BENCH = Path(bench_workloads.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_DIMS = {"channels": ("word", "da", "turn"), "emb_dim_word": 6, "emb_dim_other": 4,
             "gru_layers": 1, "gru_hidden": 5, "head_hidden": 4, "batch_size": 8}


def tiny(name: str):
    w = WORKLOADS[name]
    splits = {k: dataclasses.replace(s, dialogues=min(s.dialogues, 4)) for k, s in w.splits.items()}
    return dataclasses.replace(w, splits=splits, dims=TINY_DIMS,
                               shares=dict.fromkeys(w.shares, 0.0))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_size(name, tmp_path):
    workload = tiny(name)
    run, metrics, details = measure(workload, seed=3, seconds=0.0, work=tmp_path / "w",
                                    reference={})
    assert run.failures == [] and run.failed_ops == 0
    assert run.ops > workload.rate_samples
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values())
    assert details["rate_samples"] == workload.rate_samples


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_covers_every_layer_and_predicted_zeros(name, tmp_path):
    workload = tiny(name)
    run, metrics, details = measure_traced(workload, seed=4, work=tmp_path / "w", reference={})
    assert run.failures == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert details["untraced_metrics"] == []
    assert all(c["exists"] for c in details["coverage"])
    for zero in workload.zero_metrics:
        assert metrics[zero] == 0
    fired = {c["span"] for c in details["coverage"] if c["fired"]}
    assert {"cli.main", "swapgen.build", "checkpoint.load", "ranking.rank"} <= fired
    if workload.model == "neural":
        assert metrics["optim.steps"] > 0 and metrics["neural.dev_eval_s"] > 0
    if name == "linear-grid":
        # One grid per candidate: 10 per dataset instance, 5 per rate request.
        assert 5.0 < metrics["grid.calls_per_instance"] < 10.0


def test_reference_mismatch_is_a_failed_op(tmp_path):
    reference = {"gen.internal": {"dataset.jsonl": "0" * 64, "manifest.json": "0" * 64}}
    run, _, _ = measure(tiny("linear-grid"), seed=3, seconds=0.0, work=tmp_path / "w",
                        reference=reference)
    assert run.failed_ops >= 1
    assert any("differ from the recorded ones" in f for f in run.failures)


def test_generator_is_deterministic_and_varies_with_seed():
    spec = CorpusSpec(dialogues=3, turns=6)
    a = bench_gen.make_corpus(spec, 1, "x-")
    assert a == bench_gen.make_corpus(spec, 1, "x-")
    assert a != bench_gen.make_corpus(spec, 2, "x-")
    for d in a:
        for t in d["turns"]:
            assert 1 <= len(t["segments"]) <= bench_gen.MAX_SEGMENTS
            assert sum(len(s["entities"]) for s in t["segments"]) <= bench_gen.MAX_ENTITIES


def test_throughput_is_taken_at_the_90th_percentile_repetition_time():
    # Twenty repetitions of 10 items taking 1, 2, ..., 20 s: nine in ten
    # take at most 18 s.
    samples = [(float(s), 10) for s in range(20, 0, -1)]
    assert throughput(samples) == pytest.approx(10 / 18)


def test_parse_rate_output_rejects_bad_replies():
    good = "rank\tscore\tprovenance\trating\tsummary\n1\t0.5\toriginal\t\tx\n2\t0.1\texternal\t\ty\n"
    assert parse_rate_output(good) == [(1, 0.5, "original"), (2, 0.1, "external")]
    with pytest.raises(ValueError):
        parse_rate_output(good.replace("0.5", "0.05"))
    with pytest.raises(ValueError):
        parse_rate_output("oops\n")


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "linear-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
