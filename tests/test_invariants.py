"""Source-level invariants of the package. Invariants raise explicit errors:
`python -O` strips `assert` statements, so none may guard program state. And
src/ holds only code that src/ uses, apart from a short allow-list. And every
function the benchmark's tracer wraps still exists, and its probes fire on a
neural and on a linear run."""
import ast
import importlib.util
import json
import sys
from pathlib import Path

from conftest import instance_to_dict, run_fresh_python, synthetic_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_no_assert_statements_in_src():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/: {found}"


# Format writers and test tools: public API that no command calls.
UNREFERENCED_API = {
    "cli.main",
    "corpus.save_corpus",
    "swapgen.save_rated_testset",
}

# Module hooks the interpreter calls by name (PEP 562).
MODULE_HOOKS = {"__getattr__", "__dir__"}


def test_every_module_level_definition_is_used_in_src():
    """A module-level function or class must be referenced somewhere in src/
    outside its own body; package `__init__` re-exports do not count, and
    module hooks are exempt."""
    trees = {
        ".".join(path.relative_to(SRC / "dialcoh").with_suffix("").parts): ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        for path in sorted(SRC.rglob("*.py"))
    }
    defined = {
        f"{module}.{node.name}": node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in MODULE_HOOKS
    }
    used: dict[str, list[ast.AST]] = {}
    for module, tree in trees.items():
        if module == "__init__" or module.endswith(".__init__"):
            continue  # re-exports are not uses
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(name, str):
                used.setdefault(name, []).append(node)

    def used_outside(definition: ast.AST, name: str) -> bool:
        inside = {id(n) for n in ast.walk(definition)}
        return any(id(n) not in inside for n in used.get(name, []))

    dead = sorted(
        qualified
        for qualified, node in defined.items()
        if qualified not in UNREFERENCED_API and not used_outside(node, node.name)
    )
    assert not dead, f"defined in src/ but referenced nowhere else in src/: {dead}"


def _bench_trace(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_trace_targets", ROOT / "benchmarks" / "bench_trace.py"
    )
    bench_trace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_trace)  # dataclasses look it up
    spec.loader.exec_module(bench_trace)
    return bench_trace


# Prints each benchmark probe target that does not resolve, the ones in
# `dialcoh.cli` first, before anything else has imported the program.
RESOLVE_PROBES = """
import sys
sys.path.insert(0, sys.argv[1])
import bench_trace
targets = sorted((p.target for p in bench_trace.PROBES),
                 key=lambda t: not t.startswith("dialcoh.cli:"))
print([t for t in targets if bench_trace._resolve(t) is None])
"""


def test_every_benchmark_probe_target_resolves():
    """benchmarks/bench_trace.py times the program by wrapping functions it
    names as "module:attr"; a target that no longer resolves leaves its
    metric untraced, which only a benchmark run would otherwise show. `cli`
    binds most of its names lazily, so they are resolved in a fresh
    interpreter, where no earlier test or command has bound them."""
    proc = run_fresh_python(RESOLVE_PROBES, ROOT / "benchmarks")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n", f"benchmark probe targets missing from the program: {proc.stdout}"


def _write_dataset(tmp_path):
    """vocab.json and data.jsonl (a small selection set) under tmp_path; returns
    the instances."""
    from dialcoh.corpus import derive_vocabularies, save_vocabularies
    from dialcoh.swapgen import build_selection_dataset, save_instances

    corpus = synthetic_corpus(3, 8, seed=1)
    save_vocabularies(derive_vocabularies(corpus), tmp_path / "vocab.json")
    instances, _ = build_selection_dataset(corpus, points_per_dialogue=2, n_neg=2, seed=0)
    save_instances(instances, tmp_path / "data.jsonl")
    return instances


NEURAL_LAYERS = ("neural", "rnn", "autodiff", "losses", "optim", "checkpoint", "linearize")


def test_benchmark_probes_fire_on_a_neural_run(monkeypatch, tmp_path):
    """A tiny neural train -> eval-selection -> rate through `cli.main` under
    the benchmark's tracer: every span of the neural path fires, its counts
    read the call's arguments and results (for example the `shape` of
    `forward_scores`' result and the `path` of `save_checkpoint`), and no
    per-layer metric is left untraced. The resolve check above cannot see a
    change in what a probe reads."""
    from dialcoh import cli

    bench_trace = _bench_trace(monkeypatch)
    record = instance_to_dict(_write_dataset(tmp_path)[0])
    (tmp_path / "request.json").write_text(json.dumps(
        {"context": record["context"], "candidates": record["candidates"]}), encoding="utf-8")
    ckpt = tmp_path / "out" / "checkpoint.ckpt"
    commands = [
        ["train", "--model", "neural", "--train", tmp_path / "data.jsonl",
         "--dev", tmp_path / "data.jsonl", "--vocab", tmp_path / "vocab.json",
         "--out", tmp_path / "out", "--emb-dim-word", "4", "--emb-dim", "2", "--layers", "1",
         "--hidden", "3", "--head-hidden", "2", "--epochs", "1"],
        ["eval-selection", "--checkpoint", ckpt, "--data", tmp_path / "data.jsonl"],
        ["rate", "--checkpoint", ckpt, "--input", tmp_path / "request.json"],
    ]
    tracer = bench_trace.Tracer()
    with tracer.installed():
        for argv in commands:
            assert cli.main([str(a) for a in argv]) == 0, argv
    fired = {p.span for p in tracer.probes if tracer.fired[p.target]}
    silent = sorted({p.span for p in tracer.probes
                     if p.span.split(".")[0] in NEURAL_LAYERS} - fired)
    assert not silent, f"neural-path probes that never fired: {silent}"
    for counter in ("neural.rows", "linearize.positions", "optim.steps", "checkpoint.bytes"):
        assert tracer.counters[counter] > 0, counter
    _, untraced = bench_trace.layer_metrics(tracer)
    assert untraced == []


LINEAR_CLI_TARGETS = ("build_pair_features", "train_linear_ranker", "evaluate_selection",
                      "save_checkpoint", "load_checkpoint")


def test_benchmark_probes_fire_on_a_linear_run(monkeypatch, tmp_path):
    """A linear train -> eval-selection through `cli.main` under the
    benchmark's tracer calls the wrappers the tracer set on `dialcoh.cli`
    (binding the lazy names keeps them) and leaves no per-layer metric
    untraced; after the tracer restores the originals the commands still
    run."""
    from dialcoh import cli

    bench_trace = _bench_trace(monkeypatch)
    _write_dataset(tmp_path)
    ckpt = tmp_path / "out" / "checkpoint.ckpt"
    commands = [
        ["train", "--model", "linear", "--train", tmp_path / "data.jsonl",
         "--vocab", tmp_path / "vocab.json", "--out", tmp_path / "out", "--epochs", "1"],
        ["eval-selection", "--checkpoint", ckpt, "--data", tmp_path / "data.jsonl"],
    ]
    tracer = bench_trace.Tracer()
    with tracer.installed():
        for argv in commands:
            assert cli.main([str(a) for a in argv]) == 0, argv
    silent = [name for name in LINEAR_CLI_TARGETS if not tracer.fired[f"dialcoh.cli:{name}"]]
    assert not silent, f"linear-path cli probes that never fired: {silent}"
    _, untraced = bench_trace.layer_metrics(tracer)
    assert untraced == []
    for name in LINEAR_CLI_TARGETS:
        assert not hasattr(getattr(cli, name), "__wrapped__"), name
    for argv in commands:
        assert cli.main([str(a) for a in argv]) == 0, argv
