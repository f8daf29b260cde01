"""Source-level invariants of the package. Invariants raise explicit errors:
`python -O` strips `assert` statements, so none may guard program state. And
src/ holds only code that src/ uses, apart from a short allow-list. And every
function the benchmark's tracer wraps still exists."""
import ast
import importlib.util
import sys
from pathlib import Path

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
    "linearize.stream_rows",
}


def test_every_module_level_definition_is_used_in_src():
    """A module-level function or class must be referenced somewhere in src/
    outside its own body; package `__init__` re-exports do not count."""
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


def test_every_benchmark_probe_target_resolves(monkeypatch):
    """benchmarks/bench_trace.py times the program by wrapping functions it
    names as "module:attr"; a target that no longer resolves leaves its
    metric untraced, which only a benchmark run would otherwise show."""
    spec = importlib.util.spec_from_file_location(
        "bench_trace_targets", ROOT / "benchmarks" / "bench_trace.py"
    )
    bench_trace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_trace)  # dataclasses look it up
    spec.loader.exec_module(bench_trace)
    missing = [p.target for p in bench_trace.PROBES if bench_trace._resolve(p.target) is None]
    assert not missing, f"benchmark probe targets missing from the program: {missing}"
