"""Benchmark of the dialcoh pipeline, end to end and per layer.

    python3 benchmarks/run.py --workload train-paper --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` of that checkout, never from an installed copy. Inputs are made from
`--seed` by `bench_gen`, work files go to `.bench_work/` and are removed at
the end, and a record of the result (environment, every repetition, the span
table) is kept in `.bench_work/results/`.

`--trace 0` measures the end-to-end metrics of `BENCHMARK.json` with no
probes installed. `--trace 1` runs a fixed amount of the same work twice,
untraced and traced, and reports the per-layer metrics, each span's self
time, the probe coverage and the tracing overhead. Human-readable lines come
first; the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> None:
    """Put the checkout's `src/` first on the path and import from there;
    exits nonzero when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "dialcoh" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {src}/dialcoh")
    sys.path.insert(0, str(src))
    import dialcoh

    if Path(dialcoh.__file__).resolve().parent != (src / "dialcoh").resolve():
        sys.exit(f"error: dialcoh was imported from {dialcoh.__file__}, not {src}")


def _reference(workload: str, seed: int) -> tuple[dict, bool]:
    """Recorded values for this workload and seed (plus the seed-independent
    bands), and whether the seed is in the table."""
    table = json.loads((HERE / "reference.json").read_text())[workload]
    recorded = table["seeds"].get(str(seed))
    return {**(recorded or {}), "band": table.get("band", {})}, recorded is not None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    sys.path.insert(0, str(HERE))
    import bench_env
    import bench_workloads

    workload = bench_workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}")
    reference, recorded = _reference(args.workload, args.seed)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            run, metrics, details = bench_workloads.measure_traced(
                workload, args.seed, work, reference)
        else:
            run, metrics, details = bench_workloads.measure(
                workload, args.seed, args.seconds, work, reference)
    except bench_workloads.OpFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = bench_env.environment(ROOT)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {why}")
    print(f"reference: {'recorded seed' if recorded else 'seed not in reference.json; '}"
          f"{'' if recorded else 'outputs checked for rerun identity and bands only'}")
    for m in listed:
        value = metrics[m["name"]]
        shown = "null (untraced)" if value is None else f"{value:.6g} {m['unit']}"
        print(f"  {m['name']:<26} {shown}")
    if args.trace:
        print(f"tracing overhead: {metrics['trace.overhead_s']:.3f} s "
              f"({details['traced_s']:.3f} s traced, {details['untraced_s']:.3f} s untraced)")
        print(f"  {'span':<26} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(details["spans"].items()):
            print(f"  {name:<26} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        print("coverage:")
        for c in details["coverage"]:
            state = "fired" if c["fired"] else ("exists, not called" if c["exists"] else "MISSING")
            print(f"  {c['target']:<60} {state}")
        print(f"untraced metrics: {details['untraced_metrics'] or 'none'}")
    else:
        print(f"rate samples: {details['rate_samples']}; repetitions: "
              + ", ".join(f"{k} {len(v)}" for k, v in details["reps"].items())
              + f"; set-up {len(details['setup_s'])}x")
    print(f"failed_ops_ratio: {run.failed_ops / max(run.ops, 1):.6g} "
          f"({run.failed_ops} of {run.ops} ops)")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    print("environment: " + json.dumps(env, sort_keys=True))

    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "metrics": metrics,
              "failures": run.failures, "details": details}
    (results / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.ops,
        "failed": run.failed_ops,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
