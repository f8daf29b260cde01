"""Record the reference outputs the benchmark's checks compare against.

    python3 benchmarks/record_reference.py --seeds 64

For every workload and each seed in 0..seeds-1 this runs set-up and one
repetition of each stage, and stores what the checks compare: swap-generation
digests, the linear ranker's train-pair accuracy and evaluation report, the
neural ranker's first-epoch train loss and dev MRR, the eval-paper evaluation
report, and the scores of every `rate` request. The neural train loss and dev
MRR over all recorded seeds also give a band (mean +- 4 standard deviations),
the weaker check a train-paper run on a seed outside the table must pass.

Re-record after any change to the workloads or the input generator, and
never to make a failing check pass: a changed digest or result on an
unchanged benchmark means the program's output changed.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads  # noqa: E402

BAND_SDS = 4.0


def observe(workload, seed: int, work: Path) -> dict:
    run = bench_workloads.Run(workload, seed, None)
    base = work / "setup"
    run.setup(base)
    run.op(run.gen, base)
    run.op(run.train, base)
    run.op(run.evaluate, base)
    for i in range(bench_workloads.RATE_PAYLOADS):
        run.op(run.rate, base, i)
    if run.failures:
        raise SystemExit(f"{workload.name} seed {seed}: {run.failures}")
    shutil.rmtree(work)
    return run.observed


def recorded(workload, observed: dict) -> dict:
    keep = {k: v for k, v in observed.items() if k.startswith(("gen.", "rate."))}
    if workload.model == "linear":
        keep["train.accuracy"] = observed["train.accuracy"]
        keep["eval"] = observed["eval"]
    else:
        keep["train"] = observed["train"]
    return keep


def band(values: list[float], lo: float = -float("inf"), hi: float = float("inf")):
    mean, sd = statistics.mean(values), statistics.stdev(values)
    return [max(lo, mean - BAND_SDS * sd), min(hi, mean + BAND_SDS * sd)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64)
    args = parser.parse_args()
    work = HERE.parent / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    table = {}
    for workload in bench_workloads.WORKLOADS.values():
        entry = {"band": {}, "seeds": {}}
        neural = workload.model == "neural"
        firsts = []
        for seed in range(args.seeds):
            observed = observe(workload, seed, work)
            entry["seeds"][str(seed)] = recorded(workload, observed)
            if neural:
                firsts.append(observed["train"])
            print(workload.name, seed, flush=True)
        if neural:
            entry["band"] = {
                "train_loss": band([f["train_loss"] for f in firsts], lo=0.0),
                "dev_mrr": band([f["dev_mrr"] for f in firsts], lo=0.0, hi=1.0),
            }
        table[workload.name] = entry
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
