"""The benchmark workloads and the closed loop that measures them.

Each workload runs the user pipeline in-process through `dialcoh.cli.main`:
`validate` (in a fresh process, so set-up includes the program's start-up)
and `vocab` during set-up, then the measured stages `gen-dataset`, `train`,
`eval-selection` and single `rate` requests, one client, one request at a
time. Every workload runs every stage, because every run reports every
end-to-end metric; the sizes decide which layers a workload stresses. A
stage repeats until it has used its share of the run's seconds (and at least
MIN_REPS times); its figure is the throughput that nine in ten of its
repetitions reach (see `throughput`).

Every command's output is checked, and each check that fails marks its
command as a failed op: swap-generation digests, training results,
evaluation reports and `rate` scores against the recorded reference for the
seed (see `reference.json`), rerun identity within the run, and the shape of
every `rate` reply.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bench_gen
import dialcoh
from bench_gen import CorpusSpec
from bench_trace import Tracer, layer_metrics, span_table
from dialcoh import cli

PAPER_DIMS = {
    "channels": ("word", "da", "turn"),
    "emb_dim_word": 300,
    "emb_dim_other": 50,
    "gru_layers": 2,
    "gru_hidden": 512,
    "head_hidden": 256,
    "batch_size": 32,
}
TRACE_RATE_SAMPLES = 20
MIN_REPS = 5  # repetitions of each stage, however short the run
SETUP_REPS = 7
RATE_PAYLOADS = 8  # distinct rate requests, cycled
RATE_CANDIDATES = 5
# The program's own --seed/--seeds (which turns become negatives, how pairs
# are shuffled into batches) stay fixed, so the batch shapes, and with them
# the number of length groups a training step runs, are the same for every
# workload seed. The workload seed changes the content of the inputs.
PROGRAM_SEED = 0
PROVENANCES = ("original", "internal", "external")

# Tolerances of the output checks. Scores may move by float32 rounding when
# the grouping of streams into batches changes (the program promises
# rtol 1e-5, atol 1e-6), and that can swap two candidates whose scores tie
# to that precision. Ranking metrics over n instances are therefore compared
# within 1/n, the effect of swapping two such candidates in two instances.
SCORE_TOL = 1e-5  # absolute, on the 6-decimal scores `rate` prints


def tie_tol(instances: int) -> float:
    return 1.0 / instances


@dataclass(frozen=True)
class GenJob:
    """One `gen-dataset` call; its output directory is named after it."""

    name: str
    split: str
    mode: str
    points: int
    ctx: tuple[int, int]
    negatives: int = 9


@dataclass(frozen=True)
class Workload:
    name: str
    splits: dict  # split name -> CorpusSpec; the corpus file holds all of them
    gen: tuple  # GenJob, ...
    model: str  # "neural" | "linear": what `train` trains
    train_data: str  # GenJob name
    eval_data: str  # GenJob name
    rate_split: str
    rate_ctx: tuple[int, int]
    # "gen" | "train" | "eval" -> share of --seconds; set-up and rate use the rest
    shares: dict
    dims: dict = field(default_factory=lambda: dict(PAPER_DIMS))
    eval_untrained: bool = False  # eval and rate use a set-up checkpoint
    rate_samples: int = 110  # p90 then has 11 samples beyond it
    zero_metrics: tuple = ()  # per-layer metrics predicted to be zero


WORKLOADS = {
    w.name: w
    for w in (
        # Four insertion points with four negatives each (16 pairs, one
        # batch, one Adam step) keep one `train` near 2.5 s, so a run holds
        # enough repetitions for a steady figure.
        Workload(
            name="train-paper",
            splits={"train": CorpusSpec(dialogues=1, turns=20),
                    "dev": CorpusSpec(dialogues=3, turns=5)},
            gen=(GenJob("train", "train", "internal", 4, (1, 10), negatives=4),
                 GenJob("dev", "dev", "external", 1, (3, 3))),
            model="neural",
            train_data="train",
            eval_data="dev",
            rate_split="dev",
            rate_ctx=(1, 3),
            shares={"gen": 0.02, "train": 0.4, "eval": 0.12},
        ),
        # Its `train` step fits the linear ranker: a neural one would add the
        # backward pass and Adam that this workload is predicted not to run.
        Workload(
            name="eval-paper",
            splits={"eval": CorpusSpec(dialogues=2, turns=13)},
            gen=(GenJob("eval", "eval", "external", 2, (10, 11)),),
            model="linear",
            train_data="eval",
            eval_data="eval",
            rate_split="eval",
            rate_ctx=(2, 6),
            shares={"gen": 0.02, "train": 0.03, "eval": 0.33},
            eval_untrained=True,
            zero_metrics=("autodiff.backward_s", "optim.adam_s"),
        ),
        Workload(
            name="linear-grid",
            splits={"all": CorpusSpec(dialogues=50, turns=20)},
            gen=(GenJob("internal", "all", "internal", 10, (1, 10)),
                 GenJob("external", "all", "external", 5, (10, 14))),
            model="linear",
            train_data="internal",
            eval_data="external",
            rate_split="all",
            rate_ctx=(1, 19),
            rate_samples=330,
            shares={"gen": 0.15, "train": 0.4, "eval": 0.3},
            zero_metrics=(
                "neural.forward_grad_s", "neural.forward_nograd_s", "neural.dev_eval_s",
                "neural.forward_calls", "neural.rows_per_forward", "rnn.scan_s",
                "rnn.scan_calls",
            ),
        ),
    )
}


def _digest(path: Path) -> str:
    """First 64 bits of the file's SHA-256, enough to tell outputs apart."""
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _dims_args(dims: dict) -> list[str]:
    return [
        "--channels", ",".join(dims["channels"]),
        "--emb-dim-word", str(dims["emb_dim_word"]),
        "--emb-dim", str(dims["emb_dim_other"]),
        "--layers", str(dims["gru_layers"]),
        "--hidden", str(dims["gru_hidden"]),
        "--head-hidden", str(dims["head_hidden"]),
        "--batch-size", str(dims["batch_size"]),
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def parse_rate_output(text: str) -> list[tuple[int, float, str]]:
    """(rank, score, provenance) rows of a `rate` reply; raises ValueError
    when the reply is not a header plus ranked rows."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "rank\tscore\tprovenance\trating\tsummary":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        rank, score, provenance, _rating, _summary = line.split("\t", 4)
        rows.append((int(rank), float(score), provenance))
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("ranks are not 1..n")
    if any(a[1] < b[1] for a, b in zip(rows, rows[1:])):
        raise ValueError("scores are not in descending order")
    if any(r[2] not in PROVENANCES for r in rows):
        raise ValueError("unknown provenance")
    return rows


class Run:
    """One benchmark run of one workload: its files, ops and checks."""

    def __init__(self, workload: Workload, seed: int, reference: dict | None):
        self.w = workload
        self.seed = seed
        self.reference = reference  # this workload's recorded values for this seed
        self.ops = 0
        self.failed_ops = 0
        self.failures: list[str] = []
        self.observed: dict = {}  # first outputs, compared with reference and reruns
        self.samples: dict[str, list[tuple[float, float]]] = {}  # stage -> (s, items)

    # -- ops and checks ---------------------------------------------------

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def cli(self, argv: list[str]) -> tuple[float, str]:
        """Run one command in-process; returns (seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        seconds = time.perf_counter() - start
        if rc != 0:
            raise OpFailed(f"{argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}")
        return seconds, out.getvalue()

    def op(self, fn, *args):
        """Count one op; it fails on a nonzero exit or a failed check."""
        self.ops += 1
        before = len(self.failures)
        try:
            result = fn(*args)
        except OpFailed as exc:
            self.failures.append(str(exc))
            result = None
        if len(self.failures) > before:
            self.failed_ops += 1
        return result

    def same_as_first(self, key: str, value, what: str) -> None:
        first = self.observed.setdefault(key, value)
        self.expect(first == value, f"{what} differs from the first run of this op")

    def near_reference(self, key: str, value, tol: float, what: str) -> None:
        if self.reference is None or key not in self.reference:
            return
        self.expect(_close(value, self.reference[key], tol),
                    f"{what} differs from the recorded reference by more than {tol}")

    # -- set-up -----------------------------------------------------------

    def setup(self, where: Path) -> None:
        """Write the inputs, validate the corpus, derive the vocabulary and,
        for an evaluation-only workload, write the untrained checkpoint."""
        where.mkdir(parents=True)
        records, splits = [], {}
        for name, spec in self.w.splits.items():
            split = bench_gen.make_corpus(spec, self.seed, prefix=f"{name}-")
            splits[name] = split
            records += split
            (where / f"{name}.ids").write_text("".join(d["id"] + "\n" for d in split))
        bench_gen.write_jsonl(records, where / "corpus.jsonl")
        payloads = bench_gen.make_rate_payloads(
            splits[self.w.rate_split], self.seed, RATE_PAYLOADS, self.w.rate_ctx, RATE_CANDIDATES,
        )
        for i, p in enumerate(payloads):
            (where / f"rate{i}.json").write_text(json.dumps(p))
        self.op(self.validate, where / "corpus.jsonl", len(records))
        self.op(self.cli, ["vocab", str(where / "corpus.jsonl"), "-o", str(where / "vocab.json")])
        if self.w.eval_untrained:
            dims = dict(self.w.dims, channels=tuple(self.w.dims["channels"]))
            bench_gen.write_untrained_checkpoint(
                where / "vocab.json", where / "untrained.ckpt", self.seed, dims)

    def validate(self, corpus: Path, dialogues: int) -> None:
        """`dialcoh validate` in a fresh process, as a user checks a corpus
        before using it; this puts the program's start-up in set-up."""
        src = Path(dialcoh.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "dialcoh.cli", "validate", str(corpus)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        if proc.returncode != 0:
            raise OpFailed(f"validate exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        self.expect(proc.stdout.strip() == f"checked {dialogues} dialogues: 0 violations",
                    f"validate reported {proc.stdout.strip()!r}")

    # -- stages -----------------------------------------------------------

    def gen(self, base: Path) -> tuple[float, int]:
        instances = 0
        seconds = 0.0
        for job in self.w.gen:
            out = base / f"gen-{job.name}"
            dt, _ = self.cli([
                "gen-dataset", str(base / "corpus.jsonl"), "--split", str(base / f"{job.split}.ids"),
                "--mode", job.mode, "--points", str(job.points),
                "--negatives", str(job.negatives), "--ctx-min", str(job.ctx[0]),
                "--ctx-max", str(job.ctx[1]), "--seed", str(PROGRAM_SEED), "--out", str(out),
            ])
            seconds += dt
            manifest = json.loads((out / "manifest.json").read_text())
            instances += manifest["insertion_points"]
            digests = {f: _digest(out / f) for f in ("dataset.jsonl", "manifest.json")}
            self.same_as_first(f"gen.{job.name}", digests, f"gen-dataset {job.name} output")
            if self.reference is not None and f"gen.{job.name}" in self.reference:
                self.expect(digests == self.reference[f"gen.{job.name}"],
                            f"gen-dataset {job.name} digests differ from the recorded ones")
        return seconds, instances

    def train(self, base: Path) -> tuple[float, int]:
        data = base / f"gen-{self.w.train_data}"
        out = base / "model"
        argv = ["train", "--model", self.w.model, "--train", str(data / "dataset.jsonl"),
                "--vocab", str(base / "vocab.json"), "--out", str(out),
                "--seeds", str(PROGRAM_SEED)]
        if self.w.model == "neural":
            argv += ["--dev", str(base / f"gen-{self.w.eval_data}" / "dataset.jsonl"),
                     "--epochs", "1", *_dims_args(self.w.dims)]
        dt, _ = self.cli(argv)
        manifest = json.loads((data / "manifest.json").read_text())
        pairs = manifest["pairs"]
        if self.w.model == "neural":
            history = json.loads((out / "checkpoint_history.json").read_text())
            first = history["epochs"][0]
            self.same_as_first("train.history", history, "neural training history")
            result = {k: first[k] for k in ("train_loss", "dev_mrr")}
            self.observed.setdefault("train", result)
            if self.reference is not None and "train" in self.reference:
                # Training is deterministic, so a recorded seed is checked
                # against its own values; the trained model's `rate` scores
                # (see `rate`) are what a broken gradient or update moves.
                recorded = self.reference["train"]
                dev = json.loads((base / f"gen-{self.w.eval_data}" / "manifest.json").read_text())
                for key, tol in (("train_loss", SCORE_TOL),
                                 ("dev_mrr", tie_tol(dev["insertion_points"]))):
                    self.expect(_close(result[key], recorded[key], tol),
                                f"neural {key} {result[key]} differs from the recorded "
                                f"{recorded[key]} by more than {tol}")
            else:
                band = (self.reference or {}).get("band", {})
                for key in ("train_loss", "dev_mrr"):
                    lo, hi = band.get(key, (-math.inf, math.inf))
                    self.expect(math.isfinite(first[key]) and lo <= first[key] <= hi,
                                f"neural {key} {first[key]} is outside the recorded band "
                                f"[{lo}, {hi}]")
        else:
            summary = json.loads((out / "training_summary.json").read_text())
            acc = summary["train_pair_accuracy"]
            self.same_as_first("train.accuracy", acc, "linear train-pair accuracy")
            self.expect(summary["train_pairs"] == pairs, "linear ranker trained on too few pairs")
            self.near_reference("train.accuracy", acc, tie_tol(manifest["insertion_points"]),
                                "linear train-pair accuracy")
        return dt, pairs

    def _model(self, base: Path) -> Path:
        return base / ("untrained.ckpt" if self.w.eval_untrained else "model/checkpoint.ckpt")

    def evaluate(self, base: Path) -> tuple[float, int]:
        data = base / f"gen-{self.w.eval_data}"
        dt, out = self.cli(["eval-selection", "--checkpoint", str(self._model(base)),
                            "--data", str(data / "dataset.jsonl")])
        report = json.loads(out)
        manifest = json.loads((data / "manifest.json").read_text())
        self.expect(report["instances"] == manifest["insertion_points"]
                    and report["pairs"] == manifest["pairs"],
                    "eval-selection counted other instances or pairs than were generated")
        self.same_as_first("eval", report, "eval-selection report")
        if self.w.model == "neural":
            # Training's dev MRR must be what the saved model scores on the
            # same dev set (up to ties: training scores all dev streams in
            # one batch, eval-selection one instance at a time).
            history = self.observed.get("train", {})
            self.expect(_close(report["mrr"], history.get("dev_mrr"), tie_tol(report["instances"])),
                        "eval-selection MRR differs from the dev MRR recorded by train")
        else:
            self.near_reference("eval", report, tie_tol(report["instances"]),
                                "eval-selection report")
        return dt, report["instances"] + report["pairs"]

    def rate(self, base: Path, i: int) -> tuple[float, int]:
        k = i % RATE_PAYLOADS
        dt, out = self.cli(["rate", "--checkpoint", str(self._model(base)),
                            "--input", str(base / f"rate{k}.json")])
        try:
            rows = parse_rate_output(out)
        except ValueError as exc:
            self.expect(False, f"rate reply {k} does not parse: {exc}")
            return dt, 1
        self.expect(len(rows) == RATE_CANDIDATES, f"rate reply {k} has {len(rows)} rows")
        self.same_as_first(f"rate_reply.{k}", out, f"rate reply {k}")
        scores = [r[1] for r in rows]
        self.observed.setdefault(f"rate.{k}", scores)
        self.near_reference(f"rate.{k}", scores, SCORE_TOL, f"rate reply {k} scores")
        return dt, 1

    # -- the loop ----------------------------------------------------------

    def once(self, name: str, fn, *args) -> None:
        """One timed repetition of a stage; a failed op stops the run."""
        gc.collect()
        result = self.op(fn, *args)
        if result is None:
            raise OpFailed(f"{name} failed ({self.failures[-1]}); stopping the run")
        self.samples.setdefault(name, []).append(result)

    def pipeline(self, base: Path, seconds: float, fixed: bool) -> None:
        """The measured stages. After one pass in dependency order, the next
        repetition always goes to the stage furthest behind its share of
        `seconds`, so each stage's repetitions spread over the whole run and
        a slow spell of the machine falls on all stages alike; `rate`
        requests keep pace with the stages' progress. A stage wants time
        until it has run MIN_REPS times and the next repetition would
        overrun its share. `fixed` runs each stage once (the traced
        comparison needs identical work in both passes)."""
        stages = {"gen": self.gen, "train": self.train, "eval": self.evaluate}
        rate_total = TRACE_RATE_SAMPLES if fixed else self.w.rate_samples
        budget = sum(self.w.shares.values()) * seconds

        def used(name: str) -> float:
            return sum(s for s, _ in self.samples[name])

        def wants(name: str) -> bool:
            reps = len(self.samples[name])
            return reps < MIN_REPS or used(name) * (1 + 1 / reps) <= self.w.shares[name] * seconds

        def behind(name: str) -> float:
            room = self.w.shares[name] * seconds
            return used(name) / room if room else len(self.samples[name])

        def rate_until(n: int) -> None:
            for i in range(len(self.samples.get("rate", [])), n):
                self.once("rate", self.rate, base, i)

        for name, fn in stages.items():
            self.once(name, fn, base)
        while not fixed and (todo := [name for name in stages if wants(name)]):
            name = min(todo, key=behind)
            self.once(name, stages[name], base)
            if budget:
                spent = sum(used(n) for n in stages)
                rate_until(math.floor(rate_total * min(1.0, spent / budget)))
        rate_until(rate_total)


class OpFailed(Exception):
    pass


def _close(a, b, tol: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], tol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= tol
    return a == b


def throughput(samples: list[tuple[float, float]]) -> float:
    """Items per second that nine in ten repetitions reach: the throughput
    at the 90th percentile of the repetition times, as `rate_p90_ms` is for
    latency. On a shared machine repetition times are bimodal (a slow and a
    fast phase, up to 2x apart), and the share of fast repetitions swings
    from none to about half between runs; the slow end is present in every
    run, so a figure taken there is the steadiest, while the median or the
    fastest repetition moves with that share. Every repetition of a stage
    does the same work."""
    seconds = sorted(s / items for s, items in samples)
    return 1.0 / percentile(seconds, 0.9)


def measure(workload: Workload, seed: int, seconds: float, work: Path,
            reference: dict | None) -> tuple[Run, dict, dict]:
    """Untraced run: set up SETUP_REPS times, then the timed stages.
    Returns the run, the end-to-end metrics and details for the record."""
    run = Run(workload, seed, reference)
    setup_s, digests = [], None
    for i in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        run.setup(work / f"setup{i}")
        setup_s.append(time.perf_counter() - start)
        files = {p.name: _digest(p) for p in sorted((work / f"setup{i}").iterdir())}
        run.expect(digests in (None, files), "set-up wrote different files on a rerun")
        digests = files
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    base = work / f"setup{SETUP_REPS - 1}"
    run.pipeline(base, seconds, fixed=False)
    rate_ms = [s * 1000.0 for s, _ in run.samples["rate"]]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "gen_instances_per_s": throughput(run.samples["gen"]),
        "train_pairs_per_s": throughput(run.samples["train"]),
        "eval_streams_per_s": throughput(run.samples["eval"]),
        "rate_p50_ms": percentile(rate_ms, 0.5),
        "rate_p90_ms": percentile(rate_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "setup_s": setup_s,
        "reps": {k: [{"seconds": s, "items": n} for s, n in v] for k, v in run.samples.items()},
        "rate_samples": len(rate_ms),
    }
    return run, metrics, details


def measure_traced(workload: Workload, seed: int, work: Path,
                   reference: dict | None) -> tuple[Run, dict, dict]:
    """Traced run: the same fixed work once untraced and once traced; the
    difference in wall time is the tracing overhead."""
    walls = []
    tracer = Tracer()
    run = Run(workload, seed, reference)
    # Warm-up, untimed: first calls pay one-off costs (lazy imports, caches)
    # that would otherwise count against the untraced pass.
    run.setup(work / "warm")
    run.once("gen", run.gen, work / "warm")
    for traced in (False, True):
        base = work / ("traced" if traced else "plain")
        run.samples = {}
        gc.collect()
        with tracer.installed() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            run.setup(base)
            run.pipeline(base, 0.0, fixed=True)
            walls.append(time.perf_counter() - start)
    metrics, untraced = layer_metrics(tracer)
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    metrics["trace.overhead_share"] = (walls[1] - walls[0]) / walls[0]
    for name in workload.zero_metrics:
        run.expect(not metrics.get(name), f"{name} is {metrics.get(name)}, predicted zero")
    details = {
        "untraced_s": walls[0],
        "traced_s": walls[1],
        "untraced_metrics": untraced,
        "coverage": tracer.coverage(),
        "spans": span_table(tracer.spans),
    }
    return run, metrics, details
