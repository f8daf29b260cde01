"""Batch command-line surface.

Subcommands cover the full pipeline: corpus validation, vocabulary
derivation, swap-based dataset generation, training of the neural and linear
rankers, selection/rating evaluation, ad-hoc candidate ranking, the
regression study, annotator agreement, and random baselines.

Every command that writes artifacts also writes its fully resolved
configuration (run_config.json) next to them; all randomness derives from the
--seed flag, so reruns reproduce outputs byte for byte. Exit codes: 0 ok,
1 usage, 2 data error, 3 numeric error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, metrics, swapgen
from .corpus import (
    derive_vocabularies,
    dialogue_from_dict,
    iter_corpus_records,
    load_corpus,
    load_tagset,
    load_vocabularies,
    parse_json,
    save_vocabularies,
    validate_dialogue,
)
from .errors import CorpusFormatError, DataError, DialcohError, NumericError
from .models import (
    LinearRanker,
    LinearRankerConfig,
    NeuralConfig,
    build_pair_features,
    evaluate_rated,
    evaluate_selection,
    load_checkpoint,
    rank_candidates,
    ranking_accuracy,
    save_checkpoint,
    summarize_runs,
    train_linear_ranker,
    train_neural,
)
from .models.evaluate import report_tsv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _dump_json(obj, path=None) -> str:
    text = json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _write_run_config(args: argparse.Namespace, out_dir: Path) -> None:
    resolved = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k != "func" and not k.startswith("_")
    }
    _dump_json({"command": args.command, "arguments": resolved}, out_dir / "run_config.json")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _comma_separated(convert):
    """argparse type: a comma-separated list of convert() values."""

    def parse(text: str) -> list:
        return [convert(x) for x in text.split(",")]

    parse.__name__ = f"comma-separated {convert.__name__}"  # names the type in usage errors
    return parse


def _split_ids(path) -> list[str]:
    ids = [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines()]
    return [i for i in ids if i]


def _load_split(args) -> tuple[list, tuple[str, ...] | None]:
    """The corpus (restricted to --split) and the --tagset it was checked against."""
    tagset = load_tagset(args.tagset) if args.tagset else None
    corpus = load_corpus(args.corpus, tagset=tagset)
    if args.split:
        wanted = set(_split_ids(args.split))
        corpus = [d for d in corpus if d.id in wanted]
        missing = wanted - {d.id for d in corpus}
        if missing:
            raise DataError(f"split ids not in corpus: {sorted(missing)[:5]}")
        if not corpus:
            raise DataError("split selects no dialogues")
    return corpus, tagset


# -- commands -------------------------------------------------------------------


def cmd_validate(args) -> int:
    problems_total = 0
    n = 0
    for line_no, obj in iter_corpus_records(args.corpus):
        n += 1
        try:
            d = dialogue_from_dict(obj)
        except CorpusFormatError as exc:
            print(f"line {line_no}: {exc}")
            problems_total += 1
            continue
        for problem in validate_dialogue(d):
            print(f"line {line_no} ({d.id}): {problem}")
            problems_total += 1
    if n == 0:
        raise DataError(f"empty corpus: {args.corpus}")
    print(f"checked {n} dialogues: {problems_total} violations")
    return EXIT_OK if problems_total == 0 else EXIT_DATA


def cmd_vocab(args) -> int:
    corpus, tagset = _load_split(args)
    vocabs = derive_vocabularies(corpus, min_word_count=args.min_count, tagset=tagset)
    save_vocabularies(vocabs, args.output)
    print(
        f"wrote {args.output}: |words|={len(vocabs.words)} |roles|={len(vocabs.roles)} "
        f"|da|={len(vocabs.da)} |turn|={len(vocabs.turn)}"
    )
    return EXIT_OK


def cmd_gen_dataset(args) -> int:
    corpus, _ = _load_split(args)
    ctx_range = None
    if args.ctx_min is not None or args.ctx_max is not None:
        lo = args.ctx_min if args.ctx_min is not None else 1
        hi = args.ctx_max if args.ctx_max is not None else max(len(d.turns) for d in corpus)
        ctx_range = (lo, hi)
    instances, manifest = swapgen.build_selection_dataset(
        corpus,
        points_per_dialogue=args.points,
        n_neg=args.negatives,
        mode=args.mode,
        seed=args.seed,
        ctx_range=ctx_range,
    )
    out = _out_dir(args)
    swapgen.save_instances(instances, out / "dataset.jsonl")
    _dump_json(manifest, out / "manifest.json")
    _write_run_config(args, out)
    print(f"wrote {out / 'dataset.jsonl'}: {manifest['insertion_points']} instances, "
          f"{manifest['pairs']} pairs")
    return EXIT_OK


def _neural_config(args, channels: tuple[str, ...], seed: int) -> NeuralConfig:
    return NeuralConfig(
        channels=channels,
        emb_dim_word=args.emb_dim_word,
        emb_dim_other=args.emb_dim,
        gru_layers=args.layers,
        gru_hidden=args.hidden,
        head_hidden=args.head_hidden,
        lr=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        margin=args.margin,
        patience=args.patience,
        seed=seed,
    )


def cmd_train(args) -> int:
    out = _out_dir(args)
    train_instances = swapgen.load_instances(args.train)
    vocabs = load_vocabularies(args.vocab)
    seeds = args.seeds
    if args.model == "neural":
        if not args.dev:
            raise DataError("neural training requires --dev")
        dev_instances = swapgen.load_instances(args.dev)
        channels = tuple(c.strip() for c in args.channels.split(",") if c.strip())
        reports = []
        for seed in seeds:
            config = _neural_config(args, channels, seed)
            scorer, history = train_neural(
                train_instances, dev_instances, config, vocabs,
                pretrained_words=args.pretrained_words,
            )
            name = "checkpoint.ckpt" if len(seeds) == 1 else f"checkpoint_seed{seed}.ckpt"
            save_checkpoint(scorer, out / name)
            _dump_json(history.to_dict(), out / (Path(name).stem + "_history.json"))
            reports.append({"seed": seed, "dev_mrr": history.best_dev_mrr,
                            "epochs_run": history.epochs_run, "checkpoint": name})
            print(f"seed {seed}: best dev MRR {history.best_dev_mrr:.4f} "
                  f"(epoch {history.best_epoch}/{history.epochs_run}) -> {name}")
        summary = summarize_runs(reports, ["dev_mrr"])
        _dump_json(summary, out / "training_summary.json")
    else:
        if len(seeds) != 1:
            raise DataError(f"linear training takes one seed, got {len(seeds)}: {seeds}")
        config = LinearRankerConfig(
            features=args.features, k=args.k, saliency=args.saliency,
            l2=args.l2, lr=args.lr, epochs=args.epochs, seed=seeds[0],
        )
        pairs = build_pair_features(train_instances, config, vocabs)
        weights = train_linear_ranker(
            pairs, l2=config.l2, lr=config.lr, epochs=config.epochs, seed=config.seed
        )
        ranker = LinearRanker(config, vocabs, weights.astype(np.float32))
        ranker.manifest = {
            "seed": config.seed,
            "train_pairs": len(pairs),
            "train_pair_accuracy": ranking_accuracy(weights, pairs),
        }
        save_checkpoint(ranker, out / "checkpoint.ckpt")
        _dump_json(ranker.manifest, out / "training_summary.json")
        print(f"linear ranker: train pair accuracy "
              f"{ranker.manifest['train_pair_accuracy']:.4f} -> checkpoint.ckpt")
    _write_run_config(args, out)
    return EXIT_OK


def _write_eval_report(args, report: dict, stem: str) -> int:
    """Print an evaluation report; with --out also write it as JSON and TSV."""
    sys.stdout.write(_dump_json(report))
    if args.out:
        out = _out_dir(args)
        _dump_json(report, out / f"{stem}.json")
        (out / f"{stem}.tsv").write_text(report_tsv(report), encoding="utf-8")
        _write_run_config(args, out)
    return EXIT_OK


def cmd_eval_selection(args) -> int:
    model = load_checkpoint(args.checkpoint)
    instances = swapgen.load_instances(args.data)
    return _write_eval_report(args, evaluate_selection(model, instances), "selection_metrics")


def cmd_eval_rating(args) -> int:
    model = load_checkpoint(args.checkpoint)
    instances = swapgen.load_rated_testset(args.data, strict_swbd=args.strict)
    return _write_eval_report(args, evaluate_rated(model, instances), "rating_metrics")


def cmd_rate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if args.input == "-":
        obj = parse_json(sys.stdin.read(), "standard input")
    else:
        obj = parse_json(Path(args.input).read_bytes(), args.input)
    context, candidates = swapgen.parse_record(obj, default_provenance="external")
    ranked = rank_candidates(context, candidates, model)
    print("rank\tscore\tprovenance\trating\tsummary")
    for rc in ranked:
        cand = rc.candidate
        rating = "" if cand.mean_rating is None else f"{cand.mean_rating:.2f}"
        text = " ".join(filter(None, (seg.text for seg in cand.turn.segments))) or " ".join(
            seg.da for seg in cand.turn.segments
        )
        print(f"{rc.rank}\t{rc.score:.6f}\t{cand.provenance}\t{rating}\t{text[:80]}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    instances = swapgen.load_rated_testset(args.data, strict_swbd=args.strict)
    tagset = load_tagset(args.tagset) if args.tagset else None
    stats = analysis.group_stats(instances)
    fits = analysis.mcc_report(instances, tagset=tagset)
    report = {
        "group_stats": stats,
        "regressions": {g: f.summary_dict() for g, f in fits.items()},
    }
    sys.stdout.write(_dump_json(report))
    if args.out:
        out = _out_dir(args)
        _dump_json(report, out / "analysis.json")
        for g, f in fits.items():
            (out / f"coefficients_{g}.tsv").write_text(f.coefficient_table(), encoding="utf-8")
        _write_run_config(args, out)
    return EXIT_OK


def cmd_agreement(args) -> int:
    instances = swapgen.load_rated_testset(args.data)
    rows = []
    width = None
    for inst in instances:
        for cand in inst.candidates:
            if cand.ratings is None:
                raise DataError("agreement requires per-worker ratings on every candidate")
            if width is None:
                width = len(cand.ratings)
            if len(cand.ratings) != width:
                raise DataError("all candidates must have the same number of raters")
            rows.append(list(cand.ratings))
    matrix = np.asarray(rows, dtype=np.float64)
    loo = metrics.leave_one_out_correlation(matrix)
    kappas = {}
    for i in range(matrix.shape[1]):
        for j in range(i + 1, matrix.shape[1]):
            kappas[f"{i}-{j}"] = metrics.quadratic_weighted_kappa(
                matrix[:, i].astype(int), matrix[:, j].astype(int)
            )
    report = {
        "items": int(matrix.shape[0]),
        "raters": int(matrix.shape[1]),
        "pairwise_quadratic_kappa": kappas,
        "mean_quadratic_kappa": float(np.mean(list(kappas.values()))),
        "leave_one_out": {
            "per_rater": list(loo.per_rater),
            "mean": loo.mean,
        },
    }
    sys.stdout.write(_dump_json(report))
    if args.out:
        out = _out_dir(args)
        _dump_json(report, out / "agreement.json")
        _write_run_config(args, out)
    return EXIT_OK


def cmd_baseline(args) -> int:
    report = metrics.random_baseline(
        n_candidates=args.candidates,
        metric=args.metric,
        relevance=args.ratings,
        trials=args.trials,
        seed=args.seed,
        k=args.k,
    )
    sys.stdout.write(_dump_json(report))
    if args.out:
        out = _out_dir(args)
        _dump_json(report, out / "baseline.json")
        _write_run_config(args, out)
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dialcoh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[], help="check a corpus file")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("vocab", help="derive vocabularies from a corpus")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--tagset")
    p.add_argument("--split")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("gen-dataset", help="generate a response-selection dataset")
    p.add_argument("corpus")
    p.add_argument("--mode", choices=("internal", "external"), required=True)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--negatives", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ctx-min", type=int, default=None)
    p.add_argument("--ctx-max", type=int, default=None)
    p.add_argument("--split")
    p.add_argument("--tagset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train a coherence ranker")
    p.add_argument("--model", choices=("neural", "linear"), required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=_comma_separated(int), default="0",
                   help="comma-separated training seeds (one for --model linear)")
    p.add_argument("--channels", default="word,da,turn")
    p.add_argument("--emb-dim-word", type=int, default=300)
    p.add_argument("--emb-dim", type=int, default=50)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=512)
    p.add_argument("--head-hidden", type=int, default=256)
    p.add_argument("--lr", type=float, default=0.0005)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--margin", type=float, default=0.5)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--pretrained-words")
    p.add_argument("--features", choices=("entity", "da", "joint"), default="joint")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--saliency", type=int, default=1)
    p.add_argument("--l2", type=float, default=1e-4)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-selection", help="evaluate response selection")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_selection)

    p = sub.add_parser("eval-rating", help="evaluate graded coherence rating")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--strict", action="store_true", help="require the 7-candidate format")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_rating)

    p = sub.add_parser("rate", help="score and rank candidates for one context")
    p.add_argument("--checkpoint", required=True)
    p.add_argument(
        "--input", default="-",
        help="JSON record (context and candidates) file, or - for stdin; provenance "
             "defaults to external, ratings and mean_rating are optional but validated",
    )
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("analyze", help="regression study and group statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--tagset")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("agreement", help="annotator agreement statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("baseline", help="random-baseline estimate for a metric")
    p.add_argument("--candidates", type=int, required=True)
    p.add_argument("--metric", choices=("mrr", "recall", "ndcg", "accuracy"), required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--ratings", type=_comma_separated(float),
                   help="comma-separated relevance/gain profile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DialcohError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
