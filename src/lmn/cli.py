"""Command-line entry point.

Subcommands: train, eval, answer, rank-subtitles, gradcheck, synth. Every
command is deterministic given its flags and inputs; failures print a single
"error: ..." line on stderr and exit nonzero. Output files are written
atomically (write-temp-then-rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import build_memory, data_io
from .answering import predict
from .data_io import Example, SyntheticSpec
from .training import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    answer_distributions,
    evaluate,
    gradcheck,
    init_params,
    prepare_example,
    rank_subtitles,
    train,
)
from .word_memory import StaticWordMemory, load_word2vec_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep the machine-parseable prefix
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _settings(cls, args):
    """`cls` built from the setting flags that were given. Each such flag
    stores to its field's name, and one left out stores nothing, so the
    field keeps its dataclass default."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})


def _require(path: str | None, role: str) -> str:
    if path is None:
        raise ValueError(f"missing required {role}")
    if not os.path.exists(path):
        raise ValueError(f"{role} not found: {path}")
    return path


def _load_inputs(
    args, config: ModelConfig, first: bool = False
) -> tuple[StaticWordMemory, ModelParams | None, list[Example]]:
    """The embeddings, the `--params` model under `config` (None when no
    params file is given) and the QA file's examples, which
    `data_io.load_examples` reads. Every input path is checked, and the
    `--out` directory made, before any file is parsed, so a bad output path
    fails before the run; the params are read right after the embeddings,
    before any clip is decoded. With `first`, only the question `args.qid`
    names, or the file's first question when it names none, so no other
    question's clips are decoded."""
    embeddings = _require(args.embeddings, "embedding file")
    qa = _require(args.qa, "QA file")
    feature_dir = _require(args.features, "feature directory")
    subtitle_dir = None if args.video_only else _require(args.subtitles, "subtitle directory")
    params_path = getattr(args, "params", None)  # train has none; gradcheck's is optional
    if params_path is not None:
        _require(params_path, "params file")
    out = getattr(args, "out", None)  # train's and eval's; eval's is optional
    if out is not None:
        os.makedirs(out, exist_ok=True)

    mem = load_word2vec_text(embeddings)
    params = None
    if params_path is not None:
        weights = data_io.load_params(params_path)
        if weights.shape[0] != mem.dim:
            raise ValueError(
                f"params dimension {weights.shape[0]} does not match embedding dimension {mem.dim}"
            )
        params = ModelParams(weights, config)
    items = data_io.load_qa_jsonl(qa)
    if first:
        if args.qid is not None:
            items = [item for item in items if item.qid == args.qid]
            if not items:
                raise ValueError(f"unknown qid {args.qid!r}")
        items = items[:1]
    if not items:
        raise ValueError("empty dataset")
    return mem, params, data_io.load_examples(items, feature_dir, subtitle_dir, args.frames)


def _write_text(path: str, text: str) -> None:
    data_io.atomic_write_bytes(path, text.encode("utf-8"))


# --- commands ---------------------------------------------------------------

def cmd_train(args) -> int:
    config = _settings(ModelConfig, args)
    trainer = _settings(TrainConfig, args)
    mem, _, examples = _load_inputs(args, config)
    channels = examples[0].features.channels
    params0 = init_params(mem.dim, channels, config, seed=trainer.seed)
    params, report = train(examples, mem, trainer, params0)

    params_path = os.path.join(args.out, "params.lmnp")
    report_path = os.path.join(args.out, "report.json")
    data_io.save_params(params.weights, params_path)
    _write_text(report_path, report.to_json() + "\n")
    print(f"trained {len(report.epochs)} epochs; best epoch {report.best_epoch} "
          f"dev accuracy {report.best_dev_acc:.4f}")
    print(f"params: {params_path}")
    print(f"report: {report_path}")
    return 0


def cmd_eval(args) -> int:
    config = _settings(ModelConfig, args)
    mem, params, examples = _load_inputs(args, config)
    acc, records = evaluate(params, mem, examples)
    doc = {"accuracy": acc, "n": len(examples), "per_question": records}
    if args.out:
        _write_text(os.path.join(args.out, "eval.json"),
                    json.dumps(doc, ensure_ascii=False) + "\n")
    print(f"accuracy {acc:.4f} over {len(examples)} questions")
    return 0


def cmd_answer(args) -> int:
    config = _settings(ModelConfig, args)
    mem, params, (example,) = _load_inputs(args, config, first=True)
    dist = answer_distributions(params, mem, [example])
    (choice,) = predict(dist).tolist()
    print(f"qid {example.item.qid}: predicted answer {choice}")
    for h, (text, p) in enumerate(zip(example.item.answers, dist.probs[0])):
        marker = "*" if h == choice else " "
        print(f" {marker} [{h}] p={p:.4f} {text}")
    if example.item.correct_index is not None:
        verdict = "correct" if choice == example.item.correct_index else "incorrect"
        print(f"label {example.item.correct_index} ({verdict})")
    return 0


def cmd_rank_subtitles(args) -> int:
    config = _settings(ModelConfig, args)
    if args.video_only:
        raise ValueError("rank-subtitles requires subtitles")
    i = args.frame_index
    if not 0 <= i < args.frames:  # subsampling gives every question --frames frames
        raise ValueError(f"frame index {i} out of range (clip has {args.frames} frames)")
    mem, params, (example,) = _load_inputs(args, config, first=True)
    ranked = rank_subtitles(params, mem, example, i, args.memory_state == "final")
    for rank, (idx, sim) in enumerate(ranked, 1):
        print(f"{rank}\t{sim:+.6f}\t{example.subtitles[idx]}")
    return 0


def cmd_gradcheck(args) -> int:
    config = _settings(ModelConfig, args)
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    mem, params, (example,) = _load_inputs(args, config, first=True)
    if params is None:
        params = init_params(mem.dim, example.features.channels, config, seed=args.seed)
    try:  # the subtitles alone; gradcheck embeds the question and answers
        sub = None if example.subtitles is None else build_memory(example.subtitles, mem)
    except ValueError:  # the example's preparation raises the located message
        prepare_example(mem, example)
        raise
    err = gradcheck(params, mem, example.item, example.features, sub)
    print(f"gradcheck qid {example.item.qid}: max relative error {err:.3e}")
    return 0


def cmd_synth(args) -> int:
    data = data_io.generate_synthetic(_settings(SyntheticSpec, args))
    os.makedirs(args.out, exist_ok=True)
    paths = data_io.write_synthetic(data, args.out)
    print(f"wrote {len(data.train_items)} train / {len(data.eval_items)} eval items")
    for role in ("embeddings", "train", "eval", "features", "subtitles"):
        print(f"{role}: {paths[role]}")
    return 0


# --- argument wiring ----------------------------------------------------------

def _setting_flags(p: argparse.ArgumentParser, title: str):
    """A group for the flags of one settings dataclass (see `_settings`)."""
    return p.add_argument_group(title, argument_default=argparse.SUPPRESS)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    g = _setting_flags(p, "model settings (ModelConfig)")
    g.add_argument("--swm-hops", type=int, help="word-memory attention passes")
    g.add_argument("--um-hops", type=int, help="subtitle-memory passes")
    g.add_argument("--qg", action="store_true", help="enable question-guided reweighting")


def _count(text: str) -> int:
    """An argparse type: an integer of at least one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embeddings", required=True, help="word2vec text file")
    p.add_argument("--qa", required=True, help="QA JSONL file")
    p.add_argument("--features", required=True, help="directory of <clip_id>.lmnf files")
    p.add_argument("--subtitles", default=None,
                   help="directory of <movie_id>.srt or .txt files")
    p.add_argument("--video-only", action="store_true", help="ignore subtitles entirely")
    p.add_argument("--frames", type=_count, default=32,
                   help="frames sampled per question across its clips")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    g = _setting_flags(p, "training settings (TrainConfig)")
    g.add_argument("--lr", dest="learning_rate", metavar="LR", type=float)
    g.add_argument("--batch-size", type=int)
    g.add_argument("--max-epochs", type=int)
    g.add_argument("--patience", type=int)
    g.add_argument("--dev-fraction", type=float)
    g.add_argument("--seed", type=int, help="seeds the init, the dev split and the shuffles")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lmn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the projection weights")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved parameters")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--params", required=True, help="LMNP parameter file")
    p.add_argument("--out", default=None, help="optional output directory for eval.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("answer", help="answer a single question")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--params", required=True)
    p.add_argument("--qid", required=True)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("rank-subtitles", help="rank subtitles against one frame")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--params", required=True)
    p.add_argument("--qid", required=True)
    p.add_argument("--frame-index", type=int, default=0)
    p.add_argument("--memory-state", choices=["construction", "final"], default="construction",
                   help="rank against the built memory or the post-update/guided memory")
    p.set_defaults(func=cmd_rank_subtitles)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradient")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--params", default=None, help="optional LMNP file (default: fresh init)")
    p.add_argument("--qid", default=None)
    p.add_argument("--seed", type=int, default=0, help="seed of the fresh init")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a planted-signal synthetic dataset")
    p.add_argument("--out", required=True)
    g = _setting_flags(p, "generator settings (SyntheticSpec)")
    for name in ("vocab-size", "dim", "channels", "frames", "height", "width",
                 "n-subtitles", "n-train", "n-eval"):
        g.add_argument(f"--{name}", type=int)
    g.add_argument("--noise", dest="noise_sigma", metavar="NOISE", type=float)
    g.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
