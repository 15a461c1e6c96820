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

import numpy as np

from . import data_io
from .answering import predict
from .data_io import Example, SyntheticSpec
from .frame_encoder import encode_frames
from .subtitle_memory import evolve_memory, rank_subtitles
from .training import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    evaluate,
    example_memory,
    gradcheck,
    init_params,
    prepare_example,
    run_forward,
    train,
)
from .word_memory import StaticWordMemory, embed_sentence, load_word2vec_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep the machine-parseable prefix
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _model_config(args) -> ModelConfig:
    best = args.preset == "best"  # strongest reported: two subtitle passes plus guidance
    return ModelConfig(
        swm_hops=args.swm_hops,
        um_hops=2 if best else args.um_hops,
        qg=best or args.qg,
        normalize_sentences=args.normalize_sentences,
        average_clip=args.average_clip,
        um_carry_frames=args.um_carry_frames,
    )


def _require(path: str | None, role: str) -> str:
    if path is None:
        raise ValueError(f"missing required {role}")
    if not os.path.exists(path):
        raise ValueError(f"{role} not found: {path}")
    return path


def _load_inputs(args) -> tuple[StaticWordMemory, list[Example]]:
    mem = load_word2vec_text(_require(args.embeddings, "embedding file"))
    items = data_io.load_qa_jsonl(_require(args.qa, "QA file"))
    feature_dir = _require(args.features, "feature directory")
    subtitle_dir = None
    if not args.video_only:
        subtitle_dir = _require(args.subtitles, "subtitle directory")

    subtitle_cache: dict[str, tuple[str, ...]] = {}
    examples = []
    for item in items:
        clips = [
            data_io.load_features(os.path.join(feature_dir, f"{cid}.lmnf"))
            for cid in item.clip_ids
        ]
        features = data_io.subsample_frames(clips, args.frames)
        sentences = None
        if subtitle_dir is not None:
            if item.movie_id not in subtitle_cache:
                subtitle_cache[item.movie_id] = _load_subtitles(subtitle_dir, item.movie_id)
            sentences = subtitle_cache[item.movie_id]
        examples.append(Example(item, features, sentences))
    return mem, examples


def _load_subtitles(subtitle_dir: str, movie_id: str) -> tuple[str, ...]:
    srt = os.path.join(subtitle_dir, movie_id + ".srt")
    txt = os.path.join(subtitle_dir, movie_id + ".txt")
    if os.path.exists(srt):
        return tuple(data_io.parse_srt(srt).texts())
    if os.path.exists(txt):
        return tuple(data_io.load_plaintext_subtitles(txt).texts())
    raise ValueError(f"no subtitle file for movie {movie_id!r} in {subtitle_dir}")


def _load_model(args, mem: StaticWordMemory) -> ModelParams:
    weights = data_io.load_params(_require(args.params, "params file"))
    if weights.shape[0] != mem.dim:
        raise ValueError(
            f"params dimension {weights.shape[0]} does not match embedding dimension {mem.dim}"
        )
    return ModelParams(weights, _model_config(args))


def _find_item(examples: list[Example], qid: str) -> Example:
    for example in examples:
        if example.item.qid == qid:
            return example
    raise ValueError(f"unknown qid {qid!r}")


def _write_text(path: str, text: str) -> None:
    data_io.atomic_write_bytes(path, text.encode("utf-8"))


# --- commands ---------------------------------------------------------------

def cmd_train(args) -> int:
    mem, examples = _load_inputs(args)
    if not examples:
        raise ValueError("empty dataset")
    channels = examples[0].features.channels
    params0 = init_params(mem.dim, channels, _model_config(args), seed=args.seed)
    trainer = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                          max_epochs=args.max_epochs, patience=args.patience,
                          dev_fraction=args.dev_fraction, seed=args.seed)
    params, report = train(examples, mem, trainer, params0)

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    params_path = os.path.join(out, "params.lmnp")
    report_path = os.path.join(out, "report.json")
    data_io.save_params(params.weights, params_path)
    _write_text(report_path, report.to_json() + "\n")
    print(f"trained {len(report.epochs)} epochs; best epoch {report.best_epoch} "
          f"dev accuracy {report.best_dev_acc:.4f}")
    print(f"params: {params_path}")
    print(f"report: {report_path}")
    return 0


def cmd_eval(args) -> int:
    mem, examples = _load_inputs(args)
    if not examples:
        raise ValueError("empty dataset")
    for example in examples:
        if example.item.correct_index is None:
            raise ValueError(f"item {example.item.qid!r} has no correct_index")
    params = _load_model(args, mem)
    acc, records = evaluate(params, mem, examples)
    doc = {"accuracy": acc, "n": len(examples), "per_question": records}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "eval.json"),
                    json.dumps(doc, ensure_ascii=False) + "\n")
    print(f"accuracy {acc:.4f} over {len(examples)} questions")
    return 0


def cmd_answer(args) -> int:
    mem, examples = _load_inputs(args)
    example = _find_item(examples, args.qid)
    params = _load_model(args, mem)
    prep = prepare_example(mem, example, params.config)
    state = run_forward(params.weights, prep, params.config, mem)
    choice = predict(state.dist)
    print(f"qid {example.item.qid}: predicted answer {choice}")
    for h, (text, p) in enumerate(zip(example.item.answers, state.dist.probs)):
        marker = "*" if h == choice else " "
        print(f" {marker} [{h}] p={p:.4f} {text}")
    if example.item.correct_index is not None:
        verdict = "correct" if choice == example.item.correct_index else "incorrect"
        print(f"label {example.item.correct_index} ({verdict})")
    return 0


def cmd_rank_subtitles(args) -> int:
    mem, examples = _load_inputs(args)
    if args.video_only:
        raise ValueError("rank-subtitles requires subtitles")
    example = _find_item(examples, args.qid)
    params = _load_model(args, mem)
    config = params.config
    frames = encode_frames(example.features, params.weights, mem, config.swm_hops)
    if not 0 <= args.frame_index < frames.shape[0]:
        raise ValueError(
            f"frame index {args.frame_index} out of range (clip has {frames.shape[0]} frames)"
        )
    sub = example_memory(mem, example, config)
    if args.memory_state == "final":
        question = embed_sentence(mem, example.item.question,
                                  normalize=config.normalize_sentences).vector
        sub = evolve_memory(frames, sub, question, um_hops=config.um_hops, qg=config.qg,
                            carry_frames=config.um_carry_frames)
    ranked = rank_subtitles(frames[args.frame_index], sub)
    for rank, (idx, sim) in enumerate(ranked, 1):
        print(f"{rank}\t{sim:+.6f}\t{sub.sentences[idx]}")
    return 0


def cmd_gradcheck(args) -> int:
    mem, examples = _load_inputs(args)
    if not examples:
        raise ValueError("empty dataset")
    example = _find_item(examples, args.qid) if args.qid else examples[0]
    if args.params:
        params = _load_model(args, mem)
    else:
        params = init_params(mem.dim, example.features.channels, _model_config(args),
                             seed=args.seed)
    sub = example_memory(mem, example, params.config)
    err = gradcheck(params, mem, example.item, example.features, sub, step=args.step)
    print(f"gradcheck qid {example.item.qid}: max relative error {err:.3e} (step {args.step:g})")
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        vocab_size=args.vocab_size,
        dim=args.dim,
        channels=args.channels,
        frames=args.frames,
        height=args.height,
        width=args.width,
        n_subtitles=args.n_subtitles,
        n_train=args.n_train,
        n_eval=args.n_eval,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    data = data_io.generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    paths = data_io.write_synthetic(data, args.out)
    print(f"wrote {len(data.train_items)} train / {len(data.eval_items)} eval items")
    for role in ("embeddings", "train", "eval", "features", "subtitles"):
        print(f"{role}: {paths[role]}")
    return 0


# --- argument wiring ----------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--swm-hops", type=int, default=1, help="word-memory attention passes")
    p.add_argument("--um-hops", type=int, default=1, help="subtitle-memory passes")
    p.add_argument("--qg", action="store_true", help="enable question-guided reweighting")
    p.add_argument("--no-normalize-sentences", dest="normalize_sentences",
                   action="store_false", help="skip unit-normalizing sentence embeddings")
    p.add_argument("--average-clip", action="store_true",
                   help="divide the clip vector by the frame count before scoring")
    p.add_argument("--um-carry-frames", action="store_true",
                   help="later subtitle passes attend with the previous pass's frames")
    p.add_argument("--preset", choices=["best"], default=None,
                   help="'best' selects two subtitle passes plus question guidance")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embeddings", required=True, help="word2vec text file")
    p.add_argument("--qa", required=True, help="QA JSONL file")
    p.add_argument("--features", required=True, help="directory of <clip_id>.lmnf files")
    p.add_argument("--subtitles", default=None,
                   help="directory of <movie_id>.srt or .txt files")
    p.add_argument("--video-only", action="store_true", help="ignore subtitles entirely")
    p.add_argument("--frames", type=int, default=32,
                   help="frames sampled per question across its clips")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--dev-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)


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
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0, help="seed of the fresh init")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a planted-signal synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=50)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--channels", type=int, default=24)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--width", type=int, default=3)
    p.add_argument("--n-subtitles", type=int, default=5)
    p.add_argument("--n-train", type=int, default=500)
    p.add_argument("--n-eval", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=1)
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
