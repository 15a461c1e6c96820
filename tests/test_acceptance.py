"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline
(they also appear in the -rA summary of a plain pytest run).
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import lmn
from instances import config_sweep, make_instance
from lmn.answering import cross_entropy
from lmn.cli import main as cli_main
from lmn.data_io import (
    DataFormatError,
    SyntheticSpec,
    generate_synthetic,
    load_features,
    load_params,
    load_qa_jsonl,
    parse_srt,
    save_features,
    save_params,
)
from lmn.frame_encoder import ClipFeatures, encode_frames_cached
from lmn.subtitle_memory import (
    SubtitleMemory,
    _row_dots,
    _weighted_row_sum,
    encode_clip_cached,
)
from lmn.training import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    evaluate,
    forward,
    gradcheck,
    init_params,
    train,
)
from lmn.word_memory import StaticWordMemory
from reference import reference_forward
from test_answering import dist_from_logits

LN5 = 1.6094379124341003


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] acceptance criterion {num}: {label}")
        raise
    print(f"[PASS] acceptance criterion {num}: {label}")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "pipeline forward matches straight-loop reference <= 1e-10"):
        start = time.monotonic()
        combos = config_sweep()
        assert len(combos) >= 20
        worst = 0.0
        for i, combo in enumerate(combos):
            # well-conditioned draws keep the deep-hop losses O(1) so an
            # absolute comparison against the reference is meaningful
            inst = make_instance(seed=9000 + i, avoid_kinks=True, **combo)
            loss, dist = forward(
                ModelParams(inst.weights, inst.config),
                inst.mem, inst.item, inst.features, inst.sub,
            )
            ref = reference_forward(
                inst.mem.matrix, inst.weights, inst.prep.regions,
                inst.prep.subtitle_mat, inst.prep.question, inst.prep.answer_mat,
                label=inst.item.correct_index,
                swm_hops=inst.config.swm_hops, um_hops=inst.config.um_hops,
                qg=inst.config.qg, carry_frames=inst.config.um_carry_frames,
            )
            worst = max(worst, abs(loss - ref["loss"]))
            worst = max(worst, float(np.max(np.abs(dist.probs - np.array(ref["probs"])))))
        elapsed = time.monotonic() - start
        assert worst <= 1e-10, f"max abs error {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_gradient_correctness():
    with criterion(2, "analytic gradient matches central differences <= 1e-4"):
        start = time.monotonic()
        worst = 0.0
        for i, combo in enumerate(config_sweep()):
            inst = make_instance(seed=20000 + i, avoid_kinks=True, **combo)
            err = gradcheck(
                ModelParams(inst.weights, inst.config),
                inst.mem, inst.item, inst.features, inst.sub, step=1e-5,
            )
            worst = max(worst, err)
        elapsed = time.monotonic() - start
        assert worst <= 1e-4, f"max relative error {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def default_synthetic():
    return generate_synthetic(SyntheticSpec())


def _paper_defaults(seed: int, lr: float = 0.01) -> TrainConfig:
    return TrainConfig(learning_rate=lr, batch_size=8, max_epochs=200,
                       patience=10, dev_fraction=0.1, seed=seed)


def test_criterion_3_synthetic_learnability(default_synthetic):
    with criterion(3, "planted-signal training reaches >= 0.80 eval accuracy"):
        start = time.monotonic()
        data = default_synthetic
        spec = SyntheticSpec()
        params0 = init_params(spec.dim, spec.channels, ModelConfig(), seed=1)
        params, report = train(data.examples("train"), data.word_memory,
                               _paper_defaults(seed=1), params0)
        trained_acc, _ = evaluate(params, data.word_memory, data.examples("eval"))
        control_acc, _ = evaluate(params0, data.word_memory, data.examples("eval"))
        elapsed = time.monotonic() - start
        assert report.best_dev_acc >= 0.8
        assert trained_acc >= 0.80, f"trained accuracy {trained_acc}"
        assert control_acc <= 0.35, f"untrained control {control_acc}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_4_extension_ordering(default_synthetic):
    # The extensions reuse the single learned projection (they add no
    # parameters), so each is warm-started from the previous stage and
    # fine-tuned gently; training the deep variants from a random start
    # saturates the answer softmax and is not a meaningful comparison.
    with criterion(4, "update and question-guided passes do not degrade accuracy"):
        data = default_synthetic
        spec = SyntheticSpec()
        eval_ex = data.examples("eval")
        train_ex = data.examples("train")
        accs = {"um1": [], "um2": [], "um2qg": []}
        for seed in (1, 2, 3):
            base, _ = train(train_ex, data.word_memory, _paper_defaults(seed),
                            init_params(spec.dim, spec.channels, ModelConfig(um_hops=1), seed=seed))
            accs["um1"].append(evaluate(base, data.word_memory, eval_ex)[0])
            um2, _ = train(train_ex, data.word_memory, _paper_defaults(seed, lr=1e-5),
                           ModelParams(base.weights, ModelConfig(um_hops=2)))
            accs["um2"].append(evaluate(um2, data.word_memory, eval_ex)[0])
            um2qg, _ = train(train_ex, data.word_memory, _paper_defaults(seed, lr=1e-5),
                             ModelParams(um2.weights, ModelConfig(um_hops=2, qg=True)))
            accs["um2qg"].append(evaluate(um2qg, data.word_memory, eval_ex)[0])
        mean = {k: float(np.mean(v)) for k, v in accs.items()}
        print(f"  extension accuracies over 3 seeds: {mean}")
        assert mean["um2"] >= mean["um1"] - 0.02, f"{mean}"
        assert mean["um2qg"] >= mean["um2"] - 0.02, f"{mean}"


def test_criterion_5_algebraic_invariants():
    with criterion(5, "algebraic invariant suite"):
        rng = np.random.default_rng(4242)

        # softmax simplex
        for _ in range(50):
            dist = dist_from_logits(rng.normal(size=5) * rng.uniform(0.2, 8.0))
            assert abs(dist.probs.sum() - 1.0) <= 1e-12

        # uniform-question scaling: orthogonal question divides the clip
        # vector by N^2
        n = 4
        matrix = np.zeros((n, 6))
        matrix[:, :4] = rng.normal(size=(n, 4))
        frames = rng.normal(size=(3, 6))
        sub = SubtitleMemory(matrix, tuple(f"s{i}" for i in range(n)))
        question = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        plain, _ = encode_clip_cached(frames.sum(0), sub.matrix, None, um_hops=1, qg=False)
        guided, _ = encode_clip_cached(frames.sum(0), sub.matrix, question, um_hops=1, qg=True)
        np.testing.assert_allclose(guided, plain / n**2, rtol=1e-10)

        # positive scaling of a regional feature does not change its attention
        words = [f"w{i}" for i in range(7)]
        mem = StaticWordMemory(words, rng.normal(size=(7, 4)))
        weights = rng.normal(size=(4, 5))
        region = rng.normal(size=5)
        base, _ = encode_frames_cached(region[None, None, :], weights, mem, 1)
        for c in (1e-4, 0.3, 2.0, 1e5):
            out, _ = encode_frames_cached(c * region[None, None, :], weights, mem, 1)
            np.testing.assert_allclose(out, base, atol=1e-12)

        # permutation invariances: regions within a frame, frames within a
        # clip, and subtitle rows; a clip's frame sum is its (T, R, C)
        # regions encoded as one group of T*R
        def clip_sum(regions):
            (total,), _ = encode_frames_cached(regions.reshape(1, -1, 5), w45, mem, 2)
            return total

        tensor = rng.normal(size=(3, 5, 2, 2))
        flat = tensor.reshape(3, 5, 4)
        rperm = rng.permutation(4)
        w45 = rng.normal(size=(4, 5))
        regions = ClipFeatures(tensor).regions()
        base_sum = clip_sum(regions)
        perm_sum = clip_sum(ClipFeatures(flat[:, :, rperm].reshape(3, 5, 2, 2)).regions())
        np.testing.assert_allclose(perm_sum, base_sum, atol=1e-12)

        smatrix = rng.normal(size=(5, 4))
        sub2 = SubtitleMemory(smatrix, tuple(f"s{i}" for i in range(5)))
        rep_base, _ = encode_clip_cached(base_sum, sub2.matrix, None, um_hops=2, qg=False)
        fperm = rng.permutation(3)
        fperm_sum = clip_sum(regions[fperm])
        np.testing.assert_allclose(fperm_sum, base_sum, atol=1e-12)
        sperm = rng.permutation(5)
        sub_perm = SubtitleMemory(smatrix[sperm], tuple(f"s{i}" for i in sperm))
        rep_sperm, _ = encode_clip_cached(base_sum, sub_perm.matrix, None, um_hops=2, qg=False)
        np.testing.assert_allclose(rep_sperm, rep_base, atol=1e-12)

        # single pass without guidance is bitwise the base attention: the
        # frame sum scored against the unscaled memory, rows summed back
        attend_scores = _row_dots(sub2.matrix, base_sum)
        attend_vector = _weighted_row_sum(attend_scores, sub2.matrix)
        reduced_vector, reduced = encode_clip_cached(base_sum, sub2.matrix, None,
                                                     um_hops=1, qg=False)
        assert np.array_equal(reduced_vector, attend_vector)
        assert len(reduced.scores) == 1 and not reduced.pre and reduced.guide is None
        assert np.array_equal(reduced.scores[-1], attend_scores)
        assert np.array_equal(reduced.scales[-1], np.ones(5))

        # uniform cross-entropy
        assert abs(cross_entropy(dist_from_logits(np.zeros(5)), 3) - LN5) <= 1e-12


SRT_CORPUS = [
    ("plain_lf", "1\n00:00:01,000 --> 00:00:02,000\nHello\n\n",
     [(1000, 2000, "Hello")]),
    ("crlf", "1\r\n00:00:01,500 --> 00:00:03,250\r\nCarriage return\r\n\r\n",
     [(1500, 3250, "Carriage return")]),
    ("bom", "﻿1\n00:00:00,001 --> 00:00:00,900\nByte order mark\n\n",
     [(1, 900, "Byte order mark")]),
    ("multiline", "1\n00:00:05,000 --> 00:00:09,000\nRed ink\non pink paper\n\n",
     [(5000, 9000, "Red ink on pink paper")]),
    ("tags", "1\n00:01:00,000 --> 00:01:02,000\n<i>Sherry.</i>\n\n",
     [(60000, 62000, "Sherry.")]),
    ("font_tags", "1\n00:00:01,000 --> 00:00:02,000\n<font color=\"red\">Loud</font> voice\n\n",
     [(1000, 2000, "Loud voice")]),
    ("three_blocks",
     "1\n00:00:01,000 --> 00:00:02,000\nOne\n\n2\n00:00:03,000 --> 00:00:04,000\nTwo\n\n3\n00:00:05,000 --> 00:00:06,000\nThree\n\n",
     [(1000, 2000, "One"), (3000, 4000, "Two"), (5000, 6000, "Three")]),
    ("no_index", "00:00:01,000 --> 00:00:02,000\nNo index line\n\n",
     [(1000, 2000, "No index line")]),
    ("extra_blanks", "\n\n1\n00:00:01,000 --> 00:00:02,000\nSpaced out\n\n\n\n2\n00:00:03,000 --> 00:00:04,000\nStill here\n\n\n",
     [(1000, 2000, "Spaced out"), (3000, 4000, "Still here")]),
    ("long_hours", "1\n10:59:59,999 --> 11:00:00,000\nLate night\n\n",
     [(39599999, 39600000, "Late night")]),
    ("crlf_multiline_tags", "﻿1\r\n00:00:07,100 --> 00:00:08,200\r\n<b>Bold</b> start\r\nquiet finish\r\n\r\n",
     [(7100, 8200, "Bold start quiet finish")]),
    ("no_trailing_blank", "1\n00:00:01,000 --> 00:00:02,000\nEOF right after",
     [(1000, 2000, "EOF right after")]),
]


def test_criterion_6_format_fidelity(tmp_path):
    with criterion(6, "binary round trips, SRT corpus, QA schema rejection"):
        rng = np.random.default_rng(6)

        # LMNF byte-exact round trip
        clip = ClipFeatures(rng.normal(size=(3, 4, 2, 3)).astype(np.float32).astype(np.float64))
        f1, f2 = tmp_path / "a.lmnf", tmp_path / "b.lmnf"
        save_features(clip, f1)
        save_features(load_features(f1), f2)
        assert f1.read_bytes() == f2.read_bytes()

        # LMNP byte-exact round trip
        weights = rng.normal(size=(6, 9))
        p1, p2 = tmp_path / "a.lmnp", tmp_path / "b.lmnp"
        save_params(weights, p1)
        save_params(load_params(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        # SRT corpus parses to exactly the expected entries
        assert len(SRT_CORPUS) >= 10
        for name, raw, expected in SRT_CORPUS:
            path = tmp_path / f"{name}.srt"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(raw)
            entries = parse_srt(path).entries
            got = [(e.start_ms, e.end_ms, e.text) for e in entries]
            assert got == expected, f"{name}: {got}"

        # QA JSONL schema rejections carry the documented messages
        good = ('{"qid": "q", "question": "x", "answers": ["a","b","c","d","e"],'
                ' "movie_id": "m", "clip_ids": ["c"], "correct_index": 1}')
        violations = [
            (good.replace('["a","b","c","d","e"]', '["a","b","c","d"]'),
             "expected 5 answers, got 4"),
            (good.replace('"correct_index": 1', '"correct_index": 9'),
             "correct_index 9 out of range"),
            (good.replace('"movie_id": "m", ', ""), "missing field 'movie_id'"),
            (good.replace('["c"]', "[]"), "clip_ids must be a nonempty list"),
            ("{broken", "invalid JSON"),
        ]
        for i, (line, message) in enumerate(violations):
            path = tmp_path / f"qa{i}.jsonl"
            path.write_text(line + "\n")
            with pytest.raises(DataFormatError, match="line 1"):
                load_qa_jsonl(path)
            try:
                load_qa_jsonl(path)
            except DataFormatError as exc:
                assert message in str(exc)


def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "cmd_train is byte-identical across runs and BLAS thread counts"):
        data_dir = tmp_path / "data"
        assert cli_main([
            "synth", "--out", str(data_dir),
            "--vocab-size", "30", "--dim", "8", "--channels", "10",
            "--frames", "2", "--height", "2", "--width", "2",
            "--n-subtitles", "3", "--n-train", "40", "--n-eval", "10",
            "--seed", "9",
        ]) == 0

        def train_args(out):
            return [
                "train",
                "--embeddings", str(data_dir / "embeddings.txt"),
                "--qa", str(data_dir / "train.jsonl"),
                "--features", str(data_dir / "features"),
                "--subtitles", str(data_dir / "subtitles"),
                "--frames", "2", "--max-epochs", "3", "--seed", "11",
                "--out", str(out),
            ]

        # two runs in this process, then one fresh process per BLAS thread count
        for run in ("r1", "r2"):
            assert cli_main(train_args(tmp_path / run)) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(lmn.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for run, threads in (("r3", "1"), ("r4", "2")):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            subprocess.run([sys.executable, "-m", "lmn.cli", *train_args(tmp_path / run)],
                           env=env, check=True, capture_output=True)
        outputs = [((tmp_path / run / "params.lmnp").read_bytes(),
                    (tmp_path / run / "report.json").read_bytes())
                   for run in ("r1", "r2", "r3", "r4")]
        assert all(o == outputs[0] for o in outputs[1:])
