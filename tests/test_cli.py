import argparse
import dataclasses
import json
import math
import re
import shutil

import numpy as np
import pytest

import lmn.data_io
from lmn.cli import _settings, build_parser, main
from lmn.data_io import (
    SubtitleEntry,
    SubtitleFile,
    SyntheticSpec,
    load_features,
    load_params,
    load_plaintext_subtitles,
    load_qa_jsonl,
    parse_srt,
    save_features,
    save_params,
    save_qa_jsonl,
    srt_dumps,
    subsample_frames,
)
from lmn.frame_encoder import ClipFeatures
from lmn.subtitle_memory import build_memory
from lmn.training import ModelConfig, TrainConfig, init_params
from lmn.word_memory import embed_sentence, load_word2vec_text
from reference import reference_encode_clip, reference_forward


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main([
        "synth", "--out", str(out),
        "--vocab-size", "30", "--dim", "8", "--channels", "10",
        "--frames", "2", "--height", "2", "--width", "2",
        "--n-subtitles", "3", "--n-train", "40", "--n-eval", "12",
        "--seed", "5",
    ])
    assert code == 0
    return out


def data_args(d, extra=()):
    return [
        "--embeddings", str(d / "embeddings.txt"),
        "--qa", str(d / "train.jsonl"),
        "--features", str(d / "features"),
        "--subtitles", str(d / "subtitles"),
        "--frames", "2",
        *extra,
    ]


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "train", *data_args(synth_dir),
        "--max-epochs", "8", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert (out / "params.lmnp").exists() and (out / "report.json").exists()
    return out


class TestSynth:
    def test_layout(self, synth_dir):
        assert (synth_dir / "embeddings.txt").exists()
        items = load_qa_jsonl(synth_dir / "train.jsonl")
        assert len(items) == 40
        clip = items[0].clip_ids[0]
        assert (synth_dir / "features" / f"{clip}.lmnf").exists()
        assert (synth_dir / "subtitles" / f"{items[0].movie_id}.txt").exists()

    def test_same_seed_same_bytes(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert main([
            "synth", "--out", str(again),
            "--vocab-size", "30", "--dim", "8", "--channels", "10",
            "--frames", "2", "--height", "2", "--width", "2",
            "--n-subtitles", "3", "--n-train", "40", "--n-eval", "12",
            "--seed", "5",
        ]) == 0
        for rel in ("embeddings.txt", "train.jsonl", "eval.jsonl"):
            assert (again / rel).read_bytes() == (synth_dir / rel).read_bytes()

    def test_fewer_channels_than_dims_is_a_spec_error(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--dim", "16", "--channels", "8"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: SyntheticSpec.channels (8)"), err
        assert not out.exists()

    def test_negative_seed_is_a_spec_error(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: SyntheticSpec.seed must be >= 0\n"
        assert not out.exists()


class TestTrain:
    def test_report_schema(self, trained_dir):
        doc = json.loads((trained_dir / "report.json").read_text())
        assert set(doc) == {"epochs", "best_epoch", "best_dev_acc"}
        assert doc["epochs"]

    def test_missing_embeddings_fails_with_path(self, synth_dir, tmp_path, capsys):
        missing = str(synth_dir / "nope.txt")
        code = main([
            "train", "--embeddings", missing,
            "--qa", str(synth_dir / "train.jsonl"),
            "--features", str(synth_dir / "features"),
            "--subtitles", str(synth_dir / "subtitles"),
            "--out", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code != 0
        assert captured.err.startswith("error:")
        assert missing in captured.err

    def test_deterministic_across_runs(self, synth_dir, tmp_path):
        outputs = {}
        for label in ("a", "b"):
            out = tmp_path / label
            assert main([
                "train", *data_args(synth_dir),
                "--max-epochs", "3", "--seed", "7", "--out", str(out),
            ]) == 0
            outputs[label] = (
                (out / "params.lmnp").read_bytes(),
                (out / "report.json").read_bytes(),
            )
        assert outputs["a"] == outputs["b"]

    def test_overflow_stops_with_epoch_and_batch(self, tmp_path, capsys):
        # six subtitle passes overflow the update gate of every item at the
        # initial params of the default synthetic shape
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), "--n-train", "40", "--n-eval", "10"]) == 0
        capsys.readouterr()
        code = main([
            "train", "--embeddings", str(data_dir / "embeddings.txt"),
            "--qa", str(data_dir / "train.jsonl"),
            "--features", str(data_dir / "features"),
            "--subtitles", str(data_dir / "subtitles"),
            "--frames", "4", "--um-hops", "6", "--out", str(tmp_path / "run"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: epoch 1 batch 1:"), err

    @pytest.mark.parametrize("command", [
        ["eval"],
        ["answer", "--qid", "eval00003"],
        ["rank-subtitles", "--memory-state", "final", "--qid", "eval00003"],
        ["gradcheck", "--qid", "eval00003"],
    ], ids=["eval", "answer", "rank-subtitles", "gradcheck"])
    def test_overflow_names_question(self, tmp_path, capsys, command):
        # the same six passes overflow every question at the initial params
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), "--n-train", "1", "--n-eval", "10"]) == 0
        params = tmp_path / "params.lmnp"
        save_params(init_params(16, 24, seed=0).weights, params)
        capsys.readouterr()
        code = main([
            *command, "--embeddings", str(data_dir / "embeddings.txt"),
            "--qa", str(data_dir / "eval.jsonl"),
            "--features", str(data_dir / "features"),
            "--subtitles", str(data_dir / "subtitles"),
            "--frames", "4", "--um-hops", "6", "--params", str(params),
        ])
        qid = command[-1] if len(command) > 1 else "eval00000"
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error: question {qid}: overflow encountered in multiply"], err


class TestEval:
    def test_writes_accuracy_json(self, synth_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main([
            "eval", *data_args(synth_dir),
            "--params", str(trained_dir / "params.lmnp"),
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "eval.json").read_text())
        assert set(doc) == {"accuracy", "n", "per_question"}
        assert doc["n"] == 40
        record = doc["per_question"][0]
        assert {"qid", "predicted", "prob", "correct_index", "correct"} <= set(record)
        assert "accuracy" in capsys.readouterr().out

    def test_dimension_mismatch_rejected(self, synth_dir, tmp_path, capsys):
        from lmn.data_io import save_params

        bad = tmp_path / "bad.lmnp"
        save_params(np.zeros((5, 10)), bad)
        code = main([
            "eval", *data_args(synth_dir), "--params", str(bad),
        ])
        assert code != 0
        assert "does not match embedding dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (("--features", "missing"), "feature directory not found: missing"),
        (("--subtitles", "missing"), "subtitle directory not found: missing"),
        (("--params", "missing"), "params file not found: missing"),
    ], ids=["features", "subtitles", "params"])
    def test_paths_are_checked_before_the_embeddings_are_parsed(
        self, synth_dir, trained_dir, tmp_path, monkeypatch, capsys, flags, message
    ):
        def parse(path):
            raise AssertionError(f"{path} parsed before every path was checked")

        monkeypatch.setattr("lmn.cli.load_word2vec_text", parse)
        monkeypatch.chdir(tmp_path)
        code = main(["eval", *data_args(synth_dir),
                     "--params", str(trained_dir / "params.lmnp"), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_out_under_a_file_fails_before_any_file_is_parsed(
        self, synth_dir, trained_dir, tmp_path, monkeypatch, capsys, command
    ):
        def parse(path):
            raise AssertionError(f"{path} parsed before the output directory was made")

        monkeypatch.setattr("lmn.cli.load_word2vec_text", parse)
        (tmp_path / "file").write_text("")
        extra = ("--params", str(trained_dir / "params.lmnp")) if command == "eval" else ()
        out = tmp_path / "file" / "run"
        code = main([command, *data_args(synth_dir), *extra, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory: ")

    def test_params_are_read_before_any_clip_is_decoded(self, synth_dir, tmp_path, monkeypatch,
                                                        capsys):
        def decode(path):
            raise AssertionError(f"{path} decoded before the params were read")

        monkeypatch.setattr("lmn.data_io.load_features", decode)
        bad = tmp_path / "bad.lmnp"
        save_params(np.zeros((5, 10)), bad)
        assert main(["eval", *data_args(synth_dir), "--params", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: params dimension 5 does not match embedding dimension 8\n")

    def test_subtitles_or_video_only_required(self, synth_dir, trained_dir, capsys):
        args = data_args(synth_dir)
        i = args.index("--subtitles")
        del args[i : i + 2]
        code = main(["eval", *args, "--params", str(trained_dir / "params.lmnp")])
        assert code == 1
        assert capsys.readouterr().err == "error: missing required subtitle directory\n"

    def test_empty_dataset_rejected(self, synth_dir, trained_dir, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main([
            "eval",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--qa", str(empty),
            "--features", str(synth_dir / "features"),
            "--subtitles", str(synth_dir / "subtitles"),
            "--frames", "2",
            "--params", str(trained_dir / "params.lmnp"),
        ])
        assert code != 0
        assert "empty dataset" in capsys.readouterr().err

    def test_identical_answers_hit_tie_break(self, synth_dir, trained_dir, tmp_path, capsys):
        # with indistinguishable answers every prediction is index 0
        items = load_qa_jsonl(synth_dir / "train.jsonl")[:6]
        rows = []
        for i, item in enumerate(items):
            rows.append(json.dumps({
                "qid": item.qid, "question": item.question,
                "answers": ["same words"] * 5,
                "movie_id": item.movie_id, "clip_ids": list(item.clip_ids),
                "correct_index": i % 5,
            }))
        qa = tmp_path / "degenerate.jsonl"
        qa.write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        code = main([
            "eval",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--qa", str(qa),
            "--features", str(synth_dir / "features"),
            "--subtitles", str(synth_dir / "subtitles"),
            "--frames", "2",
            "--params", str(trained_dir / "params.lmnp"),
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "eval.json").read_text())
        expected = sum(1 for i in range(6) if i % 5 == 0) / 6
        assert doc["accuracy"] == pytest.approx(expected)
        assert all(r["predicted"] == 0 for r in doc["per_question"])

    def test_subrip_subtitles_match_plaintext(self, synth_dir, trained_dir, tmp_path):
        # the same sentences as timed .srt files give a byte-identical eval.json
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        for txt in (synth_dir / "subtitles").glob("*.txt"):
            texts = load_plaintext_subtitles(txt).texts()
            entries = [SubtitleEntry(2000 * n, 2000 * n + 1500, text)
                       for n, text in enumerate(texts)]
            srt = srt_dir / f"{txt.stem}.srt"
            srt.write_text(srt_dumps(SubtitleFile(tuple(entries))), encoding="utf-8")
            assert parse_srt(srt).texts() == texts
        docs = []
        for subtitles in (synth_dir / "subtitles", srt_dir):
            out = tmp_path / subtitles.name / "eval"
            assert main(["eval", *data_args(synth_dir), "--subtitles", str(subtitles),
                         "--params", str(trained_dir / "params.lmnp"), "--out", str(out)]) == 0
            docs.append((out / "eval.json").read_bytes())
        assert docs[0] == docs[1]

    def test_missing_subtitle_file_names_the_movie(self, synth_dir, trained_dir, tmp_path,
                                                   capsys):
        subtitles = tmp_path / "subtitles"
        shutil.copytree(synth_dir / "subtitles", subtitles)
        movie = load_qa_jsonl(synth_dir / "train.jsonl")[0].movie_id
        (subtitles / f"{movie}.txt").unlink()
        code = main(["eval", *data_args(synth_dir), "--subtitles", str(subtitles),
                     "--params", str(trained_dir / "params.lmnp")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: no subtitle file for movie {movie!r} in {subtitles}\n")

    def test_clip_shape_mismatch_names_the_question(self, synth_dir, trained_dir, tmp_path,
                                                    capsys):
        features = tmp_path / "features"
        shutil.copytree(synth_dir / "features", features)
        item = load_qa_jsonl(synth_dir / "train.jsonl")[0]
        clip = load_features(features / f"{item.clip_ids[0]}.lmnf")
        t, c, h, w = clip.tensor.shape
        save_features(ClipFeatures(np.zeros((t, c, h + 1, w + 1), np.float32)),
                      features / "wider.lmnf")
        qa = tmp_path / "qa.jsonl"
        save_qa_jsonl([dataclasses.replace(item, clip_ids=item.clip_ids + ("wider",))], qa)
        code = main(["eval", *data_args(synth_dir), "--qa", str(qa), "--features", str(features),
                     "--params", str(trained_dir / "params.lmnp")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: question {item.qid}: clip shape mismatch: "
            f"{(c, h + 1, w + 1)} vs {(c, h, w)}\n")


class TestAnswer:
    def test_prints_choice(self, synth_dir, trained_dir, capsys):
        items = load_qa_jsonl(synth_dir / "train.jsonl")
        code = main([
            "answer", *data_args(synth_dir),
            "--params", str(trained_dir / "params.lmnp"),
            "--qid", items[0].qid,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted answer" in out

    def test_unlabeled_question_prints_no_label(self, synth_dir, trained_dir, tmp_path, capsys):
        record = json.loads((synth_dir / "train.jsonl").read_text().splitlines()[0])
        del record["correct_index"]
        qa = tmp_path / "qa.jsonl"
        qa.write_text(json.dumps(record) + "\n")
        args = data_args(synth_dir)
        args[args.index("--qa") + 1] = str(qa)
        code = main(["answer", *args, "--params", str(trained_dir / "params.lmnp"),
                     "--qid", record["qid"]])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.splitlines()
        assert re.fullmatch(rf"qid {record['qid']}: predicted answer [0-4]", lines[0])
        assert len(lines) == 6  # five answers, no label line
        for h, line in enumerate(lines[1:]):
            assert re.match(rf"^ [ *] \[{h}\] p=[01]\.\d{{4}} ", line), line

    def test_printed_probability_is_evaluates(self, synth_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        params = str(trained_dir / "params.lmnp")
        assert main(["eval", *data_args(synth_dir), "--params", params, "--out", str(out)]) == 0
        records = json.loads((out / "eval.json").read_text())["per_question"]
        capsys.readouterr()
        for record in records[:3]:
            assert main(["answer", *data_args(synth_dir), "--params", params,
                         "--qid", record["qid"]]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == f"qid {record['qid']}: predicted answer {record['predicted']}"
            chosen = lines[1 + record["predicted"]]
            assert chosen.startswith(f" * [{record['predicted']}] p={record['prob']:.4f} ")
            verdict = "correct" if record["correct"] else "incorrect"
            assert lines[6:] == [f"label {record['correct_index']} ({verdict})"]

    def test_unknown_qid(self, synth_dir, trained_dir, capsys):
        code = main([
            "answer", *data_args(synth_dir),
            "--params", str(trained_dir / "params.lmnp"),
            "--qid", "zzz",
        ])
        assert code != 0
        assert "unknown qid" in capsys.readouterr().err

    def test_decodes_only_the_asked_question(self, synth_dir, trained_dir, tmp_path, capsys):
        # another question's truncated clip does not stop this one
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        items = load_qa_jsonl(data / "train.jsonl")
        other = data / "features" / f"{items[1].clip_ids[0]}.lmnf"
        other.write_bytes(other.read_bytes()[:4])
        code = main([
            "answer", *data_args(data),
            "--params", str(trained_dir / "params.lmnp"),
            "--qid", items[0].qid,
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert f"qid {items[0].qid}: predicted answer" in captured.out

    def test_clip_id_outside_features_is_rejected(self, synth_dir, trained_dir, tmp_path,
                                                   capsys, monkeypatch):
        items = load_qa_jsonl(synth_dir / "train.jsonl")
        outside = tmp_path / "outside"
        shutil.copyfile(synth_dir / "features" / f"{items[0].clip_ids[0]}.lmnf",
                        tmp_path / "outside.lmnf")
        record = json.loads((synth_dir / "train.jsonl").read_text().splitlines()[0])
        record["clip_ids"] = [str(outside)]
        qa = tmp_path / "qa.jsonl"
        qa.write_text(json.dumps(record) + "\n")
        decoded = []

        def recording(path):
            decoded.append(path)
            return load_features(path)

        monkeypatch.setattr("lmn.data_io.load_features", recording)
        args = data_args(synth_dir)
        args[args.index("--qa") + 1] = str(qa)
        code = main(["answer", *args, "--params", str(trained_dir / "params.lmnp"),
                     "--qid", record["qid"]])
        assert code == 1
        assert decoded == []
        assert capsys.readouterr().err == (f"error: {qa}: line 1: clip_ids[0] must not contain "
                                           f"'/', '\\' or NUL, got {str(outside)!r}\n")


class TestRankSubtitles:
    def test_lists_all_subtitles_in_rank_order(self, synth_dir, trained_dir, capsys):
        items = load_qa_jsonl(synth_dir / "train.jsonl")
        code = main([
            "rank-subtitles", *data_args(synth_dir),
            "--params", str(trained_dir / "params.lmnp"),
            "--qid", items[0].qid, "--frame-index", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 3  # one per subtitle
        assert lines[0].startswith("1\t")
        sims = [float(l.split("\t")[1]) for l in lines]
        assert sims == sorted(sims, reverse=True)

    def test_planted_subtitle_ranks_first_at_zero_noise(self, tmp_path, capsys):
        data_dir = tmp_path / "clean"
        assert main([
            "synth", "--out", str(data_dir),
            "--vocab-size", "30", "--dim", "8", "--channels", "10",
            "--frames", "2", "--height", "2", "--width", "2",
            "--n-subtitles", "3", "--n-train", "40", "--n-eval", "10",
            "--noise", "0.0", "--seed", "6",
        ]) == 0
        run_dir = tmp_path / "run"
        assert main([
            "train", *data_args(data_dir),
            "--max-epochs", "20", "--seed", "6", "--out", str(run_dir),
        ]) == 0
        capsys.readouterr()
        items = load_qa_jsonl(data_dir / "train.jsonl")
        item = items[0]
        assert main([
            "rank-subtitles", *data_args(data_dir),
            "--params", str(run_dir / "params.lmnp"),
            "--qid", item.qid, "--frame-index", "0",
        ]) == 0
        top = capsys.readouterr().out.splitlines()[0]
        answer_words = set(item.answers[item.correct_index].split())
        assert answer_words <= set(top.split("\t")[2].split())

    def test_frame_index_out_of_range(self, synth_dir, trained_dir, capsys):
        items = load_qa_jsonl(synth_dir / "train.jsonl")
        code = main([
            "rank-subtitles", *data_args(synth_dir),
            "--params", str(trained_dir / "params.lmnp"),
            "--qid", items[0].qid, "--frame-index", "9",
        ])
        assert code != 0
        assert "out of range" in capsys.readouterr().err

    def test_final_memory_state(self, synth_dir, trained_dir, capsys):
        # the printed ranking against the final memory equals one built from
        # the straight-loop reference frames and the loop update/guide passes
        item = load_qa_jsonl(synth_dir / "train.jsonl")[0]
        params = trained_dir / "params.lmnp"
        mem = load_word2vec_text(synth_dir / "embeddings.txt")
        clips = [load_features(synth_dir / "features" / f"{cid}.lmnf") for cid in item.clip_ids]
        regions = subsample_frames(clips, 2).regions()
        question = embed_sentence(mem, [item.question])[0]
        frames = reference_forward(mem.matrix, load_params(params), regions, None,
                                   question, np.zeros((5, mem.dim)))["frames"]
        sentences = load_plaintext_subtitles(
            synth_dir / "subtitles" / f"{item.movie_id}.txt").texts()
        memory0 = build_memory(sentences, mem)
        for flags, um_hops, qg in ((["--um-hops", "2", "--qg"], 2, True),
                                   (["--um-hops", "3"], 3, False)):
            _, final = reference_encode_clip(frames, memory0, question, um_hops, qg)
            for index, frame in enumerate(frames):
                scores = [math.fsum(a * b for a, b in zip(frame, row)) for row in final]
                order = sorted(range(len(scores)), key=lambda n: (-scores[n], n))
                expected = [f"{rank}\t{scores[n]:+.6f}\t{sentences[n]}"
                            for rank, n in enumerate(order, 1)]
                code = main([
                    "rank-subtitles", *data_args(synth_dir), "--params", str(params),
                    "--qid", item.qid, "--frame-index", str(index),
                    *flags, "--memory-state", "final",
                ])
                assert code == 0
                assert capsys.readouterr().out.splitlines() == expected, (flags, index)


class TestGradcheck:
    def test_reports_error_value(self, synth_dir, capsys):
        code = main([
            "gradcheck", *data_args(synth_dir), "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative error" in out

    def test_video_only_mode(self, synth_dir, capsys):
        code = main([
            "gradcheck",
            "--embeddings", str(synth_dir / "embeddings.txt"),
            "--qa", str(synth_dir / "train.jsonl"),
            "--features", str(synth_dir / "features"),
            "--video-only", "--frames", "2",
        ])
        assert code == 0
        assert "max relative error" in capsys.readouterr().out

    def test_without_qid_decodes_only_the_first_question(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--n-train", "20", "--n-eval", "6",
                     "--seed", "1"]) == 0
        other = data / "features" / "eval00001_c0.lmnf"
        other.write_bytes(other.read_bytes()[:4])
        capsys.readouterr()
        code = main([
            "gradcheck", "--embeddings", str(data / "embeddings.txt"),
            "--qa", str(data / "eval.jsonl"), "--features", str(data / "features"),
            "--subtitles", str(data / "subtitles"), "--frames", "4",
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.startswith("gradcheck qid eval00000: max relative error")

    @pytest.fixture(scope="class")
    def seed3_dir(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("seed3")
        assert main(["synth", "--out", str(data), "--seed", "3"]) == 0
        return data

    def test_embeds_each_sentence_once(self, seed3_dir, monkeypatch, capsys):
        # the subtitles through build_memory, then the question and answers
        # through gradcheck's preparation, and nothing twice
        (item,) = [q for q in load_qa_jsonl(seed3_dir / "eval.jsonl") if q.qid == "eval00003"]
        path = seed3_dir / "subtitles" / f"{item.movie_id}.txt"
        subtitles = load_plaintext_subtitles(path).texts()
        calls = []

        def spy(mem, sentences, normalize=True):
            calls.append(list(sentences))
            return embed_sentence(mem, sentences, normalize)

        monkeypatch.setattr("lmn.training.embed_sentence", spy)
        monkeypatch.setattr("lmn.subtitle_memory.embed_sentence", spy)
        capsys.readouterr()
        code = main([
            "gradcheck", "--embeddings", str(seed3_dir / "embeddings.txt"),
            "--qa", str(seed3_dir / "eval.jsonl"), "--features", str(seed3_dir / "features"),
            "--subtitles", str(seed3_dir / "subtitles"), "--frames", "4", "--qid", item.qid,
        ])
        assert code == 0, capsys.readouterr().err
        assert [len(call) for call in calls] == [5, 6]
        assert calls == [list(subtitles), [item.question, *item.answers]]

    def test_video_only_checks_at_the_data_frame_count(self, seed3_dir, capsys):
        # synth clips have 4 frames: the default --frames 32 repeats each 8
        # times, so the video-only clip is 8 times the frame sum and the
        # answer softmax saturates at init
        argv = ["gradcheck", "--embeddings", str(seed3_dir / "embeddings.txt"),
                "--qa", str(seed3_dir / "eval.jsonl"), "--features", str(seed3_dir / "features"),
                "--video-only", "--qid", "eval00003"]
        capsys.readouterr()
        assert main(argv) == 1
        assert re.fullmatch(r"error: question eval00003: no direction reaches 1e5 times the "
                            r"finite-difference floor .* \(loss 0\.000e\+00, max \|logit\| "
                            r"1\.854e\+02\)\n", capsys.readouterr().err)
        assert main([*argv, "--frames", "4"]) == 0
        out = capsys.readouterr().out
        error = re.fullmatch(r"gradcheck qid eval00003: max relative error (\S+)\n", out)
        assert float(error.group(1)) <= 1e-4


@pytest.mark.parametrize("command", ["eval", "answer", "rank-subtitles", "gradcheck"])
def test_overflowing_subtitle_names_the_movie(command, synth_dir, trained_dir, tmp_path, capsys):
    # "big big" sums past the float64 range along the new word's first axis
    lines = (synth_dir / "embeddings.txt").read_text(encoding="utf-8").splitlines()
    vocab, dim = map(int, lines[0].split())
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text("\n".join([f"{vocab + 1} {dim}", *lines[1:],
                                     "big 1.5e308" + " 0" * (dim - 1)]) + "\n", encoding="utf-8")
    subtitles = tmp_path / "subtitles"
    shutil.copytree(synth_dir / "subtitles", subtitles)
    item = load_qa_jsonl(synth_dir / "train.jsonl")[0]
    path = subtitles / f"{item.movie_id}.txt"
    sentences = path.read_text(encoding="utf-8").splitlines()
    sentences[1] = "big big"
    path.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    argv = [command, *data_args(synth_dir), "--embeddings", str(embeddings),
            "--subtitles", str(subtitles)]
    if command != "gradcheck":
        argv += ["--params", str(trained_dir / "params.lmnp")]
    if command in ("answer", "rank-subtitles"):
        argv += ["--qid", item.qid]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: movie {item.movie_id}: subtitle 1 embeds to non-finite values\n")


class TestParsing:
    def test_unknown_command_is_usage_error(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_rejects_training_flags(self, synth_dir, trained_dir, capsys):
        code = main([
            "eval", *data_args(synth_dir),
            "--params", str(trained_dir / "params.lmnp"), "--lr", "0.1",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--um-carry-frames", "--no-normalize-sentences",
                                      "--average-clip"])
    @pytest.mark.parametrize("command,required", [
        ("train", ()),
        ("eval", ("--params", "p")),
        ("answer", ("--params", "p", "--qid", "q")),
        ("rank-subtitles", ("--params", "p", "--qid", "q")),
        ("gradcheck", ()),
    ])
    def test_removed_model_flags_are_usage_errors(self, synth_dir, command, required, flag,
                                                  capsys):
        assert main([command, *data_args(synth_dir), *required, flag]) == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag}\n"

    def test_preset_best(self, synth_dir, tmp_path):
        # the paper's strongest configuration: two subtitle passes plus guidance
        out = tmp_path / "best"
        assert main([
            "train", *data_args(synth_dir),
            "--um-hops", "2", "--qg", "--lr", "1e-5",
            "--max-epochs", "2", "--seed", "3", "--out", str(out),
        ]) == 0

    @pytest.mark.parametrize("command,classes,required", [
        ("train", (ModelConfig, TrainConfig), ()),
        ("eval", (ModelConfig,), ("--params", "p")),
        ("answer", (ModelConfig,), ("--params", "p", "--qid", "q")),
        ("rank-subtitles", (ModelConfig,), ("--params", "p", "--qid", "q")),
        ("gradcheck", (ModelConfig,), ()),
        ("synth", (SyntheticSpec,), ("--out", "o")),
    ])
    def test_each_setting_field_has_one_flag(self, command, classes, required):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = commands.choices[command]._actions
        if command != "synth":
            required = ("--embeddings", "e", "--qa", "q", "--features", "f", *required)
        # setting flags are the ones that set nothing unless given
        setting_dests = sorted(a.dest for a in actions if a.default is argparse.SUPPRESS
                               and a.option_strings != ["-h", "--help"])
        assert setting_dests == sorted(f.name for cls in classes for f in dataclasses.fields(cls))

        args = parser.parse_args([command, *required])
        assert [_settings(cls, args) for cls in classes] == [cls() for cls in classes]
        for cls in classes:
            for f in dataclasses.fields(cls):
                (flag,) = [a for a in actions if a.dest == f.name]
                if flag.nargs == 0:  # a switch: giving it flips the default
                    value, given = not f.default, [flag.option_strings[0]]
                else:
                    value = f.default + 1 if type(f.default) is int else f.default / 2
                    given = [flag.option_strings[0], str(value)]
                args = parser.parse_args([command, *required, *given])
                assert [_settings(other, args) for other in classes] == [
                    dataclasses.replace(other(), **{f.name: value}) if other is cls else other()
                    for other in classes
                ], flag.option_strings

    def test_zero_um_hops_still_fails(self, synth_dir, capsys):
        assert main(["gradcheck", *data_args(synth_dir), "--um-hops", "0"]) == 1
        assert capsys.readouterr().err == "error: hop counts must be >= 1\n"

    @pytest.mark.parametrize("command,flags,message", [
        ("train", ("--batch-size", "0"), "batch_size must be >= 1"),
        ("train", ("--lr", "0"), "learning_rate must be positive"),
        ("train", ("--um-hops", "0"), "hop counts must be >= 1"),
        ("eval", ("--params", "p.lmnp", "--swm-hops", "0"), "hop counts must be >= 1"),
        ("answer", ("--params", "p.lmnp", "--qid", "q", "--um-hops", "0"),
         "hop counts must be >= 1"),
        ("rank-subtitles", ("--params", "p.lmnp", "--qid", "q", "--um-hops", "0"),
         "hop counts must be >= 1"),
        ("gradcheck", ("--swm-hops", "0"), "hop counts must be >= 1"),
        ("train", ("--lr", "nan"), "learning_rate must be finite, got nan"),
        ("train", ("--lr", "inf"), "learning_rate must be finite, got inf"),
        ("train", ("--seed", "-1"), "seed must be >= 0"),
        ("gradcheck", ("--seed", "-1"), "seed must be >= 0"),
        ("rank-subtitles", ("--params", "p.lmnp", "--qid", "q", "--video-only"),
         "rank-subtitles requires subtitles"),
        ("rank-subtitles", ("--params", "p.lmnp", "--qid", "q", "--frame-index", "2"),
         "frame index 2 out of range (clip has 2 frames)"),
        ("rank-subtitles", ("--params", "p.lmnp", "--qid", "q", "--frame-index", "-1"),
         "frame index -1 out of range (clip has 2 frames)"),
    ], ids=["train-batch-size", "train-lr", "train", "eval", "answer", "rank-subtitles",
            "gradcheck", "train-lr-nan", "train-lr-inf", "train-seed", "gradcheck-seed",
            "rank-subtitles-video-only",
            "rank-subtitles-frame-index-past-end", "rank-subtitles-frame-index-negative"])
    def test_flags_are_checked_before_any_input_is_read(self, command, flags, message, capsys,
                                                        tmp_path, monkeypatch):
        # every input path is missing, so reading any of them would fail first
        monkeypatch.chdir(tmp_path)
        code = main([command, *data_args(tmp_path / "missing"), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command,extra", [
        ("train", ()),
        ("eval", ("--params", "p.lmnp")),
        ("answer", ("--params", "p.lmnp", "--qid", "q")),
        ("rank-subtitles", ("--params", "p.lmnp", "--qid", "q")),
        ("gradcheck", ()),
    ])
    @pytest.mark.parametrize("frames,message", [
        ("0", "must be >= 1"),
        ("-3", "must be >= 1"),
        ("two", "invalid int value: 'two'"),
    ], ids=["zero", "negative", "text"])
    def test_frames_below_one_is_usage_error(self, synth_dir, command, extra, frames, message,
                                             capsys):
        code = main([command, *data_args(synth_dir), *extra, "--frames", frames])
        assert code == 2
        assert capsys.readouterr().err == f"error: argument --frames: {message}\n"


class TestFileBackedClips:
    """Clips whose float64 regions exceed the chunk budget stay on disk until
    their chunk reads them. Every command writes and prints the bytes it
    gives when the same clips are held in memory."""

    @pytest.fixture(scope="class")
    def wide_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("wide")
        code = main(["synth", "--out", str(out), "--channels", "512", "--height", "7",
                     "--width", "7", "--frames", "2", "--n-train", "24", "--n-eval", "8",
                     "--seed", "6"])
        assert code == 0
        return out

    @staticmethod
    def run_commands(d, out, frames, capsys):
        """`lmn train` then `lmn eval` into `out`, then `rank-subtitles` at
        both memory states and `answer`; returns what the last four print."""
        def args(qa):
            return ["--embeddings", str(d / "embeddings.txt"), "--qa", str(d / qa),
                    "--features", str(d / "features"), "--subtitles", str(d / "subtitles"),
                    "--frames", frames]

        params = str(out / "params.lmnp")
        assert main(["train", *args("train.jsonl"), "--max-epochs", "3", "--seed", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        printed = []
        for command in (
            ["eval", *args("eval.jsonl"), "--params", params, "--out", str(out)],
            ["rank-subtitles", *args("eval.jsonl"), "--params", params, "--qid", "eval00001",
             "--frame-index", str(int(frames) - 1)],
            ["rank-subtitles", *args("eval.jsonl"), "--params", params, "--qid", "eval00002",
             "--memory-state", "final"],
            ["answer", *args("eval.jsonl"), "--params", params, "--qid", "eval00003"],
        ):
            assert main(command) == 0
            printed.append(capsys.readouterr().out)
        return printed

    @pytest.mark.parametrize("frames", ["2", "5"], ids=["whole-clip", "subsampled"])
    def test_outputs_match_resident_clips(self, wide_dir, tmp_path, monkeypatch, capsys, frames):
        load = lmn.data_io.load_features
        assert load(next((wide_dir / "features").iterdir())).source is not None
        on_disk = self.run_commands(wide_dir, tmp_path / "on_disk", frames, capsys)
        monkeypatch.setattr(lmn.data_io, "load_features",
                            lambda path: ClipFeatures(load(path).tensor))
        resident = self.run_commands(wide_dir, tmp_path / "resident", frames, capsys)
        assert on_disk == resident
        for name in ("params.lmnp", "report.json", "eval.json"):
            assert (tmp_path / "on_disk" / name).read_bytes() == \
                (tmp_path / "resident" / name).read_bytes(), name
