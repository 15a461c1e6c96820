import json

import numpy as np
import pytest

from lmn.cli import main
from lmn.data_io import load_qa_jsonl


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

    def test_unknown_qid(self, synth_dir, trained_dir, capsys):
        code = main([
            "answer", *data_args(synth_dir),
            "--params", str(trained_dir / "params.lmnp"),
            "--qid", "zzz",
        ])
        assert code != 0
        assert "unknown qid" in capsys.readouterr().err


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
        items = load_qa_jsonl(synth_dir / "train.jsonl")
        code = main([
            "rank-subtitles", *data_args(synth_dir),
            "--params", str(trained_dir / "params.lmnp"),
            "--qid", items[0].qid, "--frame-index", "0",
            "--um-hops", "2", "--qg", "--memory-state", "final",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()


class TestGradcheck:
    def test_reports_error_value(self, synth_dir, capsys):
        code = main([
            "gradcheck", *data_args(synth_dir), "--step", "1e-5", "--seed", "2",
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

    def test_preset_best(self, synth_dir, tmp_path):
        out = tmp_path / "best"
        assert main([
            "train", *data_args(synth_dir),
            "--preset", "best", "--lr", "1e-5",
            "--max-epochs", "2", "--seed", "3", "--out", str(out),
        ]) == 0
