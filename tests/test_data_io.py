import codecs
import filecmp
import json
import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from lmn.answering import QAItem
from lmn.data_io import (
    DataFormatError,
    SubtitleEntry,
    SubtitleFile,
    SyntheticSpec,
    generate_synthetic,
    load_examples,
    load_features,
    load_params,
    load_plaintext_subtitles,
    load_qa_jsonl,
    parse_srt,
    save_features,
    save_params,
    srt_dumps,
    subsample_frames,
    subsample_indices,
    write_synthetic,
)
from lmn.frame_encoder import ClipFeatures
from lmn.word_memory import EmbeddingFormatError, embed_sentence, load_word2vec_text


def write(path, text, encoding="utf-8"):
    with open(path, "w", encoding=encoding, newline="") as fh:
        fh.write(text)
    return path


class TestParseSrt:
    def test_single_block(self, tmp_path):
        path = write(tmp_path / "a.srt", "1\n00:00:01,000 --> 00:00:02,500\nHello there\n\n")
        sub = parse_srt(path)
        assert sub.entries == (SubtitleEntry(1000, 2500, "Hello there"),)

    def test_multiline_text_joined(self, tmp_path):
        path = write(
            tmp_path / "a.srt",
            "1\n00:00:01,000 --> 00:00:02,000\nRed ink\non pink paper\n\n",
        )
        assert parse_srt(path).entries[0].text == "Red ink on pink paper"

    def test_tags_stripped(self, tmp_path):
        path = write(tmp_path / "a.srt", "1\n00:00:01,000 --> 00:00:02,000\n<i>Sherry.</i>\n\n")
        assert parse_srt(path).entries[0].text == "Sherry."

    def test_crlf_and_bom(self, tmp_path):
        raw = "﻿1\r\n00:01:00,000 --> 00:01:01,000\r\nLine one\r\n\r\n2\r\n00:01:02,000 --> 00:01:03,000\r\nLine two\r\n"
        path = write(tmp_path / "a.srt", raw)
        sub = parse_srt(path)
        assert [e.text for e in sub.entries] == ["Line one", "Line two"]
        assert sub.entries[0].start_ms == 60000

    def test_index_line_optional(self, tmp_path):
        path = write(tmp_path / "a.srt", "00:00:01,000 --> 00:00:02,000\nNo index\n\n")
        assert parse_srt(path).entries[0].text == "No index"

    def test_malformed_timestamp_names_block(self, tmp_path):
        path = write(
            tmp_path / "a.srt",
            "1\n00:00:01,000 --> 00:00:02,000\nok\n\n2\nnot a timestamp\noops\n\n",
        )
        with pytest.raises(DataFormatError, match="block 2"):
            parse_srt(path)

    def test_reversed_span_rejected(self, tmp_path):
        path = write(tmp_path / "a.srt", "1\n00:00:05,000 --> 00:00:02,000\nbad\n\n")
        with pytest.raises(DataFormatError, match="start time after end"):
            parse_srt(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path / "a.srt", "\n\n")
        with pytest.raises(DataFormatError, match="empty"):
            parse_srt(path)

    def test_round_trips_own_serialization(self, tmp_path):
        entries = (
            SubtitleEntry(0, 1500, "First line"),
            SubtitleEntry(59999, 3600000, "Second with 3 words"),
            SubtitleEntry(3661001, 3661002, "Third"),
        )
        path = write(tmp_path / "rt.srt", srt_dumps(SubtitleFile(entries)))
        assert parse_srt(path).entries == entries


class TestPlaintextSubtitles:
    def test_blank_lines_skipped(self, tmp_path):
        sub = load_plaintext_subtitles(write(tmp_path / "s.txt", "a\n\nb\n"))
        assert [e.text for e in sub.entries] == ["a", "b"]
        assert all(e.start_ms == 0 and e.end_ms == 0 for e in sub.entries)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            load_plaintext_subtitles(write(tmp_path / "s.txt", ""))

    def test_trailing_newline_irrelevant(self, tmp_path):
        a = load_plaintext_subtitles(write(tmp_path / "a.txt", "x\ny\n"))
        b = load_plaintext_subtitles(write(tmp_path / "b.txt", "x\ny"))
        assert a == b


class ContainerChecks:
    """Every check the shared LMNF/LMNP container reader makes, written
    once and run for each format by the two subclasses. Each rejection is
    a DataFormatError whose message starts with the file's path."""

    MAGIC: bytes
    NDIM: int
    VALUE: str  # struct code of one payload value
    load: staticmethod  # the format's reader

    def pack(self, dims, values=(), magic=None, version=1) -> bytes:
        layout = f"<4sI{len(dims)}I{len(values)}{self.VALUE}"
        return struct.pack(layout, magic or self.MAGIC, version, *dims, *values)

    def rejects(self, path, data: bytes, fact: str) -> None:
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: .*{fact}"):
            self.load(path)

    def two_values(self) -> tuple[int, ...]:
        return (1,) * (self.NDIM - 1) + (2,)

    def test_truncation_names_byte_counts(self, tmp_path):
        data = self.pack(self.two_values(), (0.5, 1.5))
        self.rejects(tmp_path / "f", data[:-4],
                     rf"expected {len(data)} bytes, got {len(data) - 4}")

    def test_truncated_header_names_byte_counts(self, tmp_path):
        size = 8 + 4 * self.NDIM
        self.rejects(tmp_path / "f", self.MAGIC,
                     re.escape(f"truncated header (expected {size} bytes, got 4)"))

    def test_bad_magic(self, tmp_path):
        self.rejects(tmp_path / "f", self.pack(self.two_values(), (0.5, 1.5), magic=b"NOPE"),
                     "bad magic b'NOPE'")

    def test_bad_version(self, tmp_path):
        self.rejects(tmp_path / "f", self.pack(self.two_values(), (0.5, 1.5), version=9),
                     "unsupported version 9")

    def test_zero_dimension_rejected(self, tmp_path):
        dims = (0,) + (1,) * (self.NDIM - 1)
        self.rejects(tmp_path / "f", self.pack(dims), re.escape(f"zero-sized dimension in header {dims}"))

    def test_dimension_overflow_rejected(self, tmp_path):
        dims = (2**32 - 1,) * self.NDIM
        self.rejects(tmp_path / "f", self.pack(dims), re.escape(f"dimension overflow {dims}"))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_payload_names_file(self, tmp_path, value):
        self.rejects(tmp_path / "f", self.pack(self.two_values(), (0.5, value)), "non-finite")


class TestFeatureFiles(ContainerChecks):
    MAGIC, NDIM, VALUE = b"LMNF", 4, "f"
    load = staticmethod(load_features)

    def test_round_trip_after_f32_rounding(self, tmp_path):
        rng = np.random.default_rng(5)
        clip = ClipFeatures(rng.normal(size=(2, 3, 2, 2)))
        path = tmp_path / "c.lmnf"
        save_features(clip, path)
        loaded = load_features(path)
        np.testing.assert_array_equal(
            loaded.tensor, clip.tensor.astype(np.float32).astype(np.float64)
        )

    def test_round_trip_byte_exact_on_f32_payload(self, tmp_path):
        rng = np.random.default_rng(6)
        clip = ClipFeatures(rng.normal(size=(1, 2, 2, 3)).astype(np.float32).astype(np.float64))
        first = tmp_path / "a.lmnf"
        second = tmp_path / "b.lmnf"
        save_features(clip, first)
        save_features(load_features(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_canonical_cnn_shape_accepted(self, tmp_path):
        clip = ClipFeatures(np.zeros((32, 512, 7, 7)))
        path = tmp_path / "big.lmnf"
        save_features(clip, path)
        loaded = load_features(path)
        assert loaded.tensor.shape == (32, 512, 7, 7)

    def test_writer_refuses_values_past_float32(self, tmp_path):
        path = tmp_path / "c.lmnf"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: payload contains non-finite"):
            save_features(ClipFeatures(np.full((1, 2, 1, 1), 1e300)), path)
        assert os.listdir(tmp_path) == []

    def test_loaded_clip_is_held_at_its_stored_width(self, tmp_path):
        t, c, h, w = 3, 5, 2, 4
        path = tmp_path / "c.lmnf"
        save_features(ClipFeatures(np.random.default_rng(7).normal(size=(t, c, h, w))), path)
        clip = load_features(path)
        buffer = clip.tensor.base  # the clip's own region-order buffer
        assert buffer.dtype == np.float32 and buffer.shape == (t, h, w, c)
        assert buffer.flags.owndata and buffer.flags.c_contiguous
        assert buffer.nbytes == 4 * t * c * h * w
        assert not clip.tensor.flags.writeable and not clip.regions().flags.writeable
        assert subsample_frames([clip, clip], 4).tensor.dtype == np.float32

    def test_loaded_clips_hold_half_their_float64_bytes(self, tmp_path):
        path = tmp_path / "big.lmnf"
        save_features(ClipFeatures(np.ones((32, 512, 7, 7), dtype=np.float32)), path)
        k = 3
        tracemalloc.start()
        try:
            clips = [load_features(path) for _ in range(k)]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 0.55 * k * clips[0].tensor.size * 8


class TestParamsFiles(ContainerChecks):
    MAGIC, NDIM, VALUE = b"LMNP", 2, "d"
    load = staticmethod(load_params)

    def test_round_trip_byte_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        weights = rng.normal(size=(4, 6))
        first, second = tmp_path / "a.lmnp", tmp_path / "b.lmnp"
        save_params(weights, first)
        loaded = load_params(first)
        np.testing.assert_array_equal(loaded, weights)
        save_params(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("weights, fact", [
        (np.zeros((0, 3)), "zero-sized dimension in (0, 3)"),
        ([[math.nan, 1.0]], "payload contains non-finite entries"),
        ([[1.0, -math.inf]], "payload contains non-finite entries"),
    ], ids=["zero-sized", "nan", "inf"])
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, weights, fact):
        path = tmp_path / "p.lmnp"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {fact}')}$"):
            save_params(weights, path)
        assert os.listdir(tmp_path) == []

    def test_stale_tmp_directory_does_not_block_save(self, tmp_path):
        path = tmp_path / "p.lmnp"
        (tmp_path / "p.lmnp.tmp").mkdir()
        save_params(np.ones((2, 3)), path)
        np.testing.assert_array_equal(load_params(path), np.ones((2, 3)))

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "p.lmnp"
        target.mkdir()  # a file cannot be renamed over a directory
        with pytest.raises(OSError):
            save_params(np.ones((2, 3)), target)
        assert os.listdir(tmp_path) == ["p.lmnp"]
        assert target.is_dir()


class TestQaJsonl:
    GOOD = (
        '{"qid": "q1", "question": "what", "answers": ["a", "b", "c", "d", "e"],'
        ' "movie_id": "m1", "clip_ids": ["c1"], "correct_index": 2}'
    )

    def test_valid_line(self, tmp_path):
        items = load_qa_jsonl(write(tmp_path / "qa.jsonl", self.GOOD + "\n"))
        assert len(items) == 1
        assert items[0].correct_index == 2
        assert items[0].clip_ids == ("c1",)

    def test_four_answers_rejected(self, tmp_path):
        bad = self.GOOD.replace('["a", "b", "c", "d", "e"]', '["a", "b", "c", "d"]')
        with pytest.raises(DataFormatError, match="line 1: expected 5 answers, got 4"):
            load_qa_jsonl(write(tmp_path / "qa.jsonl", bad + "\n"))

    def test_missing_correct_index_is_test_mode(self, tmp_path):
        line = self.GOOD.replace(', "correct_index": 2', "")
        items = load_qa_jsonl(write(tmp_path / "qa.jsonl", line + "\n"))
        assert items[0].correct_index is None

    def test_out_of_range_correct_index(self, tmp_path):
        bad = self.GOOD.replace('"correct_index": 2', '"correct_index": 7')
        with pytest.raises(DataFormatError, match="line 1: correct_index 7 out of range"):
            load_qa_jsonl(write(tmp_path / "qa.jsonl", bad + "\n"))

    def test_boolean_correct_index_rejected(self, tmp_path):
        bad = self.GOOD.replace('"correct_index": 2', '"correct_index": true')
        with pytest.raises(DataFormatError,
                           match="line 2: correct_index must be an integer, got bool"):
            load_qa_jsonl(write(tmp_path / "qa.jsonl", self.GOOD + "\n" + bad + "\n"))

    @pytest.mark.parametrize("line", ["[" * 100_000, "1" * 5_000],
                             ids=["deep-nesting", "long-integer"])
    def test_unparseable_json_names_line(self, tmp_path, line):
        # too deep for the JSON parser's recursion, or an integer past
        # Python's digit limit: both are invalid JSON input, not crashes
        with pytest.raises(DataFormatError, match="line 2: invalid JSON"):
            load_qa_jsonl(write(tmp_path / "qa.jsonl", self.GOOD + "\n" + line + "\n"))

    def test_malformed_json_names_line(self, tmp_path):
        with pytest.raises(DataFormatError, match="line 2: invalid JSON"):
            load_qa_jsonl(write(tmp_path / "qa.jsonl", self.GOOD + "\n{oops\n"))

    def test_missing_field(self, tmp_path):
        bad = self.GOOD.replace('"movie_id": "m1", ', "")
        with pytest.raises(DataFormatError, match="line 1: missing field 'movie_id'"):
            load_qa_jsonl(write(tmp_path / "qa.jsonl", bad + "\n"))

    def test_empty_clip_ids(self, tmp_path):
        bad = self.GOOD.replace('["c1"]', "[]")
        with pytest.raises(DataFormatError, match="line 1: clip_ids"):
            load_qa_jsonl(write(tmp_path / "qa.jsonl", bad + "\n"))

    @pytest.mark.parametrize("name, value", [
        ("qid", 5), ("question", None), ("answers", [1, 2, 3, 4, 5]), ("clip_ids", [7]),
        ("movie_id", {"id": "m1"}), ("answers", "abcde"), ("correct_index", 2.0),
    ])
    def test_bad_field_gives_the_qaitem_message_located(self, tmp_path, name, value):
        record = json.loads(self.GOOD) | {name: value}
        with pytest.raises(ValueError) as direct:
            QAItem(**record)
        path = write(tmp_path / "qa.jsonl",
                     self.GOOD.replace('"q1"', '"q0"') + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataFormatError) as loaded:
            load_qa_jsonl(path)
        assert str(loaded.value) == f"{path}: line 2: {direct.value}"

    def test_repeated_qid_names_both_lines(self, tmp_path):
        other = self.GOOD.replace('"q1"', '"q2"')
        path = write(tmp_path / "qa.jsonl", "\n".join([self.GOOD, other, "", self.GOOD]) + "\n")
        with pytest.raises(DataFormatError) as exc:
            load_qa_jsonl(path)
        assert str(exc.value) == f"{path}: line 4: duplicate qid 'q1' (first on line 1)"

    def test_malformed_repeat_reports_its_own_fault(self, tmp_path):
        bad = self.GOOD.replace('"correct_index": 2', '"correct_index": 7')
        with pytest.raises(DataFormatError, match="line 2: correct_index 7 out of range"):
            load_qa_jsonl(write(tmp_path / "qa.jsonl", self.GOOD + "\n" + bad + "\n"))


@pytest.mark.parametrize("call, message", [
    (lambda tmp: save_params(np.zeros(3), tmp / "p.lmnp"),
     "parameters must be 2-D (d,C), got (3,)"),
    (lambda tmp: subsample_indices(0, 4), "need total >= 1 and target >= 1, got 0, 4"),
    (lambda tmp: subsample_indices(3, 0), "need total >= 1 and target >= 1, got 3, 0"),
    (lambda tmp: subsample_frames([], 4), "need at least one clip"),
], ids=["params-1d", "no-frames", "no-target", "no-clips"])
def test_argument_checks(tmp_path, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is a format error naming the file and the
    1-based line it sits on."""

    @pytest.mark.parametrize("reader, text", [
        (parse_srt, "1\r\n00:00:01,000 --> 00:00:02,000\r\nhello\r\n"),
        (load_plaintext_subtitles, "first line\rsecond line\n"),
        (load_qa_jsonl, TestQaJsonl.GOOD + "\n\n"),
    ], ids=["srt", "plaintext", "jsonl"])
    def test_names_file_and_line(self, tmp_path, reader, text):
        path = tmp_path / "input"
        path.write_bytes(codecs.BOM_UTF8 * (reader is parse_srt) + text.encode() + b"x\xffy\n")
        lines = len(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
        with pytest.raises(DataFormatError,
                           match=f"{re.escape(str(path))}: line {lines}: invalid UTF-8 byte 0xff"):
            reader(path)


def _qa_line(**changes):
    fields = {"qid": "q1", "question": "what", "answers": ["a", "b", "c", "d", "e"],
              "movie_id": "m1", "clip_ids": ["c1"], "correct_index": 2}
    fields.update(changes)
    return json.dumps({k: v for k, v in fields.items() if v is not None})


# The separators str.splitlines() splits on besides \n, \r\n and \r.
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# reader: (line 1 holding the separator {sep}, the lines after it, what the
# reader makes of the whole file, and that as a function of the separator)
WHOLE_LINE_CASES = {
    "word2vec": (load_word2vec_text, "a{sep}b 1.0 2.0", "c 3.0 4.0\n",
                 lambda mem: mem.vocab, lambda sep: (f"a{sep}b", "c")),
    "srt": (parse_srt, "1{sep}", "00:00:01,000 --> 00:00:02,000\nhello\n",
            lambda sub: sub.entries, lambda sep: (SubtitleEntry(1000, 2000, "hello"),)),
    "plaintext": (load_plaintext_subtitles, "hello{sep}world", "again\n",
                  SubtitleFile.texts, lambda sep: [f"hello{sep}world", "again"]),
    # every separator is whitespace, so line 1 is a blank line
    "jsonl": (load_qa_jsonl, " {sep} ", _qa_line() + "\n",
              lambda items: [item.qid for item in items], lambda sep: ["q1"]),
}

# reader: (line 1 holding the separator, a malformed line 2, its error)
MALFORMED_LINE_2_CASES = {
    "word2vec": (load_word2vec_text, "a{sep}b 1.0 2.0", "c 3.0\n",
                 "line 2: inconsistent dimension"),
    "jsonl": (load_qa_jsonl, " {sep} ", "{oops\n", "line 2: invalid JSON"),
}


@pytest.mark.parametrize("sep", SEPARATORS, ids=lambda sep: f"U+{ord(sep):04X}")
class TestLineRule:
    """Every text reader ends a line only at \n, \r\n or \r, the rule its
    undecodable-byte locator counts by. Other separators are ordinary
    characters: they neither split a line nor shift a later line's number."""

    @pytest.mark.parametrize("name", WHOLE_LINE_CASES)
    def test_separator_leaves_line_whole(self, tmp_path, name, sep):
        reader, first, rest, view, expected = WHOLE_LINE_CASES[name]
        path = write(tmp_path / "input", first.format(sep=sep) + "\n" + rest)
        assert view(reader(path)) == expected(sep)

    @pytest.mark.parametrize("name", MALFORMED_LINE_2_CASES)
    def test_malformed_line_2_is_line_2(self, tmp_path, name, sep):
        reader, first, line, where = MALFORMED_LINE_2_CASES[name]
        path = write(tmp_path / "input", first.format(sep=sep) + "\n" + line)
        with pytest.raises((DataFormatError, EmbeddingFormatError),
                           match=f"^{re.escape(str(path))}: {where}"):
            reader(path)

    @pytest.mark.parametrize("name", WHOLE_LINE_CASES)
    def test_undecodable_byte_in_line_2_is_line_2(self, tmp_path, name, sep):
        reader, first = WHOLE_LINE_CASES[name][:2]
        path = tmp_path / "input"
        path.write_bytes((first.format(sep=sep) + "\n").encode() + b"x\xffy\n")
        with pytest.raises((DataFormatError, EmbeddingFormatError),
                           match=f"^{re.escape(str(path))}: line 2: invalid UTF-8 byte 0xff"):
            reader(path)


class TestFormatErrorsNameFile:
    """Every located format error starts with the file's path, so a bad
    block or line can be found among many input files."""

    @pytest.mark.parametrize("reader, text, where", [
        (parse_srt, "1\nnot a time\nhi\n", "block 1"),
        (parse_srt, "1\n00:00:01,000 --> 00:00:02,000\nhi\n\njunk\n", "block 2"),
        (parse_srt, "1\n00:00:03,000 --> 00:00:02,000\nhi\n", "block 1"),
        (load_qa_jsonl, _qa_line() + "\n{not json\n", "line 2"),
        (load_qa_jsonl, "[1]\n", "line 1"),
        (load_qa_jsonl, _qa_line(movie_id=None) + "\n", "line 1"),
        (load_qa_jsonl, _qa_line(answers=["a"] * 4) + "\n", "line 1"),
        (load_qa_jsonl, "\n" + _qa_line(clip_ids=[]) + "\n", "line 2"),
        (load_qa_jsonl, _qa_line(correct_index=True) + "\n", "line 1"),
        (load_qa_jsonl, _qa_line(correct_index=7) + "\n", "line 1"),
        (load_word2vec_text, "a 1 2\nb\n", "line 2"),
        (load_word2vec_text, "a 1 2\nb 1\n", "line 2"),
        (load_word2vec_text, "2 2\na 1 2\na 3 4\n", "line 3"),
        (load_word2vec_text, "a 1 2\nb 1 x\n", "line 2"),
        (load_word2vec_text, "a 1 2\nb 1 nan\n", "line 2"),
        (load_word2vec_text, "3 2\na 1 2\n", "header declares"),
    ], ids=["srt-timestamp", "srt-no-timestamp", "srt-reversed", "jsonl-syntax", "jsonl-object",
            "jsonl-field", "jsonl-answers", "jsonl-clip-ids", "jsonl-bool-label",
            "jsonl-label-range", "w2v-fields", "w2v-dimension", "w2v-duplicate",
            "w2v-coordinate", "w2v-non-finite", "w2v-count"])
    def test_message_starts_with_path(self, tmp_path, reader, text, where):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        with pytest.raises((DataFormatError, EmbeddingFormatError),
                           match=f"^{re.escape(str(path))}: {where}"):
            reader(path)

class TestSubsample:
    def test_every_other(self):
        assert subsample_indices(4, 2) == [0, 2]

    def test_identity(self):
        clip = ClipFeatures(np.arange(24.0).reshape(4, 2, 1, 3))
        out = subsample_frames([clip], 4)
        np.testing.assert_array_equal(out.tensor, clip.tensor)

    def test_whole_lone_clip_is_shared(self):
        clip = ClipFeatures(np.arange(24.0).reshape(4, 2, 1, 3))
        assert subsample_frames([clip], clip.frames) is clip

    def test_gather_allocates_one_frame_buffer(self):
        rng = np.random.default_rng(4)
        a, b = (ClipFeatures(rng.normal(size=(4, 64, 5, 5))) for _ in range(2))
        tracemalloc.start()
        try:
            out = subsample_frames([a, b], 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffer = out.tensor.transpose(0, 2, 3, 1)
        assert buffer.shape == (6, 5, 5, 64) and buffer.flags.c_contiguous
        assert buffer.nbytes <= peak < 1.25 * buffer.nbytes
        both = np.concatenate([a.tensor, b.tensor])
        assert out.tensor.tobytes() == both[subsample_indices(8, 6)].tobytes()

    def test_short_input_repeats_frames(self):
        assert subsample_indices(3, 5) == [0, 0, 1, 1, 2]

    def test_nondecreasing_and_sized(self):
        for total in range(1, 12):
            for target in range(1, 12):
                idx = subsample_indices(total, target)
                assert len(idx) == target
                assert all(a <= b for a, b in zip(idx, idx[1:]))
                assert 0 <= idx[0] and idx[-1] < total

    def test_concatenates_clips_in_order(self):
        a = ClipFeatures(np.full((2, 1, 1, 1), 1.0))
        b = ClipFeatures(np.full((2, 1, 1, 1), 2.0))
        out = subsample_frames([a, b], 4)
        np.testing.assert_array_equal(out.tensor.ravel(), [1.0, 1.0, 2.0, 2.0])

    def test_shape_mismatch_rejected(self):
        a = ClipFeatures(np.ones((1, 2, 1, 1)))
        b = ClipFeatures(np.ones((1, 3, 1, 1)))
        with pytest.raises(ValueError, match="mismatch"):
            subsample_frames([a, b], 2)


class TestGenerateSynthetic:
    def test_zero_noise_plants_exact_directions(self):
        spec = SyntheticSpec(n_train=1, n_eval=1, noise_sigma=0.0, seed=3)
        data = generate_synthetic(spec)
        item = data.train_items[0]
        target = embed_sentence(data.word_memory, [item.answers[item.correct_index]])[0]
        planted_vec = (data.hidden_map @ target).astype(np.float32).astype(np.float64)
        regions = data.features[item.clip_ids[0]].regions().reshape(-1, spec.channels)
        matches = sum(bool(np.array_equal(r, planted_vec)) for r in regions)
        assert matches == (spec.frames * spec.height * spec.width) // 2

    def test_exactly_one_subtitle_contains_answer_words(self):
        data = generate_synthetic(SyntheticSpec(n_train=5, n_eval=2, seed=9))
        for item in data.train_items:
            words = set(item.answers[item.correct_index].split())
            hits = [
                s for s in data.subtitles[item.movie_id] if words <= set(s.split())
            ]
            assert len(hits) == 1

    def test_deterministic_in_memory_and_on_disk(self, tmp_path):
        spec = SyntheticSpec(n_train=4, n_eval=2, seed=11)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert a.word_memory.vocab == b.word_memory.vocab
        np.testing.assert_array_equal(a.word_memory.matrix, b.word_memory.matrix)
        assert a.train_items == b.train_items
        for cid in a.features:
            np.testing.assert_array_equal(a.features[cid].tensor, b.features[cid].tensor)

        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_synthetic(a, dir_a)
        write_synthetic(b, dir_b)
        for root, _, files in os.walk(dir_a):
            rel = os.path.relpath(root, dir_a)
            for name in files:
                left = os.path.join(root, name)
                right = os.path.join(dir_b, rel, name)
                assert filecmp.cmp(left, right, shallow=False), name

    @pytest.mark.parametrize("split", ["train", "eval"])
    def test_load_examples_reads_back_the_written_layout(self, tmp_path, split):
        spec = SyntheticSpec(n_train=6, n_eval=3, seed=12)
        data = generate_synthetic(spec)
        paths = write_synthetic(data, tmp_path)
        items = load_qa_jsonl(paths[split])
        loaded = load_examples(items, paths["features"], paths["subtitles"], spec.frames)
        expected = data.examples(split)
        assert len(loaded) == len(expected)
        for got, want in zip(loaded, expected):
            assert got.item == want.item
            assert got.features.tensor.dtype == want.features.tensor.dtype
            assert got.features.tensor.tobytes() == want.features.tensor.tobytes()
            assert got.subtitles == want.subtitles
        video_only = load_examples(items, paths["features"], None, spec.frames)
        assert [ex.subtitles for ex in video_only] == [None] * len(items)

    def test_label_distribution_near_uniform(self):
        data = generate_synthetic(SyntheticSpec())
        counts = np.bincount([i.correct_index for i in data.train_items], minlength=5)
        expected = len(data.train_items) / 5
        spread = 3.0 * math.sqrt(len(data.train_items) * 0.2 * 0.8)
        assert all(abs(c - expected) <= spread for c in counts)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SyntheticSpec(n_train=0)
        with pytest.raises(ValueError, match="vocab_size"):
            SyntheticSpec(vocab_size=8)
        with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
            SyntheticSpec(noise_sigma=-0.1)
        with pytest.raises(ValueError, match="^SyntheticSpec.seed must be >= 0$"):
            SyntheticSpec(seed=-1)
        with pytest.raises(ValueError, match=r"channels \(8\) must be >= dim \(16\)"):
            SyntheticSpec(dim=16, channels=8)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"noise_sigma must be finite, got {value}"):
                SyntheticSpec(noise_sigma=value)
