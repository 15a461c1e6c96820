"""The block reader of word2vec text against the per-line oracle.

`load_word2vec_text` parses a block of lines with one numpy read, and a
block that read cannot vouch for line by line. Whatever the bytes and the
block budget, the loaded vocabulary and matrix bytes must equal those of
`load_per_line`, the reader as it was before blocks with each coordinate
held to the ASCII number characters, or the reader must raise the
oracle's exception with the oracle's message.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lmn.word_memory
from lmn.word_memory import (EmbeddingFormatError, _parse_line, _text_blocks,
                             load_word2vec_text)
from word2vec_oracle import load_per_line

# see test_format_properties.py: a failure report must not become an
# internal error under the suite's warnings-as-errors
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

NUMBERS = [b"1", b"0.5", b"-2e3", b"+3", b"1.", b".5", b"1e-5", b"0.1234567890123456789012345"]
# fields float() and numpy's reader may treat apart (numpy skips \x1c-\x1f),
# fields float() reads but the coordinate grammar rejects (a tab, NBSP, an
# Arabic-Indic digit, an underscore, nan, inf), and fields neither accepts
ODD = [b"\x1c1", b"\x1d", b"\x1f2", b"\t", b"1\t", b"\xc2\xa01", b"\xd9\xa1", b"1_0", b"_",
       b"nan", b"inf", b"1e400", b"", b"\xff", b"-", b"e"]
WORDS = [b"a", b"b", b"c", b"d", b"e", b"\xc3\xa9", b"\x1c", b"w\xff"]
ENDINGS = [b"\n", b"\n", b"\r\n", b"\r", b" \n", b"\n\n"]
HEADERS = [b"1 1", b"0 0", b"-1 5", b"2", b"3 2 1"]


@st.composite
def word2vec_files(draw) -> bytes:
    """A file of up to 8 lines of one dimension, most of them well formed:
    mostly clean numbers or a mix with the odd fields, with or without a
    header, duplicate words, wrong dimensions, blank lines and every line
    break."""
    pool = draw(st.sampled_from([NUMBERS, NUMBERS + ODD]))
    dim = draw(st.integers(1, 3))
    words = draw(st.lists(st.sampled_from(WORDS), max_size=8, unique=draw(st.booleans())))
    lines = []
    header = draw(st.sampled_from(["none", "count", "other"]))
    if header == "count":
        lines.append(b"%d %d" % (len(words), dim))
    elif header == "other":
        lines.append(draw(st.sampled_from(HEADERS)))
    for word in words:
        width = draw(st.sampled_from([dim] * 6 + [dim - 1, dim + 1]))
        lines.append(b" ".join([word, *draw(st.lists(st.sampled_from(pool), min_size=width,
                                                       max_size=width))]))
    endings = draw(st.lists(st.sampled_from(ENDINGS), min_size=len(lines), max_size=len(lines)))
    text = b"".join(line + end for line, end in zip(lines, endings))
    return text[:-1] if text and draw(st.booleans()) else text


def outcome(load, path):
    try:
        mem = load(path)
    except Exception as exc:  # the oracle's exception type is part of the outcome
        return type(exc), str(exc)
    return mem.vocab, mem.matrix.shape, mem.matrix.tobytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "emb.txt"


@SETTINGS
@given(data=word2vec_files(), budget=st.sampled_from([1, 12, 24, 48]))
@example(data=b"a \x1c1 2\n", budget=48)
@example(data=b"2 2\na 1 2\nb 3 4\na 5 6\n", budget=12)
@example(data=b"a 1 2\nb 1e400 2\n", budget=48)
def test_block_reader_matches_the_per_line_oracle(scratch, data, budget):
    scratch.write_bytes(data)
    expected = outcome(load_per_line, scratch)
    with mock.patch.object(lmn.word_memory, "BLOCK_TEXT", budget):
        assert outcome(load_word2vec_text, scratch) == expected


def load_both(path, data: bytes):
    path.write_bytes(data)
    got = outcome(load_word2vec_text, path)
    assert got == outcome(load_per_line, path)
    return got


def test_separator_control_character_is_an_invalid_coordinate(tmp_path):
    # numpy's reader skips \x1c as whitespace; float() rejects it
    path = tmp_path / "emb.txt"
    error, message = load_both(path, b"a 1 2\nb \x1c1 2\n")
    assert error is EmbeddingFormatError
    assert message == f"{path}: line 2: invalid coordinate: '\\x1c1'"


@pytest.mark.parametrize("field", ["1_0", "\u0661", "\xa01", "\u20031", "1\t", "nan", "inf",
                                   "-Infinity", "0x1p3", "1e", ".", "+-1"])
def test_field_outside_the_coordinate_grammar_is_invalid(tmp_path, field):
    path = tmp_path / "emb.txt"
    error, message = load_both(path, f"a 1 2\nb {field} 4\n".encode())
    assert (error, message) == (EmbeddingFormatError,
                                f"{path}: line 2: invalid coordinate: {field!r}")


def test_grammar_admits_every_written_value():
    # the writer emits repr(); the per-line parse must take every finite
    # float64's repr back bitwise, subnormals and the extremes included
    rng = np.random.default_rng(19)
    values = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([values[np.isfinite(values)],
                             [0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e16, 0.1]])
    line = "w " + " ".join(map(repr, values.tolist()))
    word, parsed = _parse_line("emb.txt", 1, line, None, {})
    assert word == "w" and parsed.tobytes() == values.tobytes()


@pytest.mark.parametrize("data, fault", [
    (b"a 1 2\nb 3 4\nc 5 x\nd 6 7\ne\xff 8 9\n", "line 3: invalid coordinate"),
    (b"a 1 2\nb 3 4\nc 5 6\nd 6 7\ne\xff 8 9\n", "line 5: invalid UTF-8 byte 0xff"),
    (b"a 1 2\nb 3 4\nc\xff 5 6\nd 6 7\ne 8 x\n", "line 3: invalid UTF-8 byte 0xff"),
], ids=["coordinate-first", "byte-only", "byte-first"])
def test_first_fault_in_one_block_wins(tmp_path, data, fault):
    path = tmp_path / "emb.txt"
    path.write_bytes(data)
    blocks = _text_blocks(path)
    # the lines before the byte come as one block, then the reader's error
    assert next(blocks) == (1, data[: data.index(b"\xff")].decode().split("\n")[:-1])
    with pytest.raises(EmbeddingFormatError, match="invalid UTF-8 byte 0xff"):
        next(blocks)
    assert load_both(path, data)[1].startswith(f"{path}: {fault}")


def test_duplicate_word_across_a_block_boundary(tmp_path, monkeypatch):
    monkeypatch.setattr(lmn.word_memory, "BLOCK_TEXT", 12)
    path = tmp_path / "emb.txt"
    data = b"a 1 2\nb 3 4\na 5 6\n"
    path.write_bytes(data)
    assert list(_text_blocks(path)) == [(1, ["a 1 2", "b 3 4"]), (3, ["a 5 6", ""])]
    assert load_both(path, data)[1] == f"{path}: line 3: duplicate word 'a'"


@pytest.mark.parametrize("rows", [4, 5], ids=["one-block", "one-block-and-a-line"])
def test_clean_blocks_skip_the_per_line_parse(tmp_path, monkeypatch, rows):
    # each line is 8 characters plus its break, so 4 lines fill a
    # 36-character block
    monkeypatch.setattr(lmn.word_memory, "BLOCK_TEXT", 36)
    path = tmp_path / "emb.txt"
    path.write_bytes(b"\r\n".join(b"w%d 1.5 %d" % (i, i) for i in range(rows)))
    assert [len(lines) for _, lines in _text_blocks(path)] == [4, 1][: rows - 3]

    def per_line(*args):
        raise AssertionError("a clean block was parsed line by line")

    monkeypatch.setattr(lmn.word_memory, "_parse_line", per_line)
    mem = load_word2vec_text(path)
    expected = load_per_line(path)
    assert mem.vocab == expected.vocab
    assert mem.matrix.tobytes() == expected.matrix.tobytes()


def test_blank_lines_count_toward_the_block_budget(tmp_path, monkeypatch):
    # a blank line counts one for its break, so blank lines cut blocks too
    monkeypatch.setattr(lmn.word_memory, "BLOCK_TEXT", 4)
    path = tmp_path / "emb.txt"
    path.write_bytes(b"a 1\n" + b"\n" * 9)
    assert list(_text_blocks(path)) == [(1, ["a 1"]), (2, [""] * 4), (6, [""] * 4),
                                        (10, ["", ""])]
