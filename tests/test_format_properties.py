"""Property tests for every reader: whatever the bytes, a reader either
parses the file or raises its own format error, never anything else.

Each property draws both arbitrary bytes and byte strings assembled from
the format's own pieces (so examples reach past the first check), mixed
with bytes that are not UTF-8."""

from __future__ import annotations

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmn.data_io import (
    DataFormatError,
    load_features,
    load_params,
    load_plaintext_subtitles,
    load_qa_jsonl,
    parse_srt,
)
from lmn.word_memory import EmbeddingFormatError, load_word2vec_text

# On a failure Hypothesis imports its patch writer, whose dependencies can
# raise a third-party DeprecationWarning at import; under the suite's
# warnings-as-errors that would replace the failure report with an internal
# error, so this one warning is ignored here.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)

BAD_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00"]
BREAKS = [b"\n", b"\r\n", b"\r", b" ", b"\t"]


def pieces(*tokens: bytes) -> st.SearchStrategy[bytes]:
    """Byte strings concatenated from the tokens, line breaks and bad bytes."""
    alphabet = st.sampled_from([*tokens, *BREAKS, *BAD_BYTES]) | st.binary(max_size=3)
    return st.lists(alphabet, max_size=40).map(b"".join)


def arbitrary(*tokens: bytes) -> st.SearchStrategy[bytes]:
    return st.binary(max_size=200) | pieces(*tokens)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def parses_or_rejects(reader, path, data: bytes, error: type[Exception]) -> None:
    path.write_bytes(data)
    try:
        reader(path)
    except error:
        pass


@SETTINGS
@given(data=arbitrary(b"3 2", b"2 2", b"0 0", b"-1 5", b"w", b"x", b"1", b"0.5", b"-2e3",
                      b"nan", b"inf", b"1e400", b"\xc3\xa9", b"\x1c1", b"1_0", b"\t", b"1.",
                      b".5", b"+3"))
def test_word2vec_text(scratch, data):
    parses_or_rejects(load_word2vec_text, scratch, data, EmbeddingFormatError)


SRT_TOKENS = (b"1", b"2", b"00:00:01,000 --> 00:00:02,500", b"00:00:03,000 --> 00:00:01,000",
              b"99:59:59,999 --> 100:00:00,000", b"-->", b"<i>", b"</i>", b"hello")


@SETTINGS
@given(data=arbitrary(*SRT_TOKENS))
def test_parse_srt(scratch, data):
    parses_or_rejects(parse_srt, scratch, data, DataFormatError)


@SETTINGS
@given(data=arbitrary(b"hello", b"\xe2\x80\xa8", b"\x85"))
def test_plaintext_subtitles(scratch, data):
    parses_or_rejects(load_plaintext_subtitles, scratch, data, DataFormatError)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=10,
)
QA_FIELDS = ("qid", "question", "answers", "movie_id", "clip_ids", "correct_index")


def qa_line(values: dict) -> bytes:
    return json.dumps(values, ensure_ascii=False).encode("utf-8", "surrogatepass")


QA_LINES = st.dictionaries(
    st.sampled_from(QA_FIELDS), JSON_VALUES | st.lists(st.text(max_size=3), min_size=5, max_size=5),
).map(qa_line)


@SETTINGS
@given(data=st.binary(max_size=200)
       | st.lists(QA_LINES | pieces(b"{", b"}", b'"qid"', b"[1,2]", b"true"), max_size=4)
       .map(b"\n".join))
def test_qa_jsonl(scratch, data):
    parses_or_rejects(load_qa_jsonl, scratch, data, DataFormatError)


def container(magic: bytes, header: struct.Struct, dims: int, value: str):
    """A header with the given magic, a version near 1 and small dims, then a
    payload: as many floats (NaN and infinities included) as the header asks
    for, or arbitrary bytes."""
    def with_payload(fields):
        count = math.prod(fields[2:])
        element = (st.sampled_from([math.nan, math.inf, -math.inf])
                   | st.floats(width=8 * struct.calcsize(value)))
        floats = st.lists(element, min_size=count, max_size=count)
        payloads = (floats.map(lambda values: struct.pack(f"<{count}{value}", *values))
                    | st.binary(max_size=8 * count + 8))
        return payloads.map(lambda payload: header.pack(*fields) + payload)

    heads = st.tuples(st.sampled_from([magic, magic, magic, b"LMNX"]),
                      st.sampled_from([1, 1, 1, 0, 2]), *[st.sampled_from([1, 2, 1, 3, 0])] * dims)
    return st.binary(max_size=80) | heads.flatmap(with_payload)


@SETTINGS
@given(data=container(b"LMNF", struct.Struct("<4sIIIII"), 4, "f"))
def test_load_features(scratch, data):
    parses_or_rejects(load_features, scratch, data, DataFormatError)


@SETTINGS
@given(data=container(b"LMNP", struct.Struct("<4sIII"), 2, "d"))
def test_load_params(scratch, data):
    parses_or_rejects(load_params, scratch, data, DataFormatError)
