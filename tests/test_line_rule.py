"""The streamed line rule against a whole-file oracle.

`read_lines` reads and decodes one line at a time. The oracle below is the
whole-file form of the same rule: decode every byte at once, then split the
text at \\n, \\r\\n and \\r, and locate an undecodable byte by re-decoding
the prefix before it. Whatever the bytes, the streamed lines must equal the
oracle's, or the reader must raise the oracle's error message.
"""

from __future__ import annotations

import codecs
import gc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmn.data_io import DataFormatError, load_qa_jsonl
from lmn.word_memory import EmbeddingFormatError, load_word2vec_text, read_lines

# see test_format_properties.py: a failure report must not become an
# internal error under the suite's warnings-as-errors
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


class LineError(ValueError):
    pass


def split_lines(text: str) -> list[str]:
    """Lines of `text`, ended only by \\n, \\r\\n or \\r; other Unicode line
    separators (U+2028, U+0085, form feed, ...) are ordinary characters."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def oracle(data: bytes, bom: bool) -> list[str] | str:
    """The file's lines, or the located message for its first bad byte."""
    if bom and data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(split_lines(data[: exc.start].decode("utf-8")))
        return f"line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x}"
    return split_lines(text)


PIECES = [b"\n", b"\r", b"\r\n", codecs.BOM_UTF8, b"a", b"\xc3\xa9", b"\xe2\x80\xa8", b"\x0c",
          b"\x85", b"\xc2\x85", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b" "]
FILES = st.binary(max_size=60) | st.lists(
    st.sampled_from(PIECES) | st.binary(max_size=2), max_size=30).map(b"".join)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("lines") / "input"


@SETTINGS
@given(data=FILES, bom=st.booleans())
@example(data=b"", bom=False)
@example(data=b"a\r", bom=False)  # a lone \r at end of file
@example(data=b"a\r\r\n\rb", bom=False)
@example(data=codecs.BOM_UTF8 + b"x\r\ny", bom=True)
@example(data=codecs.BOM_UTF8 + b"x\r\ny", bom=False)
@example(data=codecs.BOM_UTF8, bom=True)
@example(data=b"a\xe2\x80\xa8b\x0cc\n\xff", bom=False)
@example(data=b"ok\r\xc3\r\n", bom=False)
def test_streamed_lines_match_the_whole_file_oracle(scratch, data, bom):
    scratch.write_bytes(data)
    expected = oracle(data, bom)
    if isinstance(expected, str):
        with pytest.raises(LineError) as info:
            list(read_lines(scratch, LineError, bom=bom))
        assert str(info.value) == f"{scratch}: {expected}"
    else:
        assert list(read_lines(scratch, LineError, bom=bom)) == expected


def test_first_fault_in_line_order_wins(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_bytes(b'{"qid": \n{}\n\xff\n')
    with pytest.raises(DataFormatError, match=r"qa\.jsonl: line 1: invalid JSON"):
        load_qa_jsonl(path)


@pytest.mark.parametrize("reader, data, error", [
    (load_qa_jsonl, b"[]\n" + b"{}\n" * 1000, DataFormatError),
    (load_word2vec_text, b"2 2\na 1 0\na 0 1\n" + b"b 1 1\n" * 1000, EmbeddingFormatError),
], ids=["jsonl", "word2vec"])
def test_reader_raising_mid_file_leaves_no_open_handle(tmp_path, reader, data, error):
    path = tmp_path / "input"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(error):
            reader(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
