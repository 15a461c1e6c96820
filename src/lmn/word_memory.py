"""Static word memory: a frozen word-embedding matrix that doubles as the
lookup table for sentence embeddings and as the attention memory for frame
encoding. `embed_sentence` turns a sequence of sentences into their (n, d)
mean bag-of-words rows with one gather per token position; `normalize_rows`
is the one normalizer.

All arithmetic is 64-bit; embedding files may store fewer digits and are
promoted on load. The module also holds the I/O core every reader and
writer shares: `read_lines`, the one line rule, and `atomic_write_bytes`.

Every text reader streams: `read_lines` yields one decoded line at a time,
and `load_word2vec_text` parses the lines a block at a time into one
float64 matrix; a block holds at most BLOCK_TEXT (256 Ki) characters,
counting one for each line's break, and so at most 256 Ki lines. A load
holds the matrix plus one block, never the file's text; `save_word2vec_text` writes
a block of lines at a time. A reader that checks line by line (word2vec
text, QA JSONL) reports the first fault in line order, an undecodable byte
included: a word2vec block that its one numpy read cannot vouch for is
checked again line by line, and the lines before an undecodable byte are
checked before its error is raised. The SubRip reader gathers its blocks
before it checks them, so an undecodable byte there wins over any block
error.
"""

from __future__ import annotations

import codecs
import contextlib
import os
import re
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

__all__ = [
    "StaticWordMemory",
    "EmbeddingFormatError",
    "tokenize",
    "embed_sentence",
    "load_word2vec_text",
    "save_word2vec_text",
]

# Maximal runs of alphanumeric characters (unicode-aware, underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class EmbeddingFormatError(ValueError):
    """Raised for malformed word2vec text files."""


def tokenize(text: str) -> list[str]:
    """Lowercased maximal alphanumeric runs, in order of appearance."""
    return _TOKEN_RE.findall(text.lower())


def normalize_rows(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of `x` (its last axis) to unit length, into `out` when
    given (`x` itself scales in place); zero rows stay zero. Returns the
    (..., 1) row norms and the scaled rows. Each norm is the square root of
    one row inner product, so no (..., d) array of squares is made."""
    norms = np.sqrt(np.vecdot(x, x))[..., None]
    return norms, np.divide(x, np.where(norms == 0.0, 1.0, norms), out=out)


# Rows per block of the Gram sum: the build holds one block of unit rows,
# never a unit-row copy of the whole table.
GRAM_ROWS = 1024


def _block_gram(matrix: np.ndarray, start: int) -> np.ndarray:
    """The (d, d) Gram matrix of the unit rows of `matrix`'s block of
    GRAM_ROWS rows that begins at row `start`."""
    rows = normalize_rows(matrix[start:start + GRAM_ROWS])[1]
    return rows.T @ rows


class StaticWordMemory:
    """Immutable vocabulary plus its embedding matrix (one row per word).

    The matrix is the memory's own read-only copy; only the (d, d) Gram
    matrix of its unit-normalized rows is cached. A constructed memory
    computes it on first use; `load_word2vec_text` computes it before it
    returns. G is summed over blocks of GRAM_ROWS rows in row order, each
    block normalized on its own, so no unit-row copy of the whole table is
    made; the fixed order keeps G bitwise for a given numpy, BLAS build and
    thread count, and a table of at most GRAM_ROWS rows gets the one
    product of its unit rows.
    """

    def __init__(self, vocab: list[str] | tuple[str, ...], matrix: np.ndarray):
        vocab = tuple(vocab)
        # a copy: no array the caller holds can write under the cached Gram matrix
        matrix = np.array(matrix, dtype=np.float64, order="C")
        if matrix.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
        if len(vocab) != matrix.shape[0]:
            raise ValueError(
                f"vocab size {len(vocab)} does not match matrix rows {matrix.shape[0]}"
            )
        if matrix.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        index = {word: k for k, word in enumerate(vocab)}
        if len(index) != len(vocab):
            raise ValueError("vocabulary contains duplicate words")
        if not np.isfinite(matrix).all():
            raise ValueError("embedding matrix contains non-finite entries")
        self._hold(index, matrix)

    @classmethod
    def _adopt(cls, index: dict[str, int], matrix: np.ndarray) -> StaticWordMemory:
        """A memory that takes `index`, each word mapped to its row in row
        order, and `matrix`, a fresh finite (|V|, d >= 1) float64 C-order
        array that no caller holds, without copying or checking them again."""
        mem = cls.__new__(cls)
        mem._hold(index, matrix)
        return mem

    def _hold(self, index: dict[str, int], matrix: np.ndarray) -> None:
        matrix.setflags(write=False)
        self.vocab = tuple(index)
        self.matrix = matrix
        self._index = index
        self._gram: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.vocab)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def lookup(self, word: str) -> int | None:
        return self._index.get(word)

    @property
    def gram(self) -> np.ndarray:
        """Gram matrix (d, d) of the unit rows; cached, used by word attention."""
        if self._gram is None:
            g = _block_gram(self.matrix, 0)  # G itself, not zeros + G, for a one-block table
            for start in range(GRAM_ROWS, self.size, GRAM_ROWS):
                g += _block_gram(self.matrix, start)
            g.setflags(write=False)
            self._gram = g
        return self._gram

    def __repr__(self) -> str:  # pragma: no cover
        return f"StaticWordMemory(|V|={self.size}, d={self.dim})"


def embed_sentence(mem: StaticWordMemory, sentences, normalize: bool = True) -> np.ndarray:
    """(n, d) means of the in-vocabulary token embeddings of the n
    `sentences`, unit length when `normalize`; a sentence with no known
    token gives a zero row. A sentence's rows are added one at a time in
    sorted vocabulary-index order, starting from +0.0, so reordering its
    tokens gives a bit-identical row. A bare `str` raises TypeError rather
    than being embedded letter by letter.

    The sum runs by token position: with the sentences ranked by token
    count (descending, stable), the ones that have a j-th token lead the
    ranking, so position j adds one gather of their j-th rows into the
    leading rows of the accumulator. No gather is larger than (n, d)
    rows."""
    if isinstance(sentences, str):
        raise TypeError("embed_sentence takes a sequence of sentences, not a str")
    lookup = mem._index.get
    found = [sorted([k for k in map(lookup, tokenize(text)) if k is not None])
             for text in sentences]
    counts = [len(rows) for rows in found]
    order = sorted(range(len(found)), key=[-c for c in counts].__getitem__)  # a stable sort
    ranked = [found[i] for i in order]
    acc = np.zeros((len(found), mem.dim))
    m = len(ranked)  # how many ranked sentences have a j-th token
    for j in range(len(ranked[0]) if ranked else 0):
        while len(ranked[m - 1]) <= j:
            m -= 1
        acc[:m] += mem.matrix.take([rows[j] for rows in ranked[:m]], axis=0)
    out = np.empty_like(acc)
    out[order] = acc
    out /= np.maximum(counts, 1)[:, None]
    if normalize:
        normalize_rows(out, out=out)
    return out


def read_lines(path, error: type[ValueError], bom: bool = False) -> Iterator[str]:
    """The lines of a UTF-8 text file, read and decoded one at a time.

    A line ends only at \n, \r\n or \r; other Unicode line separators
    (U+2028, U+0085, form feed, ...) are ordinary characters. A file ending
    in a terminator ends with one empty line, and an empty file is one
    empty line. A leading byte-order mark is dropped when `bom`. The first
    undecodable byte raises `error` naming the file and that byte's 1-based
    line, once the reader reaches the line."""
    with open(path, "rb") as fh:
        lineno = 0
        ended = True
        for chunk in fh:  # a binary file's lines end only at b"\n"
            if bom and lineno == 0 and chunk.startswith(codecs.BOM_UTF8):
                chunk = chunk[len(codecs.BOM_UTF8):]
            ended = chunk.endswith(b"\n")
            if ended:
                chunk = chunk[:-2] if chunk.endswith(b"\r\n") else chunk[:-1]
            for raw in chunk.split(b"\r"):
                lineno += 1
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(
                        f"{path}: line {lineno}: invalid UTF-8 byte 0x{raw[exc.start]:02x}"
                    ) from None
                yield line
        if ended:
            yield ""


# The process umask, read once (os.umask can only be read by setting it).
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write_bytes(path, data: bytes | Iterable[bytes]) -> None:
    """Write `data`, bytes or byte pieces each written as it arrives, to a
    unique temporary file beside `path`, flush it to disk, then rename it
    over `path`. On any failure the temporary file is removed and `path` is
    left as it was."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines((data,) if isinstance(data, bytes) else data)  # drops each piece before the next
            fh.flush()
            os.fsync(fh.fileno())
        os.chmod(tmp, 0o666 & ~_UMASK)  # mkstemp creates 0600; match open()
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _parse_header(line: str) -> tuple[int, int] | None:
    parts = line.split(" ")
    if len(parts) != 2:
        return None
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    return count, dim


# The characters of embedding text parsed as one block, each line counted
# with one for its break (a longer line is a block of its own), and the bytes
# of lines written as one piece.
BLOCK_TEXT = 256 * 1024

# One coordinate: [+-]?(digits[.digits?]|.digits)([eE][+-]?digits)?, ASCII
# digits only. `repr` writes every finite float64 so, and float() and numpy's
# reader parse each such field alike.
_COORDINATE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# The only bytes a block's coordinate text may hold for numpy's reader to
# parse it. Numpy's reader and float() parse a field with the same routine
# (PyOS_string_to_double), but numpy's reader also skips characters that
# float() rejects, such as \x1c-\x1f, as whitespace.
_BLOCK_BYTES = b"0123456789.eE+- "


def _text_blocks(path) -> Iterator[tuple[int, list[str]]]:
    """The lines of `path`, trailing spaces dropped, in blocks of at most
    BLOCK_TEXT characters, each line counted with one for its break (so a
    blank line counts too), each block with its first line's 1-based
    number. When
    the reader meets an undecodable byte, the lines before it come as a
    last block, and the reader's error is raised after it."""
    block: list[str] = []
    first = size = 0
    try:
        for lineno, line in enumerate(read_lines(path, EmbeddingFormatError), 1):
            line = line.rstrip(" ")
            if size + len(line) + 1 > BLOCK_TEXT and block:
                yield first, block
                block, size = [], 0
            if not block:
                first = lineno
            block.append(line)
            size += len(line) + 1
    except EmbeddingFormatError:  # only the reader raises in this loop
        if block:
            yield first, block
        raise
    if block:
        yield first, block


def _parse_block(block: list[str], dim: int | None,
                 index: dict[str, int]) -> tuple[list[str], np.ndarray] | None:
    """The words and (n, dim) rows of the block's non-empty lines, parsed by
    one numpy read, when `_parse_line` would accept each of them with the
    same values; None when it might not, or when there is no such line."""
    words, coords = [], []
    for line in block:
        if line:
            word, _, text = line.partition(" ")
            words.append(word)
            coords.append(text)
    if not coords or "" in coords:  # numpy's reader skips a line with no coordinates
        return None
    if not all(text.isascii() and not text.encode("ascii").translate(None, _BLOCK_BYTES)
               for text in coords):
        return None
    try:
        rows = np.loadtxt(coords, delimiter=" ", comments=None, quotechar=None,
                          dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    width = coords[0].count(" ") + 1 if dim is None else dim
    if (rows.shape != (len(words), width) or not np.isfinite(rows).all()
            or len(set(words)) < len(words) or not index.keys().isdisjoint(words)):
        return None
    return words, rows


def _parse_line(path, lineno: int, line: str, dim: int | None,
                index: dict[str, int]) -> tuple[str, np.ndarray]:
    """The word and coordinates of one non-empty data line, checked in
    order: its field count, its dimension against `dim` (when known), its
    word against `index`'s words, then each coordinate against _COORDINATE,
    then their values, which must be finite."""
    parts = line.split(" ")
    if len(parts) < 2:
        raise EmbeddingFormatError(
            f"{path}: line {lineno}: expected '<word> <v1> ...', got {len(parts)} field(s)"
        )
    word, coords = parts[0], parts[1:]
    if dim is not None and len(coords) != dim:
        raise EmbeddingFormatError(
            f"{path}: line {lineno}: inconsistent dimension (expected {dim} values, got {len(coords)})"
        )
    if word in index:
        raise EmbeddingFormatError(f"{path}: line {lineno}: duplicate word {word!r}")
    for text in coords:
        if not _COORDINATE.fullmatch(text):
            raise EmbeddingFormatError(f"{path}: line {lineno}: invalid coordinate: {text!r}")
    values = np.fromiter(map(float, coords), dtype=np.float64, count=len(coords))
    if not np.isfinite(values).all():
        raise EmbeddingFormatError(f"{path}: line {lineno}: non-finite coordinate")
    return word, values


def load_word2vec_text(path) -> StaticWordMemory:
    """Parse a word2vec-style text file into a StaticWordMemory.

    Accepted layout: an optional "<count> <dim>" first line, then one
    "<word> <v1> ... <vd>" line per word, single-space separated, UTF-8.
    Spaces at the end of a line are ignored: the reference word2vec tool
    writes each value as "%lf ". The dimension is taken from the header or
    inferred from the first data line; the first malformed line in file
    order is reported with its 1-based line number. A coordinate is
    `[+-]?(digits[.digits?]|.digits)([eE][+-]?digits)?` in ASCII digits;
    any other field, `nan` and `inf` included, is an invalid coordinate,
    and one past the float64 range, such as `1e400`, is non-finite.

    The lines are parsed a block at a time, into one float64 matrix; a
    block holds at most BLOCK_TEXT characters, counting one for each line's
    break, and so at most BLOCK_TEXT lines. A block whose coordinate text holds only
    digits, ".eE+-" and spaces is parsed by one numpy read, which parses
    each value as float() does; any other block, and one that read does
    not turn into finite rows of the file's dimension under new words, is
    parsed again line by line, which names its first bad line or accepts
    it with the same values. The matrix is preallocated from the header's
    count when the file is large enough to hold that many rows (each value
    needs a digit and a separator, so count * 2 * dim <= file size) and
    grown otherwise, so a false count allocates nothing the file cannot
    fill.

    The memory's Gram matrix is built before the load returns, one block
    of GRAM_ROWS unit rows at a time, so the load makes no unit-row copy of
    the table. A table whose row norm overflows loads with the Gram
    unbuilt; its first forward raises the overflow and names the question.
    """
    declared_count = None
    dim = None
    index: dict[str, int] = {}  # each word's row, in row order
    matrix = np.empty((0, 0))

    def place(words: list[str], rows: np.ndarray) -> None:
        nonlocal matrix
        start, stop = len(index), len(index) + len(rows)
        if not index:
            fits = (declared_count is not None
                    and 1 <= declared_count <= os.path.getsize(path) // (2 * dim))
            matrix = np.empty((declared_count if fits else 1, dim))
        if stop > len(matrix):
            grown = np.empty((max(stop, 2 * len(matrix)), dim))
            grown[:start] = matrix[:start]
            matrix = grown
        matrix[start:stop] = rows
        index.update(zip(words, range(start, stop)))

    for first, block in _text_blocks(path):
        if first == 1:
            header = _parse_header(block[0])
            if header is not None:
                declared_count, dim = header
                block[0] = ""  # not a data line
        parsed = _parse_block(block, dim, index)
        if parsed is not None:
            dim = parsed[1].shape[1]
            place(*parsed)
            continue
        for lineno, line in enumerate(block, first):
            if line:
                word, values = _parse_line(path, lineno, line, dim, index)
                dim = len(values)
                place([word], values[None])

    if not index:
        raise EmbeddingFormatError(f"{path}: no embedding rows found")
    if declared_count is not None and declared_count != len(index):
        raise EmbeddingFormatError(
            f"{path}: header declares {declared_count} words but file has {len(index)}"
        )
    if len(index) < len(matrix):  # a grown matrix keeps no spare rows
        matrix = matrix[: len(index)].copy()
    mem = StaticWordMemory._adopt(index, matrix)
    with contextlib.suppress(FloatingPointError), np.errstate(over="raise", invalid="raise"):
        mem.gram
    return mem


def save_word2vec_text(mem: StaticWordMemory, path) -> None:
    """Inverse of load_word2vec_text, with a "<count> <dim>" header;
    coordinates use shortest round-trip form. Written atomically, after a
    check that no word holds a space or a line break, which the reader splits
    at, about BLOCK_TEXT bytes of lines at a time."""
    for word in mem.vocab:
        if " " in word or "\n" in word or "\r" in word:
            raise ValueError(f"cannot write word {word!r}: the text format splits at spaces and line breaks")
    atomic_write_bytes(path, _text_pieces(mem))


def _text_pieces(mem: StaticWordMemory) -> Iterator[bytes]:
    """`mem`'s text file, a block of encoded lines at a time."""
    lines = [f"{mem.size} {mem.dim}\n".encode("utf-8")]
    size = 0
    for word, row in zip(mem.vocab, mem.matrix):
        line = (word + " " + " ".join(map(repr, row.tolist())) + "\n").encode("utf-8")
        lines.append(line)
        size += len(line)
        if size >= BLOCK_TEXT:
            yield b"".join(lines)
            lines, size = [], 0
    yield b"".join(lines)
