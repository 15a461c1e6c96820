"""Static word memory: a frozen word-embedding matrix that doubles as the
lookup table for sentence embeddings and as the attention memory for frame
encoding.

All arithmetic is 64-bit; embedding files may store fewer digits and are
promoted on load. The module also holds the I/O core every reader and
writer shares: `read_lines`, the one line rule, and `atomic_write_bytes`.

Every text reader streams: `read_lines` yields one decoded line at a time,
and `load_word2vec_text` parses each line as it arrives into one float64
matrix, so a load holds the matrix plus one line, never the file's text. A reader that checks line by line (word2vec text, QA JSONL)
therefore reports the first fault in line order, an undecodable byte
included; the SubRip reader gathers its blocks before it checks them, so an
undecodable byte there wins over any block error.
"""

from __future__ import annotations

import codecs
import contextlib
import os
import re
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StaticWordMemory",
    "SentenceEmbedding",
    "EmbeddingFormatError",
    "tokenize",
    "unit_normalize",
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


def unit_normalize(x: np.ndarray) -> np.ndarray:
    """Scale a vector to unit length; the zero vector maps to itself."""
    x = np.asarray(x, dtype=np.float64)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return np.zeros_like(x)
    return x / norm


class StaticWordMemory:
    """Immutable vocabulary plus its embedding matrix (one row per word).

    The matrix is the memory's own read-only copy; only the (d, d) Gram
    matrix of its unit-normalized rows is cached, computed on first use.
    """

    def __init__(self, vocab: list[str] | tuple[str, ...], matrix: np.ndarray):
        # a copy: no array the caller holds can write under the cached Gram matrix
        self._take(tuple(vocab), np.array(matrix, dtype=np.float64, order="C"))

    @classmethod
    def _adopt(cls, vocab: list[str], matrix: np.ndarray) -> StaticWordMemory:
        """A memory that takes `matrix`, a fresh float64 C-order array that
        no caller holds, without copying it."""
        mem = cls.__new__(cls)
        mem._take(tuple(vocab), matrix)
        return mem

    def _take(self, vocab: tuple[str, ...], matrix: np.ndarray) -> None:
        if matrix.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
        if len(vocab) != matrix.shape[0]:
            raise ValueError(
                f"vocab size {len(vocab)} does not match matrix rows {matrix.shape[0]}"
            )
        if matrix.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if len(set(vocab)) != len(vocab):
            raise ValueError("vocabulary contains duplicate words")
        if not np.isfinite(matrix).all():
            raise ValueError("embedding matrix contains non-finite entries")
        matrix.setflags(write=False)
        self.vocab = vocab
        self.matrix = matrix
        self._index = {word: k for k, word in enumerate(vocab)}
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
    def unit_rows(self) -> np.ndarray:
        """Rows scaled to unit length (zero rows stay zero); not cached."""
        norms = np.linalg.norm(self.matrix, axis=1, keepdims=True)
        return self.matrix / np.where(norms == 0.0, 1.0, norms)

    @property
    def gram(self) -> np.ndarray:
        """Gram matrix (d, d) of the unit rows; cached, used by word attention."""
        if self._gram is None:
            rows = self.unit_rows
            g = rows.T @ rows
            g.setflags(write=False)
            self._gram = g
        return self._gram

    def __repr__(self) -> str:  # pragma: no cover
        return f"StaticWordMemory(|V|={self.size}, d={self.dim})"


@dataclass(frozen=True)
class SentenceEmbedding:
    """Mean-pooled sentence vector plus the number of in-vocabulary tokens."""

    vector: np.ndarray
    token_count: int


def embed_sentence(
    mem: StaticWordMemory, text: str, normalize: bool = True
) -> SentenceEmbedding:
    """Mean of the in-vocabulary token embeddings.

    Out-of-vocabulary tokens are skipped; a sentence with no known token
    embeds to the zero vector. Rows are summed in sorted vocabulary-index
    order so any reordering of the tokens yields a bit-identical vector.
    """
    indices = sorted(
        k for k in (mem.lookup(tok) for tok in tokenize(text)) if k is not None
    )
    if not indices:
        return SentenceEmbedding(np.zeros(mem.dim), 0)
    total = np.zeros(mem.dim)
    for k in indices:
        total += mem.matrix[k]
    vec = total / len(indices)
    if normalize:
        vec = unit_normalize(vec)
    return SentenceEmbedding(vec, len(indices))


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


def atomic_write_bytes(path, data: bytes) -> None:
    """Write `data` to a unique temporary file beside `path`, flush it to
    disk, then rename it over `path`. On any failure the temporary file is
    removed and `path` is left as it was."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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


def load_word2vec_text(path) -> StaticWordMemory:
    """Parse a word2vec-style text file into a StaticWordMemory.

    Accepted layout: an optional "<count> <dim>" first line, then one
    "<word> <v1> ... <vd>" line per word, single-space separated, UTF-8.
    Spaces at the end of a line are ignored: the reference word2vec tool
    writes each value as "%lf ". The dimension is taken from the header or
    inferred from the first data line; every malformed line is reported
    with its 1-based line number.

    Each line is parsed as it is read, into one float64 matrix. The matrix
    is preallocated from the header's count when the file is large enough
    to hold that many rows (each value needs a digit and a separator, so
    count * 2 * dim <= file size) and grown otherwise, so a false count
    allocates nothing the file cannot fill.
    """
    declared_count = None
    dim = None
    vocab: list[str] = []
    seen: set[str] = set()
    matrix = np.empty((0, 0))
    for lineno0, line in enumerate(read_lines(path, EmbeddingFormatError), 1):
        line = line.rstrip(" ")
        if lineno0 == 1:
            header = _parse_header(line)
            if header is not None:
                declared_count, dim = header
                continue
        if line == "":
            continue
        parts = line.split(" ")
        if len(parts) < 2:
            raise EmbeddingFormatError(
                f"{path}: line {lineno0}: expected '<word> <v1> ...', got {len(parts)} field(s)"
            )
        word, coords = parts[0], parts[1:]
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise EmbeddingFormatError(
                f"{path}: line {lineno0}: inconsistent dimension (expected {dim} values, got {len(coords)})"
            )
        if word in seen:
            raise EmbeddingFormatError(f"{path}: line {lineno0}: duplicate word {word!r}")
        seen.add(word)
        try:
            values = np.fromiter(map(float, coords), dtype=np.float64, count=dim)
        except ValueError as exc:
            raise EmbeddingFormatError(f"{path}: line {lineno0}: invalid coordinate: {exc}") from None
        if not np.isfinite(values).all():
            raise EmbeddingFormatError(f"{path}: line {lineno0}: non-finite coordinate")
        if not vocab:
            fits = (declared_count is not None
                    and 1 <= declared_count <= os.path.getsize(path) // (2 * dim))
            matrix = np.empty((declared_count if fits else 1, dim))
        elif len(vocab) == len(matrix):
            matrix = np.concatenate([matrix, np.empty_like(matrix)])
        matrix[len(vocab)] = values
        vocab.append(word)

    if not vocab:
        raise EmbeddingFormatError(f"{path}: no embedding rows found")
    if declared_count is not None and declared_count != len(vocab):
        raise EmbeddingFormatError(
            f"{path}: header declares {declared_count} words but file has {len(vocab)}"
        )
    if len(vocab) < len(matrix):  # a grown matrix keeps no spare rows
        matrix = matrix[: len(vocab)].copy()
    return StaticWordMemory._adopt(vocab, matrix)


def save_word2vec_text(mem: StaticWordMemory, path) -> None:
    """Inverse of load_word2vec_text, with a "<count> <dim>" header;
    coordinates use shortest round-trip form. Written atomically."""
    lines = [f"{mem.size} {mem.dim}\n"]
    for word, row in zip(mem.vocab, mem.matrix):
        lines.append(word + " " + " ".join(repr(float(v)) for v in row) + "\n")
    atomic_write_bytes(path, "".join(lines).encode("utf-8"))
