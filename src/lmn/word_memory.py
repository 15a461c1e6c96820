"""Static word memory: a frozen word-embedding matrix that doubles as the
lookup table for sentence embeddings and as the attention memory for frame
encoding.

All arithmetic is 64-bit; embedding files may store fewer digits and are
promoted on load.
"""

from __future__ import annotations

import codecs
import math
import re
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

    The matrix is exposed read-only; unit-normalized rows and their Gram
    matrix are computed once on first use and cached.
    """

    def __init__(self, vocab: list[str] | tuple[str, ...], matrix: np.ndarray):
        vocab = tuple(vocab)
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
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
        self._unit_rows: np.ndarray | None = None
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
        """Rows scaled to unit length (zero rows stay zero); cached."""
        if self._unit_rows is None:
            norms = np.linalg.norm(self.matrix, axis=1, keepdims=True)
            safe = np.where(norms == 0.0, 1.0, norms)
            rows = self.matrix / safe
            rows.setflags(write=False)
            self._unit_rows = rows
        return self._unit_rows

    @property
    def gram(self) -> np.ndarray:
        """Gram matrix (d, d) of the unit rows; cached, used by word attention."""
        if self._gram is None:
            g = self.unit_rows.T @ self.unit_rows
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


def read_utf8(path, error: type[ValueError], bom: bool = False) -> str:
    """The file's UTF-8 text (a leading byte-order mark dropped when `bom`).
    Undecodable bytes raise `error` naming the file and the 1-based line,
    counting \\n, \\r\\n and \\r breaks, of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    if bom and data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = before.count(b"\n") + 1
        raise error(f"{path}: line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


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
    The dimension is taken from the header or inferred from the first data
    line; every malformed line is reported with its 1-based line number.
    """
    lines = read_utf8(path, EmbeddingFormatError).splitlines()

    start = 0
    declared_count = None
    dim = None
    if lines:
        header = _parse_header(lines[0])
        if header is not None:
            declared_count, dim = header
            start = 1

    vocab: list[str] = []
    rows: list[list[float]] = []
    seen: set[str] = set()
    for lineno0, line in enumerate(lines[start:], start=start + 1):
        if line == "":
            continue
        parts = line.split(" ")
        if len(parts) < 2:
            raise EmbeddingFormatError(
                f"line {lineno0}: expected '<word> <v1> ...', got {len(parts)} field(s)"
            )
        word, coords = parts[0], parts[1:]
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise EmbeddingFormatError(
                f"line {lineno0}: inconsistent dimension (expected {dim} values, got {len(coords)})"
            )
        if word in seen:
            raise EmbeddingFormatError(f"line {lineno0}: duplicate word {word!r}")
        seen.add(word)
        try:
            values = [float(c) for c in coords]
        except ValueError as exc:
            raise EmbeddingFormatError(f"line {lineno0}: invalid coordinate: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise EmbeddingFormatError(f"line {lineno0}: non-finite coordinate")
        vocab.append(word)
        rows.append(values)

    if not rows:
        raise EmbeddingFormatError(f"{path}: no embedding rows found")
    if declared_count is not None and declared_count != len(rows):
        raise EmbeddingFormatError(
            f"header declares {declared_count} words but file has {len(rows)}"
        )
    return StaticWordMemory(vocab, np.array(rows, dtype=np.float64))


def save_word2vec_text(mem: StaticWordMemory, path, header: bool = True) -> None:
    """Inverse of load_word2vec_text; coordinates use shortest round-trip form."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{mem.size} {mem.dim}\n")
        for word, row in zip(mem.vocab, mem.matrix):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")
