"""The word2vec text reader and writer as they were before blocks: the
per-line loader parses every line on its own, each coordinate with
`float()` once it is made only of the ASCII characters a number is written
with, and the writer joins the whole file's text before encoding it. Kept
as oracles for the block reader and the streamed writer."""

from __future__ import annotations

import os

import numpy as np

from lmn.word_memory import (EmbeddingFormatError, StaticWordMemory, _parse_header,
                             read_lines)

# float() also reads `nan`, `inf`, underscores between digits, non-ASCII
# digits and surrounding whitespace; none of these is a coordinate
NUMBER_CHARACTERS = set("0123456789.eE+-")


def load_per_line(path) -> StaticWordMemory:
    """`load_word2vec_text` one line at a time, each checked as it is read."""
    declared_count = None
    dim = None
    index: dict[str, int] = {}  # each word's row, in row order
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
        if word in index:
            raise EmbeddingFormatError(f"{path}: line {lineno0}: duplicate word {word!r}")
        values = np.empty(dim)
        for k, text in enumerate(coords):
            try:
                if not set(text) <= NUMBER_CHARACTERS:
                    raise ValueError
                values[k] = float(text)
            except ValueError:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno0}: invalid coordinate: {text!r}") from None
        if not np.isfinite(values).all():
            raise EmbeddingFormatError(f"{path}: line {lineno0}: non-finite coordinate")
        if not index:
            fits = (declared_count is not None
                    and 1 <= declared_count <= os.path.getsize(path) // (2 * dim))
            matrix = np.empty((declared_count if fits else 1, dim))
        elif len(index) == len(matrix):
            matrix = np.concatenate([matrix, np.empty_like(matrix)])
        matrix[len(index)] = values
        index[word] = len(index)

    if not index:
        raise EmbeddingFormatError(f"{path}: no embedding rows found")
    if declared_count is not None and declared_count != len(index):
        raise EmbeddingFormatError(
            f"{path}: header declares {declared_count} words but file has {len(index)}"
        )
    if len(index) < len(matrix):  # a grown matrix keeps no spare rows
        matrix = matrix[: len(index)].copy()
    return StaticWordMemory._adopt(index, matrix)


def joined_text(mem: StaticWordMemory) -> bytes:
    """The bytes of `save_word2vec_text`'s file, from one join of every line."""
    lines = [f"{mem.size} {mem.dim}\n"]
    for word, row in zip(mem.vocab, mem.matrix):
        lines.append(word + " " + " ".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines).encode("utf-8")
