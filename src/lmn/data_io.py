"""File formats and dataset assembly: SubRip subtitles, plaintext subtitles,
the LMNF feature-tensor and LMNP parameter containers, the QA JSONL schema,
frame subsampling across clips, and a planted-signal synthetic generator used
by the verification harness.

Feature payloads are stored as 32-bit and parameters as 64-bit
little-endian floats. `load_features` alone decides which clips stay on
disk, and `subsample_frames` keeps every picked frame where it lives.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .answering import NUM_CHOICES, QAItem
from .frame_encoder import CHUNK_BYTES, ClipFeatures
from .word_memory import (StaticWordMemory, atomic_write_bytes, embed_sentence, normalize_rows,
                          read_lines, save_word2vec_text)

__all__ = [
    "DataFormatError",
    "atomic_write_bytes",
    "SubtitleEntry",
    "SubtitleFile",
    "parse_srt",
    "srt_dumps",
    "load_plaintext_subtitles",
    "load_features",
    "save_features",
    "load_params",
    "save_params",
    "load_qa_jsonl",
    "save_qa_jsonl",
    "subsample_indices",
    "subsample_frames",
    "Example",
    "SyntheticSpec",
    "SyntheticDataset",
    "generate_synthetic",
    "write_synthetic",
    "load_examples",
]


class DataFormatError(ValueError):
    """Raised for malformed input files."""


# --- subtitles --------------------------------------------------------------

@dataclass(frozen=True)
class SubtitleEntry:
    start_ms: int
    end_ms: int
    text: str


@dataclass(frozen=True)
class SubtitleFile:
    entries: tuple[SubtitleEntry, ...]

    def texts(self) -> list[str]:
        return [e.text for e in self.entries]


_TIMESTAMP_RE = re.compile(
    r"^\s*(\d{2,}):(\d{2}):(\d{2}),(\d{3})\s*-->\s*(\d{2,}):(\d{2}):(\d{2}),(\d{3})\s*$"
)
_TAG_RE = re.compile(r"<[^>]*>")


def _parse_timestamp_line(line: str) -> tuple[int, int] | None:
    m = _TIMESTAMP_RE.match(line)
    if m is None:
        return None
    g = [int(x) for x in m.groups()]
    return tuple(((h * 60 + mi) * 60 + sec) * 1000 + ms for h, mi, sec, ms in (g[:4], g[4:]))


def parse_srt(path) -> SubtitleFile:
    """Parse a SubRip file: blank-line-separated blocks of index line,
    timestamp line, and one or more text lines (joined with single spaces,
    angle-bracket markup removed). Accepts CRLF or LF and a leading BOM."""
    lines = read_lines(path, DataFormatError, bom=True)

    blocks: list[list[str]] = []
    current: list[str] = []
    for line in lines:
        if line.strip() == "":
            if current:
                blocks.append(current)
                current = []
        else:
            current.append(line)
    if current:
        blocks.append(current)
    if not blocks:
        raise DataFormatError(f"{path}: empty subtitle file")

    entries = []
    for block_no, block in enumerate(blocks, 1):
        head = 1
        span = _parse_timestamp_line(block[0])
        if span is None and len(block) > 1:
            # the first line is the (ignored) index; the timestamp must follow
            head = 2
            span = _parse_timestamp_line(block[1])
        if span is None:
            raise DataFormatError(
                f"{path}: block {block_no}: malformed timestamp line: {block[head - 1]!r}"
            )
        text_lines = block[head:]
        start, end = span
        if start > end:
            raise DataFormatError(f"{path}: block {block_no}: start time after end time")
        pieces = [_TAG_RE.sub("", line).strip() for line in text_lines]
        text = " ".join(p for p in pieces if p)
        entries.append(SubtitleEntry(start, end, text))
    return SubtitleFile(tuple(entries))


def _format_ms(ms: int) -> str:
    s, milli = divmod(ms, 1000)
    m, sec = divmod(s, 60)
    h, minute = divmod(m, 60)
    return f"{h:02d}:{minute:02d}:{sec:02d},{milli:03d}"


def srt_dumps(sub: SubtitleFile) -> str:
    """Serialize entries back to SubRip form (one text line per entry)."""
    blocks = [
        f"{i}\n{_format_ms(e.start_ms)} --> {_format_ms(e.end_ms)}\n{e.text}\n"
        for i, e in enumerate(sub.entries, 1)
    ]
    return "\n".join(blocks)


def load_plaintext_subtitles(path) -> SubtitleFile:
    """One sentence per nonempty line; timestamps are zero."""
    sentences = [line.strip() for line in read_lines(path, DataFormatError, bom=True)]
    entries = tuple(SubtitleEntry(0, 0, s) for s in sentences if s)
    if not entries:
        raise DataFormatError(f"{path}: empty subtitle file")
    return SubtitleFile(entries)


# --- binary containers ------------------------------------------------------

# LMNF and LMNP share one layout: a 4-byte magic, a u32 version, one u32 per
# dimension, then the little-endian payload in C order.
_FEATURE_MAGIC = b"LMNF"
_PARAMS_MAGIC = b"LMNP"
_VERSION = 1
_MAX_PAYLOAD_BYTES = 1 << 62


def _header(ndim: int) -> struct.Struct:
    return struct.Struct(f"<4sI{ndim}I")


def _write_container(path, magic: bytes, array: np.ndarray, dtype: str) -> None:
    """Write what `_read_container` accepts: no zero-sized dimension, and a
    payload that is finite at the stored width."""
    if min(array.shape) < 1:
        raise ValueError(f"{path}: zero-sized dimension in {array.shape}")
    with np.errstate(over="ignore"):  # a value past the stored width's range becomes inf
        payload = np.ascontiguousarray(array, dtype=dtype)
    if not np.isfinite(payload).all():
        raise ValueError(f"{path}: payload contains non-finite entries")
    head = _header(array.ndim).pack(magic, _VERSION, *array.shape)
    atomic_write_bytes(path, head + payload.tobytes())


def _check_header(fh, path, magic: bytes, ndim: int, dtype: str) -> tuple[int, ...]:
    """The dims of the container open as `fh`, once its header checks out
    and the file's size matches it; `fh` is left at the payload, of which
    no byte has been read."""
    header = _header(ndim)
    head = fh.read(header.size)
    if len(head) < header.size:
        raise DataFormatError(
            f"{path}: truncated header (expected {header.size} bytes, got {len(head)})"
        )
    found, version, *dims = header.unpack(head)
    dims = tuple(dims)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic {found!r}")
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if min(dims) < 1:
        raise DataFormatError(f"{path}: zero-sized dimension in header {dims}")
    count = math.prod(dims)
    itemsize = np.dtype(dtype).itemsize
    if count * itemsize > _MAX_PAYLOAD_BYTES:
        raise DataFormatError(f"{path}: dimension overflow {dims}")
    expected = header.size + count * itemsize
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, got {size}")
    return dims


def _read_values(fh, path, values: np.ndarray) -> None:
    """Fill `values` from `fh` in one `readinto`, and check them finite."""
    if fh.readinto(values) != values.nbytes:
        raise DataFormatError(f"{path}: file shrank while it was read")
    if not np.isfinite(values).all():
        raise DataFormatError(f"{path}: payload contains non-finite entries")


def _read_container(path, magic: bytes, ndim: int, dtype: str) -> np.ndarray:
    """The checked payload, a fresh array shaped by the header's dims. The
    header, and the file's size against it, are checked before the payload
    is read into the one array returned."""
    with open(path, "rb") as fh:
        values = np.empty(_check_header(fh, path, magic, ndim, dtype), dtype=dtype)
        _read_values(fh, path, values)
    return values


def save_features(clip: ClipFeatures, path) -> None:
    _write_container(path, _FEATURE_MAGIC, clip.tensor, "<f4")


@dataclass(frozen=True)
class _FileFrames:
    """One LMNF file as a store of clip frames: its path and the
    (T, C, H, W) dims it had when it was loaded."""

    path: str
    dims: tuple[int, ...]

    def read_into(self, picked, out: np.ndarray) -> None:
        """Write the frames `picked` into `out`, a (len(picked), H·W, C)
        array, at its dtype. The file is checked again as the container
        reader checks it, header and size, and must still have the dims it
        was loaded with; each picked frame is then read into a one-frame
        buffer, checked finite and copied into `out` in region order. A
        whole float32 payload beside the chunk's float64 stack would add
        3.2 MB to each MovieQA-shape item: its heap then grew past glibc's
        trim threshold, and every item faulted its pages in afresh (78k
        minor faults per 32-question evaluation against 3.7k)."""
        with open(self.path, "rb") as fh:
            found = _check_header(fh, self.path, _FEATURE_MAGIC, 4, "<f4")
            if found != self.dims:
                raise DataFormatError(f"{self.path}: dims {found} differ from the {self.dims} "
                                      f"it was loaded with")
            payload = fh.tell()
            frame = np.empty(self.dims[1:], dtype="<f4")
            for k, t in enumerate(picked):
                fh.seek(payload + t * frame.nbytes)
                _read_values(fh, self.path, frame)
                out[k] = frame.reshape(len(frame), -1).T


def load_features(path) -> ClipFeatures:
    """The file's clip, checked in full: header, size and finiteness. A clip
    whose float64 regions exceed CHUNK_BYTES, one the chunk engine runs
    alone, is file-backed: its store is the file, which every chunk that
    stacks it reads again (`_FileFrames.read_into`). A smaller clip's store
    is one float32 region-order copy of the checked payload. Nothing is
    promoted here; `training.Chunk.of` makes each chunk's float64 copy of
    its regions."""
    payload = _read_container(path, _FEATURE_MAGIC, 4, "<f4")
    t, c = payload.shape[:2]
    if 8 * payload.size > CHUNK_BYTES:
        store = _FileFrames(os.fspath(path), payload.shape)
    else:
        store = payload.transpose(0, 2, 3, 1).astype(np.float32, order="C").reshape(t, -1, c)
        store.setflags(write=False)
    return ClipFeatures._of(payload.shape, ((store, tuple(range(t))),))


def save_params(weights: np.ndarray, path) -> None:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"parameters must be 2-D (d,C), got {weights.shape}")
    _write_container(path, _PARAMS_MAGIC, weights, "<f8")


def load_params(path) -> np.ndarray:
    return _read_container(path, _PARAMS_MAGIC, 2, "<f8").astype(np.float64, copy=False)


# --- QA dataset -------------------------------------------------------------

_QA_FIELDS = tuple(f.name for f in fields(QAItem))
_REQUIRED_QA_FIELDS = tuple(f.name for f in fields(QAItem) if f.default is MISSING)


def load_qa_jsonl(path) -> list[QAItem]:
    """One JSON object per line; see save_qa_jsonl for the schema and QAItem
    for its rules. Violations, and a qid seen on an earlier line, are
    rejected with the offending 1-based line number."""
    items: list[QAItem] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(read_lines(path, DataFormatError), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too-deep nesting, too-long ints
            raise DataFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DataFormatError(f"{path}: line {lineno}: expected a JSON object")
        for name in _REQUIRED_QA_FIELDS:
            if name not in obj:
                raise DataFormatError(f"{path}: line {lineno}: missing field {name!r}")
        try:
            item = QAItem(**{name: obj[name] for name in _QA_FIELDS if name in obj})
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
        if item.qid in first_line:
            raise DataFormatError(f"{path}: line {lineno}: duplicate qid {item.qid!r} "
                                  f"(first on line {first_line[item.qid]})")
        first_line[item.qid] = lineno
        items.append(item)
    return items


def save_qa_jsonl(items, path) -> None:
    """One JSON object per item holding QAItem's fields in order; an
    optional field that is None is left out."""
    rows = []
    for item in items:
        record = {}
        for name in _QA_FIELDS:
            value = getattr(item, name)
            if value is not None or name in _REQUIRED_QA_FIELDS:
                record[name] = value
        rows.append(json.dumps(record, ensure_ascii=False))
    atomic_write_bytes(path, ("\n".join(rows) + "\n").encode("utf-8"))


# --- frame subsampling ------------------------------------------------------

def subsample_indices(total: int, target: int) -> list[int]:
    """Equally spaced frame indices: floor(k*total/target) for k < target."""
    if total < 1 or target < 1:
        raise ValueError(f"need total >= 1 and target >= 1, got {total}, {target}")
    return [(k * total) // target for k in range(target)]


def subsample_frames(clips, target: int) -> ClipFeatures:
    """Concatenate the clips' frames in order and pick `target` equally spaced
    frames; short inputs repeat frames as the spacing rule dictates. A lone
    clip that already has `target` frames is returned as it is. Otherwise
    the picked frames are regrouped into runs of the clips' own stores:
    nothing is copied or read, and a file-backed frame stays on disk."""
    clips = list(clips)
    if not clips:
        raise ValueError("need at least one clip")
    shape = clips[0].shape[1:]
    for clip in clips[1:]:
        if clip.shape[1:] != shape:
            raise ValueError(f"clip shape mismatch: {clip.shape[1:]} vs {shape}")
    if len(clips) == 1 and clips[0].frames == target:
        return clips[0]
    located = [(store, t) for clip in clips for store, picked in clip.runs for t in picked]
    runs = []
    for store, t in (located[i] for i in subsample_indices(len(located), target)):
        if runs and runs[-1][0] is store:
            runs[-1][1].append(t)
        else:
            runs.append((store, [t]))
    return ClipFeatures._of((target, *shape), ((store, tuple(ts)) for store, ts in runs))


# --- dataset assembly -------------------------------------------------------

@dataclass(frozen=True)
class Example:
    """One resolved training/evaluation example."""

    item: QAItem
    features: ClipFeatures
    subtitles: tuple[str, ...] | None  # None selects video-only mode


_KINDS = {bool: (bool, "a bool"), int: (Integral, "an integer"), float: (Real, "a real number")}


def check_field_types(settings) -> None:
    """Reject a field of a settings dataclass whose value is not of its
    default's type, bool, int or float; a bool is no number."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        kind, noun = _KINDS[type(f.default)]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValueError(f"{type(settings).__name__}.{f.name} must be {noun}, got {value!r}")


# --- synthetic planted-signal data ------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale generator settings; every output is a pure function of the
    spec, including the seed."""

    vocab_size: int = 50
    dim: int = 16
    channels: int = 24
    frames: int = 4
    height: int = 3
    width: int = 3
    n_subtitles: int = 5
    n_train: int = 500
    n_eval: int = 200
    noise_sigma: float = 0.05
    seed: int = 1

    def __post_init__(self):
        check_field_types(self)
        for name in ("vocab_size", "dim", "channels", "frames", "height", "width",
                     "n_subtitles", "n_train", "n_eval"):
            if getattr(self, name) < 1:
                raise ValueError(f"SyntheticSpec.{name} must be positive")
        if self.noise_sigma < 0:
            raise ValueError("SyntheticSpec.noise_sigma must be >= 0")
        if not math.isfinite(self.noise_sigma):
            raise ValueError(f"SyntheticSpec.noise_sigma must be finite, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError("SyntheticSpec.seed must be >= 0")
        if self.channels < self.dim:
            raise ValueError(f"SyntheticSpec.channels ({self.channels}) must be >= dim "
                             f"({self.dim}): the hidden (C, d) map needs full rank d")
        # every item draws five disjoint answer pairs plus a question pair
        if self.vocab_size < 2 * NUM_CHOICES + 2:
            raise ValueError("SyntheticSpec.vocab_size too small for disjoint word sets")


@dataclass
class SyntheticDataset:
    word_memory: StaticWordMemory
    train_items: list[QAItem]
    eval_items: list[QAItem]
    features: dict[str, ClipFeatures] = field(default_factory=dict)
    subtitles: dict[str, list[str]] = field(default_factory=dict)
    hidden_map: np.ndarray | None = None

    def examples(self, split: str) -> list[Example]:
        items = {"train": self.train_items, "eval": self.eval_items}[split]
        return [
            Example(
                item,
                self.features[item.clip_ids[0]],
                tuple(self.subtitles[item.movie_id]),
            )
            for item in items
        ]


def _random_words(rng: np.random.Generator, count: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    letters = "abcdefghijklmnopqrstuvwxyz"
    while len(words) < count:
        word = "".join(letters[i] for i in rng.integers(0, 26, size=6))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _orthonormal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _hidden_map(rng: np.random.Generator, channels: int, dim: int) -> np.ndarray:
    """Full-rank (C, d) map with singular values in [1, 3]."""
    u = _orthonormal(rng, channels)[:, :dim]
    v = _orthonormal(rng, dim)
    singulars = np.linspace(1.0, 3.0, dim)
    return (u * singulars) @ v.T


def _make_item(
    rng: np.random.Generator,
    spec: SyntheticSpec,
    mem: StaticWordMemory,
    hidden: np.ndarray,
    qid: str,
    correct: int,
) -> tuple[QAItem, ClipFeatures, list[str]]:
    picked = rng.choice(spec.vocab_size, size=2 * NUM_CHOICES + 2, replace=False)
    answer_words = [
        (mem.vocab[picked[2 * h]], mem.vocab[picked[2 * h + 1]]) for h in range(NUM_CHOICES)
    ]
    question = f"{mem.vocab[picked[-2]]} {mem.vocab[picked[-1]]}"
    answers = tuple(f"{a} {b}" for a, b in answer_words)
    target = embed_sentence(mem, [answers[correct]])[0]

    regions_total = spec.frames * spec.height * spec.width
    planted = set(rng.choice(regions_total, size=regions_total // 2, replace=False).tolist())
    region_vecs = np.empty((regions_total, spec.channels))
    for r in range(regions_total):
        direction = target if r in planted else normalize_rows(rng.normal(size=spec.dim))[1]
        region_vecs[r] = hidden @ direction + spec.noise_sigma * rng.normal(size=spec.channels)
    tensor = (
        region_vecs.reshape(spec.frames, spec.height, spec.width, spec.channels)
        .transpose(0, 3, 1, 2)
    )
    # held at the on-disk width so in-memory and loaded clips agree in value and dtype
    features = ClipFeatures(tensor.astype(np.float32))

    item_words = {mem.vocab[k] for k in picked}
    remaining = [w for w in mem.vocab if w not in item_words]
    planted_pos = int(rng.integers(0, spec.n_subtitles))
    sentences = []
    for n in range(spec.n_subtitles):
        if n == planted_pos:
            # the one relevant subtitle mentions both the correct answer's
            # words and the question's words, like dialogue that answers it;
            # answer words dominate the mean embedding 3:2
            sentences.append(f"{answers[correct]} {answers[correct]} {answers[correct]} {question} {question}")
        else:
            pair = rng.choice(len(remaining), size=2, replace=False)
            sentences.append(f"{remaining[pair[0]]} {remaining[pair[1]]}")

    item = QAItem(
        qid=qid,
        question=question,
        answers=answers,
        movie_id=qid,
        clip_ids=(f"{qid}_c0",),
        correct_index=correct,
    )
    return item, features, sentences


def generate_synthetic(spec: SyntheticSpec) -> SyntheticDataset:
    """Build a dataset whose correct answers are planted into the features.

    Half of each item's regions carry a hidden linear image of the correct
    answer's embedding (plus noise); exactly one subtitle repeats the correct
    answer's two words. A learner exceeds chance only by recovering an
    approximate left inverse of the hidden map.
    """
    rng = np.random.default_rng(spec.seed)
    words = _random_words(rng, spec.vocab_size)
    vectors = rng.normal(size=(spec.vocab_size, spec.dim))
    normalize_rows(vectors, out=vectors)
    mem = StaticWordMemory(words, vectors)
    hidden = _hidden_map(rng, spec.channels, spec.dim)

    data = SyntheticDataset(mem, [], [], hidden_map=hidden)
    labels = {
        "train": rng.integers(0, NUM_CHOICES, size=spec.n_train),
        "eval": rng.integers(0, NUM_CHOICES, size=spec.n_eval),
    }
    for split, out in (("train", data.train_items), ("eval", data.eval_items)):
        for i, label in enumerate(labels[split]):
            qid = f"{split}{i:05d}"
            item, features, sentences = _make_item(rng, spec, mem, hidden, qid, int(label))
            out.append(item)
            data.features[item.clip_ids[0]] = features
            data.subtitles[item.movie_id] = sentences
    return data


def write_synthetic(data: SyntheticDataset, outdir) -> dict[str, str]:
    """Write a synthetic dataset in the standard on-disk layout; returns the
    paths keyed by role."""
    outdir = str(outdir)
    feature_dir = os.path.join(outdir, "features")
    subtitle_dir = os.path.join(outdir, "subtitles")
    os.makedirs(feature_dir, exist_ok=True)
    os.makedirs(subtitle_dir, exist_ok=True)

    paths = {
        "embeddings": os.path.join(outdir, "embeddings.txt"),
        "train": os.path.join(outdir, "train.jsonl"),
        "eval": os.path.join(outdir, "eval.jsonl"),
        "features": feature_dir,
        "subtitles": subtitle_dir,
    }
    save_word2vec_text(data.word_memory, paths["embeddings"])
    save_qa_jsonl(data.train_items, paths["train"])
    save_qa_jsonl(data.eval_items, paths["eval"])
    for clip_id in sorted(data.features):
        save_features(data.features[clip_id], os.path.join(feature_dir, clip_id + ".lmnf"))
    for movie_id in sorted(data.subtitles):
        text = "\n".join(data.subtitles[movie_id]) + "\n"
        atomic_write_bytes(os.path.join(subtitle_dir, movie_id + ".txt"), text.encode("utf-8"))
    return paths


def load_examples(items, feature_dir, subtitle_dir, frames: int) -> list[Example]:
    """The items' examples, read from the layout `write_synthetic` writes.
    Each item's clips `<feature_dir>/<clip_id>.lmnf` are subsampled together
    to `frames` frames; a clip shape mismatch raises a ValueError that
    starts `question <qid>: `. Each movie's sentences are read once, from
    `<subtitle_dir>/<movie_id>.srt`, else from its `.txt`, else a ValueError
    names the movie; with `subtitle_dir` None every example is video-only."""
    subtitles: dict[str, tuple[str, ...]] = {}
    examples = []
    for item in items:
        clips = [load_features(os.path.join(feature_dir, f"{cid}.lmnf")) for cid in item.clip_ids]
        try:
            features = subsample_frames(clips, frames)
        except ValueError as exc:
            raise ValueError(f"question {item.qid}: {exc}") from None
        if subtitle_dir is not None and item.movie_id not in subtitles:
            srt = os.path.join(subtitle_dir, item.movie_id + ".srt")
            txt = os.path.join(subtitle_dir, item.movie_id + ".txt")
            if os.path.exists(srt):
                subtitles[item.movie_id] = tuple(parse_srt(srt).texts())
            elif os.path.exists(txt):
                subtitles[item.movie_id] = tuple(load_plaintext_subtitles(txt).texts())
            else:
                raise ValueError(f"no subtitle file for movie {item.movie_id!r} in {subtitle_dir}")
        examples.append(Example(item, features, subtitles.get(item.movie_id)))
    return examples
