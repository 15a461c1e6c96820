"""Gradient-based training of the projection weights, the model's single
learnable tensor. The forward pass composes frame encoding, the subtitle
pipeline (or the video-only sum), and answer scoring; the backward pass is
hand-written reverse mode through the cached intermediates. Word embeddings,
subtitle rows, question and answer vectors are frozen and receive no
gradient.

Every pass runs through one chunk engine: consecutive same-shape items are
stacked along a leading batch axis, while their stacked copies stay within
CHUNK_BYTES, and each chunk goes through one forward and one backward. An
item over the budget runs alone. The stack promotes the regions, held at
their stored width or read from disk for a file-backed clip, to float64
once per chunk; every other array of a one-item chunk is a view of the
item's. Shapes never mix within a chunk, so nothing is padded or masked.
`train`'s minibatches, its dev pass, `evaluate`, and `forward`, `backward`
and `gradcheck` on their one-item chunks all take this path, under one
numeric guard that names a failing chunk's question. Preparation cuts
examples by the same rule (`_chunks`) and embeds each run's sentences in
one call, so an evaluation embeds exactly the chunks it runs.

Training is plain minibatch SGD with early stopping on dev accuracy, fully
reproducible from the seed: a minibatch's gradient is one GEMM sum per
chunk, and chunk gradients are summed in chunk order.
"""

from __future__ import annotations

import hashlib
import json
import math
import weakref
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

import numpy as np

from .answering import (
    NUM_CHOICES,
    AnswerDistribution,
    QAItem,
    cross_entropy,
    predict,
    score_answers,
)
from .data_io import DataFormatError, Example, check_field_types
from .frame_encoder import (
    CHUNK_BYTES,
    ClipFeatures,
    FrameCache,
    encode_frames_backward,
    encode_frames_cached,
)
from .subtitle_memory import (
    ClipCache,
    build_memory,  # unused here; the bench tracer wraps `lmn.training.build_memory` by name
    encode_clip_backward,
    encode_clip_cached,
)
from .word_memory import StaticWordMemory, embed_sentence

__all__ = [
    "ModelConfig",
    "ModelParams",
    "TrainConfig",
    "TrainReport",
    "EpochStats",
    "init_params",
    "prepare_example",
    "forward",
    "backward",
    "sgd_step",
    "gradcheck",
    "train",
    "answer_distributions",
    "evaluate",
    "rank_subtitles",
]


@dataclass(frozen=True)
class ModelConfig:
    """Pipeline switches; hop counts are at least one."""

    swm_hops: int = 1
    um_hops: int = 1
    qg: bool = False
    average_clip: bool = False
    # constants, not settings: only the bench's desk gates read them, and
    # they go when the bench drops those reads
    normalize_sentences: ClassVar[bool] = True
    um_carry_frames: ClassVar[bool] = False

    def __post_init__(self):
        check_field_types(self)
        if self.swm_hops < 1 or self.um_hops < 1:
            raise ValueError("hop counts must be >= 1")


@dataclass(frozen=True)
class ModelParams:
    weights: np.ndarray  # (d, C) projection
    config: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, order="C")  # a copy; the caller's array stays writable
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D (d,C), got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights contain non-finite entries")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def init_params(dim: int, channels: int, config: ModelConfig | None = None, seed: int = 0) -> ModelParams:
    """Uniform init on [-a, a] with a = sqrt(6/(d+C)). The first word-memory
    hop normalizes each projected region, which removes the projection's
    scale, so the bound does not limit the logits."""
    bound = np.sqrt(6.0 / (dim + channels))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-bound, bound, size=(dim, channels))
    return ModelParams(weights, config or ModelConfig())


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 8
    max_epochs: int = 200
    patience: int = 10
    dev_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        _check_learning_rate(self.learning_rate)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ValueError("dev_fraction must be in (0, 1)")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_acc: float


@dataclass(frozen=True)
class TrainReport:
    epochs: tuple[EpochStats, ...]
    best_epoch: int  # 1-based; 0 when no epoch ran
    best_dev_acc: float
    params_digest: str

    def to_json(self) -> str:
        doc = {
            "epochs": [asdict(e) for e in self.epochs],
            "best_epoch": self.best_epoch,
            "best_dev_acc": self.best_dev_acc,
        }
        return json.dumps(doc, ensure_ascii=False)


def _digest(weights: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(repr(weights.shape).encode())
    h.update(np.ascontiguousarray(weights, dtype="<f8").tobytes())
    return h.hexdigest()


# --- prepared items -----------------------------------------------------------

@dataclass
class Prepared:
    """Frozen per-item inputs: everything but the projection weights."""

    qid: str  # names the item in a located error
    clip: ClipFeatures  # resident, or file-backed until a chunk stacks it
    question: np.ndarray  # (d,)
    answer_mat: np.ndarray  # (5, d)
    subtitle_mat: np.ndarray | None  # (N, d); None selects video-only mode
    label: int | None

    @property
    def regions(self) -> np.ndarray:
        """The clip's (T, R, C) regions at its width (`ClipFeatures.regions`)."""
        return self.clip.regions()


def _prepared(mem: StaticWordMemory, dataset: Iterable[Example]) -> Iterator[Prepared]:
    """The examples' prepared items in order, made a chunk at a time:
    `_chunks` cuts the examples into the runs the engine stacks, and each
    run's sentences are embedded in one call (`_embed_chunk`). A movie's
    rows are embedded once and shared, read-only, by its questions while
    any prepared item holds them: `memories` holds them only weakly, so
    they are freed with the last such item. `train` holds every item, so
    it embeds each movie once; `evaluate` drops each item after its chunk
    runs, so it holds only the movies in flight and embeds a movie once
    per stretch of consecutive questions about it. `embed_sentence` sums
    each row on its own, so no row depends on its chunk: an item prepared
    alone, as `forward` prepares it, has the same rows, and a movie's are
    the ones `build_memory` gives. Preparation does not depend on the model
    config."""
    def key(example: Example) -> tuple[tuple, int]:
        subtitles = None if example.subtitles is None else len(example.subtitles)
        return _key(example.features, subtitles, mem.dim)

    memories = weakref.WeakValueDictionary()
    for run in _chunks(dataset, key):
        text_rows, movies = _embed_chunk(mem, run, memories)
        for i, example in enumerate(run):
            first = i * (1 + NUM_CHOICES)
            yield Prepared(
                qid=example.item.qid,
                clip=example.features,
                question=text_rows[first],
                answer_mat=text_rows[first + 1 : first + 1 + NUM_CHOICES],
                subtitle_mat=None if example.subtitles is None
                else movies[example.item.movie_id, example.subtitles],
                label=example.item.correct_index,
            )


def _embed_chunk(
    mem: StaticWordMemory,
    run: list[Example],
    memories: weakref.WeakValueDictionary[tuple[str, tuple[str, ...]], np.ndarray],
) -> tuple[np.ndarray, dict[tuple[str, tuple[str, ...]], np.ndarray]]:
    """Embed the run in one `embed_sentence` call: six rows per example,
    its question and answers, then the subtitles of each (movie_id,
    subtitles) that `memories` no longer holds, whose rows it adds there.
    Returns the question and answer rows, held apart from the movies' rows
    so that neither keeps the other in memory, and the rows of each of the
    run's movies, which keep them alive while the run is prepared.

    An empty subtitle list, and rows that are not all finite, raise one
    ValueError that starts `movie <movie_id>: ` or `question <qid>: `; it
    names the first such row, questions and answers before subtitles."""
    texts = [text for example in run
             for text in (example.item.question, *example.item.answers)]
    subtitles: list[str] = []
    movies: dict[tuple[str, tuple[str, ...]], np.ndarray] = {}
    fresh: dict[tuple[str, tuple[str, ...]], slice] = {}  # each new movie's rows in `subtitles`
    for example in run:
        key = (example.item.movie_id, example.subtitles)
        if example.subtitles is None or key in movies or key in fresh:
            continue
        rows = memories.get(key)  # one strong reference, or None once the rows are freed
        if rows is not None:
            movies[key] = rows
            continue
        if not example.subtitles:
            raise ValueError(f"movie {example.item.movie_id}: "
                             f"cannot build a subtitle memory from an empty sentence list")
        fresh[key] = slice(len(subtitles), len(subtitles) + len(example.subtitles))
        subtitles += example.subtitles
    with np.errstate(over="ignore", invalid="ignore"):
        rows = embed_sentence(mem, texts + subtitles)
    if not np.isfinite(rows).all():
        _raise_non_finite(rows, run, fresh)
    text_rows, movie_rows = rows[: len(texts)].copy(), rows[len(texts) :].copy()
    text_rows.setflags(write=False)
    movie_rows.setflags(write=False)
    for key, span in fresh.items():
        movies[key] = memories[key] = movie_rows[span]
    return text_rows, movies


def _raise_non_finite(rows: np.ndarray, run: list[Example], fresh: dict[tuple, slice]) -> None:
    """Name the run's first row that is not finite, and its question or
    movie; the rows are `_embed_chunk`'s, six per question, then each
    movie's."""
    bad = int(np.argmin(np.isfinite(rows).all(axis=1)))
    item, k = divmod(bad, 1 + NUM_CHOICES)
    if item < len(run):
        row = "the question" if k == 0 else f"answer {k - 1}"
        raise ValueError(f"question {run[item].item.qid}: {row} embeds to non-finite values")
    bad -= len(run) * (1 + NUM_CHOICES)
    for (movie_id, _), span in fresh.items():
        if span.start <= bad < span.stop:
            raise ValueError(f"movie {movie_id}: subtitle {bad - span.start} "
                             f"embeds to non-finite values")


def prepare_example(
    mem: StaticWordMemory, example: Example, config: ModelConfig | None = None
) -> Prepared:
    """The example's prepared item. `config` changes nothing; the bench's
    gates still pass one."""
    return next(_prepared(mem, [example]))


# --- the chunk engine ---------------------------------------------------------

@dataclass
class Chunk:
    """Same-shape prepared items stacked along a leading batch axis: equal
    (T, R, C) regions and equal subtitle counts N, or all video-only.

    Items hold their clips, resident at the stored width (float32 from
    LMNF files) or file-backed. The stack is taken at float64, straight
    from each resident clip's buffer and, frame by frame, from each
    file-backed clip's files, so a chunk of float32 items, even a chunk of
    one, makes one exact float64 copy of its regions, which the frame
    cache keeps for the backward. Every other array of a chunk of one, and
    the regions of a resident float64 item, are views of the item's."""

    regions: np.ndarray  # (B, T*R, C) float64: one region group per item
    frames: int  # T
    questions: np.ndarray  # (B, d)
    answers: np.ndarray  # (B, 5, d)
    subtitles: np.ndarray | None  # (B, N, d); None selects video-only mode
    labels: np.ndarray | None  # (B,) correct indices; None unless every item has one

    @classmethod
    def of(cls, items: list[Prepared]) -> Chunk:
        def stacked(arrays, dtype=None):
            if len(arrays) == 1:
                return np.asarray(arrays[0], dtype=dtype)[None]
            return np.array(arrays, dtype=dtype)

        clips = [p.clip for p in items]
        t, c, h, w = clips[0].shape
        if all(clip.source is None for clip in clips):
            regions = stacked([clip.regions() for clip in clips], np.float64)
        else:  # files are read frame by frame straight into the float64 stack
            regions = np.empty((len(clips), t, h * w, c))
            for out, clip in zip(regions, clips):
                if clip.source is None:
                    out[...] = clip.regions()
                else:
                    clip.source.read_into(out)
        labels = [p.label for p in items]
        return cls(
            regions=regions.reshape(len(items), t * h * w, c),
            frames=t,
            questions=stacked([p.question for p in items]),
            answers=stacked([p.answer_mat for p in items]),
            subtitles=None if items[0].subtitle_mat is None
            else stacked([p.subtitle_mat for p in items]),
            labels=None if None in labels else np.array(labels),
        )


def _key(clip: ClipFeatures, subtitles: int | None, dim: int) -> tuple[tuple, int]:
    """An item's chunk key, read from its clip's shape and never from its
    values: its shape, (T, R, C) regions and subtitle count (None when
    video-only), and its bytes in a stacked chunk, its regions at float64
    width and its question, answer and subtitle rows."""
    t, c, h, w = clip.shape
    rows = 1 + NUM_CHOICES + (subtitles or 0)
    return ((t, h * w, c), subtitles), 8 * (math.prod(clip.shape) + rows * dim)


def _item_key(prep: Prepared) -> tuple[tuple, int]:
    subtitles = None if prep.subtitle_mat is None else len(prep.subtitle_mat)
    return _key(prep.clip, subtitles, prep.question.size)


def _chunks(items: Iterable, key: Callable[..., tuple[tuple, int]]) -> Iterator[list]:
    """The items, examples or prepared items, cut in order into runs of one
    shape whose stacked copies stay within CHUNK_BYTES; `key` gives an
    item's shape and bytes (`_key`). An item over the budget runs alone.
    Items of one shape have one byte count, so a run that has no room for
    another is yielded before the next item is read."""
    run, run_shape = [], None
    for item in items:
        shape, nbytes = key(item)
        if run and shape != run_shape:
            yield run
            run = []
        run.append(item)
        run_shape = shape
        if (len(run) + 1) * nbytes > CHUNK_BYTES:
            yield run
            run = []
    if run:
        yield run


@dataclass
class ForwardState:
    frame_cache: FrameCache
    clip_cache: ClipCache | None
    dist: AnswerDistribution  # (B, 5)
    losses: np.ndarray | None  # (B,)


def run_forward(
    weights: np.ndarray, chunk: Chunk, config: ModelConfig, mem: StaticWordMemory
) -> ForwardState:
    frame_sums, frame_cache = encode_frames_cached(chunk.regions, weights, mem, config.swm_hops)
    if chunk.subtitles is not None:
        clips, clip_cache = encode_clip_cached(
            frame_sums, chunk.subtitles, chunk.questions, config.um_hops, config.qg
        )
    else:
        clip_cache = None
        clips = frame_sums
    if config.average_clip:
        clips = clips / chunk.frames
    dist = score_answers(clips, chunk.questions, chunk.answers)
    losses = None if chunk.labels is None else cross_entropy(dist, chunk.labels)
    return ForwardState(frame_cache, clip_cache, dist, losses)


def run_backward(
    state: ForwardState, chunk: Chunk, config: ModelConfig, mem: StaticWordMemory
) -> np.ndarray:
    """Exact gradient of the chunk's summed loss with respect to the
    projection weights."""
    dlogits = state.dist.probs.copy()
    dlogits[np.arange(len(chunk.labels)), chunk.labels] -= 1.0
    dclips = np.matmul(dlogits[:, None, :], chunk.answers)[:, 0]
    if config.average_clip:
        dclips = dclips / chunk.frames
    if state.clip_cache is not None:
        dclips = encode_clip_backward(dclips, state.clip_cache)
    return encode_frames_backward(dclips, state.frame_cache, mem)


@dataclass
class Outcome:
    """What `_run` returns for n items."""

    dist: AnswerDistribution  # (n, 5)
    losses: np.ndarray | None  # (n,); None unless every item is labeled
    gradient: np.ndarray | None  # (d, C) summed loss gradient; None unless asked for


def _run(
    weights: np.ndarray,
    items: Iterable[Prepared],
    config: ModelConfig,
    mem: StaticWordMemory,
    gradient: bool = False,
) -> Outcome:
    """Run the items chunk by chunk through one stacked forward and, with
    `gradient`, one backward per chunk; chunk gradients are summed in chunk
    order. Each chunk is stacked and runs under `_located`: an overflow or
    invalid operation raises one ValueError, and a file-backed clip whose
    file changed since it was loaded a DataFormatError that names the file,
    each starting `question <qid>: `. A chunk of several items that fails
    is rerun one item at a time, so the error names the first item that
    fails alone (the chunk's first otherwise)."""
    probs, logits, losses = [], [], []
    total = None
    for run in _chunks(items, _item_key):
        try:
            with _located(f"question {run[0].qid}"):
                chunk = Chunk.of(run)
                state = run_forward(weights, chunk, config, mem)
                if gradient:
                    grad = run_backward(state, chunk, config, mem)
                    total = grad if total is None else total + grad
        except ValueError:
            if len(run) > 1:
                for prep in run:
                    _run(weights, [prep], config, mem, gradient)
            raise
        probs.append(state.dist.probs)
        logits.append(state.dist.logits)
        losses.append(state.losses)
        del chunk, state  # freed before the next chunk is stacked
    dist = AnswerDistribution(np.concatenate(probs), np.concatenate(logits))
    losses = None if any(x is None for x in losses) else np.concatenate(losses)
    return Outcome(dist, losses, total)


def _labeled(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: np.ndarray | None,
) -> Prepared:
    """The prepared item of `forward`, `backward` and `gradcheck`; all three
    need a label. The question and answers are prepared by `prepare_example`
    and raise its located errors; the subtitle rows are `sub`, as given."""
    _require_labels([item])
    if sub is not None:
        sub = np.asarray(sub, dtype=np.float64)
        fits = sub.ndim == 2 and len(sub) > 0 and sub.shape[1] == mem.dim
        if not (fits and np.isfinite(sub).all()):
            got = "non-finite entries" if fits else f"shape {sub.shape}"
            raise ValueError(f"subtitle rows must be a finite (N>=1, {mem.dim}) matrix "
                             f"for the {mem.dim}-wide word memory, got {got}")
    prep = prepare_example(mem, Example(item, features, None))
    return replace(prep, subtitle_mat=sub)


def _require_labels(items: Iterable[QAItem]) -> None:
    for item in items:
        if item.correct_index is None:
            raise ValueError(f"item {item.qid!r} has no correct_index")


def forward(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: np.ndarray | None = None,
) -> tuple[float, AnswerDistribution]:
    """Loss and answer distribution for one labeled item."""
    out = _run(params.weights, [_labeled(params, mem, item, features, sub)], params.config, mem)
    return float(out.losses[0]), AnswerDistribution(out.dist.probs[0], out.dist.logits[0])


def backward(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the item loss with respect to the projection weights."""
    prep = _labeled(params, mem, item, features, sub)
    return _run(params.weights, [prep], params.config, mem, gradient=True).gradient


def sgd_step(weights: np.ndarray, gradient: np.ndarray, learning_rate: float) -> np.ndarray:
    """One plain SGD update; no momentum, no decay."""
    weights = np.asarray(weights, dtype=np.float64)
    gradient = np.asarray(gradient, dtype=np.float64)
    if weights.shape != gradient.shape:
        raise ValueError(f"shape mismatch: weights {weights.shape}, gradient {gradient.shape}")
    _check_learning_rate(learning_rate)
    return weights - learning_rate * gradient


def _check_learning_rate(value: float) -> None:
    """Reject a learning rate that is not positive and finite."""
    if value <= 0:
        raise ValueError("learning_rate must be positive")
    if not np.isfinite(value):
        raise ValueError(f"learning_rate must be finite, got {value}")


# --- finite-difference check --------------------------------------------------

DIRECTIONS = 8  # random directions per `gradcheck`, two forwards each
STEP = 1e-5  # `gradcheck`'s central-difference step along each direction


def gradcheck(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: np.ndarray | None = None,
) -> float:
    """Max relative error between the analytic gradient and central finite
    differences along DIRECTIONS seeded Gaussian directions V of unit
    Frobenius norm, each of which moves every weight entry: ⟨∇L, V⟩ against
    (L(W + STEP·V) − L(W − STEP·V)) / (2·STEP).

    The loss is computed from the logits, so a difference quotient resolves
    nothing below the floor ε·max(|loss|, max |logit|)/STEP. A direction
    counts where |analytic| + |numeric| ≥ floor/1e-5, so rounding is at most
    1e-5 of its error. If none does, a ValueError that starts
    `question <qid>: ` names the floor; its forwards raise `_run`'s located
    errors."""
    prep = _labeled(params, mem, item, features, sub)
    config = params.config
    out = _run(params.weights, [prep], config, mem, gradient=True)
    loss, logit = out.losses[0], np.abs(out.dist.logits).max()
    floor = np.finfo(np.float64).eps * max(abs(loss), logit) / STEP

    rng = np.random.default_rng(0)
    errors = []
    for _ in range(DIRECTIONS):
        direction = rng.standard_normal(params.weights.shape)
        direction /= np.linalg.norm(direction)
        analytic = np.vdot(out.gradient, direction)
        loss_plus = _run(params.weights + STEP * direction, [prep], config, mem).losses[0]
        loss_minus = _run(params.weights - STEP * direction, [prep], config, mem).losses[0]
        numeric = (loss_plus - loss_minus) / (2.0 * STEP)
        scale = abs(analytic) + abs(numeric)
        if scale >= floor / 1e-5:
            errors.append(abs(analytic - numeric) / scale)
    if not errors:
        raise ValueError(f"question {item.qid}: no direction reaches 1e5 times the finite-difference "
                         f"floor eps * max(|loss|, max |logit|) / step = {floor:.3e} "
                         f"(loss {loss:.3e}, max |logit| {logit:.3e})")
    return max(errors)


# --- inference ----------------------------------------------------------------

def answer_distributions(
    params: ModelParams, mem: StaticWordMemory, examples: list[Example]
) -> AnswerDistribution:
    """The (n, 5) answer distribution of each example, labeled or not.

    Questions run in chunks of consecutive same-shape items, each through
    one stacked forward; a question over the chunk budget runs alone on one
    float64 copy of its frames, read from disk when its clip is
    file-backed. A question that overflows or scores non-finite logits
    raises `_run`'s ValueError, which starts `question <qid>: ` and names
    the first such question; a file-backed clip whose file changed since
    it was loaded, `_run`'s DataFormatError. A question,
    answer or subtitle row that embeds to non-finite values raises the
    ValueError of `_prepared`, which names its question or movie."""
    if not examples:
        raise ValueError("empty dataset")
    return _run(params.weights, _prepared(mem, examples), params.config, mem).dist


def evaluate(
    params: ModelParams, mem: StaticWordMemory, dataset: list[Example]
) -> tuple[float, list[dict]]:
    """Accuracy plus a per-question record of prediction, its probability
    and its correctness; every question needs its correct_index. The
    distributions, and their errors, are `answer_distributions`'."""
    _require_labels(example.item for example in dataset)
    dist = answer_distributions(params, mem, dataset)
    records = []
    hits = 0
    for example, choice, probs in zip(dataset, predict(dist).tolist(), dist.probs):
        correct = choice == example.item.correct_index
        records.append({
            "qid": example.item.qid,
            "predicted": choice,
            "prob": float(probs[choice]),
            "correct_index": example.item.correct_index,
            "correct": correct,
        })
        hits += correct
    return hits / len(dataset), records


def rank_subtitles(
    params: ModelParams,
    mem: StaticWordMemory,
    example: Example,
    frame: int,
    final: bool = False,
) -> list[tuple[int, float]]:
    """The example's subtitles as (index, score) pairs, by descending inner
    product with the vector of its frame `frame` (the attended sum of that
    frame's regions), ties in file order. With `final` the rows are the
    memory the model's last subtitle pass attends over, else the built
    memory. A numeric failure raises `question <qid>: …`; a video-only
    example or a frame index outside [0, T) raises a ValueError."""
    qid, frames = example.item.qid, example.features.frames
    if example.subtitles is None:
        raise ValueError(f"question {qid} has no subtitles to rank")
    if not 0 <= frame < frames:
        raise ValueError(f"frame index {frame} out of range (clip has {frames} frames)")
    prep = prepare_example(mem, example)
    with _located(f"question {qid}"):
        chunk = Chunk.of([prep])  # the clip's one read
        regions = chunk.regions.reshape(frames, -1, example.features.channels)
        (vector,), _ = encode_frames_cached(regions[frame : frame + 1], params.weights,
                                            mem, params.config.swm_hops)
        memory = prep.subtitle_mat
        if final:
            state = run_forward(params.weights, chunk, params.config, mem)
            memory = state.clip_cache.scales[-1][0][:, None] * memory
        scores = memory @ vector
    order = np.argsort(-scores, kind="stable")
    return [(int(n), float(scores[n])) for n in order]


# --- training loop ------------------------------------------------------------

@contextmanager
def _located(where: str):
    """Raise numpy overflow and invalid operations inside the block, and
    report any numeric failure as one ValueError that starts with `where`;
    a DataFormatError stays one."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, ValueError) as exc:
        kind = DataFormatError if isinstance(exc, DataFormatError) else ValueError
        raise kind(f"{where}: {exc}") from exc


def train(
    dataset: list[Example],
    mem: StaticWordMemory,
    config: TrainConfig,
    params0: ModelParams,
) -> tuple[ModelParams, TrainReport]:
    """Seeded SGD over the dataset with an internal dev split.

    The dataset is shuffled once to carve off the dev fraction, reshuffled
    every epoch for minibatching, and training stops after `patience` epochs
    without a dev-accuracy improvement. The returned parameters are the best
    dev-epoch snapshot (ties keep the earlier epoch). Every prepared item
    is held for the whole run, so each movie's subtitle rows are embedded
    once and shared by its questions, whatever their order. A sentence
    row that embeds to non-finite values stops the run before epoch 1 with
    the ValueError of `_prepared`.

    A batch or dev pass whose loss or gradient is not finite raises one
    ValueError that starts `epoch E batch B: ` or `epoch E dev: `; for an
    overflow that prefix is followed by the question `_run` names, as in
    `epoch E batch B: question <qid>: …`. A file-backed clip whose file
    changed since it was loaded raises a DataFormatError with the same
    prefixes, then the file's path.
    """
    if not dataset:
        raise ValueError("empty dataset")
    _require_labels(example.item for example in dataset)

    model_config = params0.config
    prepared = list(_prepared(mem, dataset))

    rng = np.random.default_rng(config.seed)
    n = len(prepared)
    order = rng.permutation(n)
    n_dev = max(1, int(round(config.dev_fraction * n)))
    if n_dev >= n:
        raise ValueError(f"dataset of {n} items is too small for a dev split")
    dev_idx = order[:n_dev]
    train_idx = order[n_dev:]

    def batch_stats(weights, indices):
        out = _run(weights, [prepared[i] for i in indices], model_config, mem, gradient=True)
        loss_sum = float(np.sum(out.losses))
        grad = out.gradient / len(indices)
        if not (np.isfinite(loss_sum) and np.isfinite(grad).all()):
            raise ValueError("loss or gradient is not finite")
        return loss_sum, grad

    dev_items = [prepared[i] for i in dev_idx]
    dev_labels = np.array([prep.label for prep in dev_items])

    def dev_accuracy(weights):
        choices = predict(_run(weights, dev_items, model_config, mem).dist)
        return int(np.count_nonzero(choices == dev_labels)) / len(dev_idx)

    weights = np.array(params0.weights)
    best_weights = weights.copy()
    best_acc = -1.0
    best_epoch = 0
    stale = 0
    history: list[EpochStats] = []

    for epoch in range(1, config.max_epochs + 1):
        epoch_order = rng.permutation(train_idx)
        loss_total = 0.0
        for number, lo in enumerate(range(0, len(epoch_order), config.batch_size), 1):
            batch = epoch_order[lo : lo + config.batch_size]
            with _located(f"epoch {epoch} batch {number}"):
                loss_sum, grad = batch_stats(weights, batch)
                weights = sgd_step(weights, grad, config.learning_rate)
            loss_total += loss_sum
        with _located(f"epoch {epoch} dev"):
            acc = dev_accuracy(weights)
        history.append(EpochStats(epoch, loss_total / len(epoch_order), acc))
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_weights = weights.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    report = TrainReport(
        epochs=tuple(history),
        best_epoch=best_epoch,
        best_dev_acc=best_acc if history else 0.0,
        params_digest=_digest(best_weights),
    )
    return replace(params0, weights=best_weights), report
