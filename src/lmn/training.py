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
their stored width, to float64 once per chunk; every other array of a
one-item chunk is a view of the item's. Shapes never mix within a chunk, so
nothing is padded or masked. `train`'s minibatches, its dev pass,
`evaluate`, and `forward`, `backward` and `gradcheck` on their one-item
chunks all take this path.

Training is plain minibatch SGD with early stopping on dev accuracy, fully
reproducible from the seed: a minibatch's gradient is one GEMM sum per
chunk, and chunk gradients are summed in chunk order.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .answering import (
    NUM_CHOICES,
    AnswerDistribution,
    QAItem,
    cross_entropy,
    predict,
    score_answers,
)
from .data_io import Example, check_field_types
from .frame_encoder import (
    ClipFeatures,
    FrameCache,
    encode_frames_backward,
    encode_frames_cached,
)
from .subtitle_memory import (
    ClipCache,
    SubtitleMemory,
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
    "evaluate",
]


@dataclass(frozen=True)
class ModelConfig:
    """Pipeline switches; hop counts are at least one."""

    swm_hops: int = 1
    um_hops: int = 1
    qg: bool = False
    normalize_sentences: bool = True
    average_clip: bool = False
    um_carry_frames: bool = False

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
    """Uniform init on [-a, a] with a = sqrt(6/(d+C)), which keeps initial
    logits bounded."""
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
        _check_step("learning_rate", self.learning_rate)
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

    regions: np.ndarray  # (T, R, C), a view of the clip's feature buffer at its width
    question: np.ndarray  # (d,)
    answer_mat: np.ndarray  # (5, d)
    subtitle_mat: np.ndarray | None  # (N, d); None selects video-only mode
    label: int | None


def _prepared(
    mem: StaticWordMemory, dataset: Iterable[Example], config: ModelConfig
) -> Iterator[Prepared]:
    """The examples' prepared items in order, made a block at a time: the
    examples are cut in order into blocks whose items would share one chunk
    (`_blocks`), and each block's sentences are embedded in one call
    (`_embed_block`). A movie's rows are embedded once and shared,
    read-only, by every question about it. `embed_sentence` sums each row on
    its own, so no row depends on its block: an item prepared alone, as
    `forward` prepares it, has the same rows, and a movie's are the ones
    `build_memory` gives."""
    memories: dict[tuple[str, tuple[str, ...]], np.ndarray] = {}
    for block in _blocks(dataset, mem.dim):
        text_rows = _embed_block(mem, block, memories, config.normalize_sentences)
        for i, example in enumerate(block):
            first = i * (1 + NUM_CHOICES)
            yield Prepared(
                regions=example.features.regions(),
                question=text_rows[first],
                answer_mat=text_rows[first + 1 : first + 1 + NUM_CHOICES],
                subtitle_mat=None if example.subtitles is None
                else memories[example.item.movie_id, example.subtitles],
                label=example.item.correct_index,
            )


def _embed_block(
    mem: StaticWordMemory,
    block: list[Example],
    memories: dict[tuple[str, tuple[str, ...]], np.ndarray],
    normalize: bool,
) -> np.ndarray:
    """Embed the block in one `embed_sentence` call: six rows per example,
    its question and answers, then the subtitles of each (movie_id,
    subtitles) not yet in `memories`, whose rows it adds there. Returns the
    question and answer rows, held apart from the movies' rows so that
    neither keeps the other in memory.

    Rows that are not all finite raise one ValueError that starts
    `question <qid>: ` or `movie <movie_id>: ` and names the first such row,
    questions and answers before subtitles."""
    texts = [text for example in block
             for text in (example.item.question, *example.item.answers)]
    subtitles: list[str] = []
    fresh: dict[tuple[str, tuple[str, ...]], slice] = {}  # each new movie's rows in `subtitles`
    for example in block:
        key = (example.item.movie_id, example.subtitles)
        if example.subtitles is None or key in memories or key in fresh:
            continue
        if not example.subtitles:
            raise ValueError("cannot build a subtitle memory from an empty sentence list")
        fresh[key] = slice(len(subtitles), len(subtitles) + len(example.subtitles))
        subtitles += example.subtitles
    with np.errstate(over="ignore", invalid="ignore"):
        rows = embed_sentence(mem, texts + subtitles, normalize=normalize)
    if not np.isfinite(rows).all():
        _raise_non_finite(rows, block, fresh)
    text_rows, movie_rows = rows[: len(texts)].copy(), rows[len(texts) :].copy()
    text_rows.setflags(write=False)
    movie_rows.setflags(write=False)
    for key, span in fresh.items():
        memories[key] = movie_rows[span]
    return text_rows


def _blocks(dataset: Iterable[Example], dim: int) -> Iterator[list[Example]]:
    """The examples cut in order into blocks whose prepared items' stacked
    copies, as `_nbytes` counts them, stay within CHUNK_BYTES; an example
    over the budget is alone in its block."""
    block: list[Example] = []
    size = 0
    for example in dataset:
        n = _nbytes(example.features.tensor.size,
                    0 if example.subtitles is None else len(example.subtitles), dim)
        if block and size + n > CHUNK_BYTES:
            yield block
            block, size = [], 0
        block.append(example)
        size += n
    if block:
        yield block


def _raise_non_finite(rows: np.ndarray, block: list[Example], fresh: dict[tuple, slice]) -> None:
    """Name the block's first row that is not finite, and its question or
    movie; the rows are `_embed_block`'s, six per question, then each
    movie's."""
    bad = int(np.argmin(np.isfinite(rows).all(axis=1)))
    item, k = divmod(bad, 1 + NUM_CHOICES)
    if item < len(block):
        row = "the question" if k == 0 else f"answer {k - 1}"
        raise ValueError(f"question {block[item].item.qid}: {row} embeds to non-finite values")
    bad -= len(block) * (1 + NUM_CHOICES)
    for (movie_id, _), span in fresh.items():
        if span.start <= bad < span.stop:
            raise ValueError(f"movie {movie_id}: subtitle {bad - span.start} "
                             f"embeds to non-finite values")


def prepare_example(mem: StaticWordMemory, example: Example, config: ModelConfig) -> Prepared:
    return next(_prepared(mem, [example], config))


# --- the chunk engine ---------------------------------------------------------

# A chunk stacks consecutive same-shape items along a leading batch axis
# while their stacked copies, regions counted at float64 width, stay within
# this many bytes, and `_prepared` cuts its blocks, one `embed_sentence` call
# each, by the same count. At the desk shape an item is 8.3 KB, so a
# minibatch of 8 (66 KB) is one chunk and an eval chunk or a preparation
# block holds up to 31 items; a MovieQA-shape item (6.4 MB of float64
# regions) is over it, runs alone and is prepared alone.
# Measured on one pinned thread of a 2-vCPU x86 host: one forward over 1000
# desk-shape items took 80.8, 16.2, 13.3, 13.7, 15.7 and 19.0 ms at budgets
# of 16 KiB, 64 KiB, 256 KiB, 1 MiB, 4 MiB and 16 MiB, and twelve desk-train
# bench passes in one process peaked at 53.0 MB RSS at 256 KiB and 56.4 MB
# at 1 MiB, against 52.0 MB running one item at a time.
CHUNK_BYTES = 1 << 18


@dataclass
class Chunk:
    """Same-shape prepared items stacked along a leading batch axis: equal
    (T, R, C) regions and equal subtitle counts N, or all video-only.

    Items hold their regions at the stored width (float32 from LMNF
    files); the stack is taken at float64, so a chunk of float32 items,
    even a chunk of one, makes one exact float64 copy of its regions, which
    the frame cache keeps for the backward. Every other array of a chunk of
    one, and the regions of a float64 item, are views of the item's."""

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

        t, r, c = items[0].regions.shape
        labels = [p.label for p in items]
        return cls(
            regions=stacked([p.regions for p in items], np.float64).reshape(len(items), t * r, c),
            frames=t,
            questions=stacked([p.question for p in items]),
            answers=stacked([p.answer_mat for p in items]),
            subtitles=None if items[0].subtitle_mat is None
            else stacked([p.subtitle_mat for p in items]),
            labels=None if None in labels else np.array(labels),
        )


def _shape(prep: Prepared) -> tuple:
    return prep.regions.shape, None if prep.subtitle_mat is None else prep.subtitle_mat.shape


def _nbytes(regions: int, subtitles: int, dim: int) -> int:
    """An item's share of a stacked chunk: its `regions` values at float64
    width, and its question, answer and `subtitles` sentence rows."""
    return 8 * (regions + (1 + NUM_CHOICES + subtitles) * dim)


def _chunks(items: Iterable[Prepared]) -> Iterator[list[Prepared]]:
    """The items cut in order into runs of one shape whose stacked copies
    stay within CHUNK_BYTES; an item over the budget runs alone. Items of
    one shape have one byte count, so a run that has no room for another is
    yielded before the next item is read."""
    run: list[Prepared] = []
    for prep in items:
        if run and _shape(prep) != _shape(run[0]):
            yield run
            run = []
        run.append(prep)
        subtitles = 0 if prep.subtitle_mat is None else len(prep.subtitle_mat)
        if (len(run) + 1) * _nbytes(prep.regions.size, subtitles, prep.question.size) > CHUNK_BYTES:
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
            frame_sums, chunk.subtitles, chunk.questions,
            config.um_hops, config.qg, config.um_carry_frames,
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
    names: list[str] | None = None,
) -> Outcome:
    """Run the items chunk by chunk through one stacked forward and, with
    `gradient`, one backward per chunk; chunk gradients are summed in chunk
    order. With `names`, one per item, a chunk that fails numerically is
    rerun one item at a time, so the ValueError raised starts with the name
    of the first item that fails alone (the chunk's first otherwise)."""
    probs, logits, losses = [], [], []
    total = None
    lo = 0
    for run in _chunks(items):
        chunk = Chunk.of(run)
        try:
            with _located(names[lo]) if names else nullcontext():
                state = run_forward(weights, chunk, config, mem)
                if gradient:
                    grad = run_backward(state, chunk, config, mem)
                    total = grad if total is None else total + grad
        except ValueError:
            if names and len(run) > 1:
                for i, prep in enumerate(run, lo):
                    _run(weights, [prep], config, mem, gradient, names[i : i + 1])
            raise
        probs.append(state.dist.probs)
        logits.append(state.dist.logits)
        losses.append(state.losses)
        lo += len(run)
    dist = AnswerDistribution(np.concatenate(probs), np.concatenate(logits))
    losses = None if any(x is None for x in losses) else np.concatenate(losses)
    return Outcome(dist, losses, total)


def _labeled(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: SubtitleMemory | None,
) -> Prepared:
    """The prepared item of `forward`, `backward` and `gradcheck`; all three
    need a label. The question and answers are prepared by `prepare_example`
    and raise its located errors; the subtitle rows are `sub`'s, as given."""
    _require_labels([item])
    prep = prepare_example(mem, Example(item, features, None), params.config)
    return replace(prep, subtitle_mat=None if sub is None else sub.matrix)


def _require_labels(items: Iterable[QAItem]) -> None:
    for item in items:
        if item.correct_index is None:
            raise ValueError(f"item {item.qid!r} has no correct_index")


def forward(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: SubtitleMemory | None = None,
) -> tuple[float, AnswerDistribution]:
    """Loss and answer distribution for one labeled item."""
    out = _run(params.weights, [_labeled(params, mem, item, features, sub)], params.config, mem)
    return float(out.losses[0]), AnswerDistribution(out.dist.probs[0], out.dist.logits[0])


def backward(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: SubtitleMemory | None = None,
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
    _check_step("learning_rate", learning_rate)
    return weights - learning_rate * gradient


def _check_step(name: str, value: float) -> None:
    """Reject a learning rate or finite-difference step that is not positive and finite."""
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


# --- finite-difference check --------------------------------------------------

def gradcheck(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: SubtitleMemory | None = None,
    step: float = 1e-5,
) -> float:
    """Max relative error between the analytic gradient and central finite
    differences over up to 256 weight entries drawn with seed 0 without
    replacement: all of a projection's entries when it has at most 256.

    A loss is only known to within its rounding, |loss|·ε, so a difference
    quotient resolves nothing below the floor |loss|·ε/step. An entry whose
    analytic and numeric values differ but both lie within that floor is
    skipped (an exactly flat entry, both zero, still counts); a ValueError
    naming the floor is raised if every entry is."""
    _check_step("step", step)
    prep = _labeled(params, mem, item, features, sub)
    config = params.config
    out = _run(params.weights, [prep], config, mem, gradient=True)
    analytic = out.gradient
    floor = abs(out.losses[0]) * np.finfo(np.float64).eps / step

    base = np.array(params.weights)
    entries = np.random.default_rng(0).choice(base.size, size=min(base.size, 256), replace=False)
    errors = []
    for a, b in zip(*np.unravel_index(entries, base.shape)):
        perturbed = base.copy()
        perturbed[a, b] = base[a, b] + step
        loss_plus = _run(perturbed, [prep], config, mem).losses[0]
        perturbed[a, b] = base[a, b] - step
        loss_minus = _run(perturbed, [prep], config, mem).losses[0]
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        scale = abs(analytic[a, b]) + abs(numeric)
        if scale > floor or analytic[a, b] == numeric:
            errors.append(abs(analytic[a, b] - numeric) / max(1e-8, scale))
    if not errors:
        raise ValueError(f"no checked gradient entry exceeds the finite-difference floor "
                         f"|loss| * eps / step = {floor:.3e} (loss {out.losses[0]:.3e})")
    return max(errors)


# --- training loop ------------------------------------------------------------

def evaluate(
    params: ModelParams, mem: StaticWordMemory, dataset: list[Example]
) -> tuple[float, list[dict]]:
    """Accuracy plus a per-question record of prediction and its probability.

    Questions run in chunks of consecutive same-shape items, each through
    one stacked forward; a question over the chunk budget runs alone on one
    float64 copy of its frames. A question that overflows or scores
    non-finite logits raises one ValueError that starts `question <qid>: `,
    naming the first such question. A question, answer or subtitle row that
    embeds to non-finite values raises the ValueError of `_prepared`, which
    names its question or movie."""
    if not dataset:
        raise ValueError("empty dataset")
    out = _run(params.weights, _prepared(mem, dataset, params.config), params.config, mem,
               names=[f"question {example.item.qid}" for example in dataset])
    records = []
    hits = 0
    for example, choice, probs in zip(dataset, predict(out.dist).tolist(), out.dist.probs):
        record = {
            "qid": example.item.qid,
            "predicted": choice,
            "prob": float(probs[choice]),
        }
        if example.item.correct_index is not None:
            record["correct_index"] = example.item.correct_index
            record["correct"] = choice == example.item.correct_index
            hits += record["correct"]
        records.append(record)
    return hits / len(dataset), records


@contextmanager
def _located(where: str):
    """Raise numpy overflow and invalid operations inside the block, and
    report any numeric failure as one ValueError that starts with `where`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


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
    dev-epoch snapshot (ties keep the earlier epoch). Each movie's
    subtitle rows are embedded once and shared by its questions. A sentence
    row that embeds to non-finite values stops the run before epoch 1 with
    the ValueError of `_prepared`.

    A batch or dev pass that overflows, or whose loss or gradient is not
    finite, raises one ValueError that starts `epoch E batch B: ` or
    `epoch E dev: `.
    """
    if not dataset:
        raise ValueError("empty dataset")
    _require_labels(example.item for example in dataset)

    model_config = params0.config
    prepared = list(_prepared(mem, dataset, model_config))

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
