"""Gradient-based training of the projection weights, the model's single
learnable tensor. The forward pass composes frame encoding, the subtitle
pipeline (or the video-only sum), and answer scoring; the backward pass is
hand-written reverse mode through the cached intermediates. Word embeddings,
subtitle rows, question and answer vectors are frozen and receive no
gradient.

Training is plain minibatch SGD with early stopping on dev accuracy, fully
reproducible from the seed: per-item gradients are summed in fixed item
order.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .answering import AnswerDistribution, QAItem, cross_entropy, predict, score_answers
from .data_io import Example
from .frame_encoder import (
    ClipFeatures,
    FrameCache,
    encode_frames_backward,
    encode_frames_cached,
)
from .subtitle_memory import (
    ClipCache,
    SubtitleMemory,
    build_memory,
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
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
            "epochs": [
                {"epoch": e.epoch, "train_loss": e.train_loss, "dev_acc": e.dev_acc}
                for e in self.epochs
            ],
            "best_epoch": self.best_epoch,
            "best_dev_acc": self.best_dev_acc,
        }
        return json.dumps(doc, ensure_ascii=False)


def _digest(weights: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(repr(weights.shape).encode())
    h.update(np.ascontiguousarray(weights, dtype="<f8").tobytes())
    return h.hexdigest()


# --- per-item forward/backward ----------------------------------------------

@dataclass
class Prepared:
    """Frozen per-item inputs: everything but the projection weights."""

    regions: np.ndarray  # (T, R, C), a view of the clip's feature buffer
    question: np.ndarray  # (d,)
    answer_mat: np.ndarray  # (5, d)
    subtitle_mat: np.ndarray | None  # (N, d); None selects video-only mode
    label: int | None


def prepare(
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: SubtitleMemory | None,
    config: ModelConfig,
) -> Prepared:
    question = embed_sentence(mem, item.question, normalize=config.normalize_sentences).vector
    answer_mat = np.stack(
        [embed_sentence(mem, a, normalize=config.normalize_sentences).vector for a in item.answers]
    )
    return Prepared(
        regions=features.regions(),
        question=question,
        answer_mat=answer_mat,
        subtitle_mat=None if sub is None else sub.matrix,
        label=item.correct_index,
    )


def example_memory(
    mem: StaticWordMemory, example: Example, config: ModelConfig
) -> SubtitleMemory | None:
    """The example's subtitle memory; None in video-only mode."""
    if example.subtitles is None:
        return None
    return build_memory(example.subtitles, mem, normalize=config.normalize_sentences,
                        movie_id=example.item.movie_id)


def _prepared(
    mem: StaticWordMemory, dataset: Iterable[Example], config: ModelConfig
) -> Iterator[Prepared]:
    """The examples' prepared items in order. A subtitle memory is built
    once per distinct (movie_id, subtitles) and shared by every question
    about that movie; it is the same read-only matrix a per-question build
    would give."""
    memories: dict[tuple[str, tuple[str, ...] | None], SubtitleMemory | None] = {}
    for example in dataset:
        key = (example.item.movie_id, example.subtitles)
        if key not in memories:
            memories[key] = example_memory(mem, example, config)
        yield prepare(mem, example.item, example.features, memories[key], config)


def prepare_example(mem: StaticWordMemory, example: Example, config: ModelConfig) -> Prepared:
    return next(_prepared(mem, [example], config))


@dataclass
class ForwardState:
    frame_cache: FrameCache
    clip_cache: ClipCache | None
    clip_vector: np.ndarray
    dist: AnswerDistribution
    loss: float | None


def run_forward(weights: np.ndarray, prep: Prepared, config: ModelConfig, mem: StaticWordMemory) -> ForwardState:
    frame_sum, frame_cache = encode_frames_cached(prep.regions, weights, mem, config.swm_hops)
    if prep.subtitle_mat is not None:
        clip, clip_cache = encode_clip_cached(
            frame_sum, prep.subtitle_mat, prep.question,
            config.um_hops, config.qg, config.um_carry_frames,
        )
    else:
        clip_cache = None
        clip = frame_sum
    if config.average_clip:
        clip = clip / prep.regions.shape[0]
    dist = score_answers(clip, prep.question, prep.answer_mat)
    loss = cross_entropy(dist, prep.label) if prep.label is not None else None
    return ForwardState(frame_cache, clip_cache, clip, dist, loss)


def run_backward(
    state: ForwardState, prep: Prepared, config: ModelConfig, mem: StaticWordMemory
) -> np.ndarray:
    """Exact gradient of the item loss with respect to the projection weights."""
    dlogits = state.dist.probs.copy()
    dlogits[prep.label] -= 1.0
    dclip = prep.answer_mat.T @ dlogits
    if config.average_clip:
        dclip = dclip / prep.regions.shape[0]
    if state.clip_cache is not None:
        dclip = encode_clip_backward(dclip, state.clip_cache)
    return encode_frames_backward(dclip, state.frame_cache, mem)


def _labeled_forward(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: SubtitleMemory | None,
) -> tuple[Prepared, ForwardState]:
    """The prepared item and its forward pass, shared by `forward`,
    `backward` and `gradcheck`; all three need a label."""
    if item.correct_index is None:
        raise ValueError(f"item {item.qid!r} has no correct_index")
    prep = prepare(mem, item, features, sub, params.config)
    return prep, run_forward(params.weights, prep, params.config, mem)


def forward(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: SubtitleMemory | None = None,
) -> tuple[float, AnswerDistribution]:
    """Loss and answer distribution for one labeled item."""
    _, state = _labeled_forward(params, mem, item, features, sub)
    return state.loss, state.dist


def backward(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: SubtitleMemory | None = None,
) -> np.ndarray:
    """Gradient of the item loss with respect to the projection weights."""
    prep, state = _labeled_forward(params, mem, item, features, sub)
    return run_backward(state, prep, params.config, mem)


def sgd_step(weights: np.ndarray, gradient: np.ndarray, learning_rate: float) -> np.ndarray:
    """One plain SGD update; no momentum, no decay."""
    weights = np.asarray(weights, dtype=np.float64)
    gradient = np.asarray(gradient, dtype=np.float64)
    if weights.shape != gradient.shape:
        raise ValueError(f"shape mismatch: weights {weights.shape}, gradient {gradient.shape}")
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    return weights - learning_rate * gradient


# --- finite-difference check --------------------------------------------------

def gradcheck(
    params: ModelParams,
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: SubtitleMemory | None = None,
    step: float = 1e-5,
    max_entries: int = 256,
    seed: int = 0,
) -> float:
    """Max relative error between the analytic gradient and central finite
    differences over the weight entries (all of them, or a seeded subset of
    at least 50 for large weight matrices)."""
    if step <= 0:
        raise ValueError("step must be positive")
    prep, state = _labeled_forward(params, mem, item, features, sub)
    config = params.config
    analytic = run_backward(state, prep, config, mem)

    d, c = params.weights.shape
    total = d * c
    subset = min(total, max(50, max_entries))
    if total <= max_entries or subset == total:
        entries = np.arange(total)
    else:
        rng = np.random.default_rng(seed)
        entries = rng.choice(total, size=subset, replace=False)

    base = np.array(params.weights)
    worst = 0.0
    for flat in entries:
        a, b = divmod(int(flat), c)
        perturbed = base.copy()
        perturbed[a, b] = base[a, b] + step
        loss_plus = run_forward(perturbed, prep, config, mem).loss
        perturbed[a, b] = base[a, b] - step
        loss_minus = run_forward(perturbed, prep, config, mem).loss
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        rel = abs(analytic[a, b] - numeric) / max(1e-8, abs(analytic[a, b]) + abs(numeric))
        worst = max(worst, rel)
    return worst


# --- training loop ------------------------------------------------------------

def evaluate(
    params: ModelParams, mem: StaticWordMemory, dataset: list[Example]
) -> tuple[float, list[dict]]:
    """Accuracy plus a per-question record of prediction and its probability.

    Items are prepared and scored one at a time; only the subtitle
    memories, one per movie, are kept between questions. A question that
    overflows or scores non-finite logits raises one ValueError that starts
    `question <qid>: `."""
    if not dataset:
        raise ValueError("empty dataset")
    records = []
    hits = 0
    for example, prep in zip(dataset, _prepared(mem, dataset, params.config)):
        with _located(f"question {example.item.qid}"):
            state = run_forward(params.weights, prep, params.config, mem)
        choice = predict(state.dist)
        record = {
            "qid": example.item.qid,
            "predicted": choice,
            "prob": float(state.dist.probs[choice]),
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
    subtitle memory is built once and shared by its questions.

    A batch or dev pass that overflows, or whose loss or gradient is not
    finite, raises one ValueError that starts `epoch E batch B: ` or
    `epoch E dev: `.
    """
    if not dataset:
        raise ValueError("empty dataset")
    for example in dataset:
        if example.item.correct_index is None:
            raise ValueError(f"item {example.item.qid!r} has no correct_index")

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
        grad = np.zeros_like(weights)
        loss_sum = 0.0
        for i in indices:  # fixed item order keeps the sum deterministic
            state = run_forward(weights, prepared[i], model_config, mem)
            grad += run_backward(state, prepared[i], model_config, mem)
            loss_sum += state.loss
        grad = grad / len(indices)
        if not (np.isfinite(loss_sum) and np.isfinite(grad).all()):
            raise ValueError("loss or gradient is not finite")
        return loss_sum, grad

    def dev_accuracy(weights):
        hits = 0
        for i in dev_idx:
            state = run_forward(weights, prepared[i], model_config, mem)
            hits += predict(state.dist) == prepared[i].label
        return hits / len(dev_idx)

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
