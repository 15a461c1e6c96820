"""Answer scoring for five-way multiple choice: logits are inner products of
the clip-plus-question vector with each candidate embedding, turned into
probabilities by a max-shifted softmax. Scoring and the loss carry any
leading batch axes: (B, d) clips and questions with (B, 5, d) answers give
(B, 5) logits and B losses."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = [
    "QAItem",
    "AnswerDistribution",
    "NUM_CHOICES",
    "score_answers",
    "cross_entropy",
    "predict",
]

NUM_CHOICES = 5


@dataclass(frozen=True)
class QAItem:
    """One multiple-choice question with its movie/clip references. The QA
    record's rules are checked here alone; list fields are held as tuples."""

    qid: str
    question: str
    answers: tuple[str, ...]
    movie_id: str
    clip_ids: tuple[str, ...]
    correct_index: int | None = None

    def __post_init__(self):
        for name in ("qid", "question", "movie_id"):
            _require_str(name, getattr(self, name))
        answers = self.answers
        if not isinstance(answers, (list, tuple)) or len(answers) != NUM_CHOICES:
            got = len(answers) if isinstance(answers, (list, tuple)) else type(answers).__name__
            raise ValueError(f"expected {NUM_CHOICES} answers, got {got}")
        if not isinstance(self.clip_ids, (list, tuple)) or not self.clip_ids:
            raise ValueError("clip_ids must be a nonempty list")
        for name in ("answers", "clip_ids"):
            values = tuple(getattr(self, name))
            for k, value in enumerate(values):
                _require_str(f"{name}[{k}]", value)
            object.__setattr__(self, name, values)
        # the CLI joins these ids into file names under --features and --subtitles
        _require_plain_name("movie_id", self.movie_id)
        for k, clip_id in enumerate(self.clip_ids):
            _require_plain_name(f"clip_ids[{k}]", clip_id)
        label = self.correct_index
        if label is None:
            return
        if isinstance(label, bool) or not isinstance(label, Integral):
            raise ValueError(f"correct_index must be an integer, got {type(label).__name__}")
        if not 0 <= label < NUM_CHOICES:
            raise ValueError(f"correct_index {label} out of range")


def _require_str(name: str, value) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {type(value).__name__}")


def _require_plain_name(name: str, value: str) -> None:
    if any(c in value for c in "/\\\0"):
        raise ValueError(f"{name} must not contain '/', '\\' or NUL, got {value!r}")


@dataclass(frozen=True)
class AnswerDistribution:
    probs: np.ndarray  # (..., 5) nonnegative, each row sums to 1
    logits: np.ndarray  # (..., 5)


def score_answers(
    clip: np.ndarray, question: np.ndarray, answers: np.ndarray
) -> AnswerDistribution:
    """Softmax over logits (clip + question) . answer_h for the five answers:
    (d,) vectors with (5, d) answers, or the same with leading batch axes."""
    clip = np.asarray(clip, dtype=np.float64)
    question = np.asarray(question, dtype=np.float64)
    answers = np.asarray(answers, dtype=np.float64)
    if (clip.ndim < 1 or question.shape != clip.shape
            or answers.shape != clip.shape[:-1] + (NUM_CHOICES, clip.shape[-1])):
        raise ValueError(
            f"shape mismatch: clip {clip.shape}, question {question.shape}, answers {answers.shape}"
        )
    logits = np.matmul(answers, (clip + question)[..., None])[..., 0]
    if not np.isfinite(logits).all():
        raise ValueError("answer logits are not finite")
    return AnswerDistribution(softmax(logits), logits)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis."""
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def cross_entropy(dist: AnswerDistribution, correct):
    """Negative log probability of the correct choice, evaluated in log
    space: a float for (5,) logits and one index, an array of B losses for
    (B, 5) logits and B indices."""
    correct = np.asarray(correct)
    z = dist.logits
    if correct.shape != z.shape[:-1] or correct.min() < 0 or correct.max() >= NUM_CHOICES:
        raise ValueError(f"correct index {correct} out of range")
    m = z.max(axis=-1)
    picked = z[correct] if z.ndim == 1 else z[np.arange(len(z)), correct]
    loss = m + np.log(np.exp(z - m[..., None]).sum(axis=-1)) - picked
    return float(loss) if loss.ndim == 0 else loss


def predict(dist: AnswerDistribution) -> int | np.ndarray:
    """Index of the maximal logit in each row; ties go to the lowest index:
    an int for (5,) logits, an array of B indices for (B, 5) logits."""
    choice = np.argmax(dist.logits, axis=-1)
    return int(choice) if choice.ndim == 0 else choice
