"""Answer scoring for five-way multiple choice: logits are inner products of
the clip-plus-question vector with each candidate embedding, turned into
probabilities by a max-shifted softmax."""

from __future__ import annotations

from dataclasses import dataclass

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
    """One multiple-choice question with its movie/clip references."""

    qid: str
    question: str
    answers: tuple[str, ...]
    movie_id: str
    clip_ids: tuple[str, ...]
    correct_index: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "answers", tuple(self.answers))
        object.__setattr__(self, "clip_ids", tuple(self.clip_ids))
        if len(self.answers) != NUM_CHOICES:
            raise ValueError(
                f"{self.qid or 'item'}: expected {NUM_CHOICES} answers, got {len(self.answers)}"
            )
        if not self.clip_ids:
            raise ValueError(f"{self.qid or 'item'}: clip_ids must be nonempty")
        if self.correct_index is not None and not 0 <= self.correct_index < NUM_CHOICES:
            raise ValueError(
                f"{self.qid or 'item'}: correct_index {self.correct_index} out of range"
            )


@dataclass(frozen=True)
class AnswerDistribution:
    probs: np.ndarray  # (5,) nonnegative, sums to 1
    logits: np.ndarray  # (5,)


def score_answers(
    clip: np.ndarray, question: np.ndarray, answers: np.ndarray
) -> AnswerDistribution:
    """Softmax over logits (clip + question) . answer_h for the five answers."""
    clip = np.asarray(clip, dtype=np.float64)
    question = np.asarray(question, dtype=np.float64)
    answers = np.asarray(answers, dtype=np.float64)
    if answers.shape != (NUM_CHOICES, clip.shape[0]) or question.shape != clip.shape:
        raise ValueError(
            f"shape mismatch: clip {clip.shape}, question {question.shape}, answers {answers.shape}"
        )
    logits = answers @ (clip + question)
    if not np.isfinite(logits).all():
        raise ValueError("answer logits are not finite")
    shifted = np.exp(logits - logits.max())
    probs = shifted / shifted.sum()
    return AnswerDistribution(probs, logits)


def cross_entropy(dist: AnswerDistribution, correct: int) -> float:
    """Negative log probability of the correct choice, evaluated in log space."""
    if not 0 <= correct < NUM_CHOICES:
        raise ValueError(f"correct index {correct} out of range")
    z = dist.logits
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - z[correct])


def predict(dist: AnswerDistribution) -> int:
    """Index of the maximal logit; ties go to the lowest index."""
    return int(np.argmax(dist.logits))
