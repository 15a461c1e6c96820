"""Clip-level encoding over a per-movie memory of subtitle sentence
embeddings. Frames attend to subtitles by raw inner product; the memory can
be rescaled between passes by a ReLU relevance gate (update mechanism) and by
a softmax over question similarity (question guidance).

Attention has no softmax, so a pass over frames f_t gives
Σ_t (f_t Mᵀ) M = (s Mᵀ) M: the clip vector depends on the frames only
through their sum s. The gate and the guide only rescale memory rows, so
every memory version is diag(c) M for an (N,) row scale c of the built
matrix M. The layer is therefore one recurrence of matrix-vector products
with M, O(N·d) per pass, and the memory is never copied.

`encode_clip_cached` is the single entry point: it takes the clip's (d,)
frame sum from the frame encoder, runs every attention, update and guidance
pass and returns the clip vector and the cache of (N,) vectors that
`encode_clip_backward` walks in reverse to the frame-sum gradient. Both
carry any leading batch axes through the recurrence: (B, d) frame sums over
(B, N, d) memories give (B, d) clip vectors, with (B, N) scales in the
cache. Neither function mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .answering import softmax
from .word_memory import StaticWordMemory, embed_sentence

__all__ = [
    "SubtitleMemory",
    "build_memory",
    "encode_clip_cached",
    "encode_clip_backward",
    "rank_subtitles",
]


@dataclass(frozen=True)
class SubtitleMemory:
    """Per-movie matrix of subtitle embeddings (one row per sentence)."""

    matrix: np.ndarray  # (N, d)
    sentences: tuple[str, ...]
    movie_id: str = ""

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64, order="C")  # a copy; the caller's array stays writable
        if m.ndim != 2 or m.shape[0] < 1:
            raise ValueError(f"subtitle matrix must be (N>=1, d), got {m.shape}")
        if len(self.sentences) != m.shape[0]:
            raise ValueError(
                f"{len(self.sentences)} sentences for {m.shape[0]} memory rows"
            )
        if not np.isfinite(m).all():
            raise ValueError("subtitle matrix contains non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sentences", tuple(self.sentences))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def build_memory(
    sentences,
    mem: StaticWordMemory,
    normalize: bool = True,
    movie_id: str = "",
) -> SubtitleMemory:
    """Embed each sentence with the word memory, preserving order. A row
    that overflows is left non-finite for `SubtitleMemory` to reject."""
    sentences = tuple(sentences)
    if not sentences:
        raise ValueError("cannot build a subtitle memory from an empty sentence list")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = embed_sentence(mem, sentences, normalize=normalize)
    return SubtitleMemory(rows, sentences, movie_id)


# --- the scale recurrence -------------------------------------------------

# The forward's two products are written so that inserting an all-zero
# memory row leaves every other number bitwise as it was: each row's inner
# product is taken on its own, and rows are added in order, so a zero row
# adds an exact zero. A BLAS matrix-vector product may regroup both when the
# row count changes. The adjoint needs no such property and uses BLAS, one
# matrix-vector product per batch entry.

def _row_dots(memory: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(..., N) inner product of each memory row with x."""
    return np.einsum("...nd,...d->...n", memory, x)


def _weighted_row_sum(weights: np.ndarray, memory: np.ndarray) -> np.ndarray:
    """(..., d) sum of the memory rows scaled by weights, added in row order."""
    return np.einsum("...n,...nd->...d", weights, memory)


def _memory_dot(memory: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(..., N) BLAS product M x of the memory with x."""
    return np.matmul(memory, x[..., None])[..., 0]


def _dot_memory(weights: np.ndarray, memory: np.ndarray) -> np.ndarray:
    """(..., d) BLAS product wᵀ M of the row weights with the memory."""
    return np.matmul(weights[..., None, :], memory)[..., 0, :]


@dataclass
class ClipCache:
    """The (N,) vectors `encode_clip_backward` walks, one entry per pass,
    with the batch axes of the frame sums in front. Pass k attends over the
    memory version `scales[k][..., None] * memory`."""

    memory: np.ndarray  # (..., N, d) built memory M, never copied
    carry_frames: bool
    scales: list[np.ndarray] = field(default_factory=list)  # (..., N) row scale c of each pass
    scores: list[np.ndarray] = field(default_factory=list)  # (..., N) M s, s the pass's frame sum
    pre: list[np.ndarray] = field(default_factory=list)  # (..., N) update-gate pre-activations
    guide: np.ndarray | None = None  # (..., N) question-guide softmax weights
    question_scores: np.ndarray | None = None  # (..., N) M q


def encode_clip_cached(
    frame_sum: np.ndarray,
    memory0: np.ndarray,
    question: np.ndarray | None,
    um_hops: int,
    qg: bool,
    carry_frames: bool = False,
) -> tuple[np.ndarray, ClipCache]:
    """Run the full subtitle pipeline on the (d,) frame sum over the (N, d)
    memory, or on (B, d) sums over (B, N, d) memories; returns the clip
    vector and the cache for the backward pass. The memory the last pass
    attends over is `cache.scales[-1][..., None] * memory0`.

    A pass over the memory version diag(c) M with frame sum s gives the clip
    vector v = Mᵀ(c² · M s). Between passes the update gate rescales rows,
    c ← ReLU(c · M v) · c, so pass t+1 attends over the memory gated by pass
    t's clip vector v. Question guidance, when enabled, rescales once more
    after the update passes, c ← softmax(c · M q) · c, and triggers one final
    pass. By default every pass attends with the input frame sum; with
    `carry_frames` each pass reuses the previous pass's reattended frames,
    whose sum is the previous clip vector.
    """
    if um_hops < 1:
        raise ValueError(f"um_hops must be >= 1, got {um_hops}")
    if qg and question is None:
        raise ValueError("question guidance requires a question vector")

    cache = ClipCache(memory0, carry_frames)
    scale = np.ones(memory0.shape[:-1])
    for k in range(um_hops + qg):
        if k == um_hops:
            cache.question_scores = _row_dots(memory0, question)
            cache.guide = softmax(scale * cache.question_scores)
            scale = cache.guide * scale
        elif k > 0:
            pre = scale * _row_dots(memory0, vector)
            cache.pre.append(pre)
            scale = np.maximum(pre, 0.0) * scale
        if k > 0 and carry_frames:
            frame_sum = vector
        scores = _row_dots(memory0, frame_sum)
        vector = _weighted_row_sum(scale * scale * scores, memory0)
        cache.scales.append(scale)
        cache.scores.append(scores)
    return vector, cache


def encode_clip_backward(dvector: np.ndarray, cache: ClipCache) -> np.ndarray:
    """Gradient of the pipeline output with respect to the frame sum, with
    the frame sum's shape.

    The passes are walked in reverse; gradients reach the frame sum through
    each pass's scores and through the update gates, whose pre-activations depend on
    earlier clip vectors. The gate derivative at exactly zero is zero, and
    the question embedding is frozen and gets no gradient.
    """
    memory = cache.memory
    # gradients with respect to the frame sum, the current pass's clip
    # vector and the current pass's row scale
    dsum = np.zeros_like(dvector)
    dclip = dvector
    dscale = np.zeros(memory.shape[:-1])
    last = len(cache.scales) - 1
    for k in range(last, -1, -1):
        scale, scores = cache.scales[k], cache.scores[k]
        dweights = _memory_dot(memory, dclip)
        dframe_sum = _dot_memory(scale * scale * dweights, memory)
        if k == 0:
            break
        dscale = dscale + 2.0 * scale * scores * dweights
        if cache.carry_frames:
            dclip = dframe_sum
        else:
            dsum = dsum + dframe_sum
            dclip = np.zeros_like(dvector)
        prev = cache.scales[k - 1]
        if k == last and cache.guide is not None:
            weights = cache.guide
            dguide = dscale * prev
            inner = np.matmul(weights[..., None, :], dguide[..., None])[..., 0]  # (..., 1)
            dlogits = weights * (dguide - inner)
            dscale = weights * dscale + dlogits * cache.question_scores
        else:
            pre = cache.pre[k - 1]
            dclip = dclip + _dot_memory(dscale * prev * prev * (pre > 0.0), memory)
            dscale = 2.0 * np.maximum(pre, 0.0) * dscale
    return dsum + dframe_sum


def rank_subtitles(frame: np.ndarray, sub: SubtitleMemory) -> list[tuple[int, float]]:
    """Subtitles sorted by descending inner product with a frame vector.

    Ties keep file order; indices are 0-based positions in the memory."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (sub.dim,):
        raise ValueError(f"frame vector must have shape ({sub.dim},), got {frame.shape}")
    scores = sub.matrix @ frame
    order = np.argsort(-scores, kind="stable")
    return [(int(n), float(scores[n])) for n in order]
