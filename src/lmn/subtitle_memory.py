"""Clip-level encoding over a per-movie memory of subtitle sentence
embeddings. Frames attend to subtitles by raw inner product; the memory can
be rescaled between passes by a ReLU relevance gate (update mechanism) and by
a softmax over question similarity (question guidance).

`encode_clip_cached` is the single entry point: it runs every attention,
update and guidance pass and returns the clip vector, the final memory and
the cache that `encode_clip_backward` walks in reverse. Each pass is one
private step (`_attend_cached`, `_update_cached`, `_guide_cached`) with its
adjoint beside it.

All memory transformations are functional: each pass returns a fresh memory
and never mutates its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
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
    """Embed each sentence with the word memory, preserving order."""
    sentences = tuple(sentences)
    if not sentences:
        raise ValueError("cannot build a subtitle memory from an empty sentence list")
    rows = np.stack([embed_sentence(mem, s, normalize=normalize).vector for s in sentences])
    return SubtitleMemory(rows, sentences, movie_id)


# --- attention pass -------------------------------------------------------

@dataclass
class AttendCache:
    frames: np.ndarray  # (T, d) representations that attended
    memory: np.ndarray  # (N, d) memory version attended over
    scores: np.ndarray  # (T, N)
    per_frame: np.ndarray  # (T, d)


def _attend_cached(frames: np.ndarray, memory: np.ndarray) -> tuple[np.ndarray, AttendCache]:
    """Re-express each frame as a score-weighted sum of memory rows, then
    sum frames into the clip vector."""
    scores = frames @ memory.T  # raw inner products, no softmax
    per_frame = scores @ memory
    vector = per_frame.sum(axis=0)
    return vector, AttendCache(frames, memory, scores, per_frame)


def _attend_backward(
    dvector: np.ndarray, dper_frame_extra: np.ndarray | None, cache: AttendCache
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (dframes, dmemory) for one attention pass."""
    t = cache.frames.shape[0]
    dper_frame = np.broadcast_to(dvector, (t, dvector.shape[0])).copy()
    if dper_frame_extra is not None:
        dper_frame += dper_frame_extra
    dscores = dper_frame @ cache.memory.T
    dframes = dscores @ cache.memory
    dmemory = cache.scores.T @ dper_frame + dscores.T @ cache.frames
    return dframes, dmemory


# --- update mechanism -----------------------------------------------------

@dataclass
class UpdateCache:
    memory: np.ndarray  # (N, d) memory before the update
    clip: np.ndarray  # (d,) clip vector that drove the gate
    pre: np.ndarray  # (N,) gate pre-activations
    gate: np.ndarray  # (N,) ReLU(pre)


def _update_cached(memory: np.ndarray, clip: np.ndarray) -> tuple[np.ndarray, UpdateCache]:
    """Rescale each row by ReLU of its inner product with the clip vector,
    forgetting rows that point away from the clip."""
    pre = memory @ clip
    gate = np.maximum(pre, 0.0)
    return gate[:, None] * memory, UpdateCache(memory, clip, pre, gate)


def _update_backward(dnext: np.ndarray, cache: UpdateCache) -> tuple[np.ndarray, np.ndarray]:
    """Returns (dmemory, dclip); the gate derivative at exactly zero is zero."""
    dgate = np.sum(dnext * cache.memory, axis=1)
    dmemory = cache.gate[:, None] * dnext
    dpre = dgate * (cache.pre > 0.0)
    dclip = cache.memory.T @ dpre
    dmemory = dmemory + np.outer(dpre, cache.clip)
    return dmemory, dclip


# --- question guidance ----------------------------------------------------

@dataclass
class GuideCache:
    memory: np.ndarray  # (N, d) memory before guidance
    question: np.ndarray  # (d,)
    weights: np.ndarray  # (N,) softmax weights


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def _guide_cached(memory: np.ndarray, question: np.ndarray) -> tuple[np.ndarray, GuideCache]:
    """Rescale rows by their softmax similarity to the question embedding."""
    weights = _softmax(memory @ question)
    return weights[:, None] * memory, GuideCache(memory, question, weights)


def _guide_backward(dnext: np.ndarray, cache: GuideCache) -> np.ndarray:
    """Returns dmemory; the question embedding is frozen and gets no gradient."""
    q = cache.weights
    dweights = np.sum(dnext * cache.memory, axis=1)
    dmemory = q[:, None] * dnext
    dlogits = q * (dweights - q @ dweights)
    return dmemory + np.outer(dlogits, cache.question)


# --- full clip pipeline ---------------------------------------------------

@dataclass
class ClipCache:
    attends: list[AttendCache]
    updates: list[UpdateCache]
    guide: GuideCache | None
    guide_attend: AttendCache | None
    carry_frames: bool


def encode_clip_cached(
    frames: np.ndarray,
    memory0: np.ndarray,
    question: np.ndarray | None,
    um_hops: int,
    qg: bool,
    carry_frames: bool = False,
) -> tuple[np.ndarray, np.ndarray, ClipCache]:
    """Run the full subtitle pipeline; returns the clip vector, the final
    memory matrix, and the cache for the backward pass. The last attention
    pass's per-frame rows and scores are `cache.guide_attend` with guidance,
    else `cache.attends[-1]`.

    Pass t+1 attends over the memory rescaled by pass t's clip vector. By
    default every pass attends with the frame-encoder output; with
    `carry_frames` each pass reuses the previous pass's reattended frames.
    Question guidance, when enabled, rescales the memory once more after all
    update passes and triggers one final attention pass.
    """
    if um_hops < 1:
        raise ValueError(f"um_hops must be >= 1, got {um_hops}")
    if qg and question is None:
        raise ValueError("question guidance requires a question vector")

    attends: list[AttendCache] = []
    updates: list[UpdateCache] = []
    memory = memory0
    current = frames
    vector = None
    for t in range(um_hops):
        vector, cache = _attend_cached(current, memory)
        attends.append(cache)
        if t < um_hops - 1:
            memory, ucache = _update_cached(memory, vector)
            updates.append(ucache)
            current = cache.per_frame if carry_frames else frames

    guide = None
    guide_attend = None
    if qg:
        memory, guide = _guide_cached(memory, question)
        final_frames = attends[-1].per_frame if carry_frames else frames
        vector, guide_attend = _attend_cached(final_frames, memory)

    return vector, memory, ClipCache(attends, updates, guide, guide_attend, carry_frames)


def encode_clip_backward(dvector: np.ndarray, cache: ClipCache) -> np.ndarray:
    """Gradient of the pipeline output with respect to the input frames.

    Walks the recorded passes in reverse; gradients reach the frames both
    through the attention scores and through the memory rescalings (whose
    gates depend on earlier clip vectors).
    """
    hops = len(cache.attends)
    t_frames = cache.attends[0].frames.shape[0]
    d = dvector.shape[0]
    dframes_total = np.zeros((t_frames, d))
    dper_frame_in = [None] * hops  # carry-path gradients into each pass's per_frame
    dvector_in = [np.zeros(d) for _ in range(hops)]

    if cache.guide_attend is not None:
        dcur, dmem = _attend_backward(dvector, None, cache.guide_attend)
        if cache.carry_frames:
            dper_frame_in[hops - 1] = dcur
        else:
            dframes_total += dcur
        dmem_ver = _guide_backward(dmem, cache.guide)
    else:
        dvector_in[hops - 1] = dvector
        dmem_ver = np.zeros_like(cache.attends[-1].memory)

    for t in range(hops - 1, -1, -1):
        dcur, dmem = _attend_backward(dvector_in[t], dper_frame_in[t], cache.attends[t])
        dmem_ver = dmem_ver + dmem
        if t > 0 and cache.carry_frames:
            prev = dper_frame_in[t - 1]
            dper_frame_in[t - 1] = dcur if prev is None else prev + dcur
        else:
            dframes_total += dcur
        if t > 0:
            dmem_ver, dclip = _update_backward(dmem_ver, cache.updates[t - 1])
            dvector_in[t - 1] = dvector_in[t - 1] + dclip
    return dframes_total


def rank_subtitles(frame: np.ndarray, sub: SubtitleMemory) -> list[tuple[int, float]]:
    """Subtitles sorted by descending inner product with a frame vector.

    Ties keep file order; indices are 0-based positions in the memory."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (sub.dim,):
        raise ValueError(f"frame vector must have shape ({sub.dim},), got {frame.shape}")
    scores = sub.matrix @ frame
    order = np.argsort(-scores, kind="stable")
    return [(int(n), float(scores[n])) for n in order]
