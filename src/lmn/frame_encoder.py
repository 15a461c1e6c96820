"""Frame-level encoding: regional CNN features are projected into the word
space and re-expressed as cosine-weighted sums over the static word memory,
optionally for several hops. A frame's representation is the sum of its
attended regions.

Each forward helper has its reverse-mode adjoint right beside it; the
training module chains them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .word_memory import StaticWordMemory

__all__ = [
    "ClipFeatures",
    "ProjectionWeights",
    "project_region",
    "word_attend",
    "encode_frames",
]

# The single learnable tensor: a (d, C) projection from feature channels to
# the word space.
ProjectionWeights = np.ndarray


@dataclass(frozen=True)
class ClipFeatures:
    """Frame-wise CNN feature maps, shaped (frames, channels, height, width)."""

    tensor: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.tensor, dtype=np.float64)
        if t.ndim != 4:
            raise ValueError(f"feature tensor must be 4-D (T,C,H,W), got {t.shape}")
        if min(t.shape) < 1:
            raise ValueError(f"feature tensor has a zero-sized axis: {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError("feature tensor contains non-finite entries")
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    @property
    def frames(self) -> int:
        return self.tensor.shape[0]

    @property
    def channels(self) -> int:
        return self.tensor.shape[1]

    @property
    def spatial(self) -> tuple[int, int]:
        return self.tensor.shape[2], self.tensor.shape[3]

    def regions(self) -> np.ndarray:
        """View as (frames, height*width, channels); region index runs
        row-major over the spatial grid."""
        t, c, h, w = self.tensor.shape
        return np.ascontiguousarray(
            self.tensor.transpose(0, 2, 3, 1).reshape(t, h * w, c)
        )


def _check_weights(weights: np.ndarray, channels: int | None = None) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"projection weights must be 2-D (d,C), got {weights.shape}")
    if channels is not None and weights.shape[1] != channels:
        raise ValueError(
            f"projection expects {weights.shape[1]} channels, features have {channels}"
        )
    return weights


def project_region(region: np.ndarray, weights: ProjectionWeights) -> np.ndarray:
    """Map a C-channel regional feature into the word space (no bias)."""
    region = np.asarray(region, dtype=np.float64)
    weights = _check_weights(weights, region.shape[-1])
    return weights @ region


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize along the last axis; returns (norms, normalized).
    Zero rows stay zero."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return norms, x / safe


def _attend(xhat: np.ndarray, mem: StaticWordMemory) -> np.ndarray:
    """Cosine-weighted sum over unit word rows for pre-normalized inputs:
    (xhat U^T) U = xhat G with G = U^T U the cached (d, d) Gram matrix.
    G is symmetric, so this map is its own adjoint."""
    return xhat @ mem.gram


def word_attend(region: np.ndarray, mem: StaticWordMemory) -> np.ndarray:
    """One attention hop: re-express a word-space vector as the cosine-weighted
    sum of the unit word rows. Weights are raw cosines, no softmax."""
    region = np.asarray(region, dtype=np.float64)
    _, xhat = _normalize_rows(region)
    return _attend(xhat, mem)


@dataclass
class HopCache:
    norms: np.ndarray  # (..., 1) input norms for one hop
    xhat: np.ndarray  # (..., d) normalized hop input


def hop_chain(x0: np.ndarray, mem: StaticWordMemory, hops: int) -> tuple[np.ndarray, list[HopCache]]:
    """Apply `hops` attention passes over the same word memory, recording the
    per-hop normalization state needed for the backward pass."""
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    x = x0
    caches: list[HopCache] = []
    for _ in range(hops):
        norms, xhat = _normalize_rows(x)
        caches.append(HopCache(norms, xhat))
        x = _attend(xhat, mem)
    return x, caches


def hop_chain_backward(
    dx_out: np.ndarray, caches: list[HopCache], mem: StaticWordMemory
) -> np.ndarray:
    """Propagate a gradient back through `hop_chain` to its raw input.

    Uses the exact normalization Jacobian (I - xx^T)/|x| per row; rows that
    were exactly zero in the forward pass receive zero gradient.
    """
    dx = dx_out
    for cache in reversed(caches):
        dxhat = _attend(dx, mem)
        inner = np.sum(cache.xhat * dxhat, axis=-1, keepdims=True)
        dx = (dxhat - cache.xhat * inner) / np.where(cache.norms == 0.0, 1.0, cache.norms)
        dx = np.where(cache.norms == 0.0, 0.0, dx)
    return dx


@dataclass
class FrameCache:
    """Everything the backward pass needs from frame encoding."""

    regions: np.ndarray  # (T, R, C) raw regional features
    hop_caches: list[HopCache]


def encode_frames_cached(
    regions: np.ndarray,
    weights: ProjectionWeights,
    mem: StaticWordMemory,
    hops: int,
) -> tuple[np.ndarray, FrameCache]:
    """Project (T,R,C) regions, run the hop chain, and sum regions per frame."""
    weights = _check_weights(weights, regions.shape[-1])
    if weights.shape[0] != mem.dim:
        raise ValueError(
            f"projection dimension {weights.shape[0]} does not match word dimension {mem.dim}"
        )
    projected = regions @ weights.T  # (T, R, d)
    attended, hop_caches = hop_chain(projected, mem, hops)
    frame_reps = attended.sum(axis=1)  # (T, d)
    return frame_reps, FrameCache(regions, hop_caches)


def encode_frames_backward(
    dframe_reps: np.ndarray, cache: FrameCache, mem: StaticWordMemory
) -> np.ndarray:
    """Gradient of the frame encoding with respect to the projection weights."""
    t, r, _ = cache.regions.shape
    dattended = np.broadcast_to(dframe_reps[:, None, :], (t, r, dframe_reps.shape[-1]))
    dprojected = hop_chain_backward(dattended, cache.hop_caches, mem)
    return np.einsum("trd,trc->dc", dprojected, cache.regions)


def encode_frames(
    clip: ClipFeatures,
    weights: ProjectionWeights,
    mem: StaticWordMemory,
    hops: int = 1,
) -> np.ndarray:
    """Frame representations (T, d): per region, project then attend `hops`
    times over the word memory; per frame, sum the attended regions."""
    frame_reps, _ = encode_frames_cached(clip.regions(), weights, mem, hops)
    return frame_reps
