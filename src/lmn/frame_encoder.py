"""Frame-level encoding: regional CNN features are projected into the word
space and re-expressed as cosine-weighted sums over the static word memory,
optionally for several hops. A frame's representation is the sum of its
attended regions.

One hop normalizes its input and multiplies by the (d, d) Gram matrix G of
the unit word rows. After the normalization that multiply is linear, so for
the last hop the sum over the clip's frames t and regions r moves inside it:

    Σ_t Σ_r x̂_tr G = (Σ_t Σ_r x̂_tr) G

The subtitle layer reads the frames only through their sum, so the frame
encoder returns that one (d,) vector: it sums the last hop's normalized
regions over the whole clip and runs the last Gram multiply once per clip.
A one-frame clip gives that frame's vector, and the clip's frame sum is the
sum of its frames' vectors. Hops before the last still run per region.

`encode_frames_cached` is the single entry point: it projects the regions
and runs the hop chain, and `encode_frames_backward` is its adjoint. Each
forward helper has its reverse-mode adjoint right beside it; the training
module chains the two entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .word_memory import StaticWordMemory

__all__ = [
    "ClipFeatures",
    "encode_frames_cached",
    "encode_frames_backward",
]


@dataclass(frozen=True)
class ClipFeatures:
    """Frame-wise CNN feature maps, held as one read-only float64 buffer in
    region order (T, H, W, C) that the clip owns; `tensor` is its
    (T, C, H, W) view."""

    tensor: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=np.float64)
        if t.ndim != 4:  # a scalar reports shape (1,)
            raise ValueError(f"feature tensor must be 4-D (T,C,H,W), got {t.shape or (1,)}")
        if min(t.shape) < 1:
            raise ValueError(f"feature tensor has a zero-sized axis: {t.shape}")
        # a copy: no array the caller holds can write under the clip
        buffer = t.transpose(0, 2, 3, 1).copy()
        if not np.isfinite(buffer).all():
            raise ValueError("feature tensor contains non-finite entries")
        self._hold(buffer)

    @classmethod
    def _adopt(cls, buffer: np.ndarray) -> ClipFeatures:
        """A clip that takes `buffer`, a fresh (T, H, W, C) float64 C-order
        array that no caller holds and whose values the caller has checked
        finite, without copying or checking it again."""
        clip = cls.__new__(cls)
        clip._hold(buffer)
        return clip

    def _hold(self, buffer: np.ndarray) -> None:
        buffer.setflags(write=False)
        object.__setattr__(self, "tensor", buffer.transpose(0, 3, 1, 2))

    @property
    def frames(self) -> int:
        return self.tensor.shape[0]

    @property
    def channels(self) -> int:
        return self.tensor.shape[1]

    def regions(self) -> np.ndarray:
        """View as (frames, height*width, channels); region index runs
        row-major over the spatial grid."""
        t, c, h, w = self.tensor.shape
        return self.tensor.transpose(0, 2, 3, 1).reshape(t, h * w, c)


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


@dataclass
class HopCache:
    norms: np.ndarray  # (..., 1) input norms for one hop
    xhat: np.ndarray  # (..., d) normalized hop input


def hop_chain(x0: np.ndarray, mem: StaticWordMemory, hops: int) -> tuple[np.ndarray, list[HopCache]]:
    """Run `hops` attention passes over the same word memory up to, but not
    including, the last pass's Gram multiply: the result is the last hop's
    normalized input xhat, so `hop_chain(x0, mem, hops)[0] @ mem.gram` is
    the attended output. Records the per-hop normalization state needed
    for the backward pass."""
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    norms, xhat = _normalize_rows(x0)
    caches = [HopCache(norms, xhat)]
    for _ in range(hops - 1):
        norms, xhat = _normalize_rows(_attend(xhat, mem))
        caches.append(HopCache(norms, xhat))
    return xhat, caches


def _normalize_backward(dxhat: np.ndarray, cache: HopCache) -> np.ndarray:
    """Adjoint of `_normalize_rows` for one hop: the exact Jacobian
    (I - xhat xhat^T)/|x| per row. `dxhat` may broadcast against the cached
    rows; rows that were exactly zero in the forward pass get zero gradient."""
    inner = np.sum(cache.xhat * dxhat, axis=-1, keepdims=True)
    zero = cache.norms == 0.0
    dx = (dxhat - cache.xhat * inner) / np.where(zero, 1.0, cache.norms)
    return np.where(zero, 0.0, dx)


def hop_chain_backward(
    dxhat_last: np.ndarray, caches: list[HopCache], mem: StaticWordMemory
) -> np.ndarray:
    """Propagate the gradient with respect to `hop_chain`'s output (the last
    hop's normalized input) back to its raw input."""
    dx = _normalize_backward(dxhat_last, caches[-1])
    for cache in reversed(caches[:-1]):
        dx = _normalize_backward(_attend(dx, mem), cache)
    return dx


@dataclass
class FrameCache:
    """Everything the backward pass needs from frame encoding."""

    regions: np.ndarray  # (T, R, C) raw regional features
    hop_caches: list[HopCache]


def encode_frames_cached(
    regions: np.ndarray,
    weights: np.ndarray,
    mem: StaticWordMemory,
    hops: int,
) -> tuple[np.ndarray, FrameCache]:
    """Project (T,R,C) regions with the (d, C) weights, the model's single
    learnable tensor (no bias), run the hop chain per region and return the
    clip's (d,) frame sum: the last hop's normalized regions are summed over
    all frames and attended once."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"projection weights must be 2-D (d,C), got {weights.shape}")
    if weights.shape[1] != regions.shape[-1]:
        raise ValueError(
            f"projection expects {weights.shape[1]} channels, features have {regions.shape[-1]}"
        )
    if weights.shape[0] != mem.dim:
        raise ValueError(
            f"projection dimension {weights.shape[0]} does not match word dimension {mem.dim}"
        )
    t, r, c = regions.shape
    projected = (regions.reshape(t * r, c) @ weights.T).reshape(t, r, -1)  # one GEMM, not T
    xhat_last, hop_caches = hop_chain(projected, mem, hops)
    frame_sum = _attend(xhat_last.sum(axis=(0, 1)), mem)
    return frame_sum, FrameCache(regions, hop_caches)


def encode_frames_backward(
    dsum: np.ndarray, cache: FrameCache, mem: StaticWordMemory
) -> np.ndarray:
    """Gradient of the frame sum with respect to the projection weights.

    Every region of the clip receives the same frame-sum gradient, so the
    last hop's Gram multiply, its own adjoint, runs once: dsum G is
    broadcast over all T*R regions into that hop's normalization Jacobian.
    The weight gradient is one (T*R, d)^T @ (T*R, C) matrix product."""
    t, r, c = cache.regions.shape
    dsum = np.asarray(dsum, dtype=np.float64)
    if dsum.shape != (mem.dim,):
        raise ValueError(f"frame gradient must have shape {(mem.dim,)}, got {dsum.shape}")
    dprojected = hop_chain_backward(_attend(dsum, mem), cache.hop_caches, mem)
    return dprojected.reshape(t * r, -1).T @ cache.regions.reshape(t * r, c)
