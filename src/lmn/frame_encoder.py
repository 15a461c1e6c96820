"""Frame-level encoding: regional CNN features are projected into the word
space and re-expressed as cosine-weighted sums over the static word memory,
optionally for several hops.

The encoder works on (B, K, C) groups of K regions each and returns the
(B, d) attended sum of every group. A clip of T frames of R regions is one
group of K = T·R regions, a view of its (T, R, C) regions; the same view
read as T groups of R regions gives its T frame vectors, so a frame's
representation is the sum of its attended regions.

One hop normalizes its input and multiplies by the (d, d) Gram matrix G of
the unit word rows. After the normalization that multiply is linear, so for
the last hop the sum over a group's regions r moves inside it:

    Σ_r x̂_r G = (Σ_r x̂_r) G

The subtitle layer reads a clip's frames only through their sum, so the
frame encoder sums the last hop's normalized regions over each group and
runs the last Gram multiply once per group. Hops before the last still run
per region. The projection and the weight gradient are each one GEMM over
all B·K rows of the chunk.

`encode_frames_cached` is the single entry point: it projects the regions
and runs the hop chain, and `encode_frames_backward` is its adjoint, which
sums the weight gradient over the chunk. Each forward helper has its
reverse-mode adjoint right beside it; the training module chains the two
entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .word_memory import StaticWordMemory, normalize_rows

__all__ = [
    "CHUNK_BYTES",
    "ClipFeatures",
    "encode_frames_cached",
    "encode_frames_backward",
]


# A chunk of the training engine stacks consecutive same-shape items along a
# leading batch axis while their stacked copies, regions counted at float64
# width, stay within this many bytes; preparation embeds the sentences of
# each such run of examples in one `embed_sentence` call (`training._chunks`).
# A loaded clip whose float64 regions alone exceed it, a clip that always
# runs alone, stays on disk (`data_io.load_features`). At the desk shape an
# item is 8.3 KB, so a minibatch of 8 (66 KB) is one chunk and an eval chunk
# holds up to 31 items; a MovieQA-shape item (6.4 MB of float64 regions) is
# over it, runs alone, is prepared alone and stays on disk.
# Measured on one pinned thread of a 2-vCPU x86 host: one forward over 1000
# desk-shape items took 80.8, 16.2, 13.3, 13.7, 15.7 and 19.0 ms at budgets
# of 16 KiB, 64 KiB, 256 KiB, 1 MiB, 4 MiB and 16 MiB, and twelve desk-train
# bench passes in one process peaked at 53.0 MB RSS at 256 KiB and 56.4 MB
# at 1 MiB, against 52.0 MB running one item at a time.
CHUNK_BYTES = 1 << 18


class ClipFeatures:
    """Frame-wise CNN feature maps: T frames of C channels over an H×W
    grid, `shape` (T, C, H, W).

    A resident clip holds one read-only buffer in region order (T, H, W, C)
    that the clip owns; `tensor` is its (T, C, H, W) view. A float32 array
    is held at that width, the LMNF file's, and any other input as float64:
    every float32 value is exact in float64, and the chunk engine reads
    every clip into a float64 stack (`training.Chunk.of`), so both widths
    compute the same bits.

    A file-backed clip holds no values, only its shape and its `source`,
    which reads and checks its frames from disk. `data_io.load_features`
    makes one for a file whose float64 regions exceed CHUNK_BYTES, a clip
    the chunk engine runs alone, and `data_io.subsample_frames` one of such
    clips' frames. Every `tensor`, `regions()` and `read_into` call reads
    the files again, and the clip keeps nothing of them."""

    __slots__ = ("shape", "source", "_buffer")

    def __init__(self, tensor: np.ndarray):
        width = np.float32 if getattr(tensor, "dtype", None) == np.float32 else np.float64
        t = np.asarray(tensor, dtype=width)
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
        """A clip that takes `buffer`, a fresh (T, H, W, C) float32 or
        float64 C-order array that no caller holds and whose values the
        caller has checked finite, without copying or checking it again."""
        clip = cls.__new__(cls)
        clip._hold(buffer)
        return clip

    @classmethod
    def _on_disk(cls, source, shape: tuple[int, int, int, int]) -> ClipFeatures:
        """A file-backed clip of this (T, C, H, W) shape, whose values
        `source.read_into` reads."""
        clip = cls.__new__(cls)
        clip.shape, clip.source, clip._buffer = tuple(shape), source, None
        return clip

    def _hold(self, buffer: np.ndarray) -> None:
        buffer.setflags(write=False)
        t, h, w, c = buffer.shape
        self.shape, self.source, self._buffer = (t, c, h, w), None, buffer

    @property
    def tensor(self) -> np.ndarray:
        """The (T, C, H, W) view of `regions()`."""
        t, c, h, w = self.shape
        return self.regions().reshape(t, h, w, c).transpose(0, 3, 1, 2)

    @property
    def frames(self) -> int:
        return self.shape[0]

    @property
    def channels(self) -> int:
        return self.shape[1]

    def regions(self) -> np.ndarray:
        """The values as (frames, height*width, channels); region index runs
        row-major over the spatial grid. A resident clip gives a read-only
        view of its buffer, a file-backed clip a fresh float32 read."""
        t, c, h, w = self.shape
        if self.source is None:
            return self._buffer.reshape(t, h * w, c)
        regions = np.empty((t, h * w, c), np.float32)
        self.source.read_into(regions)
        return regions

    def read_into(self, out: np.ndarray) -> None:
        """Write the regions into `out`, a (frames, height*width, channels)
        array, at its dtype: the one way the chunk engine reads a clip."""
        if self.source is None:
            out[...] = self.regions()
        else:
            self.source.read_into(out)


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
    for the backward pass.

    `x0` is normalized in place and becomes the first hop's cached input:
    pass an array that nothing else reads, such as a fresh projection.
    Every later hop normalizes its own fresh attention output in place."""
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    norms, xhat = normalize_rows(x0, out=x0)
    caches = [HopCache(norms, xhat)]
    for _ in range(hops - 1):
        attended = _attend(xhat, mem)
        norms, xhat = normalize_rows(attended, out=attended)
        caches.append(HopCache(norms, xhat))
    return xhat, caches


def _normalize_backward(dxhat: np.ndarray, cache: HopCache) -> np.ndarray:
    """Adjoint of `normalize_rows` for one hop: the exact Jacobian
    (I - xhat xhat^T)/|x| per row. `dxhat` may broadcast against the cached
    rows; rows that were exactly zero in the forward pass get zero gradient.
    The adjoint is written into, and returned as, the cache's `xhat`."""
    inner = np.vecdot(cache.xhat, dxhat)[..., None]
    zero = cache.norms == 0.0
    dx = np.multiply(cache.xhat, inner, out=cache.xhat)
    np.subtract(dxhat, dx, out=dx)
    dx /= np.where(zero, 1.0, cache.norms)
    np.copyto(dx, 0.0, where=zero)
    return dx


def hop_chain_backward(
    dxhat_last: np.ndarray, caches: list[HopCache], mem: StaticWordMemory
) -> np.ndarray:
    """Propagate the gradient with respect to `hop_chain`'s output (the last
    hop's normalized input) back to its raw input. Each hop's adjoint
    overwrites that hop's cached `xhat`, so the caches take one backward;
    the result is the first hop's buffer."""
    dx = _normalize_backward(dxhat_last, caches[-1])
    for cache in reversed(caches[:-1]):
        dx = _normalize_backward(_attend(dx, mem), cache)
    return dx


@dataclass
class FrameCache:
    """Everything the backward pass needs from frame encoding. The backward
    overwrites the hop caches it reads, so a cache takes one backward."""

    regions: np.ndarray  # (B, K, C) raw regions; a chunk's float64 copy, reused by the backward
    hop_caches: list[HopCache]


def encode_frames_cached(
    regions: np.ndarray,
    weights: np.ndarray,
    mem: StaticWordMemory,
    hops: int,
) -> tuple[np.ndarray, FrameCache]:
    """Project (B, K, C) groups of regions with the (d, C) weights, the
    model's single learnable tensor (no bias), run the hop chain per region
    and return the (B, d) attended group sums: each group's last-hop
    normalized regions are summed and attended once. The projection is one
    GEMM over all B·K rows of the regions at float64 width, normalized in
    place; the cache keeps those regions for the backward."""
    regions = np.asarray(regions, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"projection weights must be 2-D (d,C), got {weights.shape}")
    if regions.ndim != 3:
        raise ValueError(f"regions must be 3-D (B,K,C), got {regions.shape}")
    if weights.shape[1] != regions.shape[-1]:
        raise ValueError(
            f"projection expects {weights.shape[1]} channels, features have {regions.shape[-1]}"
        )
    if weights.shape[0] != mem.dim:
        raise ValueError(
            f"projection dimension {weights.shape[0]} does not match word dimension {mem.dim}"
        )
    b, k, c = regions.shape
    projected = (regions.reshape(b * k, c) @ weights.T).reshape(b, k, -1)
    xhat_last, hop_caches = hop_chain(projected, mem, hops)
    sums = _attend(xhat_last.sum(axis=1), mem)
    return sums, FrameCache(regions, hop_caches)


def encode_frames_backward(
    dsums: np.ndarray, cache: FrameCache, mem: StaticWordMemory
) -> np.ndarray:
    """Gradient of Σ_b dsums[b] · sums[b] with respect to the projection
    weights: the (d, C) weight gradient summed over the chunk.

    Every region of group b receives that group's sum gradient, so the last
    hop's Gram multiply, its own adjoint, runs once per group: dsums[b] G is
    broadcast over the group's K regions into that hop's normalization
    Jacobian. The weight gradient is one (B·K, d)^T @ (B·K, C) product.

    The adjoint overwrites the hop caches it reads, each hop's normalized
    rows once that hop's adjoint no longer needs them, so a cache takes one
    backward. With one hop the backward allocates no (B·K, d) array; each
    further hop's Gram multiply allocates one."""
    b, k, c = cache.regions.shape
    dsums = np.asarray(dsums, dtype=np.float64)
    if dsums.shape != (b, mem.dim):
        raise ValueError(f"frame gradient must have shape {(b, mem.dim)}, got {dsums.shape}")
    dprojected = hop_chain_backward(_attend(dsums, mem)[:, None, :], cache.hop_caches, mem)
    return dprojected.reshape(b * k, -1).T @ cache.regions.reshape(b * k, c)
