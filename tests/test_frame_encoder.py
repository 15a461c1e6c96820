import math
import re

import numpy as np
import pytest

from lmn.frame_encoder import (
    ClipFeatures,
    encode_frames_backward,
    encode_frames_cached,
    hop_chain,
)
from lmn.word_memory import StaticWordMemory, normalize_rows
from reference import reference_forward


_BASE = np.arange(12.0).reshape(1, 3, 2, 2) / 4


@pytest.fixture
def basis_mem():
    return StaticWordMemory(["x", "y"], np.eye(2))


def random_mem(rng, v_size, d):
    words = [f"w{i}" for i in range(v_size)]
    return StaticWordMemory(words, rng.normal(size=(v_size, d)))


def encode_region(region, weights, mem):
    """One word-memory hop on one projected region: the frame encoding of a
    single frame holding that single region."""
    region = np.asarray(region, dtype=float)
    (rep,), _ = encode_frames_cached(region[None, None, :], weights, mem, 1)
    return rep


def attend_once(vector, mem):
    """One word-memory hop on a word-space vector (identity projection)."""
    return encode_region(vector, np.eye(mem.dim), mem)


def projected(regions, weights, mem):
    """The projection the frame encoder feeds its first hop, read back from
    that hop's cached norm and direction."""
    _, cache = encode_frames_cached(regions, weights, mem, 1)
    first = cache.hop_caches[0]
    return first.norms * first.xhat


class TestClipFeatures:
    def test_region_layout_is_row_major(self):
        t, c, h, w = 1, 3, 2, 2
        tensor = np.zeros((t, c, h, w))
        for i in range(h):
            for j in range(w):
                tensor[0, :, i, j] = [i, j, 10 * i + j]
        regions = ClipFeatures(tensor).regions()
        assert regions.shape == (1, 4, 3)
        np.testing.assert_array_equal(regions[0, 1], [0, 1, 1])  # (h=0, w=1)
        np.testing.assert_array_equal(regions[0, 2], [1, 0, 10])  # (h=1, w=0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="4-D"):
            ClipFeatures(np.zeros((2, 3, 4)))

    def test_rejects_non_finite(self):
        bad = np.zeros((1, 1, 1, 2))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            ClipFeatures(bad)

    @pytest.mark.parametrize("given,expected", [
        pytest.param(_BASE, _BASE, id="float64"),
        pytest.param(_BASE.astype(np.float32), _BASE.astype(np.float32), id="float32"),
        pytest.param(np.arange(12).reshape(1, 3, 2, 2), 4 * _BASE, id="int"),
        pytest.param(_BASE.tolist(), _BASE, id="nested-list"),
        pytest.param(_BASE.astype(object), _BASE, id="object"),
        pytest.param(np.array([[[[1, 2.5], [np.float32(0.5), True]]]], dtype=object),
                     np.array([[[[1.0, 2.5], [0.5, 1.0]]]]), id="object-mixed"),
        pytest.param(np.array([[[[None]]]], dtype=object),
                     (ValueError, "feature tensor contains non-finite entries"), id="object-none"),
        pytest.param(_BASE.astype(str), _BASE, id="string"),
        pytest.param(np.array([[[["1.0", "a"]]]]),
                     (ValueError, "could not convert string to float: (np.str_\\()?'a'\\)?"),
                     id="string-bad"),
        pytest.param(np.zeros((2, 3, 4)),
                     (ValueError, re.escape("feature tensor must be 4-D (T,C,H,W), got (2, 3, 4)")),
                     id="3-D"),
        pytest.param(5.0, (ValueError, re.escape("feature tensor must be 4-D (T,C,H,W), got (1,)")),
                     id="0-D"),
        pytest.param(np.zeros((0, 2, 1, 1)),
                     (ValueError, re.escape("feature tensor has a zero-sized axis: (0, 2, 1, 1)")),
                     id="zero-size"),
        pytest.param(np.array([[[[0.0, np.nan]]]]),
                     (ValueError, "feature tensor contains non-finite entries"), id="NaN"),
    ])
    def test_accepts_and_rejects_each_input_kind(self, given, expected):
        if isinstance(expected, tuple):
            error, message = expected
            with pytest.raises(error, match=f"^{message}$"):
                ClipFeatures(given)
            return
        clip = ClipFeatures(given)
        # float32 is held at that width; every other input becomes float64
        assert clip.tensor.dtype == expected.dtype and not clip.tensor.flags.writeable
        np.testing.assert_array_equal(clip.tensor, expected)
        t, c, h, w = expected.shape
        np.testing.assert_array_equal(clip.regions(),
                                      expected.transpose(0, 2, 3, 1).reshape(t, h * w, c))

    def test_caller_array_stays_writable_and_cannot_reach_the_clip(self):
        b = np.zeros((1, 2, 2, 3))
        given = b.transpose(0, 3, 1, 2)  # already in the buffer's region order
        clip = ClipFeatures(given)
        assert given.flags.writeable
        b[...] = 1.0
        assert clip.tensor.max() == 0.0

    def test_regions_is_a_view_of_the_tensor(self):
        clip = ClipFeatures(np.arange(24.0).reshape(2, 3, 2, 2))
        regions = clip.regions()
        assert regions.flags.c_contiguous and not regions.flags.writeable
        assert np.shares_memory(regions, clip.tensor)


class TestProjectRegion:
    """The projection W·region that the frame encoder runs before its hops."""

    def test_identity(self, basis_mem):
        out = projected(np.array([[[5.0, -3.0]]]), np.eye(2), basis_mem)
        np.testing.assert_allclose(out, [[[5.0, -3.0]]], rtol=1e-15)

    def test_coordinate_selection(self, basis_mem):
        weights = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = projected(np.array([[[7.0, 8.0, 9.0]]]), weights, basis_mem)
        np.testing.assert_allclose(out, [[[7.0, 8.0]]], rtol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        weights = rng.normal(size=(4, 3))
        regions = rng.normal(size=(2, 3, 3))
        expected = [
            [[math.fsum(weights[a][b] * region[b] for b in range(3)) for a in range(4)]
             for region in frame]
            for frame in regions
        ]
        out = projected(regions, weights, random_mem(rng, 5, 4))
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_dimension_mismatch(self, basis_mem):
        with pytest.raises(ValueError, match="channels"):
            encode_frames_cached(np.zeros((1, 1, 3)), np.eye(2), basis_mem, 1)


class TestWordAttend:
    """One word-memory hop: cosine-weighted sum of the unit word rows."""

    def test_basis_alignment(self, basis_mem):
        np.testing.assert_allclose(attend_once([1.0, 0.0], basis_mem), [1.0, 0.0])

    def test_symmetric_direction(self, basis_mem):
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(attend_once([1.0, 1.0], basis_mem), [s, s], atol=1e-15)

    # (2, 6): fewer words than dimensions, so the (d, d) Gram matrix the
    # attention multiplies by is rank-deficient
    @pytest.mark.parametrize("v_size,d", [(5, 3), (2, 6)])
    def test_matches_loop_oracle(self, v_size, d):
        rng = np.random.default_rng(5)
        mem = random_mem(rng, v_size, d)
        region = rng.normal(size=d)
        xh = normalize_rows(region)[1]
        rows = [normalize_rows(r)[1] for r in mem.matrix]
        expected = np.zeros(d)
        for w in rows:
            expected += float(xh @ w) * w
        np.testing.assert_allclose(attend_once(region, mem), expected, atol=1e-12)

    def test_output_in_row_space(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            mem = random_mem(rng, d + 3, d)  # more rows than dims, full rank a.s.
            out = attend_once(rng.normal(size=d), mem)
            # residual of projecting onto the span of the normalized rows
            rows = normalize_rows(mem.matrix)[1]
            coeffs, *_ = np.linalg.lstsq(rows.T, out, rcond=None)
            residual = np.linalg.norm(rows.T @ coeffs - out)
            assert residual <= 1e-8

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(17)
        mem = random_mem(rng, 6, 3)
        weights = rng.normal(size=(3, 4))
        region = rng.normal(size=4)
        base = encode_region(region, weights, mem)
        for scale in (1e-3, 0.5, 7.0, 1e4):
            scaled = encode_region(scale * region, weights, mem)
            np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_zero_region_stays_zero(self, basis_mem):
        np.testing.assert_array_equal(attend_once(np.zeros(2), basis_mem), np.zeros(2))


def clip_sum(regions, weights, mem, hops):
    """The clip's frame sum: its (T, R, C) regions as one group of T*R."""
    t, r, c = regions.shape
    (total,), _ = encode_frames_cached(regions.reshape(1, t * r, c), weights, mem, hops)
    return total


@pytest.mark.parametrize("regions, weights, message", [
    (np.zeros((1, 1, 2)), np.ones(2), "projection weights must be 2-D (d,C), got (2,)"),
    (np.zeros((1, 2)), np.eye(2), "regions must be 3-D (B,K,C), got (1, 2)"),
    (np.zeros((1, 1, 2)), np.ones((3, 2)),
     "projection dimension 3 does not match word dimension 2"),
], ids=["weights-1d", "regions-2d", "word-dimension"])
def test_encode_frames_shape_checks(basis_mem, regions, weights, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        encode_frames_cached(regions, weights, basis_mem, 1)


class TestEncodeFrames:
    def test_single_region_basis(self, basis_mem):
        clip = ClipFeatures(np.array([0.0, 1.0]).reshape(1, 2, 1, 1))
        (out,), _ = encode_frames_cached(clip.regions(), np.eye(2), basis_mem, 1)
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_two_hops_is_attend_twice(self):
        rng = np.random.default_rng(31)
        mem = random_mem(rng, 6, 3)
        clip = ClipFeatures(rng.normal(size=(2, 4, 1, 2)))
        weights = rng.normal(size=(3, 4))
        two_hop, _ = encode_frames_cached(clip.regions(), weights, mem, 2)
        manual = np.zeros_like(two_hop)
        for t, frame in enumerate(clip.regions()):
            for region in frame:
                manual[t] += attend_once(attend_once(weights @ region, mem), mem)
        np.testing.assert_allclose(two_hop, manual, atol=1e-12)
        np.testing.assert_allclose(clip_sum(clip.regions(), weights, mem, 2), manual.sum(axis=0),
                                   atol=1e-12)

    def test_matches_full_loop_oracle(self):
        rng = np.random.default_rng(43)
        mem = random_mem(rng, 3, 2)
        clip = ClipFeatures(rng.normal(size=(2, 3, 1, 2)))
        weights = rng.normal(size=(2, 3))
        regions = clip.regions()
        got = clip_sum(regions, weights, mem, 1)
        rows = [normalize_rows(r)[1] for r in mem.matrix]
        expected = np.zeros((2, 2))
        for i, frame in enumerate(regions):
            for region in frame:
                xh = normalize_rows(weights @ region)[1]
                attended = np.zeros(2)
                for w in rows:
                    attended += float(xh @ w) * w
                expected[i] += attended
        np.testing.assert_allclose(got, expected.sum(axis=0), atol=1e-12)
        # the (T, R, C) regions as T groups give the frame vectors, and the
        # clip's frame sum is the sum of those vectors
        reference = reference_forward(mem.matrix, weights, regions, None,
                                      np.zeros(2), np.zeros((5, 2)))["frames"]
        per_frame, _ = encode_frames_cached(regions, weights, mem, 1)
        np.testing.assert_allclose(per_frame, expected, atol=1e-12)
        np.testing.assert_allclose(per_frame, reference, atol=1e-12)
        np.testing.assert_allclose(got, per_frame.sum(axis=0), atol=1e-12)

    def test_region_permutation_invariance(self):
        rng = np.random.default_rng(47)
        mem = random_mem(rng, 5, 3)
        weights = rng.normal(size=(3, 4))
        tensor = rng.normal(size=(2, 4, 2, 3))
        base, _ = encode_frames_cached(ClipFeatures(tensor).regions(), weights, mem, 2)
        flat = tensor.reshape(2, 4, 6)
        perm = rng.permutation(6)
        permuted = ClipFeatures(flat[:, :, perm].reshape(2, 4, 2, 3))
        np.testing.assert_allclose(
            encode_frames_cached(permuted.regions(), weights, mem, 2)[0], base, atol=1e-12
        )

    def test_hop_composition(self):
        # hop_chain stops before the last Gram multiply: its output is the
        # last hop's normalized input, and attending it ends one hop
        rng = np.random.default_rng(53)
        mem = random_mem(rng, 6, 4)
        x0 = rng.normal(size=(3, 2, 4))
        # hop_chain normalizes its input in place, so each call gets a copy
        direct, caches = hop_chain(x0.copy(), mem, 3)
        step1, _ = hop_chain(x0.copy(), mem, 1)
        step2, _ = hop_chain(step1 @ mem.gram, mem, 2)
        np.testing.assert_array_equal(direct, step2)
        rows = [normalize_rows(r)[1] for r in mem.matrix]
        one_hop = [[sum(float(normalize_rows(x)[1] @ w) * w for w in rows) for x in frame]
                   for frame in x0]
        np.testing.assert_allclose(step1 @ mem.gram, one_hop, atol=1e-12)
        assert len(caches) == 3
        np.testing.assert_allclose(np.linalg.norm(direct, axis=-1), 1.0, atol=1e-15)

    def test_rejects_bad_hops(self, basis_mem):
        clip = ClipFeatures(np.ones((1, 2, 1, 1)))
        with pytest.raises(ValueError, match="hops"):
            encode_frames_cached(clip.regions(), np.eye(2), basis_mem, 0)

    def test_rejects_dimension_mismatch(self, basis_mem):
        clip = ClipFeatures(np.ones((1, 3, 1, 1)))
        with pytest.raises(ValueError):
            encode_frames_cached(clip.regions(), np.eye(2), basis_mem, 1)


def per_region_weight_grad(dsums, regions, weights, mem, hops):
    """The frame-encoder weight gradient computed region by region: every
    region of group b gets the group-sum gradient dsums[b], every hop, the
    last one included, multiplies each region row by the Gram matrix, and
    the weight gradient is an einsum over groups and regions."""
    x = regions @ weights.T
    caches = []
    for _ in range(hops):
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        xhat = x / np.where(norms == 0.0, 1.0, norms)
        caches.append((norms, xhat))
        x = xhat @ mem.gram
    dx = np.broadcast_to(dsums[:, None, :], x.shape)
    for norms, xhat in reversed(caches):
        dxhat = dx @ mem.gram
        inner = np.sum(xhat * dxhat, axis=-1, keepdims=True)
        dx = (dxhat - xhat * inner) / np.where(norms == 0.0, 1.0, norms)
        dx = np.where(norms == 0.0, 0.0, dx)
    return np.einsum("trd,trc->dc", dx, regions)


class TestEncodeFramesBackward:
    @pytest.fixture
    def setup(self):
        # 3 groups (frames) of 7x7 regions with 64 channels, each with its
        # own sum gradient; region 5 of frame 0 and all of frame 2 are zero,
        # so their norms are zero at every hop
        rng = np.random.default_rng(59)
        mem = random_mem(rng, 9, 4)
        regions = rng.normal(size=(3, 49, 64))
        regions[0, 5] = 0.0
        regions[2] = 0.0
        weights = rng.normal(size=(4, 64))
        dsums = rng.normal(size=(3, 4))
        return mem, regions, weights, dsums

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_matches_finite_differences_with_zero_regions(self, setup, hops):
        mem, regions, weights, dsums = setup
        np.testing.assert_array_equal(encode_frames_cached(regions, weights, mem, hops)[0][2], 0.0)
        _, cache = encode_frames_cached(regions, weights, mem, hops)
        grad = encode_frames_backward(dsums, cache, mem)
        assert np.isfinite(grad).all()

        def objective(w):
            return float(np.sum(dsums * encode_frames_cached(regions, w, mem, hops)[0]))

        eps = 1e-6
        numeric = np.zeros_like(weights)
        for idx in np.ndindex(weights.shape):
            step = np.zeros_like(weights)
            step[idx] = eps
            numeric[idx] = (objective(weights + step) - objective(weights - step)) / (2 * eps)
        assert np.max(np.abs(grad - numeric)) <= 1e-6 * np.max(np.abs(numeric))

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_matches_per_region_oracle(self, setup, hops):
        mem, regions, weights, dsums = setup
        _, cache = encode_frames_cached(regions, weights, mem, hops)
        grad = encode_frames_backward(dsums, cache, mem)
        expected = per_region_weight_grad(dsums, regions, weights, mem, hops)
        assert np.max(np.abs(grad - expected)) <= 1e-12 * np.max(np.abs(expected))
        # the clip as one group with the (d,) sum gradient of all its regions
        _, clip_cache = encode_frames_cached(regions.reshape(1, -1, 64), weights, mem, hops)
        clip_grad = encode_frames_backward(dsums[:1], clip_cache, mem)
        expected = per_region_weight_grad(np.repeat(dsums[:1], 3, axis=0), regions, weights, mem,
                                          hops)
        assert np.max(np.abs(clip_grad - expected)) <= 1e-12 * np.max(np.abs(expected))

    # three groups take a (3, d) gradient: (1, d) would broadcast across the
    # groups, and (d,) is one clip's gradient without its batch axis
    @pytest.mark.parametrize("shape", [(1, 4), (3, 1), (3, 4, 1), (4,)])
    def test_rejects_wrong_gradient_shape(self, setup, shape):
        mem, regions, weights, _ = setup
        _, cache = encode_frames_cached(regions, weights, mem, 1)
        with pytest.raises(ValueError, match="frame gradient"):
            encode_frames_backward(np.ones(shape), cache, mem)
