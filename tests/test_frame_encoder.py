import math

import numpy as np
import pytest

from lmn.frame_encoder import (
    ClipFeatures,
    encode_frames,
    hop_chain,
    project_region,
    word_attend,
)
from lmn.word_memory import StaticWordMemory, unit_normalize


@pytest.fixture
def basis_mem():
    return StaticWordMemory(["x", "y"], np.eye(2))


def random_mem(rng, v_size, d):
    words = [f"w{i}" for i in range(v_size)]
    return StaticWordMemory(words, rng.normal(size=(v_size, d)))


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


class TestProjectRegion:
    def test_identity(self):
        out = project_region(np.array([5.0, -3.0]), np.eye(2))
        np.testing.assert_array_equal(out, [5.0, -3.0])

    def test_coordinate_selection(self):
        weights = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(project_region(np.array([7.0, 8.0, 9.0]), weights), [7.0, 8.0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        weights = rng.normal(size=(4, 3))
        region = rng.normal(size=3)
        expected = [
            math.fsum(weights[a][b] * region[b] for b in range(3)) for a in range(4)
        ]
        np.testing.assert_allclose(project_region(region, weights), expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_region(np.zeros(3), np.eye(2))


class TestWordAttend:
    def test_basis_alignment(self, basis_mem):
        np.testing.assert_allclose(word_attend(np.array([1.0, 0.0]), basis_mem), [1.0, 0.0])

    def test_symmetric_direction(self, basis_mem):
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(word_attend(np.array([1.0, 1.0]), basis_mem), [s, s], atol=1e-15)

    # (2, 6): fewer words than dimensions, so the (d, d) Gram matrix the
    # attention multiplies by is rank-deficient
    @pytest.mark.parametrize("v_size,d", [(5, 3), (2, 6)])
    def test_matches_loop_oracle(self, v_size, d):
        rng = np.random.default_rng(5)
        mem = random_mem(rng, v_size, d)
        region = rng.normal(size=d)
        xh = unit_normalize(region)
        rows = [unit_normalize(r) for r in mem.matrix]
        expected = np.zeros(d)
        for w in rows:
            expected += float(xh @ w) * w
        np.testing.assert_allclose(word_attend(region, mem), expected, atol=1e-12)

    def test_output_in_row_space(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            mem = random_mem(rng, d + 3, d)  # more rows than dims, full rank a.s.
            out = word_attend(rng.normal(size=d), mem)
            # residual of projecting onto the span of the normalized rows
            coeffs, *_ = np.linalg.lstsq(mem.unit_rows.T, out, rcond=None)
            residual = np.linalg.norm(mem.unit_rows.T @ coeffs - out)
            assert residual <= 1e-8

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(17)
        mem = random_mem(rng, 6, 3)
        weights = rng.normal(size=(3, 4))
        region = rng.normal(size=4)
        base = word_attend(project_region(region, weights), mem)
        for scale in (1e-3, 0.5, 7.0, 1e4):
            scaled = word_attend(project_region(scale * region, weights), mem)
            np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_zero_region_stays_zero(self, basis_mem):
        np.testing.assert_array_equal(word_attend(np.zeros(2), basis_mem), np.zeros(2))


class TestEncodeFrames:
    def test_single_region_basis(self, basis_mem):
        clip = ClipFeatures(np.array([0.0, 1.0]).reshape(1, 2, 1, 1))
        out = encode_frames(clip, np.eye(2), basis_mem, hops=1)
        np.testing.assert_allclose(out, [[0.0, 1.0]])

    def test_two_hops_is_attend_twice(self):
        rng = np.random.default_rng(31)
        mem = random_mem(rng, 6, 3)
        clip = ClipFeatures(rng.normal(size=(2, 4, 1, 2)))
        weights = rng.normal(size=(3, 4))
        two_hop = encode_frames(clip, weights, mem, hops=2)
        manual = np.zeros_like(two_hop)
        for i, frame in enumerate(clip.regions()):
            for region in frame:
                manual[i] += word_attend(word_attend(weights @ region, mem), mem)
        np.testing.assert_allclose(two_hop, manual, atol=1e-12)

    def test_matches_full_loop_oracle(self):
        rng = np.random.default_rng(43)
        mem = random_mem(rng, 3, 2)
        clip = ClipFeatures(rng.normal(size=(2, 3, 1, 2)))
        weights = rng.normal(size=(2, 3))
        got = encode_frames(clip, weights, mem, hops=1)
        rows = [unit_normalize(r) for r in mem.matrix]
        expected = np.zeros((2, 2))
        for i, frame in enumerate(clip.regions()):
            for region in frame:
                xh = unit_normalize(weights @ region)
                attended = np.zeros(2)
                for w in rows:
                    attended += float(xh @ w) * w
                expected[i] += attended
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_region_permutation_invariance(self):
        rng = np.random.default_rng(47)
        mem = random_mem(rng, 5, 3)
        weights = rng.normal(size=(3, 4))
        tensor = rng.normal(size=(2, 4, 2, 3))
        base = encode_frames(ClipFeatures(tensor), weights, mem, hops=2)
        flat = tensor.reshape(2, 4, 6)
        perm = rng.permutation(6)
        permuted = ClipFeatures(flat[:, :, perm].reshape(2, 4, 2, 3))
        np.testing.assert_allclose(
            encode_frames(permuted, weights, mem, hops=2), base, atol=1e-12
        )

    def test_hop_composition(self):
        rng = np.random.default_rng(53)
        mem = random_mem(rng, 6, 4)
        x0 = rng.normal(size=(3, 2, 4))
        direct, _ = hop_chain(x0, mem, 3)
        step1, _ = hop_chain(x0, mem, 1)
        step2, _ = hop_chain(step1, mem, 2)
        np.testing.assert_array_equal(direct, step2)

    def test_rejects_bad_hops(self, basis_mem):
        clip = ClipFeatures(np.ones((1, 2, 1, 1)))
        with pytest.raises(ValueError, match="hops"):
            encode_frames(clip, np.eye(2), basis_mem, hops=0)

    def test_rejects_dimension_mismatch(self, basis_mem):
        clip = ClipFeatures(np.ones((1, 3, 1, 1)))
        with pytest.raises(ValueError):
            encode_frames(clip, np.eye(2), basis_mem, hops=1)
