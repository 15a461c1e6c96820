import math

import numpy as np
import pytest

from lmn.subtitle_memory import (
    SubtitleMemory,
    _attend_cached,
    _guide_cached,
    _update_cached,
    build_memory,
    encode_clip_cached,
    rank_subtitles,
)
from lmn.word_memory import StaticWordMemory


@pytest.fixture
def tiny_mem():
    return StaticWordMemory(["a", "b"], np.eye(2))


def raw_memory(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return SubtitleMemory(matrix, tuple(f"s{i}" for i in range(matrix.shape[0])))


def loop_encode(frames, memory, question, um_hops, qg, carry=False):
    """Step-by-step scalar-loop execution of the clip pipeline; returns the
    clip vector and the final memory."""
    t, d = frames.shape
    mem = [list(map(float, row)) for row in memory]
    cur = [list(map(float, row)) for row in frames]
    base = [row[:] for row in cur]
    clip = per = None
    for hop in range(um_hops):
        per = []
        for i in range(t):
            betas = [math.fsum(cur[i][a] * s[a] for a in range(d)) for s in mem]
            per.append(
                [math.fsum(betas[n] * mem[n][a] for n in range(len(mem))) for a in range(d)]
            )
        clip = [math.fsum(per[i][a] for i in range(t)) for a in range(d)]
        if hop < um_hops - 1:
            gates = [max(math.fsum(clip[a] * s[a] for a in range(d)), 0.0) for s in mem]
            mem = [[gates[n] * mem[n][a] for a in range(d)] for n in range(len(mem))]
            cur = per if carry else base
    if qg:
        logits = [math.fsum(question[a] * s[a] for a in range(d)) for s in mem]
        mx = max(logits)
        exps = [math.exp(z - mx) for z in logits]
        total = math.fsum(exps)
        weights = [e / total for e in exps]
        mem = [[weights[n] * mem[n][a] for a in range(d)] for n in range(len(mem))]
        cur = per if carry else base
        per = []
        for i in range(t):
            betas = [math.fsum(cur[i][a] * s[a] for a in range(d)) for s in mem]
            per.append(
                [math.fsum(betas[n] * mem[n][a] for n in range(len(mem))) for a in range(d)]
            )
        clip = [math.fsum(per[i][a] for i in range(t)) for a in range(d)]
    return np.array(clip), np.array(mem)


class TestBuildMemory:
    def test_symmetric_sentence(self, tiny_mem):
        sub = build_memory(["a b"], tiny_mem, normalize=True)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(sub.matrix, [[s, s]], atol=1e-15)

    def test_all_oov_sentence_gives_zero_row(self, tiny_mem):
        sub = build_memory(["zz qq"], tiny_mem)
        np.testing.assert_array_equal(sub.matrix, [[0.0, 0.0]])

    def test_rows_match_per_sentence_oracle(self):
        rng = np.random.default_rng(2)
        words = ["red", "ink", "pink", "paper"]
        mem = StaticWordMemory(words, rng.normal(size=(4, 3)))
        sentences = ["red ink", "pink paper red", "ink"]
        sub = build_memory(sentences, mem, normalize=False)
        for row, sentence in zip(sub.matrix, sentences):
            toks = sentence.split()
            expected = sum(mem.matrix[words.index(t)] for t in toks) / len(toks)
            np.testing.assert_allclose(row, expected, atol=1e-15)

    def test_empty_list_rejected(self, tiny_mem):
        with pytest.raises(ValueError, match="empty"):
            build_memory([], tiny_mem)


class TestSubtitleAttend:
    def test_aligned_unit_vectors(self):
        vector, cache = _attend_cached(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(cache.scores, [[1.0]])
        np.testing.assert_array_equal(vector, [1.0, 0.0])

    def test_orthogonal_gives_zero(self):
        matrix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        vector, _ = _attend_cached(np.array([[0.0, 0.0, 2.0]]), matrix)
        np.testing.assert_array_equal(vector, np.zeros(3))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(3, 5))
        matrix = rng.normal(size=(4, 5))
        vector, cache = _attend_cached(frames, matrix)
        expected, _ = loop_encode(frames, matrix, None, um_hops=1, qg=False)
        np.testing.assert_allclose(vector, expected, atol=1e-12)
        np.testing.assert_allclose(vector, cache.per_frame.sum(axis=0), atol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(12)
        frames = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(5, 4))
        base, base_cache = _attend_cached(frames, matrix)
        perm = rng.permutation(5)
        permuted, permuted_cache = _attend_cached(frames, matrix[perm])
        np.testing.assert_allclose(permuted, base, atol=1e-12)
        np.testing.assert_allclose(permuted_cache.scores, base_cache.scores[:, perm], atol=1e-12)

    def test_zero_row_is_inert(self):
        rng = np.random.default_rng(14)
        frames = rng.normal(size=(3, 4))
        matrix = rng.normal(size=(3, 4))
        with_zero = np.vstack([matrix[:2], np.zeros(4), matrix[2:]])
        base, _ = _attend_cached(frames, matrix)
        padded, _ = _attend_cached(frames, with_zero)
        np.testing.assert_array_equal(padded, base)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            encode_clip_cached(np.ones((2, 3)), np.ones((2, 4)), None, um_hops=1, qg=False)


class TestUpdateHop:
    def test_negative_similarity_forgets_row(self):
        updated, _ = _update_cached(np.array([[1.0, 0.0]]), np.array([-0.5, 0.0]))
        np.testing.assert_array_equal(updated, [[0.0, 0.0]])

    def test_unit_gate_keeps_row(self):
        updated, _ = _update_cached(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(updated, [[1.0, 0.0]])

    def test_matches_loop_oracle_and_leaves_input_alone(self):
        rng = np.random.default_rng(23)
        matrix = rng.normal(size=(4, 3))
        clip = rng.normal(size=3)
        before = matrix.copy()
        updated, _ = _update_cached(matrix, clip)
        for n in range(4):
            gate = max(float(matrix[n] @ clip), 0.0)
            np.testing.assert_allclose(updated[n], gate * matrix[n], atol=1e-13)
        np.testing.assert_array_equal(matrix, before)

    def test_rows_stay_nonnegative_collinear(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            matrix = rng.normal(size=(5, 4))
            updated, _ = _update_cached(matrix, rng.normal(size=4))
            for old, new in zip(matrix, updated):
                assert float(new @ old) >= 0.0
                unit = old / np.linalg.norm(old)
                residual = np.linalg.norm(new - (new @ unit) * unit)
                assert residual <= 1e-10


class TestQuestionGuide:
    def test_uniform_when_question_orthogonal(self):
        matrix = np.zeros((3, 4))
        matrix[:, :2] = np.random.default_rng(1).normal(size=(3, 2))
        guided, _ = _guide_cached(matrix, np.array([0.0, 0.0, 1.0, 0.0]))
        np.testing.assert_allclose(guided, matrix / 3.0, atol=1e-15)

    def test_singleton_memory_unchanged(self):
        matrix = np.array([[2.0, -1.0]])
        guided, _ = _guide_cached(matrix, np.array([0.3, 0.4]))
        np.testing.assert_array_equal(guided, matrix)

    def test_matches_exp_normalize_oracle(self):
        rng = np.random.default_rng(37)
        matrix = rng.normal(size=(4, 3))
        question = rng.normal(size=3)
        guided, _ = _guide_cached(matrix, question)
        logits = [float(row @ question) for row in matrix]
        total = math.fsum(math.exp(z) for z in logits)
        for n in range(4):
            q = math.exp(logits[n]) / total
            np.testing.assert_allclose(guided[n], q * matrix[n], atol=1e-12)

    def test_weights_form_a_distribution(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            matrix = rng.normal(size=(int(rng.integers(1, 7)), 3)) * 3.0
            question = rng.normal(size=3)
            guided, _ = _guide_cached(matrix, question)
            weights = []
            for old, new in zip(matrix, guided):
                k = np.argmax(np.abs(old))
                weights.append(new[k] / old[k])
            assert all(w > 0 for w in weights)
            assert abs(math.fsum(weights) - 1.0) <= 1e-12


class TestEncodeClip:
    def test_single_hop_no_guidance_is_attend(self):
        rng = np.random.default_rng(43)
        frames = rng.normal(size=(3, 4))
        matrix = rng.normal(size=(2, 4))
        base, base_cache = _attend_cached(frames, matrix)
        vector, _, cache = encode_clip_cached(frames, matrix, None, um_hops=1, qg=False)
        np.testing.assert_array_equal(vector, base)
        np.testing.assert_array_equal(cache.attends[-1].per_frame, base_cache.per_frame)
        np.testing.assert_array_equal(cache.attends[-1].scores, base_cache.scores)

    def test_uniform_guidance_scaling_law(self):
        rng = np.random.default_rng(47)
        n = 3
        matrix = np.zeros((n, 5))
        matrix[:, :3] = rng.normal(size=(n, 3))
        frames = rng.normal(size=(2, 5))
        question = np.array([0.0, 0.0, 0.0, 1.0, 0.0])  # orthogonal to every row
        plain, _, _ = encode_clip_cached(frames, matrix, None, um_hops=1, qg=False)
        guided, _, _ = encode_clip_cached(frames, matrix, question, um_hops=1, qg=True)
        np.testing.assert_allclose(guided, plain / n**2, rtol=1e-10)

    @pytest.mark.parametrize("carry", [False, True])
    def test_matches_step_by_step_oracle(self, carry):
        rng = np.random.default_rng(53)
        frames = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(3, 4))
        question = rng.normal(size=4)
        vector, final, _ = encode_clip_cached(frames, matrix, question,
                                              um_hops=2, qg=True, carry_frames=carry)
        expected, expected_final = loop_encode(frames, matrix, question,
                                               um_hops=2, qg=True, carry=carry)
        np.testing.assert_allclose(vector, expected, atol=1e-12)
        np.testing.assert_allclose(final, expected_final, atol=1e-12)

    def test_zero_row_inert_through_update_hops(self):
        rng = np.random.default_rng(59)
        frames = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(3, 4))
        with_zero = np.vstack([matrix, np.zeros(4)])
        base, _, _ = encode_clip_cached(frames, matrix, None, um_hops=3, qg=False)
        padded, _, _ = encode_clip_cached(frames, with_zero, None, um_hops=3, qg=False)
        np.testing.assert_array_equal(padded, base)

    def test_rejects_bad_hops(self):
        with pytest.raises(ValueError, match="um_hops"):
            encode_clip_cached(np.ones((1, 2)), np.array([[1.0, 0.0]]), None, um_hops=0, qg=False)

    def test_guidance_requires_question(self):
        with pytest.raises(ValueError, match="question"):
            encode_clip_cached(np.ones((1, 2)), np.array([[1.0, 0.0]]), None, um_hops=1, qg=True)


class TestRankSubtitles:
    def test_descending_order(self):
        sub = raw_memory([[0.2, 0.0], [0.9, 0.0], [0.5, 0.0]])
        ranked = rank_subtitles(np.array([1.0, 0.0]), sub)
        assert [idx for idx, _ in ranked] == [1, 2, 0]
        np.testing.assert_allclose([s for _, s in ranked], [0.9, 0.5, 0.2])

    def test_ties_keep_file_order(self):
        sub = raw_memory([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        ranked = rank_subtitles(np.array([1.0, 0.0]), sub)
        assert [idx for idx, _ in ranked] == [0, 1, 2]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(61)
        matrix = rng.normal(size=(8, 3))
        frame = rng.normal(size=3)
        ranked = rank_subtitles(frame, raw_memory(matrix))
        scores = [float(row @ frame) for row in matrix]
        expected = sorted(range(8), key=lambda n: (-scores[n], n))
        assert [idx for idx, _ in ranked] == expected
