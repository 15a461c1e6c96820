import math
import re

import numpy as np
import pytest

from lmn.subtitle_memory import (
    SubtitleMemory,
    _row_dots,
    _weighted_row_sum,
    build_memory,
    encode_clip_backward,
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


# --- matrix oracle ----------------------------------------------------------
# The clip layer written as explicit (T, N) passes over full (N, d) memory
# copies, with one hand-written adjoint per pass type. `encode_clip_cached`
# and `encode_clip_backward` must agree with it to rounding.

def oracle_attend(frames, memory):
    scores = frames @ memory.T  # (T, N) raw inner products
    per_frame = scores @ memory
    return per_frame.sum(axis=0), (frames, memory, scores, per_frame)


def oracle_attend_backward(dvector, dper_frame_extra, cache):
    frames, memory, scores, _ = cache
    dper_frame = np.broadcast_to(dvector, (frames.shape[0], dvector.shape[0])).copy()
    if dper_frame_extra is not None:
        dper_frame += dper_frame_extra
    dscores = dper_frame @ memory.T
    dframes = dscores @ memory
    dmemory = scores.T @ dper_frame + dscores.T @ frames
    return dframes, dmemory


def oracle_update(memory, clip):
    pre = memory @ clip
    gate = np.maximum(pre, 0.0)
    return gate[:, None] * memory, (memory, clip, pre, gate)


def oracle_update_backward(dnext, cache):
    memory, clip, pre, gate = cache
    dgate = np.sum(dnext * memory, axis=1)
    dpre = dgate * (pre > 0.0)
    return gate[:, None] * dnext + np.outer(dpre, clip), memory.T @ dpre


def oracle_guide(memory, question):
    logits = memory @ question
    weights = np.exp(logits - logits.max())
    weights = weights / weights.sum()
    return weights[:, None] * memory, (memory, question, weights)


def oracle_guide_backward(dnext, cache):
    memory, question, weights = cache
    dweights = np.sum(dnext * memory, axis=1)
    dlogits = weights * (dweights - weights @ dweights)
    return weights[:, None] * dnext + np.outer(dlogits, question)


def oracle_encode(frames, memory, question, um_hops, qg, carry):
    """Returns the clip vector, the final memory and the pass caches."""
    attends, updates = [], []
    current = frames
    for t in range(um_hops):
        vector, cache = oracle_attend(current, memory)
        attends.append(cache)
        if t < um_hops - 1:
            memory, ucache = oracle_update(memory, vector)
            updates.append(ucache)
            current = cache[3] if carry else frames
    guide = guide_attend = None
    if qg:
        memory, guide = oracle_guide(memory, question)
        vector, guide_attend = oracle_attend(attends[-1][3] if carry else frames, memory)
    return vector, memory, (attends, updates, guide, guide_attend, carry)


def oracle_backward(dvector, caches):
    """Gradient of the oracle's clip vector with respect to the frames."""
    attends, updates, guide, guide_attend, carry = caches
    hops = len(attends)
    dframes = np.zeros_like(attends[0][0])
    dper_frame_in = [None] * hops
    dvector_in = [np.zeros_like(dvector) for _ in range(hops)]
    if guide_attend is not None:
        dcur, dmem = oracle_attend_backward(dvector, None, guide_attend)
        if carry:
            dper_frame_in[hops - 1] = dcur
        else:
            dframes += dcur
        dmem_ver = oracle_guide_backward(dmem, guide)
    else:
        dvector_in[hops - 1] = dvector
        dmem_ver = np.zeros_like(attends[-1][1])
    for t in range(hops - 1, -1, -1):
        dcur, dmem = oracle_attend_backward(dvector_in[t], dper_frame_in[t], attends[t])
        dmem_ver = dmem_ver + dmem
        if t > 0 and carry:
            prev = dper_frame_in[t - 1]
            dper_frame_in[t - 1] = dcur if prev is None else prev + dcur
        else:
            dframes += dcur
        if t > 0:
            dmem_ver, dclip = oracle_update_backward(dmem_ver, updates[t - 1])
            dvector_in[t - 1] = dvector_in[t - 1] + dclip
    return dframes


def final_memory(matrix, cache):
    """The memory version the last pass attended over."""
    return cache.scales[-1][:, None] * matrix


def assert_matches_oracle(frames, matrix, question, um_hops, qg, carry, dvector):
    """Clip vector, final memory and frame gradient within 1e-12 of the
    oracle, relative to the oracle's largest entry. Every frame's oracle
    gradient is the frame-sum gradient."""
    vector, cache = encode_clip_cached(frames.sum(0), matrix, question, um_hops, qg, carry)
    final = final_memory(matrix, cache)
    expected, expected_final, caches = oracle_encode(frames, matrix, question, um_hops, qg, carry)
    dsum = encode_clip_backward(dvector, cache)
    expected_dframes = oracle_backward(dvector, caches)
    assert dsum.shape == frames.shape[1:]
    dframes = np.broadcast_to(dsum, frames.shape)
    for got, want in ((vector, expected), (final, expected_final), (dframes, expected_dframes)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    return cache, caches


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

    def test_caller_array_stays_writable_and_cannot_reach_the_memory(self):
        m = np.eye(2)
        sub = SubtitleMemory(m, ("s0", "s1"))
        assert m.flags.writeable and not sub.matrix.flags.writeable
        m[0, 0] = 5.0
        np.testing.assert_array_equal(sub.matrix, np.eye(2))


class TestSubtitleAttend:
    def test_aligned_unit_vectors(self):
        vector, cache = encode_clip_cached(np.array([1.0, 0.0]), np.array([[1.0, 0.0]]),
                                           None, um_hops=1, qg=False)
        np.testing.assert_array_equal(cache.scores[0], [1.0])
        np.testing.assert_array_equal(vector, [1.0, 0.0])

    def test_orthogonal_gives_zero(self):
        matrix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        vector, _ = encode_clip_cached(np.array([0.0, 0.0, 2.0]), matrix,
                                       None, um_hops=1, qg=False)
        np.testing.assert_array_equal(vector, np.zeros(3))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(3, 5))
        matrix = rng.normal(size=(4, 5))
        vector, cache = encode_clip_cached(frames.sum(0), matrix, None, um_hops=1, qg=False)
        expected, _ = loop_encode(frames, matrix, None, um_hops=1, qg=False)
        np.testing.assert_allclose(vector, expected, atol=1e-12)
        # the clip is the sum of the reattended frames
        np.testing.assert_allclose(vector, (frames @ matrix.T @ matrix).sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(cache.scores[0], (frames @ matrix.T).sum(axis=0), atol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(12)
        frames = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(5, 4))
        base, base_cache = encode_clip_cached(frames.sum(0), matrix, None, um_hops=1, qg=False)
        perm = rng.permutation(5)
        permuted, permuted_cache = encode_clip_cached(frames.sum(0), matrix[perm], None,
                                                      um_hops=1, qg=False)
        np.testing.assert_allclose(permuted, base, atol=1e-12)
        np.testing.assert_allclose(permuted_cache.scores[0], base_cache.scores[0][perm], atol=1e-12)

    def test_zero_row_is_inert(self):
        rng = np.random.default_rng(14)
        frames = rng.normal(size=(3, 4))
        matrix = rng.normal(size=(3, 4))
        with_zero = np.vstack([matrix[:2], np.zeros(4), matrix[2:]])
        base, _ = encode_clip_cached(frames.sum(0), matrix, None, um_hops=1, qg=False)
        padded, _ = encode_clip_cached(frames.sum(0), with_zero, None, um_hops=1, qg=False)
        np.testing.assert_array_equal(padded, base)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            encode_clip_cached(np.ones(3), np.ones((2, 4)), None, um_hops=1, qg=False)


def updated_memory(matrix, frames):
    """The memory after one update hop, gated by the first pass's clip
    vector; with the clip vector itself and the gate pre-activations."""
    clip, _ = encode_clip_cached(frames.sum(0), matrix, None, um_hops=1, qg=False)
    _, cache = encode_clip_cached(frames.sum(0), matrix, None, um_hops=2, qg=False)
    return final_memory(matrix, cache), clip, cache.pre[0]


class TestUpdateHop:
    def test_negative_similarity_forgets_row(self):
        # one frame [-0.5, 0] over the row [1, 0] gives the clip [-0.5, 0]
        updated, clip, pre = updated_memory(np.array([[1.0, 0.0]]), np.array([[-0.5, 0.0]]))
        np.testing.assert_array_equal(clip, [-0.5, 0.0])
        np.testing.assert_array_equal(pre, [-0.5])
        np.testing.assert_array_equal(updated, [[0.0, 0.0]])

    def test_unit_gate_keeps_row(self):
        updated, clip, _ = updated_memory(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(clip, [1.0, 0.0])
        np.testing.assert_array_equal(updated, [[1.0, 0.0]])

    def test_matches_loop_oracle_and_leaves_input_alone(self):
        rng = np.random.default_rng(23)
        matrix = rng.normal(size=(4, 3))
        frame = rng.normal(size=3)
        before = matrix.copy()
        updated, clip, pre = updated_memory(matrix, frame[None, :])
        for n in range(4):
            np.testing.assert_allclose(pre[n], float(matrix[n] @ clip), atol=1e-13)
            gate = max(float(matrix[n] @ clip), 0.0)
            np.testing.assert_allclose(updated[n], gate * matrix[n], atol=1e-13)
        np.testing.assert_array_equal(matrix, before)

    def test_rows_stay_nonnegative_collinear(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            matrix = rng.normal(size=(5, 4))
            updated, _, _ = updated_memory(matrix, rng.normal(size=4)[None, :])
            for old, new in zip(matrix, updated):
                assert float(new @ old) >= 0.0
                unit = old / np.linalg.norm(old)
                residual = np.linalg.norm(new - (new @ unit) * unit)
                assert residual <= 1e-10


def guided_memory(matrix, question):
    """The memory after question guidance with no update hop before it,
    and the cached guide weights."""
    frame_sum = np.ones(matrix.shape[1])  # guidance does not read the frames
    _, cache = encode_clip_cached(frame_sum, matrix, question, um_hops=1, qg=True)
    return final_memory(matrix, cache), cache.guide


class TestQuestionGuide:
    def test_uniform_when_question_orthogonal(self):
        matrix = np.zeros((3, 4))
        matrix[:, :2] = np.random.default_rng(1).normal(size=(3, 2))
        guided, _ = guided_memory(matrix, np.array([0.0, 0.0, 1.0, 0.0]))
        np.testing.assert_allclose(guided, matrix / 3.0, atol=1e-15)

    def test_singleton_memory_unchanged(self):
        matrix = np.array([[2.0, -1.0]])
        guided, _ = guided_memory(matrix, np.array([0.3, 0.4]))
        np.testing.assert_array_equal(guided, matrix)

    def test_matches_exp_normalize_oracle(self):
        rng = np.random.default_rng(37)
        matrix = rng.normal(size=(4, 3))
        question = rng.normal(size=3)
        guided, weights = guided_memory(matrix, question)
        logits = [float(row @ question) for row in matrix]
        total = math.fsum(math.exp(z) for z in logits)
        for n in range(4):
            q = math.exp(logits[n]) / total
            np.testing.assert_allclose(guided[n], q * matrix[n], atol=1e-12)
            np.testing.assert_allclose(weights[n], q, atol=1e-12)

    def test_weights_form_a_distribution(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            matrix = rng.normal(size=(int(rng.integers(1, 7)), 3)) * 3.0
            question = rng.normal(size=3)
            guided, cached = guided_memory(matrix, question)
            weights = []
            for old, new in zip(matrix, guided):
                k = np.argmax(np.abs(old))
                weights.append(new[k] / old[k])
            assert all(w > 0 for w in weights)
            assert abs(math.fsum(weights) - 1.0) <= 1e-12
            assert abs(math.fsum(cached) - 1.0) <= 1e-12


class TestEncodeClip:
    def test_single_hop_no_guidance_is_attend(self):
        rng = np.random.default_rng(43)
        frames = rng.normal(size=(3, 4))
        matrix = rng.normal(size=(2, 4))
        scores = _row_dots(matrix, frames.sum(axis=0))
        vector, cache = encode_clip_cached(frames.sum(0), matrix, None, um_hops=1, qg=False)
        np.testing.assert_array_equal(vector, _weighted_row_sum(scores, matrix))
        np.testing.assert_array_equal(cache.scores[-1], scores)
        np.testing.assert_array_equal(cache.scales[-1], np.ones(2))
        assert not cache.pre and cache.guide is None

    def test_uniform_guidance_scaling_law(self):
        rng = np.random.default_rng(47)
        n = 3
        matrix = np.zeros((n, 5))
        matrix[:, :3] = rng.normal(size=(n, 3))
        frames = rng.normal(size=(2, 5))
        question = np.array([0.0, 0.0, 0.0, 1.0, 0.0])  # orthogonal to every row
        plain, _ = encode_clip_cached(frames.sum(0), matrix, None, um_hops=1, qg=False)
        guided, _ = encode_clip_cached(frames.sum(0), matrix, question, um_hops=1, qg=True)
        np.testing.assert_allclose(guided, plain / n**2, rtol=1e-10)

    @pytest.mark.parametrize("carry", [False, True])
    def test_matches_step_by_step_oracle(self, carry):
        rng = np.random.default_rng(53)
        frames = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(3, 4))
        question = rng.normal(size=4)
        vector, cache = encode_clip_cached(frames.sum(0), matrix, question,
                                           um_hops=2, qg=True, carry_frames=carry)
        final = final_memory(matrix, cache)
        expected, expected_final = loop_encode(frames, matrix, question,
                                               um_hops=2, qg=True, carry=carry)
        np.testing.assert_allclose(vector, expected, atol=1e-12)
        np.testing.assert_allclose(final, expected_final, atol=1e-12)

    def test_zero_row_inert_through_update_hops(self):
        rng = np.random.default_rng(59)
        frames = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(3, 4))
        with_zero = np.vstack([matrix, np.zeros(4)])
        base, _ = encode_clip_cached(frames.sum(0), matrix, None, um_hops=3, qg=False)
        padded, _ = encode_clip_cached(frames.sum(0), with_zero, None, um_hops=3, qg=False)
        np.testing.assert_array_equal(padded, base)

    def test_rejects_bad_hops(self):
        with pytest.raises(ValueError, match="um_hops"):
            encode_clip_cached(np.ones(2), np.array([[1.0, 0.0]]), None, um_hops=0, qg=False)

    def test_guidance_requires_question(self):
        with pytest.raises(ValueError, match="question"):
            encode_clip_cached(np.ones(2), np.array([[1.0, 0.0]]), None, um_hops=1, qg=True)


class TestMatrixOracle:
    @pytest.mark.parametrize("carry", [False, True])
    @pytest.mark.parametrize("qg", [False, True])
    @pytest.mark.parametrize("um_hops", [1, 2, 3])
    def test_matches_pass_by_pass_oracle(self, um_hops, qg, carry):
        rng = np.random.default_rng(100 * um_hops + 10 * qg + carry)
        for t, n, d in ((3, 5, 4), (7, 40, 16)):
            frames = rng.normal(size=(t, d))
            matrix = rng.normal(size=(n, d)) / math.sqrt(d)
            question = rng.normal(size=d)
            cache, caches = assert_matches_oracle(frames, matrix, question, um_hops, qg, carry,
                                                  rng.normal(size=d))
            assert len(cache.scales) == um_hops + qg
            for pre, (_, _, expected_pre, _) in zip(cache.pre, caches[1], strict=True):
                np.testing.assert_allclose(pre, expected_pre, rtol=0,
                                           atol=1e-12 * np.max(np.abs(expected_pre)))
            if qg:
                np.testing.assert_allclose(cache.guide, caches[2][2], rtol=0, atol=1e-12)

    def test_gate_exactly_at_zero(self):
        # the last row is orthogonal to every other row and to the frames,
        # so its score, its share of the clip and its gate input are all 0.0;
        # the guide after the one update sends that row a nonzero gradient,
        # which the gate's zero derivative at 0.0 must stop
        rng = np.random.default_rng(7)
        frames = np.hstack([rng.normal(size=(4, 3)), np.zeros((4, 1))])
        # small rows keep the guide softmax away from saturation
        matrix = np.vstack([np.hstack([0.3 * rng.normal(size=(5, 3)), np.zeros((5, 1))]),
                            [0.0, 0.0, 0.0, 1.0]])
        question = rng.normal(size=4)
        cache, caches = assert_matches_oracle(frames, matrix, question, 2, True, False,
                                              rng.normal(size=4))
        assert len(cache.pre) == 1
        for pre, (_, _, expected_pre, _) in zip(cache.pre, caches[1], strict=True):
            assert pre[-1] == 0.0 and expected_pre[-1] == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: SubtitleMemory(np.zeros(2), ("s0",)), "subtitle matrix must be (N>=1, d), got (2,)"),
    (lambda: SubtitleMemory(np.zeros((0, 2)), ()), "subtitle matrix must be (N>=1, d), got (0, 2)"),
    (lambda: SubtitleMemory(np.eye(2), ("s0",)), "1 sentences for 2 memory rows"),
    (lambda: SubtitleMemory([[np.nan, 0.0]], ("s0",)), "subtitle matrix contains non-finite entries"),
    (lambda: rank_subtitles(np.zeros(3), raw_memory(np.eye(2))),
     "frame vector must have shape (2,), got (3,)"),
], ids=["matrix-1d", "no-rows", "sentence-count", "non-finite", "frame-shape"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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
