import math
import re

import numpy as np
import pytest

import lmn.subtitle_memory
import lmn.training
from lmn.answering import QAItem
from lmn.data_io import Example, SyntheticSpec, generate_synthetic
from lmn.frame_encoder import ClipFeatures
from lmn.subtitle_memory import (
    _row_dots,
    _weighted_row_sum,
    build_memory,
    encode_clip_backward,
    encode_clip_cached,
)
from lmn.training import ModelConfig, ModelParams, init_params, prepare_example, rank_subtitles
from lmn.word_memory import StaticWordMemory
from reference import reference_encode_clip, reference_forward


@pytest.fixture
def tiny_mem():
    return StaticWordMemory(["a", "b"], np.eye(2))


# --- matrix oracle ----------------------------------------------------------
# The clip layer written as explicit (T, N) passes over full (N, d) memory
# copies, with one hand-written adjoint per pass type. `encode_clip_cached`
# and `encode_clip_backward` must agree with it to rounding.

def oracle_attend(frames, memory):
    scores = frames @ memory.T  # (T, N) raw inner products
    per_frame = scores @ memory
    return per_frame.sum(axis=0), (frames, memory, scores, per_frame)


def oracle_attend_backward(dvector, cache):
    frames, memory, scores, _ = cache
    dper_frame = np.broadcast_to(dvector, (frames.shape[0], dvector.shape[0]))
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


def oracle_encode(frames, memory, question, um_hops, qg):
    """Returns the clip vector, the final memory and the pass caches."""
    attends, updates = [], []
    for t in range(um_hops):
        vector, cache = oracle_attend(frames, memory)
        attends.append(cache)
        if t < um_hops - 1:
            memory, ucache = oracle_update(memory, vector)
            updates.append(ucache)
    guide = guide_attend = None
    if qg:
        memory, guide = oracle_guide(memory, question)
        vector, guide_attend = oracle_attend(frames, memory)
    return vector, memory, (attends, updates, guide, guide_attend)


def oracle_backward(dvector, caches):
    """Gradient of the oracle's clip vector with respect to the frames."""
    attends, updates, guide, guide_attend = caches
    hops = len(attends)
    dframes = np.zeros_like(attends[0][0])
    dvector_in = [np.zeros_like(dvector) for _ in range(hops)]
    if guide_attend is not None:
        dcur, dmem = oracle_attend_backward(dvector, guide_attend)
        dframes += dcur
        dmem_ver = oracle_guide_backward(dmem, guide)
    else:
        dvector_in[hops - 1] = dvector
        dmem_ver = np.zeros_like(attends[-1][1])
    for t in range(hops - 1, -1, -1):
        dcur, dmem = oracle_attend_backward(dvector_in[t], attends[t])
        dmem_ver = dmem_ver + dmem
        dframes += dcur
        if t > 0:
            dmem_ver, dclip = oracle_update_backward(dmem_ver, updates[t - 1])
            dvector_in[t - 1] = dvector_in[t - 1] + dclip
    return dframes


def final_memory(matrix, cache):
    """The memory version the last pass attended over."""
    return cache.scales[-1][:, None] * matrix


def assert_matches_oracle(frames, matrix, question, um_hops, qg, dvector):
    """Clip vector, final memory and frame gradient within 1e-12 of the
    oracle, relative to the oracle's largest entry. Every frame's oracle
    gradient is the frame-sum gradient."""
    vector, cache = encode_clip_cached(frames.sum(0), matrix, question, um_hops, qg)
    final = final_memory(matrix, cache)
    expected, expected_final, caches = oracle_encode(frames, matrix, question, um_hops, qg)
    dsum = encode_clip_backward(dvector, cache)
    expected_dframes = oracle_backward(dvector, caches)
    assert dsum.shape == frames.shape[1:]
    dframes = np.broadcast_to(dsum, frames.shape)
    for got, want in ((vector, expected), (final, expected_final), (dframes, expected_dframes)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    return cache, caches


class TestBuildMemory:
    def test_symmetric_sentence(self, tiny_mem):
        rows = build_memory(["a b"], tiny_mem, normalize=True)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(rows, [[s, s]], atol=1e-15)

    def test_all_oov_sentence_gives_zero_row(self, tiny_mem):
        rows = build_memory(["zz qq"], tiny_mem)
        np.testing.assert_array_equal(rows, [[0.0, 0.0]])

    def test_rows_match_per_sentence_oracle(self):
        rng = np.random.default_rng(2)
        words = ["red", "ink", "pink", "paper"]
        mem = StaticWordMemory(words, rng.normal(size=(4, 3)))
        sentences = ["red ink", "pink paper red", "ink"]
        rows = build_memory(sentences, mem, normalize=False)
        for row, sentence in zip(rows, sentences):
            toks = sentence.split()
            expected = sum(mem.matrix[words.index(t)] for t in toks) / len(toks)
            np.testing.assert_allclose(row, expected, atol=1e-15)

    def test_empty_list_rejected(self, tiny_mem):
        with pytest.raises(ValueError, match="empty"):
            build_memory([], tiny_mem)

    def test_rows_are_read_only_float64(self, tiny_mem):
        rows = build_memory(["a", "b a"], tiny_mem)
        assert rows.dtype == np.float64 and rows.shape == (2, 2)
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 5.0


class TestSubtitleAttend:
    def test_aligned_unit_vectors(self):
        vector, cache = encode_clip_cached(np.array([1.0, 0.0]), np.array([[1.0, 0.0]]),
                                           None, um_hops=1, qg=False)
        np.testing.assert_array_equal(cache.scores, [1.0])
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
        expected, _ = reference_encode_clip(frames, matrix)
        np.testing.assert_allclose(vector, expected, atol=1e-12)
        # the clip is the sum of the reattended frames
        np.testing.assert_allclose(vector, (frames @ matrix.T @ matrix).sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(cache.scores, (frames @ matrix.T).sum(axis=0), atol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(12)
        frames = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(5, 4))
        base, base_cache = encode_clip_cached(frames.sum(0), matrix, None, um_hops=1, qg=False)
        perm = rng.permutation(5)
        permuted, permuted_cache = encode_clip_cached(frames.sum(0), matrix[perm], None,
                                                      um_hops=1, qg=False)
        np.testing.assert_allclose(permuted, base, atol=1e-12)
        np.testing.assert_allclose(permuted_cache.scores, base_cache.scores[perm], atol=1e-12)

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
        np.testing.assert_array_equal(cache.scores, scores)
        np.testing.assert_array_equal(cache.scales[-1], np.ones(2))
        assert not cache.pre and cache.guide is None

    @pytest.mark.parametrize("um_hops, qg", [(1, True), (2, False), (2, True), (3, True)])
    def test_frame_sum_scores_are_computed_once(self, um_hops, qg):
        # every pass attends with the same frame sum, so its scores are one array
        rng = np.random.default_rng(44)
        frame_sums = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(2, 3, 4))
        _, cache = encode_clip_cached(frame_sums, matrix, rng.normal(size=(2, 4)), um_hops, qg)
        assert len(cache.scales) == um_hops + qg
        np.testing.assert_array_equal(cache.scores, _row_dots(matrix, frame_sums))

    @pytest.mark.parametrize("um_hops, qg", [(1, True), (2, False), (2, True), (3, True)])
    def test_backward_maps_the_scores_to_the_frame_sum_once(self, monkeypatch, um_hops, qg):
        # each update gate takes its gradient back to the previous clip
        # vector through one Mᵀ; the frame sum gets one Mᵀ of the score
        # gradient that every pass adds to
        rng = np.random.default_rng(45)
        frame_sums = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(2, 3, 4))
        _, cache = encode_clip_cached(frame_sums, matrix, rng.normal(size=(2, 4)), um_hops, qg)
        calls = []
        dot = lmn.subtitle_memory._dot_memory

        def counting(weights, memory):
            calls.append(weights.shape)
            return dot(weights, memory)

        monkeypatch.setattr(lmn.subtitle_memory, "_dot_memory", counting)
        encode_clip_backward(rng.normal(size=(2, 4)), cache)
        assert len(calls) == um_hops

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

    @pytest.mark.parametrize("qg", [False, True])
    def test_matches_step_by_step_oracle(self, qg):
        rng = np.random.default_rng(53)
        frames = rng.normal(size=(2, 4))
        matrix = rng.normal(size=(3, 4))
        question = rng.normal(size=4)
        vector, cache = encode_clip_cached(frames.sum(0), matrix, question, um_hops=2, qg=qg)
        final = final_memory(matrix, cache)
        expected, expected_final = reference_encode_clip(frames, matrix, question, um_hops=2,
                                                         qg=qg)
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
    @pytest.mark.parametrize("unit_rows", [False, True])
    @pytest.mark.parametrize("qg", [False, True])
    @pytest.mark.parametrize("um_hops", [1, 2, 3])
    def test_matches_pass_by_pass_oracle(self, um_hops, qg, unit_rows):
        # unit rows are what `build_memory` gives the model
        rng = np.random.default_rng(100 * um_hops + 10 * qg + unit_rows)
        for t, n, d in ((3, 5, 4), (7, 40, 16)):
            frames = rng.normal(size=(t, d))
            matrix = rng.normal(size=(n, d)) / math.sqrt(d)
            if unit_rows:
                matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
            question = rng.normal(size=d)
            cache, caches = assert_matches_oracle(frames, matrix, question, um_hops, qg,
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
        cache, caches = assert_matches_oracle(frames, matrix, question, 2, True,
                                              rng.normal(size=4))
        assert len(cache.pre) == 1
        for pre, (_, _, expected_pre, _) in zip(cache.pre, caches[1], strict=True):
            assert pre[-1] == 0.0 and expected_pre[-1] == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: build_memory([], StaticWordMemory(["a"], np.eye(1))),
     "cannot build a subtitle memory from an empty sentence list"),
    (lambda: build_memory(["a", "big big"], StaticWordMemory(["a", "big"], [[1.0], [1.5e308]])),
     "subtitle matrix contains non-finite entries"),
], ids=["empty", "non-finite"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def ranking_example(subtitles, regions, qid="q"):
    """An example over the words a and b whose frames have one region
    each; `regions` holds their (2,) features."""
    item = QAItem(qid=qid, question="a", answers=("a",) * 5, movie_id="m", clip_ids=("c",),
                  correct_index=0)
    tensor = np.asarray(regions, dtype=np.float64)[:, :, None, None]  # (T, C=2, 1, 1)
    return Example(item, ClipFeatures(tensor), subtitles)


class TestRankSubtitles:
    # with unit word rows a and b as the axes and the identity projection, a
    # frame's vector is its one region made unit length
    mem = StaticWordMemory(["a", "b"], np.eye(2))
    params = ModelParams(np.eye(2))

    def test_descending_order(self):
        subtitles = ("b", "a", "a a b")
        example = ranking_example(subtitles, [[1.0, 0.2], [1.0, 1.0]])
        ranked = rank_subtitles(self.params, self.mem, example, 0)
        assert [idx for idx, _ in ranked] == [1, 2, 0]
        frame = np.array([1.0, 0.2]) / math.hypot(1.0, 0.2)
        np.testing.assert_allclose([s for _, s in ranked],
                                   (build_memory(subtitles, self.mem) @ frame)[[1, 2, 0]],
                                   rtol=1e-12)

    def test_ties_keep_file_order(self):
        # against the frame (1, 1), a and b tie, and so do "b a" and "a b",
        # which embed to one row
        example = ranking_example(("b", "a", "b a", "a b", "a"), [[1.0, 0.2], [1.0, 1.0]])
        ranked = rank_subtitles(self.params, self.mem, example, 1)
        assert [idx for idx, _ in ranked] == [2, 3, 0, 1, 4]

    @pytest.mark.parametrize("frame, message", [
        (-1, "frame index -1 out of range (clip has 2 frames)"),
        (2, "frame index 2 out of range (clip has 2 frames)"),
    ])
    def test_frame_outside_the_clip_is_rejected(self, frame, message):
        example = ranking_example(("a",), [[1.0, 0.2], [1.0, 1.0]])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rank_subtitles(self.params, self.mem, example, frame)

    def test_video_only_example_is_rejected(self):
        example = ranking_example(None, [[1.0, 0.2]])
        with pytest.raises(ValueError, match="^question q has no subtitles to rank$"):
            rank_subtitles(self.params, self.mem, example, 0)

    def test_numeric_failure_names_the_question(self):
        params = ModelParams(1e200 * np.eye(2))
        example = ranking_example(("a",), [[1.0, 0.2]], qid="q7")
        with pytest.raises(ValueError, match="^question q7: overflow"):
            rank_subtitles(params, self.mem, example, 0)

    def test_prepares_the_example_once(self, monkeypatch):
        calls = []
        embed = lmn.training.embed_sentence
        monkeypatch.setattr(lmn.training, "embed_sentence",
                            lambda *args, **kw: calls.append(1) or embed(*args, **kw))
        example = ranking_example(("b", "a"), [[1.0, 0.2]])
        rank_subtitles(ModelParams(np.eye(2), ModelConfig(um_hops=2, qg=True)), self.mem,
                       example, 0, final=True)
        assert len(calls) == 1

    @pytest.mark.parametrize("swm_hops, um_hops, qg", [(1, 1, False), (2, 2, True), (1, 3, False)])
    @pytest.mark.parametrize("final", [False, True])
    def test_matches_sort_oracle(self, swm_hops, um_hops, qg, final):
        # the frame vectors of the straight-loop reference, ranked against
        # the built memory or the loop's final memory
        spec = SyntheticSpec(vocab_size=20, dim=6, channels=8, frames=3, height=2, width=2,
                             n_subtitles=5, n_train=2, n_eval=1, seed=9)
        data = generate_synthetic(spec)
        mem, example = data.word_memory, data.examples("train")[0]
        config = ModelConfig(swm_hops=swm_hops, um_hops=um_hops, qg=qg)
        params = init_params(spec.dim, spec.channels, config, seed=2)
        prep = prepare_example(mem, example)
        frames = reference_forward(mem.matrix, params.weights, prep.regions, None, prep.question,
                                   np.zeros((5, mem.dim)), swm_hops=swm_hops)["frames"]
        memory = build_memory(example.subtitles, mem)
        if final:
            _, memory = reference_encode_clip(frames, memory, prep.question, um_hops, qg)
        for index, frame in enumerate(frames):
            ranked = rank_subtitles(params, mem, example, index, final)
            scores = [math.fsum(a * b for a, b in zip(frame, row)) for row in memory]
            expected = sorted(range(len(scores)), key=lambda n: (-scores[n], n))
            assert [idx for idx, _ in ranked] == expected
            np.testing.assert_allclose([s for _, s in ranked], [scores[n] for n in expected],
                                       rtol=1e-12, atol=1e-12 * max(map(abs, scores)))
