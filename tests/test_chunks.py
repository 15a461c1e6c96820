"""The chunk engine: how prepared items are grouped into stacked chunks, and
that a stacked chunk computes what its items compute one at a time.

`tests/reference.py` has no gradient, so a chunk's summed gradient is
compared with the sum of its items' one-item gradients, which criterion 2
ties to central differences of the forward that criterion 1 ties to the
reference.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from lmn.answering import QAItem
from lmn.data_io import Example
from lmn.frame_encoder import ClipFeatures
from lmn.training import (
    CHUNK_BYTES,
    Chunk,
    ModelConfig,
    ModelParams,
    _chunks,
    _prepared,
    _run,
    evaluate,
    run_backward,
    run_forward,
)
from lmn.word_memory import StaticWordMemory
from reference import reference_forward

WORDS = [f"w{i}" for i in range(12)]


def word_memory(rng, dim):
    return StaticWordMemory(WORDS, rng.normal(size=(len(WORDS), dim)))


def sentence(rng, length=3):
    return " ".join(rng.choice(WORDS, size=int(rng.integers(1, length + 1))))


def example(rng, qid, frames, channels, subtitles, hw=(2, 2)):
    """A labeled example with `subtitles` sentences, or video-only for None."""
    item = QAItem(qid, sentence(rng), tuple(sentence(rng) for _ in range(5)), f"movie-{qid}",
                  (f"clip-{qid}",), correct_index=int(rng.integers(5)))
    features = ClipFeatures(rng.normal(size=(frames, channels, *hw)))
    sentences = None if subtitles is None else tuple(sentence(rng) for _ in range(subtitles))
    return Example(item, features, sentences)


def narrowed(ex):
    """The example with its clip held at the LMNF file's float32 width."""
    return dataclasses.replace(ex, features=ClipFeatures(ex.features.tensor.astype(np.float32)))


def one_item_gradients(weights, items, config, mem):
    return [_run(weights, [prep], config, mem, gradient=True).gradient for prep in items]


def assert_close(got, want, tol=1e-12):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), np.max(np.abs(got - want))


class TestChunkRule:
    def test_over_budget_item_runs_alone_on_its_feature_buffer(self):
        rng = np.random.default_rng(1)
        mem = word_memory(rng, 4)
        # 2 frames of 7x7 regions with 512 channels: 401 KB of float64 regions
        dataset = [example(rng, f"q{k}", 2, 512, 3, hw=(7, 7)) for k in range(2)]
        items = list(_prepared(mem, dataset, ModelConfig()))
        assert items[0].regions.nbytes > CHUNK_BYTES
        runs = list(_chunks(items))
        assert [len(run) for run in runs] == [1, 1]
        for run, ex, prep in zip(runs, dataset, items):
            chunk = Chunk.of(run)
            assert chunk.regions.shape == (1, 2 * 49, 512)
            assert np.shares_memory(chunk.regions, ex.features.tensor)
            assert np.shares_memory(chunk.subtitles, prep.subtitle_mat)

    def test_mixed_batch_splits_into_same_shape_chunks(self):
        rng = np.random.default_rng(2)
        mem = word_memory(rng, 5)
        # (frames, subtitles): two frame counts, two subtitle counts and
        # video-only items; only consecutive same-shape items share a chunk
        shapes = [(2, 3), (2, 3), (2, 4), (2, 4), (2, 4), (3, 3), (3, 3), (2, None), (2, None),
                  (3, None), (2, 3)]
        dataset = [example(rng, f"q{k}", t, 6, n) for k, (t, n) in enumerate(shapes)]
        config = ModelConfig(um_hops=2, qg=True)
        items = list(_prepared(mem, dataset, config))
        assert [len(run) for run in _chunks(items)] == [2, 3, 2, 2, 1, 1]
        weights = 0.3 * rng.normal(size=(5, 6))
        out = _run(weights, items, config, mem, gradient=True)
        assert_close(out.gradient, np.sum(one_item_gradients(weights, items, config, mem), axis=0))
        for prep, loss in zip(items, out.losses):
            ref = reference_forward(mem.matrix, weights, prep.regions, prep.subtitle_mat,
                                    prep.question, prep.answer_mat, label=prep.label,
                                    um_hops=2, qg=True)
            assert abs(loss - ref["loss"]) <= 1e-12 * abs(ref["loss"])

    def test_chunks_stop_at_the_budget(self, monkeypatch):
        rng = np.random.default_rng(3)
        mem = word_memory(rng, 4)
        items = list(_prepared(mem, [example(rng, f"q{k}", 2, 6, 3) for k in range(7)],
                               ModelConfig()))
        size = items[0].regions.nbytes + items[0].question.nbytes + items[0].answer_mat.nbytes \
            + items[0].subtitle_mat.nbytes
        monkeypatch.setattr("lmn.training.CHUNK_BYTES", 3 * size)
        assert [len(run) for run in _chunks(items)] == [3, 3, 1]


class TestPromote:
    """Items hold float32 regions, as loaded clips do; a chunk promotes them
    to float64 once, and the backward reuses that copy."""

    @pytest.mark.parametrize("count", [1, 3])
    def test_chunk_promotes_once_and_the_backward_reuses_it(self, count):
        rng = np.random.default_rng(4)
        mem = word_memory(rng, 4)
        dataset = [narrowed(example(rng, f"q{k}", 2, 512, 3, hw=(7, 7))) for k in range(count)]
        config = ModelConfig()
        items = list(_prepared(mem, dataset, config))
        assert all(prep.regions.dtype == np.float32 for prep in items)
        chunk = Chunk.of(items)
        assert chunk.regions.dtype == np.float64 and chunk.regions.shape == (count, 2 * 49, 512)
        np.testing.assert_array_equal(chunk.regions, [prep.regions.reshape(-1, 512) for prep in items])
        assert not any(np.shares_memory(chunk.regions, prep.regions) for prep in items)
        state = run_forward(0.1 * rng.normal(size=(4, 512)), chunk, config, mem)
        assert np.shares_memory(state.frame_cache.regions, chunk.regions)
        # a second promote would be a fresh float64 copy of the regions
        tracemalloc.start()
        try:
            run_backward(state, chunk, config, mem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * chunk.regions.nbytes

    def test_float32_items_are_cut_as_their_float64_copies(self, monkeypatch):
        rng = np.random.default_rng(5)
        mem = word_memory(rng, 4)
        wide = [example(rng, f"q{k}", 2, 6, 3) for k in range(7)]
        items = list(_prepared(mem, wide, ModelConfig()))
        size = items[0].regions.nbytes + items[0].question.nbytes + items[0].answer_mat.nbytes \
            + items[0].subtitle_mat.nbytes
        monkeypatch.setattr("lmn.training.CHUNK_BYTES", 3 * size)
        for dataset in (wide, [narrowed(ex) for ex in wide]):
            assert [len(run) for run in _chunks(_prepared(mem, dataset, ModelConfig()))] == [3, 3, 1]


# every ModelConfig switch crossed; video-only ignores the subtitle switches
CONFIGS = [
    (ModelConfig(swm_hops=swm, um_hops=um, qg=qg, um_carry_frames=carry, average_clip=avg,
                 normalize_sentences=norm), False)
    for swm, um, qg, carry, avg, norm in itertools.product(
        (1, 2), (1, 2, 3), (False, True), (False, True), (False, True), (True, False))
] + [
    (ModelConfig(swm_hops=swm, average_clip=avg, normalize_sentences=norm), True)
    for swm, avg, norm in itertools.product((1, 2), (False, True), (True, False))
]


@pytest.mark.parametrize("index", range(0, len(CONFIGS), 8))
def test_stacked_chunk_matches_its_items(index):
    """Chunks of four items: each loss within 1e-12 relative of the
    reference, and the summed gradient within 1e-12 of the one-item sum."""
    for config, video_only in CONFIGS[index : index + 8]:
        rng = np.random.default_rng(100 + index)
        mem = word_memory(rng, 4)
        dataset = [example(rng, f"q{k}", 3, 5, None if video_only else 4) for k in range(4)]
        items = list(_prepared(mem, dataset, config))
        assert len(list(_chunks(items))) == 1
        weights = 0.2 * rng.normal(size=(4, 5))
        out = _run(weights, items, config, mem, gradient=True)
        for prep, loss in zip(items, out.losses):
            ref = reference_forward(
                mem.matrix, weights, prep.regions, prep.subtitle_mat, prep.question,
                prep.answer_mat, label=prep.label, swm_hops=config.swm_hops,
                um_hops=config.um_hops, qg=config.qg, carry_frames=config.um_carry_frames,
                average_clip=config.average_clip,
            )
            assert abs(loss - ref["loss"]) <= 1e-12 * abs(ref["loss"]), config
        assert_close(out.gradient, np.sum(one_item_gradients(weights, items, config, mem), axis=0))


def test_evaluate_names_the_first_failing_question_of_a_chunk():
    # the word "boom" is 1e100 long and sentences are not normalized, so the
    # update gate overflows on the one question whose subtitles use it
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(len(WORDS) + 1, 4))
    vectors[-1] *= 1e100
    mem = StaticWordMemory(WORDS + ["boom"], vectors)
    dataset = [example(rng, f"q{k}", 2, 6, 3) for k in range(8)]
    dataset[2] = Example(dataset[2].item, dataset[2].features, ("boom w1", "w2", "w3"))
    dataset[5] = Example(dataset[5].item, dataset[5].features, ("boom", "w2", "w3"))
    config = ModelConfig(um_hops=2, normalize_sentences=False)
    assert len(list(_chunks(list(_prepared(mem, dataset, config))))) == 1
    params = ModelParams(rng.normal(size=(4, 6)), config)
    with pytest.raises(ValueError, match=r"^question q2: overflow encountered in multiply$"):
        evaluate(params, mem, dataset)
    # without the two overflowing questions the same chunk scores
    evaluate(params, mem, dataset[:2] + dataset[3:5] + dataset[6:])


def test_gradient_sums_in_chunk_order_and_is_reproducible():
    rng = np.random.default_rng(5)
    mem = word_memory(rng, 4)
    config = ModelConfig(um_hops=2)
    dataset = [example(rng, f"q{k}", t, 5, 3) for k, t in enumerate((2, 2, 3, 3, 3, 2))]
    items = list(_prepared(mem, dataset, config))
    weights = 0.3 * rng.normal(size=(4, 5))
    first = _run(weights, items, config, mem, gradient=True).gradient
    assert first.tobytes() == _run(weights, items, config, mem, gradient=True).gradient.tobytes()
    expected = None
    for run in _chunks(items):
        part = _run(weights, run, config, mem, gradient=True)
        expected = part.gradient if expected is None else expected + part.gradient
    assert first.tobytes() == expected.tobytes()
