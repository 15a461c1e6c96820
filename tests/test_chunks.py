"""The chunk engine: how prepared items are grouped into stacked chunks, and
that a stacked chunk computes what its items compute one at a time.

`tests/reference.py` has no gradient, so a chunk's summed gradient is
compared with the sum of its items' one-item gradients, which criterion 2
ties to central differences of the forward that criterion 1 ties to the
reference.
"""

import dataclasses
import itertools
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

import lmn.training
from lmn.answering import QAItem
from lmn.data_io import (DataFormatError, Example, load_examples, load_features, save_features,
                         subsample_frames)
from lmn.frame_encoder import ClipFeatures
from lmn.subtitle_memory import build_memory
from lmn.training import (
    CHUNK_BYTES,
    Chunk,
    ModelConfig,
    ModelParams,
    TrainConfig,
    _chunks,
    _item_key,
    _prepared,
    _run,
    answer_distributions,
    evaluate,
    forward,
    gradcheck,
    run_backward,
    run_forward,
    train,
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
        items = list(_prepared(mem, dataset))
        assert items[0].regions.nbytes > CHUNK_BYTES
        runs = list(_chunks(items, _item_key))
        assert [len(run) for run in runs] == [1, 1]
        for run, ex, prep in zip(runs, dataset, items):
            chunk = Chunk.of(run)
            assert chunk.regions.shape == (1, 2 * 49, 512)
            assert np.shares_memory(chunk.regions, ex.features.tensor)
            assert np.shares_memory(chunk.subtitles, prep.subtitle_mat)

    def test_mixed_batch_splits_into_same_shape_chunks(self, monkeypatch):
        rng = np.random.default_rng(2)
        mem = word_memory(rng, 5)
        # (frames, subtitles): two frame counts, two subtitle counts and
        # video-only items; only consecutive same-shape items share a chunk
        shapes = [(2, 3), (2, 3), (2, 4), (2, 4), (2, 4), (3, 3), (3, 3), (2, None), (2, None),
                  (3, None), (2, 3)]
        dataset = [example(rng, f"q{k}", t, 6, n) for k, (t, n) in enumerate(shapes)]
        config = ModelConfig(um_hops=2, qg=True)
        calls = []
        embed = lmn.training.embed_sentence

        def recording(mem, texts):
            calls.append(texts)
            return embed(mem, texts)

        monkeypatch.setattr(lmn.training, "embed_sentence", recording)
        items = list(_prepared(mem, dataset))
        runs = list(_chunks(items, _item_key))
        assert [len(run) for run in runs] == [2, 3, 2, 2, 1, 1]
        # preparation embeds exactly the engine's chunks, one call each
        examples = iter(dataset)
        for run, texts in zip(runs, calls, strict=True):
            run = [next(examples) for _ in run]
            assert texts == [text for ex in run for text in (ex.item.question, *ex.item.answers)] \
                + [text for ex in run for text in ex.subtitles or ()]
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
        items = list(_prepared(mem, [example(rng, f"q{k}", 2, 6, 3) for k in range(7)]))
        size = items[0].regions.nbytes + items[0].question.nbytes + items[0].answer_mat.nbytes \
            + items[0].subtitle_mat.nbytes
        monkeypatch.setattr("lmn.training.CHUNK_BYTES", 3 * size)
        assert [len(run) for run in _chunks(items, _item_key)] == [3, 3, 1]


class TestPromote:
    """Items hold float32 regions, as loaded clips do; a chunk promotes them
    to float64 once, and the backward reuses that copy."""

    @pytest.mark.parametrize("count", [1, 3])
    def test_chunk_promotes_once_and_the_backward_reuses_it(self, count):
        rng = np.random.default_rng(4)
        mem = word_memory(rng, 4)
        dataset = [narrowed(example(rng, f"q{k}", 2, 512, 3, hw=(7, 7))) for k in range(count)]
        config = ModelConfig()
        items = list(_prepared(mem, dataset))
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
        items = list(_prepared(mem, wide))
        size = items[0].regions.nbytes + items[0].question.nbytes + items[0].answer_mat.nbytes \
            + items[0].subtitle_mat.nbytes
        monkeypatch.setattr("lmn.training.CHUNK_BYTES", 3 * size)
        for dataset in (wide, [narrowed(ex) for ex in wide]):
            runs = _chunks(_prepared(mem, dataset), _item_key)
            assert [len(run) for run in runs] == [3, 3, 1]


# every ModelConfig switch crossed; video-only ignores the subtitle switches
CONFIGS = [
    (ModelConfig(swm_hops=swm, um_hops=um, qg=qg, average_clip=avg), False)
    for swm, um, qg, avg in itertools.product((1, 2), (1, 2, 3), (False, True), (False, True))
] + [
    (ModelConfig(swm_hops=swm, average_clip=avg), True)
    for swm, avg in itertools.product((1, 2), (False, True))
]


@pytest.mark.parametrize("index", range(0, len(CONFIGS), 8))
def test_stacked_chunk_matches_its_items(index):
    """Chunks of four items: each loss within 1e-12 relative of the
    reference, and the summed gradient within 1e-12 of the one-item sum."""
    for config, video_only in CONFIGS[index : index + 8]:
        rng = np.random.default_rng(100 + index)
        mem = word_memory(rng, 4)
        dataset = [example(rng, f"q{k}", 3, 5, None if video_only else 4) for k in range(4)]
        items = list(_prepared(mem, dataset))
        assert len(list(_chunks(items, _item_key))) == 1
        weights = 0.2 * rng.normal(size=(4, 5))
        out = _run(weights, items, config, mem, gradient=True)
        for prep, loss in zip(items, out.losses):
            ref = reference_forward(
                mem.matrix, weights, prep.regions, prep.subtitle_mat, prep.question,
                prep.answer_mat, label=prep.label, swm_hops=config.swm_hops,
                um_hops=config.um_hops, qg=config.qg, average_clip=config.average_clip,
            )
            assert abs(loss - ref["loss"]) <= 1e-12 * abs(ref["loss"]), config
        assert_close(out.gradient, np.sum(one_item_gradients(weights, items, config, mem), axis=0))


@pytest.mark.parametrize("entry", [evaluate, forward, lmn.training.backward, gradcheck],
                         ids=lambda f: f.__name__)
def test_evaluate_names_the_first_failing_question_of_a_chunk(entry):
    # two questions' regions are near 1e200, so their projected rows
    # overflow when the first hop squares them to normalize; `evaluate`
    # runs all eight in one chunk, the single-item entry points run q2
    rng = np.random.default_rng(4)
    mem = word_memory(rng, 4)
    dataset = [example(rng, f"q{k}", 2, 6, 3) for k in range(8)]
    for k in (2, 5):
        huge = ClipFeatures(1e200 * dataset[k].features.tensor)
        dataset[k] = Example(dataset[k].item, huge, dataset[k].subtitles)
    config = ModelConfig(um_hops=2)
    assert len(list(_chunks(list(_prepared(mem, dataset)), _item_key))) == 1
    params = ModelParams(rng.normal(size=(4, 6)), config)
    failing = dataset[2]
    args = ((params, mem, dataset) if entry is evaluate else
            (params, mem, failing.item, failing.features, build_memory(failing.subtitles, mem)))
    with pytest.raises(ValueError, match=r"^question q2: overflow encountered in vecdot$"):
        entry(*args)
    # without the two overflowing questions the same chunk scores
    evaluate(params, mem, dataset[:2] + dataset[3:5] + dataset[6:])


def test_gradient_sums_in_chunk_order_and_is_reproducible():
    rng = np.random.default_rng(5)
    mem = word_memory(rng, 4)
    config = ModelConfig(um_hops=2)
    dataset = [example(rng, f"q{k}", t, 5, 3) for k, t in enumerate((2, 2, 3, 3, 3, 2))]
    items = list(_prepared(mem, dataset))
    weights = 0.3 * rng.normal(size=(4, 5))
    first = _run(weights, items, config, mem, gradient=True).gradient
    assert first.tobytes() == _run(weights, items, config, mem, gradient=True).gradient.tobytes()
    expected = None
    for run in _chunks(items, _item_key):
        part = _run(weights, run, config, mem, gradient=True)
        expected = part.gradient if expected is None else expected + part.gradient
    assert first.tobytes() == expected.tobytes()


def movie_questions(rng, movies, questions, subtitles, channels=512, hw=(7, 7)):
    """`questions` consecutive float32-clip questions for each of `movies`
    movies, which share their movie's `subtitles` sentences."""
    dataset = []
    for m in range(movies):
        sentences = tuple(sentence(rng) for _ in range(subtitles))
        for k in range(questions):
            ex = narrowed(example(rng, f"m{m}q{k}", 2, channels, None, hw=hw))
            item = dataclasses.replace(ex.item, movie_id=f"movie-{m}")
            dataset.append(Example(item, ex.features, sentences))
    return dataset


class TestResident:
    """An evaluation holds one chunk and the movies in flight: a chunk and
    its forward state are freed before the next chunk is stacked, and a
    movie's rows are freed after its last question's chunk has run."""

    DIM, SUBTITLES = 64, 200

    def test_evaluate_peak_does_not_grow_with_the_movies(self):
        rng = np.random.default_rng(6)
        mem = StaticWordMemory(WORDS, rng.normal(size=(len(WORDS), self.DIM)))
        mem.gram  # built before the measurement, as a loaded memory's is
        params = ModelParams(0.1 * rng.normal(size=(self.DIM, 512)))
        frames, regions = 2, 49
        promote = frames * regions * 512 * 8  # an item's float64 regions, over the budget
        assert promote > CHUNK_BYTES
        projection = frames * regions * self.DIM * 8
        movie = self.SUBTITLES * self.DIM * 8
        slack = 64 * 1024
        peaks = []
        for movies in (1, 3):
            dataset = movie_questions(rng, movies, 3, self.SUBTITLES)
            tracemalloc.start()
            try:
                evaluate(params, mem, dataset)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert max(peaks) < promote + projection + 2 * movie + slack, peaks
        assert peaks[1] < peaks[0] + movie / 2, peaks

    def test_each_movie_is_embedded_once(self, monkeypatch):
        rng = np.random.default_rng(7)
        mem = StaticWordMemory(WORDS, rng.normal(size=(len(WORDS), 8)))
        params = ModelParams(0.1 * rng.normal(size=(8, 512)))
        grouped = movie_questions(rng, 3, 3, 5)
        interleaved = [grouped[m * 3 + k] for k in range(3) for m in range(3)]
        rows = []
        embed = lmn.training.embed_sentence

        def recording(mem, texts):
            rows.append(len(texts))
            return embed(mem, texts)

        monkeypatch.setattr(lmn.training, "embed_sentence", recording)
        once = 9 * (1 + 5) + 3 * 5  # six rows per question, five per movie
        evaluate(params, mem, grouped)
        assert sum(rows) == once
        rows.clear()
        train(interleaved, mem, TrainConfig(max_epochs=1), params)
        assert sum(rows) == once
        monkeypatch.undo()
        together = answer_distributions(params, mem, interleaved)
        for k, ex in enumerate(interleaved):
            alone = answer_distributions(params, mem, [ex])
            assert together.probs[k].tobytes() == alone.probs[0].tobytes()
            assert together.logits[k].tobytes() == alone.logits[0].tobytes()


def on_disk(directory, dataset):
    """The examples with each clip written to `<directory>/<clip_id>.lmnf`
    and loaded back: a clip over CHUNK_BYTES comes back file-backed."""
    loaded = []
    for ex in dataset:
        path = directory / f"{ex.item.clip_ids[0]}.lmnf"
        save_features(ex.features, path)
        loaded.append(dataclasses.replace(ex, features=load_features(path)))
    return loaded


def truncate(path):
    os.truncate(path, os.path.getsize(path) - 4)


def redimension(path):
    data = path.read_bytes()
    path.write_bytes(struct.pack("<4sI4I", b"LMNF", 1, 4, 256, 7, 7) + data[24:])


def poison(path):
    with open(path, "r+b") as fh:
        fh.seek(-4, os.SEEK_END)  # the last frame's last value
        fh.write(struct.pack("<f", float("nan")))


# each way a file can change after its clip was loaded, and what the read says
STALE = {
    "truncated": (truncate, r"expected \d+ bytes, got \d+"),
    "re-dimensioned": (redimension, re.escape("dims (4, 256, 7, 7) differ from the (2, 512, 7, 7) "
                                              "it was loaded with")),
    "NaN": (poison, "payload contains non-finite entries"),
}


class TestFileBacked:
    """A loaded clip over CHUNK_BYTES stays on disk: its chunk reads it
    again, checked as at load, and neither `train` nor `evaluate` holds its
    frames between chunks."""

    @pytest.mark.parametrize("change", STALE)
    def test_a_file_changed_after_load_fails_evaluate_naming_it(self, tmp_path, change):
        rng = np.random.default_rng(9)
        mem = word_memory(rng, 4)
        dataset = on_disk(tmp_path, [narrowed(example(rng, f"q{k}", 2, 512, 3, hw=(7, 7)))
                                     for k in range(3)])
        assert all(ex.features.source is not None for ex in dataset)
        params = ModelParams(0.1 * rng.normal(size=(4, 512)))
        evaluate(params, mem, dataset)
        edit, fact = STALE[change]
        path = tmp_path / "clip-q1.lmnf"
        edit(path)
        where = re.escape(str(path))
        with pytest.raises(DataFormatError, match=f"^question q1: {where}: {fact}$"):
            evaluate(params, mem, dataset)

    @pytest.mark.parametrize("change", STALE)
    def test_a_file_changed_after_load_fails_train_naming_it(self, tmp_path, change):
        rng = np.random.default_rng(10)
        mem = word_memory(rng, 4)
        dataset = on_disk(tmp_path, [narrowed(example(rng, f"q{k}", 2, 512, 3, hw=(7, 7)))
                                     for k in range(4)])
        params = ModelParams(0.1 * rng.normal(size=(4, 512)))
        edit, fact = STALE[change]
        for ex in dataset:
            edit(tmp_path / f"{ex.item.clip_ids[0]}.lmnf")
        where = re.escape(str(tmp_path))
        with pytest.raises(DataFormatError, match=rf"^epoch 1 batch 1: question (q\d): "
                                                  rf"{where}/clip-\1\.lmnf: {fact}$"):
            train(dataset, mem, TrainConfig(max_epochs=1), params)

    def test_a_small_pick_of_a_long_file_shares_a_chunk_with_resident_clips(self, tmp_path):
        # 200 frames of 24 channels over a 3x3 grid are over the budget, so
        # the file stays on disk; four frames picked from it are not
        rng = np.random.default_rng(12)
        mem = word_memory(rng, 4)
        resident = [narrowed(example(rng, f"q{k}", 4, 24, 3, hw=(3, 3))) for k in range(3)]
        long = narrowed(example(rng, "long", 200, 24, 3, hw=(3, 3)))
        (picked,) = on_disk(tmp_path, [long])
        picked = dataclasses.replace(picked, features=subsample_frames([picked.features], 4))
        assert picked.features.source is not None
        dataset = [resident[0], picked, *resident[1:]]
        items = list(_prepared(mem, dataset))
        assert [len(run) for run in _chunks(items, _item_key)] == [4]
        in_memory = [*dataset[:1], dataclasses.replace(picked, features=subsample_frames(
            [long.features], 4)), *dataset[2:]]
        weights = 0.3 * rng.normal(size=(4, 24))
        got = _run(weights, items, ModelConfig(), mem, gradient=True)
        want = _run(weights, list(_prepared(mem, in_memory)), ModelConfig(), mem, gradient=True)
        assert got.dist.logits.tobytes() == want.dist.logits.tobytes()
        assert got.gradient.tobytes() == want.gradient.tobytes()

    DIM, SUBTITLES = 16, 20

    @pytest.mark.parametrize("entry", ["train", "evaluate"])
    def test_heap_peak_does_not_grow_with_the_questions(self, tmp_path, entry):
        rng = np.random.default_rng(11)
        mem = StaticWordMemory(WORDS, rng.normal(size=(len(WORDS), self.DIM)))
        mem.gram  # built before the measurement, as a loaded memory's is
        params = ModelParams(0.1 * rng.normal(size=(self.DIM, 512)))
        sentences = tuple(sentence(rng) for _ in range(self.SUBTITLES))
        frames, regions = 2, 49
        promote = frames * regions * 512 * 8  # an item's float64 regions, over the budget
        assert promote > CHUNK_BYTES
        frame = regions * 512 * 4  # the one-frame buffer a file-backed clip is read through
        projection = frames * regions * self.DIM * 8
        movie = self.SUBTITLES * self.DIM * 8
        weights = self.DIM * 512 * 8
        slack = 64 * 1024
        peaks = []
        for count in (3, 9):
            root = tmp_path / str(count)
            (root / "subtitles").mkdir(parents=True)
            (root / "subtitles" / "movie.txt").write_text("\n".join(sentences) + "\n")
            items = []
            for k in range(count):
                ex = narrowed(example(rng, f"q{k}", frames, 512, None, hw=(7, 7)))
                save_features(ex.features, root / f"{ex.item.clip_ids[0]}.lmnf")
                items.append(dataclasses.replace(ex.item, movie_id="movie"))
            del ex
            tracemalloc.start()
            try:
                dataset = load_examples(items, root, root / "subtitles", frames)
                if entry == "train":
                    # minibatches of two chunks at both sizes: from a third
                    # chunk on, the gradient sum holds one more (d, C) array
                    train(dataset, mem, TrainConfig(batch_size=2, max_epochs=2), params)
                else:
                    evaluate(params, mem, dataset)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        bound = promote + frame + projection + 2 * movie + slack
        if entry == "train":
            # the weights, the best weights, a chunk's gradient, the running
            # sum and its update, the mean gradient and sgd_step's two
            # temporaries
            bound += 8 * weights
        assert max(peaks) < bound, peaks
        # six more resident clips would add 12 frames
        assert peaks[1] < peaks[0] + frame / 2, peaks
