import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmn.data_io import SyntheticSpec, generate_synthetic
from lmn.word_memory import (
    EmbeddingFormatError,
    StaticWordMemory,
    atomic_write_bytes,
    embed_sentence,
    load_word2vec_text,
    normalize_rows,
    save_word2vec_text,
    tokenize,
)
from word2vec_oracle import joined_text


@pytest.fixture
def tiny_mem():
    return StaticWordMemory(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("Who is Forrest?") == ["who", "is", "forrest"]

    def test_empty(self):
        assert tokenize("") == []

    def test_mixed_separators(self):
        assert tokenize("Red ink, on PINK paper.") == ["red", "ink", "on", "pink", "paper"]

    def test_digits_kept_underscore_splits(self):
        assert tokenize("agent_007 speaking") == ["agent", "007", "speaking"]


class TestUnitNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize_rows(np.array([3.0, 4.0]))[1], [0.6, 0.8])

    def test_zero_vector_convention(self):
        np.testing.assert_array_equal(normalize_rows(np.zeros(2))[1], np.zeros(2))

    def test_symmetric(self):
        np.testing.assert_allclose(
            normalize_rows(np.ones(3))[1], np.full(3, 1.0 / math.sqrt(3.0)), atol=1e-15
        )

    def test_unit_norm_and_idempotence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=rng.integers(1, 8)) * 10.0 ** rng.integers(-3, 4)
            u = normalize_rows(x)[1]
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            np.testing.assert_allclose(normalize_rows(u)[1], u, atol=1e-12)


class TestEmbedWord:
    """A word's embedding is its matrix row, found by `lookup`."""

    def test_lookup(self, tiny_mem):
        np.testing.assert_array_equal(tiny_mem.matrix[tiny_mem.lookup("b")], [0.0, 1.0])

    def test_oov_is_none(self, tiny_mem):
        assert tiny_mem.lookup("c") is None

    def test_does_not_mutate(self, tiny_mem):
        before = tiny_mem.matrix.copy()
        tiny_mem.lookup("a")
        tiny_mem.lookup("zzz")
        np.testing.assert_array_equal(tiny_mem.matrix, before)

    def test_matrix_is_read_only(self, tiny_mem):
        with pytest.raises(ValueError):
            tiny_mem.matrix[0, 0] = 5.0


class TestEmbedSentence:
    def test_symmetric_pair_normalized(self, tiny_mem):
        emb = embed_sentence(tiny_mem, ["a b"], normalize=True)
        np.testing.assert_allclose(emb[0], [1.0 / math.sqrt(2)] * 2, atol=1e-15)

    def test_all_oov_is_zero(self, tiny_mem):
        emb = embed_sentence(tiny_mem, ["c c"], normalize=True)
        np.testing.assert_array_equal(emb[0], np.zeros(2))

    def test_mean_matches_loop_oracle(self):
        mem = StaticWordMemory(["a", "b", "c"], np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]]))
        emb = embed_sentence(mem, ["a b c"], normalize=False)
        # frozen from the straight-loop mean of the three rows
        np.testing.assert_allclose(emb[0], [1.0, 1.6666666666666667], rtol=0, atol=1e-15)
        expected = [
            sum(mem.matrix[k][a] for k in range(3)) / 3.0 for a in range(2)
        ]
        np.testing.assert_allclose(emb[0], expected, atol=1e-15)

    def test_token_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        words = ["alpha", "beta", "gamma", "delta"]
        mem = StaticWordMemory(words, rng.normal(size=(4, 5)))
        tokens = ["beta", "alpha", "beta", "delta", "gamma", "alpha"]
        base = embed_sentence(mem, [" ".join(tokens)], normalize=False)[0]
        for _ in range(10):
            rng.shuffle(tokens)
            other = embed_sentence(mem, [" ".join(tokens)], normalize=False)[0]
            np.testing.assert_array_equal(other, base)

    def test_oov_tokens_skipped(self, tiny_mem):
        with_oov = embed_sentence(tiny_mem, ["a xyzzy b"], normalize=False)
        without = embed_sentence(tiny_mem, ["a b"], normalize=False)
        np.testing.assert_array_equal(with_oov[0], without[0])


def _unit_normalize(x):
    # the 1-D normalizer the batched embedder replaced, kept as its oracle
    norm = np.linalg.norm(x)
    return np.zeros_like(x) if norm == 0.0 else x / norm


def _loop_embed(mem, text, normalize):
    # the per-sentence loop the batched embedder replaced, kept as its oracle
    indices = sorted(k for k in (mem.lookup(tok) for tok in tokenize(text)) if k is not None)
    if not indices:
        return np.zeros(mem.dim)
    total = np.zeros(mem.dim)
    for k in indices:
        total += mem.matrix[k]
    vec = total / len(indices)
    return _unit_normalize(vec) if normalize else vec


class TestBatchedEmbedding:
    """One `embed_sentence` call embeds a sequence of sentences into rows
    bitwise equal to the per-sentence loop's vectors."""

    @pytest.fixture(scope="class")
    def synth(self):
        data = generate_synthetic(SyntheticSpec(seed=1))
        sentences = [text for item in data.train_items + data.eval_items
                     for text in (item.question, *item.answers)]
        sentences += [text for subs in data.subtitles.values() for text in subs]
        w = data.word_memory.vocab
        sentences += ["", "xyzzy plugh", f"{w[3]} {w[3]} {w[3]}",
                      f"{w[9]} {w[1]} xyzzy {w[4]} {w[1]} {w[30]}"]
        return data.word_memory, sentences

    @pytest.mark.parametrize("normalize", [True, False])
    def test_rows_equal_the_loop_oracle(self, synth, normalize):
        mem, sentences = synth
        got = embed_sentence(mem, sentences, normalize=normalize)
        expected = np.stack([_loop_embed(mem, text, normalize) for text in sentences])
        assert got.shape == (len(sentences), mem.dim)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("normalize", [True, False])
    def test_one_call_per_movie_equals_the_loop_oracle(self, normalize):
        # each movie's longest sentence outlasts the others, so the sum of
        # its own tail runs after the shared positions
        data = generate_synthetic(SyntheticSpec(n_train=20, n_eval=5, seed=2))
        for subs in data.subtitles.values():
            got = embed_sentence(data.word_memory, subs, normalize=normalize)
            expected = np.stack([_loop_embed(data.word_memory, text, normalize) for text in subs])
            assert got.tobytes() == expected.tobytes()

    def test_bare_string_is_refused(self, tiny_mem):
        with pytest.raises(TypeError, match="sequence of sentences"):
            embed_sentence(tiny_mem, "a b")


# words whose rows differ by orders of magnitude, so that a sum taken in
# another order would round differently
PROPERTY_WORDS = [f"w{i}" for i in range(12)]
PROPERTY_MEM = StaticWordMemory(PROPERTY_WORDS, np.random.default_rng(7).normal(size=(12, 5))
                                * 10.0 ** np.arange(-5, 7)[:, None])
OOV_WORDS = st.sampled_from(["xyzzy", "plugh"])
SHORT_SENTENCES = st.one_of(
    st.just(""),
    st.lists(OOV_WORDS, min_size=1, max_size=4).map(" ".join),
    st.lists(st.one_of(st.sampled_from(PROPERTY_WORDS), OOV_WORDS), max_size=6).map(" ".join),
)
LONG_SENTENCES = st.lists(st.sampled_from(PROPERTY_WORDS), min_size=40, max_size=160).map(" ".join)


@st.composite
def sentence_lists(draw):
    """0-8 sentences: empty, all out-of-vocabulary or short ones, and at
    times one far longer than the rest, or two tied for the longest."""
    sentences = draw(st.lists(SHORT_SENTENCES, max_size=8))
    if sentences and draw(st.booleans()):
        sentences[draw(st.integers(0, len(sentences) - 1))] = draw(LONG_SENTENCES)
    if len(sentences) >= 2 and draw(st.booleans()):
        longest = max(range(len(sentences)), key=lambda i: len(sentences[i].split()))
        other = draw(st.sampled_from([i for i in range(len(sentences)) if i != longest]))
        sentences[other] = " ".join(draw(st.permutations(sentences[longest].split())))
    return sentences


# On a failure Hypothesis imports its patch writer, which can raise a
# third-party DeprecationWarning under the suite's warnings-as-errors.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.parametrize("normalize", [True, False])
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(sentences=sentence_lists())
def test_embedding_any_sentence_list_equals_the_loop_oracle(normalize, sentences):
    got = embed_sentence(PROPERTY_MEM, sentences, normalize=normalize)
    expected = np.array([_loop_embed(PROPERTY_MEM, text, normalize) for text in sentences])
    assert got.shape == (len(sentences), PROPERTY_MEM.dim)
    assert got.tobytes() == expected.reshape(got.shape).tobytes()


class TestNormalizeRows:
    @pytest.mark.parametrize("d", [1, 16, 300])
    def test_norms_equal_the_per_row_norm(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(500, d)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
        x[7] = 0.0
        norms, rows = normalize_rows(x)
        assert norms.shape == (500, 1)
        assert norms[:, 0].tobytes() == np.array([np.linalg.norm(r) for r in x]).tobytes()
        assert rows.tobytes() == np.stack([_unit_normalize(r) for r in x]).tobytes()

    def test_in_place_makes_no_array_of_squares(self):
        x = np.random.default_rng(2).normal(size=(2000, 300))
        tracemalloc.start()
        try:
            normalize_rows(x, out=x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * x.nbytes


class TestWord2VecText:
    def test_header_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\na 1 0\nb 0 1\n")
        mem = load_word2vec_text(path)
        assert mem.vocab == ("a", "b")
        np.testing.assert_array_equal(mem.matrix, np.eye(2))

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 0\nb 0 1\n")
        mem = load_word2vec_text(path)
        assert mem.size == 2 and mem.dim == 2

    @pytest.mark.parametrize("header", ["2 2\n", ""], ids=["header", "headerless"])
    def test_trailing_spaces_ignored(self, tmp_path, header):
        # the reference word2vec tool writes each text value as "%lf "
        plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
        plain.write_text(header + "a 1.0 2.0\nb 3.0 4.0\n")
        spaced.write_text(header + "a 1.0 2.0 \nb 3.0 4.0 \n")
        expected, mem = load_word2vec_text(plain), load_word2vec_text(spaced)
        assert mem.vocab == expected.vocab == ("a", "b")
        assert mem.matrix.tobytes() == expected.matrix.tobytes()

    def test_inconsistent_dimension_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 0\nb 0 1 1\n")
        with pytest.raises(EmbeddingFormatError, match="line 2.*dimension"):
            load_word2vec_text(path)

    def test_non_numeric_coordinate(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 zap\n")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_word2vec_text(path)

    def test_duplicate_word(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 0\na 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="line 2.*duplicate"):
            load_word2vec_text(path)

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 2\r\na 1 0\nb\xff 0 1\n")
        with pytest.raises(EmbeddingFormatError,
                           match=f"{re.escape(str(path))}: line 3: invalid UTF-8 byte 0xff"):
            load_word2vec_text(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(EmbeddingFormatError, match="no embedding rows"):
            load_word2vec_text(path)

    def test_300_dimensional_rows(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "emb300.txt"
        rows = rng.normal(size=(3, 300))
        lines = [f"w{i} " + " ".join(repr(float(v)) for v in row) for i, row in enumerate(rows)]
        path.write_text("\n".join(lines) + "\n")
        mem = load_word2vec_text(path)
        assert mem.dim == 300

    def test_full_vocabulary_scale_lookup(self, tmp_path):
        # the shared word memory in the reference setup holds 26,630 words
        count, d = 26630, 4
        path = tmp_path / "big.txt"
        with open(path, "w") as fh:
            fh.write(f"{count} {d}\n")
            for i in range(count):
                fh.write(f"w{i} {i}.0 0.0 1.0 -2.5\n")
        mem = load_word2vec_text(path)
        assert mem.size == count
        np.testing.assert_array_equal(mem.matrix[mem.lookup("w12345")], [12345.0, 0.0, 1.0, -2.5])
        assert mem.lookup("missing") is None

    @pytest.mark.parametrize("word", ["a b", "x\ny", "x\ry"], ids=["space", "lf", "cr"])
    def test_unwritable_word_is_refused_before_writing(self, tmp_path, word):
        # the reader would split such a word, so the written file could not load
        path = tmp_path / "emb.txt"
        path.write_text("kept\n")
        mem = StaticWordMemory([word, "c"], np.eye(2))
        with pytest.raises(ValueError, match=re.escape(repr(word))):
            save_word2vec_text(mem, path)
        assert path.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]

    def test_failed_piece_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("kept\n")

        def pieces():
            yield b"1 1\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(path, pieces())
        assert path.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        mem = StaticWordMemory(
            ["alpha", "beta", "gamma"], rng.normal(size=(3, 6)) * 10.0 ** rng.integers(-4, 4)
        )
        path = tmp_path / "rt.txt"
        save_word2vec_text(mem, path)
        loaded = load_word2vec_text(path)
        assert loaded.vocab == mem.vocab
        np.testing.assert_array_equal(loaded.matrix, mem.matrix)


class TestConstruction:
    def test_duplicate_vocab_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StaticWordMemory(["a", "a"], np.eye(2))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            StaticWordMemory(["a"], np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            StaticWordMemory(["a", "b"], np.array([[1.0, 0.0], [np.nan, 1.0]]))

    def test_caller_array_stays_writable_and_cannot_reach_the_memory(self):
        a = np.eye(2)
        v = a[:]
        mem = StaticWordMemory(["x", "y"], a)
        gram = mem.gram
        assert a.flags.writeable
        v[0, 0] = 5.0
        np.testing.assert_array_equal(mem.matrix, np.eye(2))
        rows = normalize_rows(mem.matrix)[1]
        assert gram.tobytes() == (rows.T @ rows).tobytes()


@pytest.mark.parametrize("vocab, matrix, message", [
    (["a", "b"], np.zeros(2), "embedding matrix must be 2-D, got shape (2,)"),
    (["a"], np.zeros((1, 0)), "embedding dimension must be >= 1"),
], ids=["matrix-1d", "zero-dimension"])
def test_matrix_shape_checks(vocab, matrix, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StaticWordMemory(vocab, matrix)


def block_gram(matrix):
    """The Gram matrix of `matrix`'s unit rows as the memory sums it: one
    product per block of 1024 rows, added in row order onto the first."""
    gram = None
    for start in range(0, len(matrix), 1024):
        rows = normalize_rows(matrix[start:start + 1024])[1]
        gram = rows.T @ rows if gram is None else gram + rows.T @ rows
    return gram


class TestBlockGram:
    @pytest.mark.parametrize("size", [1, 1023, 1024, 1025, 3 * 1024 + 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_block_sum_and_the_one_product(self, size, seed):
        rng = np.random.default_rng(1000 * seed + size)
        dim = int(rng.integers(1, 12))
        matrix = rng.normal(size=(size, dim)) * 10.0 ** rng.integers(-3, 4, size=(size, 1))
        matrix[rng.random(size) < 0.1] = 0.0  # zero rows stay zero
        matrix[[0, -1]] = 0.0
        gram = StaticWordMemory([f"w{i}" for i in range(size)], matrix).gram
        assert gram.tobytes() == block_gram(matrix).tobytes()
        rows = normalize_rows(matrix)[1]
        product = rows.T @ rows
        assert np.abs(gram - product).max() <= 1e-13 * np.abs(product).max()
        np.testing.assert_array_equal(gram, gram.T)
        if size <= 1024:
            assert gram.tobytes() == product.tobytes()


class TestHoldOnce:
    """The embedding table exists once: loading builds no per-value Python
    float, saving holds a block of the file's text at a time, and the Gram
    sum holds one block of unit rows at a time."""

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(13)
        return StaticWordMemory([f"w{i}" for i in range(2000)], rng.normal(size=(2000, 100)))

    @pytest.fixture(scope="class")
    def emb_path(self, table, tmp_path_factory):
        path = tmp_path_factory.mktemp("emb") / "emb.txt"
        save_word2vec_text(table, path)
        return path

    def test_save_holds_a_block_of_the_text(self, table, tmp_path):
        # the writer encodes and writes a block of lines at a time, never
        # the whole file's text, and writes the bytes of one whole-file join
        path = tmp_path / "emb.txt"
        tracemalloc.start()
        try:
            save_word2vec_text(table, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * path.stat().st_size
        assert path.read_bytes() == joined_text(table)

    def test_gram_keeps_no_second_table(self, emb_path):
        tracemalloc.start()
        try:
            mem = load_word2vec_text(emb_path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1.5 * mem.matrix.nbytes
        # the loader builds G before it returns
        assert mem._gram.tobytes() == block_gram(mem.matrix).tobytes()
        assert not any(isinstance(v, np.ndarray) and v.shape == mem.matrix.shape
                       for name, v in vars(mem).items() if name != "matrix")

    @pytest.mark.parametrize("size", [2000, 8000])
    def test_gram_peak_is_one_block(self, size):
        # a constructed memory builds G on first use, one block of unit rows
        # at a time, so the build's peak does not grow with the table
        dim = 100
        mem = StaticWordMemory([f"w{i}" for i in range(size)],
                               np.random.default_rng(size).normal(size=(size, dim)))
        assert mem._gram is None
        tracemalloc.start()
        try:
            mem.gram
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * dim * 8 + 3 * dim * dim * 8 + 64 * 1024

    def test_load_peak_is_bounded_by_the_text(self, emb_path):
        tracemalloc.start()
        try:
            load_word2vec_text(emb_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * emb_path.stat().st_size

    def test_false_header_count_allocates_nothing_the_file_cannot_fill(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("999999999 300\nw " + " ".join(["0.5"] * 300) + "\n")
        with pytest.raises(EmbeddingFormatError,
                           match="header declares 999999999 words but file has 1"):
            load_word2vec_text(path)

    @pytest.mark.parametrize("header", ["2000 100\n", ""], ids=["header", "headerless"])
    def test_streamed_matrix_is_exact(self, emb_path, tmp_path, header):
        # the preallocated and the grown matrix both equal one np.stack of the rows
        lines = emb_path.read_text().splitlines()[1:]
        path = tmp_path / "emb.txt"
        path.write_text(header + "\n".join(lines) + "\n")
        mem = load_word2vec_text(path)
        expected = np.stack([np.array([float(v) for v in line.split(" ")[1:]]) for line in lines])
        assert mem.vocab == tuple(line.split(" ")[0] for line in lines)
        assert mem.matrix.flags.c_contiguous and mem.matrix.base is None
        assert mem.matrix.tobytes() == expected.tobytes()
