import __future__
import dataclasses
import inspect
import json
import math
import re
import textwrap

import numpy as np
import pytest

import lmn.frame_encoder
import lmn.subtitle_memory
import lmn.training
from instances import config_sweep, make_instance, prepare
from lmn.answering import QAItem, predict
from lmn.data_io import Example, SyntheticSpec, generate_synthetic
from lmn.frame_encoder import ClipFeatures
from lmn.subtitle_memory import build_memory
from lmn.training import (
    Chunk,
    ModelConfig,
    ModelParams,
    TrainConfig,
    backward,
    evaluate,
    forward,
    gradcheck,
    init_params,
    prepare_example,
    run_forward,
    sgd_step,
    train,
)
from lmn.word_memory import StaticWordMemory, load_word2vec_text
from reference import reference_forward

LN5 = 1.6094379124341003

# learning rates that are not positive and finite, with the message each gets
BAD_STEPS = [
    (0.0, "must be positive"),
    (-1e-3, "must be positive"),
    (-math.inf, "must be positive"),
    (math.nan, "must be finite, got nan"),
    (math.inf, "must be finite, got inf"),
]


def as_params(inst):
    return ModelParams(inst.weights, inst.config)


def reference_loss(inst):
    return reference_forward(
        inst.mem.matrix,
        inst.weights,
        inst.prep.regions,
        inst.prep.subtitle_mat,
        inst.prep.question,
        inst.prep.answer_mat,
        label=inst.item.correct_index,
        swm_hops=inst.config.swm_hops,
        um_hops=inst.config.um_hops,
        qg=inst.config.qg,
    )


class TestForward:
    def test_matches_reference_on_mixed_configs(self):
        for i, combo in enumerate(config_sweep()[:8]):
            inst = make_instance(seed=100 + i, **combo)
            loss, dist = forward(as_params(inst), inst.mem, inst.item, inst.features, inst.sub)
            ref = reference_loss(inst)
            assert abs(loss - ref["loss"]) <= 1e-10
            np.testing.assert_allclose(dist.probs, ref["probs"], atol=1e-10)

    def test_identical_answers_give_ln5(self):
        rng = np.random.default_rng(71)
        mem = StaticWordMemory(["aa", "bb"], rng.normal(size=(2, 3)))
        item = QAItem("q", "aa", ("aa bb",) * 5, "m", ("c",), correct_index=2)
        features = ClipFeatures(rng.normal(size=(2, 4, 1, 2)))
        params = init_params(3, 4, seed=1)
        loss, dist = forward(params, mem, item, features)
        assert abs(loss - LN5) <= 1e-12
        np.testing.assert_allclose(dist.probs, np.full(5, 0.2), atol=1e-12)

    def test_video_only_ignores_subtitle_settings(self):
        inst = make_instance(seed=300, video_only=True)
        plain = ModelParams(inst.weights, ModelConfig(swm_hops=1))
        fancy = ModelParams(inst.weights, ModelConfig(swm_hops=1, um_hops=3, qg=True))
        loss_a, dist_a = forward(plain, inst.mem, inst.item, inst.features, None)
        loss_b, dist_b = forward(fancy, inst.mem, inst.item, inst.features, None)
        assert loss_a == loss_b
        np.testing.assert_array_equal(dist_a.logits, dist_b.logits)

    def test_missing_label_rejected(self):
        inst = make_instance(seed=301)
        item = QAItem(inst.item.qid, inst.item.question, inst.item.answers,
                      inst.item.movie_id, inst.item.clip_ids, correct_index=None)
        with pytest.raises(ValueError, match="correct_index"):
            forward(as_params(inst), inst.mem, item, inst.features, inst.sub)

    def test_answer_permutation_permutes_probs(self):
        inst = make_instance(seed=302, um_hops=2, qg=True)
        from lmn.answering import predict

        _, base = forward(as_params(inst), inst.mem, inst.item, inst.features, inst.sub)
        perm = [3, 0, 4, 1, 2]
        shuffled = QAItem(
            inst.item.qid, inst.item.question,
            tuple(inst.item.answers[p] for p in perm),
            inst.item.movie_id, inst.item.clip_ids,
            correct_index=perm.index(inst.item.correct_index),
        )
        _, permuted = forward(as_params(inst), inst.mem, shuffled, inst.features, inst.sub)
        np.testing.assert_allclose(permuted.probs, base.probs[perm], atol=1e-12)
        assert predict(permuted) == perm.index(predict(base))


class TestBackward:
    def test_finite_differences_across_all_modes(self):
        combos = []
        for swm in (1, 2):
            combos.append(dict(swm_hops=swm, video_only=True))
            for um in (1, 2):
                for qg in (False, True):
                    combos.append(dict(swm_hops=swm, um_hops=um, qg=qg))
        assert len(combos) == 10
        checked = 0
        for rep in range(2):  # two seeds per mode: 20 instances
            for i, combo in enumerate(combos):
                inst = make_instance(seed=1000 * (rep + 1) + i, avoid_kinks=True, **combo)
                err = gradcheck(as_params(inst), inst.mem, inst.item, inst.features, inst.sub)
                assert err <= 1e-4, f"combo {combo} seed rep {rep}: rel error {err}"
                checked += 1
        assert checked == 20

    def test_every_admitted_sweep_instance_is_measurable(self):
        # seeds 0-9 of every mode: no instance `make_instance` admits makes
        # `gradcheck` raise, and every mode admits one
        worst = 0.0
        for combo in config_sweep():
            admitted = 0
            for seed in range(10):
                try:
                    inst = make_instance(seed=seed, avoid_kinks=True, **combo)
                except RuntimeError:
                    continue
                err = gradcheck(as_params(inst), inst.mem, inst.item, inst.features, inst.sub)
                worst = max(worst, err)
                admitted += 1
            assert admitted, combo
        assert worst <= 1e-4

    def test_flat_loss_gives_zero_gradient(self):
        rng = np.random.default_rng(81)
        mem = StaticWordMemory(["aa", "bb"], rng.normal(size=(2, 3)))
        item = QAItem("q", "aa", ("aa bb",) * 5, "m", ("c",), correct_index=0)
        features = ClipFeatures(rng.normal(size=(1, 4, 1, 2)))
        params = init_params(3, 4, seed=2)
        grad = backward(params, mem, item, features)
        # mathematically zero; softmax cancellation leaves only rounding dust
        np.testing.assert_allclose(grad, np.zeros((3, 4)), atol=1e-15)

    def test_zero_weights_take_dead_branch(self):
        inst = make_instance(seed=88)
        params = ModelParams(np.zeros_like(inst.weights), inst.config)
        grad = backward(params, inst.mem, inst.item, inst.features, inst.sub)
        np.testing.assert_array_equal(grad, np.zeros_like(inst.weights))

    def test_single_step_decreases_loss(self):
        stepped = 0
        for i, combo in enumerate(config_sweep()[:6]):
            inst = make_instance(seed=7000 + i, avoid_kinks=True, **combo)
            params = as_params(inst)
            grad = backward(params, inst.mem, inst.item, inst.features, inst.sub)
            if np.linalg.norm(grad) <= 1e-6:
                continue
            before, _ = forward(params, inst.mem, inst.item, inst.features, inst.sub)
            updated = ModelParams(sgd_step(params.weights, grad, 1e-4), inst.config)
            after, _ = forward(updated, inst.mem, inst.item, inst.features, inst.sub)
            assert after < before
            stepped += 1
        assert stepped >= 4


class TestGradcheckHarness:
    def test_quadratic_self_test(self):
        # central differences are exact on a quadratic; with dyadic
        # coefficients, weights, and step even the arithmetic is exact
        coeff = np.array([[0.5, 1.0], [1.5, 0.75]])
        weights = np.array([[1.25, -0.5], [2.0, 0.375]])
        step = 2.0**-17
        analytic = 2.0 * coeff * weights
        worst = 0.0
        for a in range(2):
            for b in range(2):
                plus, minus = weights.copy(), weights.copy()
                plus[a, b] += step
                minus[a, b] -= step
                numeric = (np.sum(coeff * plus * plus) - np.sum(coeff * minus * minus)) / (2 * step)
                rel = abs(analytic[a, b] - numeric) / max(1e-8, abs(analytic[a, b]) + abs(numeric))
                worst = max(worst, rel)
        assert worst <= 1e-10

    @pytest.mark.parametrize("edit", [np.negative, np.zeros_like, lambda g: 1.1 * g],
                             ids=["negated", "zeroed", "scaled"])
    def test_every_entry_is_checked(self, monkeypatch, edit):
        # entry (4, 0) of the 16x24 weights holds 19% of the gradient's norm;
        # a check that samples entries can miss it
        spec = SyntheticSpec(n_train=1, n_eval=1, seed=77)
        data = generate_synthetic(spec)
        example = data.examples("train")[0]
        sub = build_memory(example.subtitles, data.word_memory)
        params = init_params(spec.dim, spec.channels, seed=77)
        args = (params, data.word_memory, example.item, example.features, sub)
        assert gradcheck(*args) <= 1e-4
        exact = lmn.training.run_backward

        def wrong_entry(*call):
            grad = exact(*call)
            grad[4, 0] = edit(grad[4, 0])
            return grad

        monkeypatch.setattr(lmn.training, "run_backward", wrong_entry)
        assert gradcheck(*args) > 1e-4

    @pytest.mark.parametrize("module, name, exact, planted, mode", [
        (lmn.subtitle_memory, "encode_clip_backward", "dscale * prev * prev * (pre > 0.0)",
         "dscale * prev * prev", dict(um_hops=2, qg=True)),
        (lmn.subtitle_memory, "encode_clip_backward",
         "weights * dscale + dlogits * cache.question_scores", "weights * dscale",
         dict(um_hops=2, qg=True)),
        (lmn.subtitle_memory, "encode_clip_backward", "dscores = dscores + scale * scale * dweights",
         "dscores = scale * scale * dweights", dict(um_hops=2)),
        (lmn.frame_encoder, "_normalize_backward", "np.multiply(cache.xhat, inner, out=cache.xhat)",
         "np.multiply(0.0, cache.xhat, out=cache.xhat)", {}),
        (lmn.subtitle_memory, "encode_clip_backward", "np.maximum(pre, 0.0) * dscale",
         "np.maximum(scale, 0.0) * dscale", dict(um_hops=3)),
    ], ids=["relu-mask", "guide-term", "frame-sum", "normalize-projection", "gate-scale"])
    def test_planted_adjoint_bug_is_caught(self, monkeypatch, module, name, exact, planted, mode):
        # each bug is one expression of the adjoint's source, edited; the
        # guide and mask bugs need a gate before the guide, and the scale
        # bug a gate after the first, where the row scale is not the mask
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert source.count(exact) == 1
        namespace = dict(vars(module))
        exec(compile(source.replace(exact, planted), module.__file__, "exec",
                     flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
        instances = [make_instance(seed=seed, avoid_kinks=True, **mode) for seed in (2, 3)]
        checks = [(as_params(inst), inst.mem, inst.item, inst.features, inst.sub)
                  for inst in instances]
        assert max(gradcheck(*args) for args in checks) <= 1e-4
        monkeypatch.setattr(module, name, namespace[name])
        if hasattr(lmn.training, name):  # the training module calls its own import
            monkeypatch.setattr(lmn.training, name, namespace[name])
        assert max(gradcheck(*args) for args in checks) > 1e-4

    FLOOR_ERROR = (r"^question \S+: no direction reaches 1e5 times the finite-difference floor "
                   r"eps \* max\(\|loss\|, max \|logit\|\) / step = ")

    @staticmethod
    def saturated(scale, label):
        # the projection's scale cancels in the first hop's normalization, and
        # the question and answers embed to unit rows, so subtitle rows built
        # unnormalized from word vectors scaled up saturate the softmax
        # instead: the logits grow as scale**2, and answer 2 wins
        rng = np.random.default_rng(5)
        mem = StaticWordMemory(["aa", "bb", "cc"], scale * rng.normal(size=(3, 3)))
        item = QAItem("q", "aa", ("aa", "bb", "cc", "aa bb", "bb cc"), "m", ("c",),
                      correct_index=label)
        features = ClipFeatures(rng.normal(size=(2, 4, 1, 2)))
        sub = build_memory(["aa bb", "cc", "bb cc"], mem, normalize=False)
        return init_params(3, 4, seed=1), mem, item, features, sub

    def test_saturated_softmax_has_no_measurable_entry(self):
        # at 1e12 answer 2 leads by a logit gap near 1e24: its loss and every
        # gradient entry round to 0.0, under the floor eps*max|logit|/step
        args = self.saturated(1e12, 2)
        loss, dist = forward(*args)
        assert dist.probs.max() == 1.0 and loss == 0.0
        assert not backward(*args).any()
        with pytest.raises(ValueError, match=self.FLOOR_ERROR + r"5\.388e\+13 "
                           r"\(loss 0\.000e\+00, max \|logit\| 2\.426e\+24\)$"):
            gradcheck(*args)

    @pytest.mark.parametrize("label", [0, 1, 3, 4])
    def test_saturated_wrong_answer_is_measured(self, label):
        # here a wrong answer's loss, near 1e24, is its logit gap, whose
        # gradient grows with it and stays 1e10 times above the floor
        assert gradcheck(*self.saturated(1e12, label)) <= 1e-4

    @pytest.mark.parametrize("scale", [4.0, 4.5, 5.0])
    def test_nearly_saturated_softmax_raises(self, scale):
        # losses 8.8e-7, 2.0e-8 and 2.9e-10 at max |logit| 39.5, 49.8 and
        # 61.3: the largest directional derivative is at most 1.8e4, 416 and
        # 6 times the floor, so a difference quotient there is mostly the
        # logits' rounding
        with pytest.raises(ValueError, match=self.FLOOR_ERROR):
            gradcheck(*self.saturated(scale, 2))

    @pytest.mark.parametrize("index", [0, 1])
    def test_vanishing_loss_raises(self, index):
        # losses 3.7e-11 and 4.6e-6 at max |logit| 44.6 and 33.2: the logits'
        # rounding, not the loss's, bounds what a difference quotient resolves
        spec = SyntheticSpec(n_train=4, n_eval=1, seed=77)
        data = generate_synthetic(spec)
        example = data.examples("train")[index]
        sub = build_memory(example.subtitles, data.word_memory)
        params = init_params(spec.dim, spec.channels, seed=77)
        with pytest.raises(ValueError, match=self.FLOOR_ERROR):
            gradcheck(params, data.word_memory, example.item, example.features, sub)


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        w = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(sgd_step(w, np.zeros((2, 3)), 0.5), w)

    def test_exact_cancellation(self):
        w = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(sgd_step(w, w, 1.0), np.zeros((2, 3)))

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(103)
        w, g = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        out = sgd_step(w, g, 0.07)
        for a in range(3):
            for b in range(2):
                assert out[a, b] == w[a, b] - 0.07 * g[a, b]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            sgd_step(np.zeros((2, 2)), np.zeros((2, 3)), 0.1)

    def test_rejects_bad_rate(self):
        for rate, message in BAD_STEPS:
            with pytest.raises(ValueError, match=f"^learning_rate {message}$"):
                sgd_step(np.zeros((2, 2)), np.zeros((2, 2)), rate)
            with pytest.raises(ValueError, match=f"^learning_rate {message}$"):
                TrainConfig(learning_rate=rate)


class TestSettingTypes:
    @pytest.mark.parametrize("cls,name,value,kind", [
        (ModelConfig, "swm_hops", 1.5, "an integer"),
        (ModelConfig, "um_hops", True, "an integer"),
        (ModelConfig, "qg", 2, "a bool"),
        (ModelConfig, "qg", np.True_, "a bool"),
        (TrainConfig, "batch_size", 2.5, "an integer"),
        (TrainConfig, "seed", "3", "an integer"),
        (TrainConfig, "max_epochs", np.float64(3.0), "an integer"),
        (TrainConfig, "learning_rate", True, "a real number"),
        (TrainConfig, "dev_fraction", "0.1", "a real number"),
        (SyntheticSpec, "dim", 16.0, "an integer"),
        (SyntheticSpec, "n_train", False, "an integer"),
        (SyntheticSpec, "noise_sigma", None, "a real number"),
    ])
    def test_rejects_wrong_type(self, cls, name, value, kind):
        with pytest.raises(ValueError, match=f"^{cls.__name__}.{name} must be {kind}, got "):
            cls(**{name: value})

    @pytest.mark.parametrize("name", ["normalize_sentences", "um_carry_frames", "average_clip"])
    def test_model_constants_are_not_settings(self, name):
        assert name not in {f.name for f in dataclasses.fields(ModelConfig)}
        with pytest.raises(TypeError, match=name):
            ModelConfig(**{name: getattr(ModelConfig, name)})

    def test_model_settings_are_the_hops_and_the_guide(self):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == ["swm_hops", "um_hops", "qg"]
        assert ModelConfig().average_clip is False

    def test_accepts_numpy_integers_and_integer_rates(self):
        assert ModelConfig(swm_hops=np.int64(2)) == ModelConfig(swm_hops=2)
        assert TrainConfig(learning_rate=1, dev_fraction=np.float32(0.5)).learning_rate == 1
        assert SyntheticSpec(n_train=np.int32(3), noise_sigma=0).n_train == 3


@pytest.fixture(scope="module")
def small_synthetic():
    spec = SyntheticSpec(vocab_size=20, dim=6, channels=8, frames=2, height=2, width=2,
                         n_subtitles=3, n_train=30, n_eval=10, seed=5)
    return generate_synthetic(spec)


def unlabeled(data, indices):
    """The first six eval examples, those at `indices` without a label."""
    dataset = data.examples("eval")[:6]
    for k in indices:
        item = dataclasses.replace(dataset[k].item, correct_index=None)
        dataset[k] = Example(item, dataset[k].features, dataset[k].subtitles)
    return dataset


@pytest.mark.parametrize("call, message", [
    (lambda data: ModelParams(np.zeros(3)), "weights must be 2-D (d,C), got (3,)"),
    (lambda data: ModelParams(np.array([[np.inf]])), "weights contain non-finite entries"),
    (lambda data: TrainConfig(max_epochs=-1), "max_epochs must be >= 0"),
    (lambda data: TrainConfig(seed=-1), "seed must be >= 0"),
    (lambda data: TrainConfig(patience=0), "patience must be >= 1"),
    (lambda data: TrainConfig(dev_fraction=0.0), "dev_fraction must be in (0, 1)"),
    (lambda data: TrainConfig(dev_fraction=1.0), "dev_fraction must be in (0, 1)"),
    (lambda data: evaluate(init_params(6, 8), data.word_memory, []), "empty dataset"),
    # an unlabeled question would count as a miss and dilute the accuracy
    (lambda data: evaluate(init_params(6, 8), data.word_memory, unlabeled(data, (1, 3, 5))),
     "item 'eval00001' has no correct_index"),
    (lambda data: train(data.examples("train")[:1], data.word_memory, TrainConfig(),
                        init_params(6, 8)),
     "dataset of 1 items is too small for a dev split"),
], ids=["weights-1d", "weights-non-finite", "max-epochs", "seed", "patience", "dev-fraction-0",
        "dev-fraction-1", "evaluate-empty", "evaluate-unlabeled", "train-one-item"])
def test_input_checks(small_synthetic, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(small_synthetic)


class TestStoredWidth:
    def test_float32_and_float64_clips_give_identical_runs(self, small_synthetic):
        narrow = small_synthetic
        assert all(clip.tensor.dtype == np.float32 for clip in narrow.features.values())
        wide = dataclasses.replace(narrow, features={
            cid: ClipFeatures(clip.tensor.astype(np.float64)) for cid, clip in narrow.features.items()
        })
        runs = []
        for data in (narrow, wide):
            params, report = train(data.examples("train"), data.word_memory,
                                   TrainConfig(max_epochs=3, seed=2), init_params(6, 8, seed=2))
            accuracy, records = evaluate(params, data.word_memory, data.examples("eval"))
            runs.append((report.to_json(), report.params_digest, accuracy, records))
        assert runs[0] == runs[1]


class TestTrain:
    def test_zero_epochs_returns_initial(self, small_synthetic):
        data = small_synthetic
        params0 = init_params(6, 8, seed=3)
        config = TrainConfig(max_epochs=0, seed=3)
        params, report = train(data.examples("train"), data.word_memory, config, params0)
        np.testing.assert_array_equal(params.weights, params0.weights)
        assert report.epochs == ()
        assert report.best_epoch == 0
        assert report.best_dev_acc == 0.0

    def test_same_seed_is_bit_identical(self, small_synthetic):
        data = small_synthetic
        params0 = init_params(6, 8, seed=4)
        config = TrainConfig(max_epochs=3, seed=4)
        runs = [
            train(data.examples("train"), data.word_memory, config, params0)
            for _ in range(2)
        ]
        assert runs[0][1].to_json() == runs[1][1].to_json()
        assert runs[0][1].params_digest == runs[1][1].params_digest
        np.testing.assert_array_equal(runs[0][0].weights, runs[1][0].weights)

    def test_batch_gradient_is_mean_of_item_gradients(self, small_synthetic):
        data = small_synthetic
        examples = data.examples("train")[:12]
        params0 = init_params(6, 8, seed=9)
        lr = 0.05
        config = TrainConfig(learning_rate=lr, batch_size=len(examples), max_epochs=1,
                             dev_fraction=0.25, seed=9)
        params, _ = train(examples, data.word_memory, config, params0)
        # replay the documented shuffle: one permutation for the dev split,
        # one reshuffle for the single epoch
        rng = np.random.default_rng(9)
        order = rng.permutation(len(examples))
        n_dev = max(1, int(round(0.25 * len(examples))))
        train_idx = rng.permutation(order[n_dev:])
        grads = [
            backward(params0, data.word_memory, examples[i].item, examples[i].features,
                     build_memory(examples[i].subtitles, data.word_memory))
            for i in train_idx
        ]
        expected = params0.weights - lr * np.mean(grads, axis=0)
        np.testing.assert_allclose(params.weights, expected, atol=1e-12)

    def test_best_epoch_tracks_history(self, small_synthetic):
        data = small_synthetic
        params0 = init_params(6, 8, seed=6)
        config = TrainConfig(max_epochs=5, seed=6)
        _, report = train(data.examples("train"), data.word_memory, config, params0)
        assert report.epochs
        best = max(report.epochs, key=lambda e: e.dev_acc)
        assert report.best_dev_acc == best.dev_acc
        firsts = [e.epoch for e in report.epochs if e.dev_acc == best.dev_acc]
        assert report.best_epoch == firsts[0]

    def test_rejects_empty_and_unlabeled(self, small_synthetic):
        data = small_synthetic
        with pytest.raises(ValueError, match="empty"):
            train([], data.word_memory, TrainConfig(), init_params(6, 8))
        examples = data.examples("train")[:4]
        bad_item = QAItem("x", "q", ("a",) * 5, "m", ("c",), correct_index=None)
        broken = examples + [
            type(examples[0])(bad_item, examples[0].features, examples[0].subtitles)
        ]
        with pytest.raises(ValueError, match="correct_index"):
            train(broken, data.word_memory, TrainConfig(), init_params(6, 8))

    def test_report_json_schema(self, small_synthetic):
        data = small_synthetic
        params0 = init_params(6, 8, seed=7)
        _, report = train(data.examples("train"), data.word_memory,
                          TrainConfig(max_epochs=2, seed=7), params0)
        doc = json.loads(report.to_json())
        assert set(doc) == {"epochs", "best_epoch", "best_dev_acc"}
        for entry in doc["epochs"]:
            assert set(entry) == {"epoch", "train_loss", "dev_acc"}


def shared_movies(data):
    """Three movies with three questions each, plus one video-only item; each
    movie takes the subtitles of its first synthetic question."""
    source = data.examples("train")
    dataset = []
    for k in range(9):
        example = source[k]
        movie = source[3 * (k // 3)]
        item = dataclasses.replace(example.item, movie_id=f"movie{k // 3}")
        dataset.append(Example(item, example.features, movie.subtitles))
    dataset.append(Example(source[9].item, source[9].features, None))
    return dataset


def count_embeddings(monkeypatch):
    """Record the sentences of every `training.embed_sentence` call."""
    calls = []
    original = lmn.training.embed_sentence

    def recording(mem, sentences):
        calls.append(tuple(sentences))
        return original(mem, sentences)

    monkeypatch.setattr(lmn.training, "embed_sentence", recording)
    return calls


def embeddings_of(calls, sentences):
    """How many times `sentences` was embedded: its runs in the recorded calls."""
    n = len(sentences)
    return sum(call[i : i + n] == sentences for call in calls for i in range(len(call) - n + 1))


def per_item_prepared(mem, dataset):
    """Reference preparation: every item builds its own subtitle memory."""
    for ex in dataset:
        sub = None if ex.subtitles is None else build_memory(ex.subtitles, mem)
        yield prepare(mem, ex.item, ex.features, sub)


class TestSubtitleMemoryCache:
    CONFIG = ModelConfig(um_hops=2, qg=True)

    def test_evaluate_builds_once_per_movie(self, small_synthetic, monkeypatch):
        dataset = shared_movies(small_synthetic)
        calls = count_embeddings(monkeypatch)
        evaluate(init_params(6, 8, self.CONFIG, seed=2), small_synthetic.word_memory, dataset)
        movies = {(ex.item.movie_id, ex.subtitles) for ex in dataset if ex.subtitles}
        assert len(movies) == 3
        assert [embeddings_of(calls, subtitles) for _, subtitles in movies] == [1, 1, 1]

    def test_train_builds_once_per_movie(self, small_synthetic, monkeypatch):
        dataset = shared_movies(small_synthetic)
        calls = count_embeddings(monkeypatch)
        train(dataset, small_synthetic.word_memory, TrainConfig(max_epochs=1, seed=2),
              init_params(6, 8, self.CONFIG, seed=2))
        movies = {(ex.item.movie_id, ex.subtitles) for ex in dataset if ex.subtitles}
        assert len(movies) == 3
        assert [embeddings_of(calls, subtitles) for _, subtitles in movies] == [1, 1, 1]

    def test_evaluate_matches_per_item_loop(self, small_synthetic):
        dataset = shared_movies(small_synthetic)
        mem = small_synthetic.word_memory
        params = init_params(6, 8, self.CONFIG, seed=8)
        _, records = evaluate(params, mem, dataset)
        expected = []
        for ex, prep in zip(dataset, per_item_prepared(mem, dataset)):
            dist = run_forward(params.weights, Chunk.of([prep]), self.CONFIG, mem).dist
            (choice,) = predict(dist).tolist()
            expected.append({"qid": ex.item.qid, "predicted": choice,
                             "prob": float(dist.probs[0, choice]),
                             "correct_index": ex.item.correct_index,
                             "correct": choice == ex.item.correct_index})
        # the nine subtitled items share one stacked chunk, whose frame-sum
        # GEMM may round differently from one item's matrix-vector product
        probs = [record.pop("prob") for record in records]
        expected_probs = [record.pop("prob") for record in expected]
        assert json.dumps(records) == json.dumps(expected)
        np.testing.assert_allclose(probs, expected_probs, rtol=0, atol=1e-12)

    def test_train_matches_per_item_loop(self, small_synthetic, monkeypatch):
        dataset = shared_movies(small_synthetic)
        mem = small_synthetic.word_memory
        config = TrainConfig(learning_rate=1e-3, batch_size=3, max_epochs=3, seed=8)
        params0 = init_params(6, 8, self.CONFIG, seed=8)
        cached, cached_report = train(dataset, mem, config, params0)
        monkeypatch.setattr(lmn.training, "_prepared", per_item_prepared)
        looped, looped_report = train(dataset, mem, config, params0)
        assert cached.weights.tobytes() == looped.weights.tobytes()
        assert cached_report == looped_report

    def test_one_movie_id_with_two_sentence_lists(self, small_synthetic, monkeypatch):
        source = small_synthetic.examples("train")
        mem = small_synthetic.word_memory
        dataset = [
            Example(dataclasses.replace(source[k].item, movie_id="same"),
                    source[k].features, source[s].subtitles)
            for k, s in ((0, 0), (1, 1), (2, 0))
        ]
        calls = count_embeddings(monkeypatch)
        preps = list(lmn.training._prepared(mem, dataset))
        assert embeddings_of(calls, source[0].subtitles) == 1
        assert embeddings_of(calls, source[1].subtitles) == 1
        assert not np.array_equal(preps[0].subtitle_mat, preps[1].subtitle_mat)
        assert preps[2].subtitle_mat is preps[0].subtitle_mat
        for ex, prep in zip(dataset, preps):
            np.testing.assert_array_equal(prep.subtitle_mat,
                                          build_memory(ex.subtitles, mem))


def block_dataset(data):
    """Thirteen examples for blocks of four subtitled items: movie A comes
    back after a block boundary, video-only items are interleaved, movie B
    has two sentence lists, and movie D's rows alone are over the budget."""
    source = data.examples("train")
    s = [ex.subtitles for ex in source]
    long = sum(s, ())
    plan = [("A", s[0]), None, ("B", s[1]), ("A", s[0]), None, ("C", s[2]), ("A", s[0]),
            ("B", s[3]), ("D", long), None, ("B", s[1]), ("D", long), ("A", s[0])]
    dataset = []
    for ex, movie in zip(source, plan):
        if movie is None:
            dataset.append(Example(ex.item, ex.features, None))
        else:
            item = dataclasses.replace(ex.item, movie_id=movie[0])
            dataset.append(Example(item, ex.features, movie[1]))
    return dataset


def subtitled_bytes(example, dim):
    """A subtitled item's share of a chunk, as the chunk engine counts it."""
    rows = 1 + 5 + len(example.subtitles)
    return example.features.tensor.size * 8 + rows * dim * 8


class TestPreparedBlocks:
    def test_blocks_match_per_item_preparation(self, small_synthetic, monkeypatch):
        mem = small_synthetic.word_memory
        dataset = block_dataset(small_synthetic)
        budget = 4 * subtitled_bytes(dataset[0], mem.dim)
        assert len(dataset[8].subtitles) * mem.dim * 8 > budget
        expected = list(per_item_prepared(mem, dataset))
        monkeypatch.setattr(lmn.training, "CHUNK_BYTES", budget)
        calls = count_embeddings(monkeypatch)
        preps = list(lmn.training._prepared(mem, dataset))
        assert len(calls) >= 3
        assert embeddings_of(calls, dataset[8].subtitles) == 1
        for ex, prep, want in zip(dataset, preps, expected, strict=True):
            assert prep.regions.tobytes() == want.regions.tobytes()
            assert prep.question.tobytes() == want.question.tobytes()
            assert prep.answer_mat.tobytes() == want.answer_mat.tobytes()
            assert prep.label == want.label
            if ex.subtitles is None:
                assert prep.subtitle_mat is None and want.subtitle_mat is None
            else:
                assert prep.subtitle_mat.shape == want.subtitle_mat.shape
                assert prep.subtitle_mat.tobytes() == want.subtitle_mat.tobytes()
                assert not prep.subtitle_mat.flags.writeable
        # a movie from an earlier block is reused, not embedded again
        assert preps[6].subtitle_mat is preps[0].subtitle_mat
        assert preps[10].subtitle_mat is preps[2].subtitle_mat
        assert preps[11].subtitle_mat is preps[8].subtitle_mat
        assert preps[7].subtitle_mat.tobytes() != preps[2].subtitle_mat.tobytes()

    @pytest.mark.parametrize("call", ["prepare", "train", "evaluate"])
    def test_empty_subtitles_rejected(self, small_synthetic, monkeypatch, call):
        mem = small_synthetic.word_memory
        dataset = block_dataset(small_synthetic)
        monkeypatch.setattr(lmn.training, "CHUNK_BYTES", 4 * subtitled_bytes(dataset[0], mem.dim))
        item = dataclasses.replace(dataset[0].item, movie_id="silent")
        dataset.append(Example(item, dataset[0].features, ()))
        params = init_params(mem.dim, 8)
        with pytest.raises(ValueError, match="^movie silent: cannot build a subtitle memory "
                                             "from an empty sentence list$"):
            if call == "prepare":
                list(lmn.training._prepared(mem, dataset))
            elif call == "train":
                train(dataset, mem, TrainConfig(max_epochs=1), params)
            else:
                evaluate(params, mem, dataset)

    def test_evaluate_embeds_once_per_chunk(self, monkeypatch):
        data = generate_synthetic(SyntheticSpec(n_train=1, n_eval=1000))
        mem = data.word_memory
        dataset = data.examples("eval")
        config = ModelConfig()
        runs = list(lmn.training._chunks(lmn.training._prepared(mem, dataset),
                                         lmn.training._item_key))
        assert len(runs[0]) > 1
        calls = count_embeddings(monkeypatch)
        evaluate(init_params(mem.dim, 24, config), mem, dataset)
        assert len(calls) == len(runs)


def overflowing(where):
    """Three labeled examples; the second one's `where` sentence is "big
    big", whose word sum overflows."""
    dataset = []
    for k in range(3):
        question, answers, subtitles = "w", ["w"] * 5, ["w", "w w", "w"]
        if k == 1:
            if where == "question":
                question = "big big"
            elif where == "answer":
                answers[3] = "big big"
            else:
                subtitles[1] = "big big"
        item = QAItem(f"q{k}", question, tuple(answers), f"m{k}", (f"c{k}",), correct_index=0)
        dataset.append(Example(item, ClipFeatures(np.ones((1, 3, 1, 1))), tuple(subtitles)))
    return dataset


@pytest.mark.parametrize("config", [ModelConfig(), ModelConfig(um_hops=2, qg=True)],
                         ids=["default", "um2-qg"])
@pytest.mark.parametrize("call", ["train", "evaluate", "forward", "backward", "gradcheck"])
@pytest.mark.parametrize("where, message", [
    ("subtitle", "movie m1: subtitle 1 embeds to non-finite values"),
    ("question", "question q1: the question embeds to non-finite values"),
    ("answer", "question q1: answer 3 embeds to non-finite values"),
])
def test_non_finite_embedding_is_located(where, message, call, config):
    # the located message holds on the guided path too, where the question
    # also steers the subtitle memory
    mem = StaticWordMemory(["big", "w"], np.array([[1.5e308, 0.0], [0.0, 1.0]]))
    params = init_params(2, 3, config)
    one_item = {"forward": forward, "backward": backward, "gradcheck": gradcheck}
    if call in one_item and where == "subtitle":
        # the caller builds the item's subtitle memory, which rejects the row
        message = "subtitle matrix contains non-finite entries"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if call == "train":
            train(overflowing(where), mem, TrainConfig(max_epochs=1), params)
        elif call == "evaluate":
            evaluate(params, mem, overflowing(where))
        else:
            example = overflowing(where)[1]
            sub = build_memory(example.subtitles, mem)
            one_item[call](params, mem, example.item, example.features, sub)


def test_overflowing_table_loads_and_its_first_forward_names_the_question(tmp_path):
    # the first row's norm overflows: the load leaves the Gram matrix
    # unbuilt, and the forward that builds it raises for its question
    path = tmp_path / "embeddings.txt"
    path.write_text("3 2\nbig 1.5e308 0\nw 0 1\nv 1 0\n", encoding="utf-8")
    mem = load_word2vec_text(path)
    assert mem._gram is None
    dataset = [Example(QAItem(f"q{k}", "w", ("w", "v", "w v", "v", "v w"), "m0", (f"c{k}",),
                              correct_index=0),
                       ClipFeatures(np.ones((1, 3, 1, 1))), ("w", "v w")) for k in range(2)]
    with pytest.raises(ValueError, match=r"^question q0: overflow encountered in vecdot$"):
        evaluate(init_params(2, 3), mem, dataset)


@pytest.mark.parametrize("call", [forward, backward, gradcheck], ids=lambda f: f.__name__)
@pytest.mark.parametrize("rows, got", [
    (np.ones(16), "shape (16,)"),
    (np.ones((0, 16)), "shape (0, 16)"),
    (np.ones((3, 7)), "shape (3, 7)"),
    (np.full((3, 16), np.nan), "non-finite entries"),
], ids=["1-d", "no-rows", "width", "non-finite"])
def test_subtitle_rows_are_checked_before_any_forward(monkeypatch, call, rows, got):
    data = generate_synthetic(SyntheticSpec(n_train=1, n_eval=1, seed=3))
    example = data.examples("train")[0]
    params = init_params(16, 24, seed=3)

    def no_forward(*args):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(lmn.training, "run_forward", no_forward)
    message = (f"subtitle rows must be a finite (N>=1, 16) matrix for the 16-wide word memory, "
               f"got {got}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(params, data.word_memory, example.item, example.features, rows)


def test_params_copy_the_callers_weights():
    w = np.zeros((2, 3))
    params = ModelParams(w)
    assert w.flags.writeable and not params.weights.flags.writeable
    w[0, 0] = 5.0
    assert params.weights[0, 0] == 0.0


class TestHoldOnce:
    """An item's frames exist once: its prepared regions are a view of the
    example's feature buffer, not a second (T, R, C) copy."""

    def test_prepared_regions_share_the_feature_buffer(self, small_synthetic):
        example = small_synthetic.examples("train")[0]
        prep = prepare_example(small_synthetic.word_memory, example)
        assert np.shares_memory(prep.regions, example.features.tensor)
        np.testing.assert_array_equal(prep.regions, example.features.tensor.transpose(0, 2, 3, 1)
                                      .reshape(prep.regions.shape))
        assert not prep.regions.flags.writeable
