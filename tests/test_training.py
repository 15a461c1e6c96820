import dataclasses
import json
import math

import numpy as np
import pytest

import lmn.training
from instances import config_sweep, make_instance
from lmn.answering import QAItem, predict
from lmn.data_io import Example, SyntheticSpec, generate_synthetic
from lmn.frame_encoder import ClipFeatures
from lmn.subtitle_memory import build_memory
from lmn.training import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    backward,
    evaluate,
    forward,
    gradcheck,
    init_params,
    prepare,
    prepare_example,
    run_forward,
    sgd_step,
    train,
)
from lmn.word_memory import StaticWordMemory
from reference import reference_forward

LN5 = 1.6094379124341003


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
        carry_frames=inst.config.um_carry_frames,
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

    def test_average_clip_divides_by_frame_count(self):
        inst = make_instance(seed=303)
        from lmn.training import run_forward

        cfg_on = ModelConfig(average_clip=True)
        cfg_off = ModelConfig(average_clip=False)
        t = inst.features.frames
        on = run_forward(inst.weights, inst.prep, cfg_on, inst.mem)
        off = run_forward(inst.weights, inst.prep, cfg_off, inst.mem)
        np.testing.assert_allclose(on.clip_vector, off.clip_vector / t, atol=1e-15)


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
                err = gradcheck(as_params(inst), inst.mem, inst.item, inst.features,
                                inst.sub, step=1e-5)
                assert err <= 1e-4, f"combo {combo} seed rep {rep}: rel error {err}"
                checked += 1
        assert checked == 20

    @pytest.mark.parametrize("um_hops, qg", [(1, True), (2, False), (2, True), (3, False), (3, True)])
    def test_carry_frames_variant(self, um_hops, qg):
        inst = make_instance(seed=555, um_hops=um_hops, qg=qg, carry_frames=True, avoid_kinks=True)
        err = gradcheck(as_params(inst), inst.mem, inst.item, inst.features, inst.sub, step=1e-5)
        assert err <= 1e-4

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

    def test_large_step_is_diagnostic_only(self):
        inst = make_instance(seed=99, avoid_kinks=True)
        err = gradcheck(as_params(inst), inst.mem, inst.item, inst.features, inst.sub, step=1e-1)
        assert math.isfinite(err)

    def test_entry_subsampling_for_large_shapes(self):
        spec = SyntheticSpec(n_train=1, n_eval=1, seed=77)
        data = generate_synthetic(spec)
        example = data.examples("train")[0]
        sub = build_memory(example.subtitles, data.word_memory)
        params = init_params(spec.dim, spec.channels, seed=77)
        # 16x24 weights exceed the cap, so a seeded 60-entry subset is checked
        err = gradcheck(params, data.word_memory, example.item, example.features, sub,
                        step=1e-5, max_entries=60)
        assert err <= 1e-4

    def test_rejects_bad_step(self):
        inst = make_instance(seed=102)
        with pytest.raises(ValueError, match="step"):
            gradcheck(as_params(inst), inst.mem, inst.item, inst.features, inst.sub, step=0.0)


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


@pytest.fixture(scope="module")
def small_synthetic():
    spec = SyntheticSpec(vocab_size=20, dim=6, channels=8, frames=2, height=2, width=2,
                         n_subtitles=3, n_train=30, n_eval=10, seed=5)
    return generate_synthetic(spec)


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


def count_builds(monkeypatch):
    """Record the (movie_id, sentences) of every `training.build_memory` call."""
    calls = []
    original = lmn.training.build_memory

    def recording(sentences, mem, normalize=True, movie_id=""):
        calls.append((movie_id, tuple(sentences)))
        return original(sentences, mem, normalize=normalize, movie_id=movie_id)

    monkeypatch.setattr(lmn.training, "build_memory", recording)
    return calls


def per_item_prepared(mem, dataset, config):
    """Reference preparation: every item builds its own subtitle memory."""
    for ex in dataset:
        sub = None if ex.subtitles is None else build_memory(
            ex.subtitles, mem, normalize=config.normalize_sentences)
        yield prepare(mem, ex.item, ex.features, sub, config)


class TestSubtitleMemoryCache:
    CONFIG = ModelConfig(um_hops=2, qg=True)

    def test_evaluate_builds_once_per_movie(self, small_synthetic, monkeypatch):
        dataset = shared_movies(small_synthetic)
        calls = count_builds(monkeypatch)
        evaluate(init_params(6, 8, self.CONFIG, seed=2), small_synthetic.word_memory, dataset)
        expected = {(ex.item.movie_id, ex.subtitles) for ex in dataset if ex.subtitles}
        assert len(calls) == 3
        assert set(calls) == expected

    def test_train_builds_once_per_movie(self, small_synthetic, monkeypatch):
        dataset = shared_movies(small_synthetic)
        calls = count_builds(monkeypatch)
        train(dataset, small_synthetic.word_memory, TrainConfig(max_epochs=1, seed=2),
              init_params(6, 8, self.CONFIG, seed=2))
        assert len(calls) == 3
        assert len(set(calls)) == 3

    def test_evaluate_matches_per_item_loop(self, small_synthetic):
        dataset = shared_movies(small_synthetic)
        mem = small_synthetic.word_memory
        params = init_params(6, 8, self.CONFIG, seed=8)
        _, records = evaluate(params, mem, dataset)
        expected = []
        for ex, prep in zip(dataset, per_item_prepared(mem, dataset, self.CONFIG)):
            dist = run_forward(params.weights, prep, self.CONFIG, mem).dist
            choice = predict(dist)
            expected.append({"qid": ex.item.qid, "predicted": choice,
                             "prob": float(dist.probs[choice]),
                             "correct_index": ex.item.correct_index,
                             "correct": choice == ex.item.correct_index})
        assert json.dumps(records) == json.dumps(expected)

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
        calls = count_builds(monkeypatch)
        preps = list(lmn.training._prepared(mem, dataset, self.CONFIG))
        assert len(calls) == 2
        assert not np.array_equal(preps[0].subtitle_mat, preps[1].subtitle_mat)
        assert preps[2].subtitle_mat is preps[0].subtitle_mat
        for ex, prep in zip(dataset, preps):
            np.testing.assert_array_equal(prep.subtitle_mat,
                                          build_memory(ex.subtitles, mem).matrix)


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
        prep = prepare_example(small_synthetic.word_memory, example, ModelConfig())
        assert np.shares_memory(prep.regions, example.features.tensor)
        np.testing.assert_array_equal(prep.regions, example.features.tensor.transpose(0, 2, 3, 1)
                                      .reshape(prep.regions.shape))
        assert not prep.regions.flags.writeable
