import math

import numpy as np
import pytest

from lmn.answering import (
    AnswerDistribution,
    QAItem,
    cross_entropy,
    predict,
    score_answers,
)

LN5 = 1.6094379124341003


def dist_from_logits(logits):
    logits = np.asarray(logits, dtype=float)
    shifted = np.exp(logits - logits.max())
    return AnswerDistribution(shifted / shifted.sum(), logits)


class TestScoreAnswers:
    def test_identical_answers_give_uniform(self):
        rng = np.random.default_rng(3)
        v, u = rng.normal(size=4), rng.normal(size=4)
        g = np.tile(rng.normal(size=4), (5, 1))
        dist = score_answers(v, u, g)
        np.testing.assert_allclose(dist.probs, np.full(5, 0.2), atol=1e-12)

    def test_orthonormal_one_hot(self):
        # logits (1,0,0,0,0): winning probability is e/(e+4)
        g = np.eye(5)
        v = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        dist = score_answers(v, np.zeros(5), g)
        np.testing.assert_allclose(dist.logits, [1, 0, 0, 0, 0], atol=1e-15)
        assert abs(dist.probs[0] - 0.40460967519168967) <= 1e-15

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        v, u = rng.normal(size=6), rng.normal(size=6)
        g = rng.normal(size=(5, 6))
        dist = score_answers(v, u, g)
        logits = [math.fsum(g[h][a] * (v[a] + u[a]) for a in range(6)) for h in range(5)]
        mx = max(logits)
        exps = [math.exp(z - mx) for z in logits]
        total = math.fsum(exps)
        np.testing.assert_allclose(dist.logits, logits, atol=1e-12)
        np.testing.assert_allclose(dist.probs, [e / total for e in exps], atol=1e-12)

    def test_probs_on_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dist = score_answers(
                rng.normal(size=3) * 5, rng.normal(size=3), rng.normal(size=(5, 3))
            )
            assert abs(dist.probs.sum() - 1.0) <= 1e-12
            assert np.all(dist.probs >= 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=5) * 3
        base = dist_from_logits(logits)
        for c in (-100.0, -1.0, 0.5, 42.0):
            shifted = dist_from_logits(logits + c)
            np.testing.assert_allclose(shifted.probs, base.probs, atol=1e-12)
            assert predict(shifted) == predict(base)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            score_answers(np.zeros(3), np.zeros(3), np.zeros((4, 3)))


class TestCrossEntropy:
    def test_uniform_is_ln5(self):
        dist = dist_from_logits(np.zeros(5))
        for correct in range(5):
            assert abs(cross_entropy(dist, correct) - LN5) <= 1e-12

    def test_confident_correct_tends_to_zero(self):
        dist = dist_from_logits([50.0, 0.0, 0.0, 0.0, 0.0])
        assert cross_entropy(dist, 0) <= 1e-12

    def test_frozen_scalar_oracle(self):
        # logits (2,0,0,0,0), correct 0: loss = ln(e^2 + 4) - 2
        dist = dist_from_logits([2.0, 0.0, 0.0, 0.0, 0.0])
        assert abs(cross_entropy(dist, 0) - 0.43265290299179143) <= 1e-12

    def test_nonnegative_and_ln5_only_when_uniform(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            logits = rng.normal(size=5) * rng.uniform(0.1, 4.0)
            dist = dist_from_logits(logits)
            loss = cross_entropy(dist, int(rng.integers(5)))
            assert loss >= 0.0
            if abs(loss - LN5) <= 1e-12:
                assert np.allclose(logits, logits[0], atol=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(dist_from_logits(np.zeros(5)), 5)


class TestPredict:
    def test_argmax(self):
        assert predict(dist_from_logits([0, 3, 1, 1, 1])) == 1

    def test_tie_break_lowest_index(self):
        assert predict(dist_from_logits([2.0, 2.0, 2.0, 2.0, 2.0])) == 0

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            logits = rng.normal(size=5)
            best, best_z = 0, logits[0]
            for h in range(1, 5):
                if logits[h] > best_z:
                    best, best_z = h, logits[h]
            assert predict(dist_from_logits(logits)) == best

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            logits = rng.normal(size=5)
            base = predict(dist_from_logits(logits))
            slope, shift = rng.uniform(0.1, 5.0), rng.normal()
            assert predict(dist_from_logits(slope * logits + shift)) == base


class TestQAItem:
    def test_requires_five_answers(self):
        with pytest.raises(ValueError, match="5 answers"):
            QAItem("q", "?", ("a",) * 4, "m", ("c",))

    def test_correct_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            QAItem("q", "?", ("a",) * 5, "m", ("c",), correct_index=5)

    @pytest.mark.parametrize("label", [True, False, 2.0])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(ValueError, match="correct_index must be an integer"):
            QAItem("q", "?", ("a",) * 5, "m", ("c",), correct_index=label)

    def test_test_mode_item(self):
        item = QAItem("q", "?", ("a", "b", "c", "d", "e"), "m", ("c",))
        assert item.correct_index is None
