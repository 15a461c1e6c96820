"""Seeded random small-instance generator shared by the oracle-equivalence
and gradient-check suites, and `prepare`, the per-item preparation oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lmn.answering import QAItem
from lmn.frame_encoder import ClipFeatures
from lmn.subtitle_memory import build_memory
from lmn.training import Chunk, ModelConfig, ModelParams, Prepared, gradcheck, run_forward
from lmn.word_memory import StaticWordMemory, embed_sentence

_SPATIAL = [(1, 1), (1, 2), (1, 3), (2, 2), (1, 5), (2, 3)]


@dataclass
class Instance:
    mem: StaticWordMemory
    weights: np.ndarray
    item: QAItem
    features: ClipFeatures
    sub: np.ndarray | None
    config: ModelConfig
    prep: Prepared


def prepare(
    mem: StaticWordMemory,
    item: QAItem,
    features: ClipFeatures,
    sub: np.ndarray | None,
) -> Prepared:
    """One item prepared on its own: its question and answers embedded in
    one call, and the subtitle rows `sub` as they are."""
    text = embed_sentence(mem, (item.question, *item.answers))
    return Prepared(
        qid=item.qid,
        regions=features.regions(),
        question=text[0],
        answer_mat=text[1:],
        subtitle_mat=sub,
        label=item.correct_index,
    )


def _words(rng: np.random.Generator, count: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    words: list[str] = []
    seen = set()
    while len(words) < count:
        w = "".join(letters[i] for i in rng.integers(0, 26, size=4))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _sentence(rng: np.random.Generator, words: list[str], max_len: int = 3) -> str:
    k = int(rng.integers(1, max_len + 1))
    picks = rng.choice(len(words), size=k, replace=True)
    return " ".join(words[i] for i in picks)


def make_instance(
    seed: int,
    swm_hops: int = 1,
    um_hops: int = 1,
    qg: bool = False,
    video_only: bool = False,
    avoid_kinks: bool = False,
) -> Instance:
    """Random small instance; with `avoid_kinks` the seed is advanced until
    every ReLU gate pre-activation and region norm is comfortably nonzero,
    some gate-kept subtitle row remains, the answer softmax is not
    saturated and some direction's derivative clears `gradcheck`'s floor,
    so that the loss has a gradient a difference quotient can measure."""
    for attempt in range(64):
        rng = np.random.default_rng(seed + 7919 * attempt)
        v_size = int(rng.integers(3, 11))
        d = int(rng.integers(2, 7))
        t = int(rng.integers(1, 5))
        h, w = _SPATIAL[int(rng.integers(0, len(_SPATIAL)))]
        c = int(rng.integers(2, 9))
        n_subs = int(rng.integers(1, 7))

        words = _words(rng, v_size)
        mem = StaticWordMemory(words, rng.normal(size=(v_size, d)))
        config = ModelConfig(swm_hops=swm_hops, um_hops=um_hops, qg=qg)
        item = QAItem(
            qid=f"inst{seed}",
            question=_sentence(rng, words, 2),
            answers=tuple(_sentence(rng, words, 2) for _ in range(5)),
            movie_id="m",
            clip_ids=("c0",),
            correct_index=int(rng.integers(0, 5)),
        )
        features = ClipFeatures(rng.normal(size=(t, c, h, w)))
        weights = 0.5 * rng.normal(size=(d, c))
        sub = None
        if not video_only:
            sentences = [_sentence(rng, words) for _ in range(n_subs)]
            sub = build_memory(sentences, mem)

        inst = Instance(mem, weights, item, features, sub, config,
                        prepare(mem, item, features, sub))
        if not avoid_kinks or _well_conditioned(inst):
            return inst
    raise RuntimeError(f"could not build a kink-free instance from seed {seed}")


def _well_conditioned(inst: Instance) -> bool:
    weights, prep, config, mem = inst.weights, inst.prep, inst.config, inst.mem
    state = run_forward(weights, Chunk.of([prep]), config, mem)
    for hop in state.frame_cache.hop_caches:
        if np.min(np.abs(hop.norms)) < 1e-3:
            return False
    if state.clip_cache is not None:
        for pre in state.clip_cache.pre:
            if np.min(np.abs(pre)) < 1e-6 or not np.any(pre > 0):  # a kink, or every row gated off
                return False
    # keep the softmax well away from saturation; the loss floor is the bench gate's
    if np.max(np.abs(state.dist.logits)) > 30 or state.losses[0] < 1e-2:
        return False
    # deep gate chains can leave every directional derivative under the floor
    try:
        gradcheck(ModelParams(weights, config), mem, inst.item, inst.features, inst.sub)
    except ValueError as exc:
        if not str(exc).startswith(f"question {inst.item.qid}: no direction reaches 1e5 times "
                                   f"the finite-difference floor"):
            raise
        return False
    return True


def config_sweep() -> list[dict]:
    """Every pipeline mode: three word-memory depths crossed with video-only
    and the six subtitle modes."""
    combos = []
    for swm in (1, 2, 3):
        combos.append(dict(swm_hops=swm, video_only=True))
        for um in (1, 2, 3):
            for qg in (False, True):
                combos.append(dict(swm_hops=swm, um_hops=um, qg=qg))
    return combos
