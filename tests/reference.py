"""Straight-loop reference implementation of the full answer pipeline.

Deliberately independent of the package internals: plain Python floats,
explicit loops, and math.fsum for the reductions. Used to cross-check the
vectorized forward path on small instances.
"""

from __future__ import annotations

import math


def _dot(a, b):
    return math.fsum(x * y for x, y in zip(a, b))


def _norm(a):
    return math.sqrt(math.fsum(x * x for x in a))


def _unit(a):
    n = _norm(a)
    if n == 0.0:
        return [0.0] * len(a)
    return [x / n for x in a]


def _softmax(logits):
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    total = math.fsum(exps)
    return [e / total for e in exps], m + math.log(total)


def reference_forward(
    word_rows,
    projection,
    regions,
    subtitle_rows,
    question,
    answer_rows,
    label=None,
    swm_hops=1,
    um_hops=1,
    qg=False,
    carry_frames=False,
    average_clip=False,
):
    """Evaluate the pipeline with scalar loops.

    word_rows: V x d, projection: d x C, regions: T x R x C,
    subtitle_rows: N x d or None (video-only), question: d,
    answer_rows: 5 x d. Returns frames, clip vector, logits, probs, loss.
    """
    word_rows = [list(map(float, w)) for w in word_rows]
    projection = [list(map(float, r)) for r in projection]
    question = list(map(float, question))
    answer_rows = [list(map(float, g)) for g in answer_rows]
    d = len(projection)
    unit_words = [_unit(w) for w in word_rows]

    frames = []
    for frame in regions:
        total = [0.0] * d
        for region in frame:
            region = list(map(float, region))
            x = [_dot(projection[a], region) for a in range(d)]
            for _ in range(swm_hops):
                xh = _unit(x)
                weights = [_dot(xh, w) for w in unit_words]
                x = [
                    math.fsum(weights[k] * unit_words[k][a] for k in range(len(unit_words)))
                    for a in range(d)
                ]
            total = [t + xa for t, xa in zip(total, x)]
        frames.append(total)
    t_count = len(frames)

    if subtitle_rows is None:
        clip = [math.fsum(frames[i][a] for i in range(t_count)) for a in range(d)]
    else:
        clip, _ = reference_encode_clip(frames, subtitle_rows, question, um_hops, qg, carry_frames)

    if average_clip:
        clip = [x / t_count for x in clip]
    combined = [x + q for x, q in zip(clip, question)]
    logits = [_dot(g, combined) for g in answer_rows]
    probs, logsum = _softmax(logits)
    loss = None if label is None else logsum - logits[label]
    return {
        "frames": frames,
        "clip": clip,
        "logits": logits,
        "probs": probs,
        "loss": loss,
    }


def _attend(current, memory):
    """Each frame reattended through the memory, and their sum."""
    d = len(memory[0])
    per_frame = []
    for frame in current:
        scores = [_dot(frame, s) for s in memory]
        per_frame.append(
            [math.fsum(scores[n] * memory[n][a] for n in range(len(memory))) for a in range(d)]
        )
    return per_frame, [math.fsum(f[a] for f in per_frame) for a in range(d)]


def reference_encode_clip(frames, subtitle_rows, question=None, um_hops=1, qg=False,
                          carry_frames=False):
    """The subtitle layer with scalar loops: T frame vectors attend over the
    N x d subtitle rows for `um_hops` passes with update gates between them,
    then once more over question-weighted rows when `qg`. Returns the clip
    vector and the final memory rows, as lists."""
    frames = [list(map(float, f)) for f in frames]
    memory = [list(map(float, s)) for s in subtitle_rows]
    current = frames
    for hop in range(um_hops):
        per_frame, clip = _attend(current, memory)
        if hop < um_hops - 1:
            gates = [max(_dot(clip, s), 0.0) for s in memory]
            memory = [[g * x for x in s] for g, s in zip(gates, memory)]
            current = per_frame if carry_frames else frames
    if qg:
        question = list(map(float, question))
        qweights, _ = _softmax([_dot(question, s) for s in memory])
        memory = [[w * x for x in s] for w, s in zip(qweights, memory)]
        current = per_frame if carry_frames else frames
        _, clip = _attend(current, memory)
    return clip, memory
