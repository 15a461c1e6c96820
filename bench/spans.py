"""Span recorder for the traced benchmark run.

`Tracer` replaces each traced entry point with a wrapper on the module whose
code calls it (for example `lmn.training.encode_frames_cached`, which is how
`run_forward` reaches the frame encoder), so the library itself is not
edited. Spans are kept in memory as (name, start, end, parent) and written
out when the run ends; every wrapped attribute is restored on exit, even
when the traced work raises. Only the single benchmark thread is traced
(the workloads pin LMN_THREADS=1).

`layer_metrics` turns the spans into the per-layer metrics of BENCHMARK.json:
counts, total and self time (a span's duration minus the part its direct
children cover), per-call latency as a median plus the highest percentile
with at least ten samples beyond it, and computed flop and bytes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# (module whose code makes the call, attribute, span name)
ENTRY_POINTS = (
    ("lmn.word_memory", "load_word2vec_text", "word_memory.load"),
    ("lmn.training", "embed_sentence", "word_memory.embed_sentence"),
    ("lmn.subtitle_memory", "embed_sentence", "word_memory.embed_sentence"),
    ("lmn.data_io", "load_qa_jsonl", "data_io.load_qa_jsonl"),
    ("lmn.data_io", "load_features", "data_io.load_features"),
    ("lmn.data_io", "parse_srt", "data_io.parse_srt"),
    ("lmn.data_io", "load_plaintext_subtitles", "data_io.load_plaintext_subtitles"),
    ("lmn.data_io", "save_params", "data_io.save_params"),
    ("lmn.training", "train", "training.train"),
    ("lmn.training", "evaluate", "training.evaluate"),
    ("lmn.training", "prepare_example", "training.prepare"),
    ("lmn.training", "run_forward", "training.forward"),
    ("lmn.training", "run_backward", "training.backward"),
    ("lmn.training", "sgd_step", "training.sgd_step"),
    ("lmn.training", "build_memory", "subtitle_memory.build"),
    ("lmn.training", "encode_frames_cached", "frame_encoder.forward"),
    ("lmn.training", "encode_frames_backward", "frame_encoder.backward"),
    ("lmn.training", "encode_clip_cached", "subtitle_memory.forward"),
    ("lmn.training", "encode_clip_backward", "subtitle_memory.backward"),
    ("lmn.training", "score_answers", "answering.score"),
)


class Tracer:
    """Context manager that records a span around every call to the
    ENTRY_POINTS plus a few per-call facts (shapes, sizes, logits)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.facts: dict[str, list] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # entry point gone: its layer reports zero calls
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name):
        spans, stack, note = self.spans, self._stack, self._note

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            note(name, args, result)
            return result

        return traced

    def _note(self, name, args, result):
        if name == "frame_encoder.forward" and len(args) == 4:  # (regions, weights, mem, hops)
            regions, _, mem, hops = args
            self.facts.setdefault(name, []).append((*regions.shape, mem.size, mem.dim, hops))
        elif name == "frame_encoder.backward" and len(args) == 3:  # (dframes, cache, mem)
            cache, mem = args[1], args[2]
            self.facts.setdefault(name, []).append(
                (*cache.regions.shape, mem.size, mem.dim, len(cache.hop_caches)))
        elif name == "data_io.load_features":
            self.facts.setdefault(name, []).append(result.tensor.size * 4)
        elif name == "word_memory.load":
            self.facts.setdefault(name, []).append(result.size)
        elif name == "subtitle_memory.build":
            self.facts.setdefault(name, []).append(result.movie_id)
        elif name == "answering.score":
            self.facts.setdefault(name, []).append(float(np.max(np.abs(result.logits))))

    def write(self, path: str) -> None:
        """One JSON line per span; `root` is the top-level call it belongs
        to (a parent always precedes its children)."""
        roots: list[int] = []
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                roots.append(idx if parent < 0 else roots[parent])
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "root": roots[idx]}) + "\n")


def percentiles(samples) -> tuple[float, float, float]:
    """(median, tail, tail percentile): the tail is the highest percentile
    with at least ten samples beyond it, or the median below 20 samples."""
    if not len(samples):
        return 0.0, 0.0, 0.0
    values = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(values)
    median = float(np.median(values))
    if n < 20:
        return median, median, 50.0
    pct = float(np.floor(100.0 * (n - 10) / n))
    return median, float(np.percentile(values, pct)), pct


def _gram_path(vocab: int) -> bool:
    from lmn import word_memory

    threshold = getattr(word_memory, "GRAM_MIN_VOCAB", None)
    return threshold is None or vocab > threshold


def _attend_flop(rows: int, vocab: int, dim: int) -> int:
    """One word-memory attention over `rows` vectors as the parent code runs
    it: the cached d x d Gram product for large vocabularies, else the two
    |V| x d products."""
    return 2 * rows * dim * dim if _gram_path(vocab) else 4 * rows * vocab * dim


def frame_forward_flop(t, r, c, vocab, dim, hops) -> int:
    rows = t * r
    return 2 * rows * c * dim + hops * (_attend_flop(rows, vocab, dim) + 3 * rows * dim) + rows * dim


def frame_backward_flop(t, r, c, vocab, dim, hops) -> int:
    rows = t * r
    return hops * (_attend_flop(rows, vocab, dim) + 6 * rows * dim) + 2 * rows * dim * c


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics, as {name: (value, unit)}, from one traced run, and
    the percentile each `*.ms_tail` metric stands for."""
    spans = tracer.spans
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for idx, (name, start, end, _) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[idx]

    def total(name):
        return float(sum(durations.get(name, ())))

    def calls(name):
        return float(len(durations.get(name, ())))

    m: dict[str, tuple[float, str]] = {}
    tail_pcts: dict[str, float] = {}
    load_s = total("word_memory.load")
    rows = sum(tracer.facts.get("word_memory.load", ()))
    m["word_memory.load_s"] = (load_s, "s")
    m["word_memory.load_rows_per_s"] = (rows / load_s if load_s else 0.0, "rows/s")
    m["word_memory.embed_sentence.calls"] = (calls("word_memory.embed_sentence"), "count")
    m["word_memory.embed_sentence.self_s"] = (self_time.get("word_memory.embed_sentence", 0.0), "s")

    feat_s = total("data_io.load_features")
    feat_mb = sum(tracer.facts.get("data_io.load_features", ())) / 1e6
    m["data_io.load_features.s"] = (feat_s, "s")
    m["data_io.load_features.mb_per_s"] = (feat_mb / feat_s if feat_s else 0.0, "MB/s")
    m["data_io.parse_srt.s"] = (total("data_io.parse_srt"), "s")
    m["data_io.load_qa_jsonl.s"] = (total("data_io.load_qa_jsonl"), "s")

    for layer, flop_fn in (("forward", frame_forward_flop), ("backward", frame_backward_flop)):
        name = f"frame_encoder.{layer}"
        p50, tail, pct = percentiles(durations.get(name, ()))
        gflop = sum(flop_fn(*shape) for shape in tracer.facts.get(name, ())) / 1e9
        busy = total(name)
        m[f"{name}.ms_p50"] = (1e3 * p50, "ms")
        m[f"{name}.ms_tail"] = (1e3 * tail, "ms")
        tail_pcts[f"{name}.ms_tail"] = pct
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.gflop"] = (gflop, "GFLOP")
        m[f"{name}.gflops"] = (gflop / busy if busy else 0.0, "GFLOP/s")

    builds = tracer.facts.get("subtitle_memory.build", [])
    m["subtitle_memory.build.calls"] = (float(len(builds)), "count")
    m["subtitle_memory.build.s"] = (total("subtitle_memory.build"), "s")
    m["subtitle_memory.build.hit_ratio"] = (len(set(builds)) / len(builds) if builds else 0.0, "ratio")
    for layer in ("forward", "backward"):
        name = f"subtitle_memory.{layer}"
        m[f"{name}.ms_p50"] = (1e3 * percentiles(durations.get(name, ()))[0], "ms")

    m["answering.score.calls"] = (calls("answering.score"), "count")
    m["answering.score.self_s"] = (self_time.get("answering.score", 0.0), "s")
    m["answering.max_abs_logit"] = (max(tracer.facts.get("answering.score", [0.0])), "logit")

    m["training.prepare.s"] = (total("training.prepare"), "s")
    m["training.forward.self_s"] = (self_time.get("training.forward", 0.0), "s")
    m["training.backward.self_s"] = (self_time.get("training.backward", 0.0), "s")
    steps = step_durations(spans)
    p50, tail, pct = percentiles(steps)
    m["training.step.ms_p50"] = (1e3 * p50, "ms")
    m["training.step.ms_tail"] = (1e3 * tail, "ms")
    m["training.step.calls"] = (float(len(steps)), "count")
    tail_pcts["training.step.ms_tail"] = pct
    m["training.sgd_step.s"] = (total("training.sgd_step"), "s")
    return m, tail_pcts


def step_durations(spans) -> list[float]:
    """One minibatch each: from the forward that opens the batch's first
    gradient (the first forward followed by a backward since the last
    sgd_step, so dev-accuracy forwards are skipped) to the end of its
    sgd_step."""
    steps = []
    step_start = None
    forward_start = None
    for name, start, end, _ in spans:
        if name == "training.forward":
            forward_start = start
        elif name == "training.backward" and step_start is None:
            step_start = forward_start
        elif name == "training.sgd_step" and step_start is not None:
            steps.append(end - step_start)
            step_start = None
    return steps
