"""Seeded on-disk inputs for the benchmark, cached by shape and seed.

    python3 bench/inputs.py --shape movieqa --seed 3 --out .bench_cache/movieqa-seed3

Every input set is lmn's planted-signal dataset (`generate_synthetic`) written
in the layout the `lmn` CLI reads. The desk shape is written exactly as
`lmn synth` writes it (`write_synthetic`: one movie per question, plaintext
subtitles). The MovieQA shape groups several questions per movie, as MovieQA
does (about 37 per movie there), and writes each movie's subtitles as SubRip
(`srt_dumps`); every grouped question keeps its planted subtitle inside its
movie's file, so the planted signal survives the grouping. It also writes
`reference.lmnp`, the planted left inverse of the generator's hidden map, in
the LMNP format `lmn train` writes: at this shape a projection trained from a
random start stays at chance (ROADMAP open item 4), so held-out accuracy is
measured with the reference projection and stays a steady correctness
tripwire for the forward layers.

Generation is untimed. A finished set carries a MANIFEST.json with the
sha256 of every file; `ensure` re-hashes the set on each use and regenerates
it on any mismatch, so repeated runs of one seed read byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

MANIFEST = "MANIFEST.json"
KEEP_SETS = 10  # cached input sets kept per cache directory; the oldest go first

# Generator settings per shape. `questions_per_movie` > 1 regroups questions
# into shared movies with SubRip subtitles; `heldout_movies` sets how many
# leading eval movies form the small held-out split of the train workloads.
SHAPES = {
    # the desk SyntheticSpec() with a larger eval split, which steadies eval_acc
    "desk": dict(spec=dict(n_eval=1000), questions_per_movie=1, heldout_movies=None),
    "movieqa": dict(
        spec=dict(vocab_size=20000, dim=300, channels=512, frames=32, height=7, width=7,
                  n_subtitles=1000, n_train=16, n_eval=32),
        questions_per_movie=4, heldout_movies=2,
    ),
    # stand-in that runs the MovieQA code paths in seconds (smoke test)
    "tiny-movieqa": dict(
        spec=dict(vocab_size=200, dim=16, channels=20, frames=3, height=2, width=2,
                  n_subtitles=12, n_train=10, n_eval=8),
        questions_per_movie=2, heldout_movies=2,
    ),
}
# shapes the smoke test runs in place of each workload shape; the desk shape
# is already small enough
SMOKE_SHAPES = {"desk": "desk", "movieqa": "tiny-movieqa"}


def planted_sentence(item) -> str:
    """The subtitle `generate_synthetic` plants for an item."""
    answer = item.answers[item.correct_index]
    return f"{answer} {answer} {answer} {item.question} {item.question}"


def _group_movies(data, split: str, per_movie: int, rng) -> None:
    """Give each run of `per_movie` consecutive questions one movie whose
    subtitle list is the first question's, with the other questions' planted
    subtitles written over distinct distractor rows."""
    items = getattr(data, f"{split}_items")
    subtitles = {}
    for lo in range(0, len(items), per_movie):
        group = items[lo:lo + per_movie]
        movie = f"{split}_movie{lo // per_movie:03d}"
        sentences = list(data.subtitles.pop(group[0].movie_id))
        taken = sentences.index(planted_sentence(group[0]))
        free = [n for n in range(len(sentences)) if n != taken]
        slots = rng.choice(free, size=len(group) - 1, replace=False)
        for slot, item in zip(slots, group[1:]):
            del data.subtitles[item.movie_id]
            sentences[int(slot)] = planted_sentence(item)
        subtitles[movie] = sentences
        for k, item in enumerate(group):
            items[lo + k] = dataclasses.replace(item, movie_id=movie)
    data.subtitles.update(subtitles)


def generate(shape: str, seed: int, out: str) -> None:
    import numpy as np
    from lmn import data_io

    settings = SHAPES[shape]
    spec = data_io.SyntheticSpec(seed=seed, **settings["spec"])
    data = data_io.generate_synthetic(spec)
    per_movie = settings["questions_per_movie"]
    if per_movie > 1:
        rng = np.random.default_rng(seed)
        for split in ("train", "eval"):
            _group_movies(data, split, per_movie, rng)
    paths = data_io.write_synthetic(data, out)
    if per_movie > 1:
        for movie, sentences in data.subtitles.items():
            entries = tuple(
                data_io.SubtitleEntry(2000 * n, 2000 * n + 1500, text)
                for n, text in enumerate(sentences)
            )
            srt = data_io.srt_dumps(data_io.SubtitleFile(entries))
            data_io.atomic_write_bytes(
                os.path.join(paths["subtitles"], movie + ".srt"), srt.encode("utf-8"))
            os.remove(os.path.join(paths["subtitles"], movie + ".txt"))
        data_io.save_params(np.linalg.pinv(data.hidden_map), os.path.join(out, "reference.lmnp"))
    if settings["heldout_movies"]:
        n = settings["heldout_movies"] * per_movie
        data_io.save_qa_jsonl(data.eval_items[:n], os.path.join(out, "heldout.jsonl"))


def digest_tree(root: str) -> dict[str, str]:
    """sha256 of every file under `root` except the manifest, keyed by
    relative path."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel == MANIFEST:
                continue
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            files[rel] = h.hexdigest()
    return files


def set_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(f"{rel}\0{files[rel]}\n".encode())
    return h.hexdigest()


def _verified(path: str, shape: str, seed: int) -> str | None:
    """The set's sha256 when `path` holds a complete, unmodified set."""
    try:
        with open(os.path.join(path, MANIFEST), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return None
    if manifest.get("shape") != shape or manifest.get("seed") != seed:
        return None
    if digest_tree(path) != manifest.get("files"):
        return None
    return manifest.get("sha256")


def _evict(cache_dir: str, keep: str) -> None:
    sets = []
    for name in os.listdir(cache_dir):
        path = os.path.join(cache_dir, name)
        if path != keep and os.path.isdir(path):
            sets.append((os.path.getmtime(path), path))
    sets.sort()
    for _, path in sets[: max(0, len(sets) - (KEEP_SETS - 1))]:
        shutil.rmtree(path, ignore_errors=True)


def ensure(cache_dir: str, shape: str, seed: int, src_dir: str) -> tuple[str, str]:
    """Path and sha256 of the input set for (shape, seed), generating it in a
    child process on a cache miss so the generator's memory never counts
    toward the workload's peak RSS."""
    path = os.path.join(cache_dir, f"{shape}-seed{seed}")
    sha = _verified(path, shape, seed)
    if sha is None:
        os.makedirs(cache_dir, exist_ok=True)
        shutil.rmtree(path, ignore_errors=True)
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=src_dir)
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--shape", shape,
             "--seed", str(seed), "--out", tmp],
            check=True, env=env, timeout=600,
        )
        os.replace(tmp, path)
        sha = _verified(path, shape, seed)
        if sha is None:
            raise RuntimeError(f"input set {path} failed verification right after generation")
    os.utime(path)
    _evict(cache_dir, keep=path)
    return path, sha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one seeded benchmark input set")
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    generate(args.shape, args.seed, args.out)
    files = digest_tree(args.out)
    manifest = {"shape": args.shape, "seed": args.seed, "sha256": set_digest(files),
                "spec": SHAPES[args.shape], "files": files}
    with open(os.path.join(args.out, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
