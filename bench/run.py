"""lmn benchmark: seeded inputs, three closed-loop workloads, checked outputs.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src. One
single-threaded client process (OPENBLAS_NUM_THREADS=1, LMN_THREADS=1,
pinned to one CPU) drives the workload in a closed loop: each pass is one
`lmn train` + `lmn eval` (or a lone `lmn eval`) worth of library calls, and
passes repeat until --seconds have elapsed, with at least MIN_PASSES of
them. Timings are medians over passes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 makes
an untraced, a traced and another untraced pass and prints the per-layer
metrics; the traced pass's wall time minus the untraced passes' mean is the
tracing overhead. Both modes check the outputs (workloads.gates, plus every
pass producing identical params and eval records) and print, before the
final JSON line, a readable report and a record of the environment.
Generated inputs are cached in .bench_cache/; outputs, records and spans go
to .bench_out/. Exit status 1 means a check failed, 2 that the checkout has
no lmn source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "LMN_THREADS": "1"}
WORKLOAD_NAMES = ("desk-train", "movieqa-train", "movieqa-eval")
MIN_PASSES = 4
CACHE_DIR = ".bench_cache"
OUT_DIR = ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run the same code paths on tiny inputs (smoke test)")
    return p.parse_args(argv)


def git_sha(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_sha(src: str) -> str:
    """sha256 over src/lmn/*.py, which identifies the program without git."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "lmn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment(root, src, args, shape, spec, input_sha, nproc, cpu):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = "unavailable"
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": shape,
        "spec": spec,
        "input_sha256": input_sha,
    }


def timed_passes(w, input_root, frames, out_dir, seconds):
    import workloads

    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(workloads.run_pass(w, input_root, frames, out_dir))
    return passes


def _rate(passes, times, count, phase) -> float:
    """Median over passes of count per phase second; 0 when a phase failed."""
    rates = [getattr(p, count) / t[phase] for p, t in zip(passes, times) if t[phase]]
    return statistics.median(rates) if len(rates) == len(passes) else 0.0


def end_to_end(w, passes, times) -> dict[str, tuple[float, str]]:
    """The BENCHMARK.json end-to-end metrics, from reference-speed times.
    `items_per_s` is the rate of the workload's main phase: training items
    on the train workloads (train_items_per_s), questions on movieqa-eval
    (eval_q_per_s)."""
    med = statistics.median
    if w.train_qa:
        items = _rate(passes, times, "train_items", "train_s")
    else:
        items = _rate(passes, times, "questions", "eval_s")
    return {
        "setup_s": (med(t["setup_s"] for t in times), "s"),
        "items_per_s": (items, "items/s"),
        "eval_acc": (passes[-1].accuracy, "fraction"),
        "wall_s": (med(t["wall_s"] for t in times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_passes(w, input_root, frames, out_dir):
    import spans
    import workloads

    before = workloads.run_pass(w, input_root, frames, out_dir)
    with spans.Tracer() as tracer:
        traced = workloads.run_pass(w, input_root, frames, out_dir)
    after = workloads.run_pass(w, input_root, frames, out_dir)
    metrics, tail_pcts = spans.layer_metrics(tracer)
    walls = [t["wall_s"] for t in workloads.reference_times([before, traced, after])]
    metrics["trace.overhead_s"] = (walls[1] - (walls[0] + walls[2]) / 2, "s")
    metrics["trace.spans"] = (float(len(tracer.spans)), "count")
    tracer.write(os.path.join(out_dir, "spans.jsonl"))
    notes = {f"{name} percentile": (pct, "%") for name, pct in tail_pcts.items()}
    return metrics, notes, [before, traced, after]


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_VARS)  # before numpy loads its BLAS
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lmn", "__init__.py")):
        print(f"error: no lmn source tree at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, os.path.join(root, "tests")]  # lmn, and the reference oracle
    import lmn

    if os.path.dirname(os.path.abspath(lmn.__file__)) != os.path.join(src, "lmn"):
        print(f"error: imported lmn from {lmn.__file__}, not from {src}", file=sys.stderr)
        return 2
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})

    import inputs
    import workloads
    from lmn.data_io import SyntheticSpec

    w = workloads.WORKLOADS[args.workload]
    shape = inputs.SMOKE_SHAPES[w.shape] if args.tiny else w.shape
    spec = inputs.SHAPES[shape]
    input_root, input_sha = inputs.ensure(os.path.join(root, CACHE_DIR), shape, args.seed, src)
    frames = SyntheticSpec(**spec["spec"]).frames
    out_dir = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    env = environment(root, src, args, shape, spec, input_sha, len(allowed), cpu)

    notes = {}
    if args.trace:
        metrics, notes, passes = traced_passes(w, input_root, frames, out_dir)
    else:
        passes = timed_passes(w, input_root, frames, out_dir, args.seconds)
    times = workloads.reference_times(passes)
    if not args.trace:
        metrics = end_to_end(w, passes, times)

    checks, failures = workloads.gates(w, input_root, frames, passes[-1])
    gate_failed = len(failures)
    for p in passes:
        failures.extend(p.errors)
    if len({(p.params_digest, p.records) for p in passes}) != 1:
        failures.append("passes disagree: params or eval records differ between passes")
    attempted = sum(p.attempted for p in passes) + checks
    failed = sum(p.failed for p in passes) + gate_failed
    correct = not failures and failed == 0

    # per-phase rates and the failure share, printed by name wherever they apply
    report = {"failed_frac": (failed / attempted, "fraction"),
              "eval_q_per_s": (_rate(passes, times, "questions", "eval_s"), "q/s")}
    if w.train_qa:
        report["train_items_per_s"] = (_rate(passes, times, "train_items", "train_s"), "items/s")
    report.update(notes)
    # unscaled wall-clock medians, and the speed factor that scaled them
    for name in ("setup_s", "wall_s"):
        report[f"wallclock.{name}"] = (statistics.median(getattr(p, name) for p in passes), "s")
    report["wallclock.speed"] = (statistics.median(t["speed"] for t in times), "x")
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed")
    for name, (value, unit) in {**report, **metrics}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(json.dumps({"env": env}, sort_keys=True))

    record = {
        "env": env, "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "passes": [{**{k: getattr(p, k) for k in (
            "setup_s", "train_s", "train_total", "eval_s", "eval_total", "wall_s", "calibrations",
            "train_items", "questions", "accuracy", "params_digest")}, "reference": t}
            for p, t in zip(passes, times)],
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
