"""Every committed benchmark record at the repository root is whole.

A `BENCH_<hex>.json` collects the `result.json` that

    python3 bench/run.py --workload W --seed 1 --seconds 25 --trace T

writes for each BENCHMARK.json workload W and T in {0, 1}, under
`records[W]["trace<T>"]`; `<hex>` is the first 12 hex digits of the
records' `env.source_sha256`. The source hash is not compared with the
current `src/lmn`: it names the source the record was measured on.
"""

import glob
import json
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_holds_every_workload_and_trace_mode(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    records = doc["records"]
    assert set(records) == {w["name"] for w in BENCH["workloads"]}
    hashes = set()
    for workload, modes in records.items():
        assert set(modes) == {"trace0", "trace1"}, workload
        for trace in (0, 1):
            record = modes[f"trace{trace}"]
            where = f"{workload} trace{trace}"
            assert record["correct"] is True, where
            assert record["failed"] == 0, where
            env = record["env"]
            assert (env["workload"], env["trace"]) == (workload, trace), where
            assert (env["seed"], env["seconds"]) == (1, 25), where
            expected = BENCH["per_layer" if trace else "end_to_end"]
            assert set(record["metrics"]) == {m["name"] for m in expected}, where
            assert all(math.isfinite(m["value"]) for m in record["metrics"].values()), where
            hashes.add(env["source_sha256"])
    (source,) = hashes
    assert os.path.basename(path) == f"BENCH_{source[:12]}.json"
