"""Smoke test of the ledger itself.  Not part of tier-1; run it with

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

It runs all six workloads at ``--scale 0.02`` for one fixed round
each (untraced and traced) and checks the report's shape — not the
numbers.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: workloads whose operations all run on one thread, so every engine
#: counter repeats exactly; the others place documents in arrival
#: order, which two threads do not repeat
SINGLE_THREAD = ("ingest_large_mem", "ingest_small_durable",
                 "query_indexed", "query_scan_path")
#: counters that do not depend on which thread won a race
ORDER_FREE = ("statements", "inserts", "selects", "rows_inserted",
              "wal_appends")


@functools.lru_cache(maxsize=None)
def smoke(seed: int, tag: str) -> tuple[dict, float, str]:
    out = HERE / "out" / f"smoke_{tag}.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.02",
         "--rounds", "1", "--trace", "--seed", str(seed),
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-3000:]
    return json.loads(out.read_text()), elapsed, done.stdout


def test_smoke_is_quick_and_names_every_declared_metric():
    report, elapsed, printed = smoke(2002, "a")
    assert elapsed < 30, f"smoke pass took {elapsed:.1f}s"
    assert list(report["summary"]) == WORKLOADS
    for name in WORKLOADS:
        metrics = report["summary"][name]
        for declared in SPEC["end_to_end"] + SPEC["per_layer"]:
            row = metrics[declared["name"]]
            assert row["unit"] == declared["unit"]
            assert row["better"] == declared["better"]
            assert row["bound"] == declared.get("bound")
            assert f"  {declared['name']} " in printed
        assert metrics["failed_share"]["median"] == 0
        assert "trace_overhead_share" in metrics
        assert metrics["ops_per_s"]["median"] > 0


def test_same_seed_repeats_the_counts_exactly():
    first, _, _ = smoke(2002, "a")
    again, _, _ = smoke(2002, "b")
    for name in WORKLOADS:
        a, b = first["counts"][name], again["counts"][name]
        keys = a if name in SINGLE_THREAD else ORDER_FREE
        assert {key: a[key] for key in keys if key in a} \
            == {key: b[key] for key in keys if key in b}, name
        for exact in ("statements_per_doc", "sql_chars_per_doc",
                      "wal_bytes_per_xml_byte", "scatter_legs_per_query",
                      "server_requests"):
            if exact in first["summary"][name]:
                assert (first["summary"][name][exact]["median"]
                        == again["summary"][name][exact]["median"]), \
                    (name, exact)
    assert first["counts"]["ingest_small_durable"]["wal_bytes"] > 0
    assert first["counts"]["query_scan_path"]["rows_scanned"] > 0
    assert first["summary"]["sharded4_mixed"][
        "scatter_legs_per_query"]["median"] == 4


def test_another_seed_changes_the_inputs_but_not_the_shape():
    first, _, _ = smoke(2002, "a")
    other, _, _ = smoke(7, "c")
    for name in WORKLOADS:
        a, b = first["counts"][name], other["counts"][name]
        assert a.keys() == b.keys()
        for key in ("statements", "selects", "inserts", "wal_appends"):
            if key in a:
                assert a[key] == b[key], (name, key)
    # same number of documents and statements, different documents
    assert (first["summary"]["ingest_small_durable"]
            ["sql_chars_per_doc"]["median"]
            != other["summary"]["ingest_small_durable"]
            ["sql_chars_per_doc"]["median"])
    assert (first["counts"]["ingest_small_durable"]["wal_bytes"]
            != other["counts"]["ingest_small_durable"]["wal_bytes"])
