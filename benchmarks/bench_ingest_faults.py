"""ROBUST — cost of transactional ingestion and fault recovery.

Two questions the robustness work raises:

* What does one journaled ``store()`` cost?  It journals every
  mutation so a fault can roll the document back.
* What does recovery cost under faults?  ``store_many`` throughput at
  0%, 1% and 10% seeded-random transient-fault rates, with retries on
  an injected no-op clock (measured work is real work, not sleeps).
"""

import pytest

from conftest import build_or_tool, write_bench_json
from repro.core import RetryPolicy, XML2Oracle
from repro.obs import Observability
from repro.workloads import make_university, university_dtd

_NO_SLEEP = RetryPolicy(max_attempts=4, base_delay=0.0,
                        sleep=lambda _seconds: None)


def test_store_overhead(benchmark):
    """Per-document cost of a journaled store()."""
    document = make_university(students=20)
    tool = XML2Oracle(metadata=False)
    tool.register_schema(university_dtd())

    stored = benchmark(lambda: tool.store(document))
    benchmark.extra_info["insert_statements"] = \
        stored.load_result.insert_count
    assert stored.doc_id >= 1


@pytest.mark.parametrize("rate", [0.0, 0.01, 0.10],
                         ids=["faults-0pct", "faults-1pct",
                              "faults-10pct"])
def test_batch_throughput_under_faults(benchmark, rate):
    """store_many throughput as transient faults get more frequent."""
    documents = [make_university(students=3) for _ in range(8)]
    tool = build_or_tool()
    if rate:
        tool.db.faults.arm(site="storage", rate=rate, seed=1234,
                           times=None)

    def ingest():
        return tool.store_many(documents, continue_on_error=True,
                               retry=_NO_SLEEP)

    report = benchmark(ingest)
    benchmark.extra_info["fault_rate"] = rate
    benchmark.extra_info["stored"] = len(report.stored)
    benchmark.extra_info["quarantined"] = len(report.quarantined)
    benchmark.extra_info["attempts"] = sum(
        outcome.attempts for outcome in report.outcomes)
    if rate == 0.0:
        assert report.ok
    # retries keep most documents flowing even at a 10% fault rate
    assert len(report.stored) >= len(documents) // 2


def test_fault_counters_json(benchmark):
    """Faulty bulk load with metrics on; writes
    BENCH_ingest_faults.json with the retry/quarantine counters."""
    documents = [make_university(students=3) for _ in range(8)]

    def ingest():
        obs = Observability(enabled=True)
        tool = XML2Oracle(obs=obs)
        tool.register_schema(university_dtd())
        tool.db.faults.arm(site="storage", rate=0.10, seed=1234,
                           times=None)
        report = tool.store_many(documents, continue_on_error=True,
                                 retry=_NO_SLEEP)
        return obs, report

    obs, report = benchmark(ingest)
    assert len(report.stored) >= len(documents) // 2
    counters = {name: obs.metrics.get(name).as_dict()
                for name in obs.metrics.names()
                if name.split(".", 1)[0] in ("ingest", "txn",
                                             "faults")}
    write_bench_json("ingest_faults", {
        "fault_rate": 0.10,
        "documents": len(documents),
        "counters": counters,
        "report": report.as_dict(),
    })


def test_fault_free_batch_matches_sequential_stores(benchmark):
    """The batch transaction adds no per-document statements."""
    documents = [make_university(students=3) for _ in range(4)]
    tool = build_or_tool()
    report = benchmark.pedantic(
        lambda: tool.store_many(documents, retry=_NO_SLEEP),
        rounds=3, iterations=1)
    assert report.ok
    assert len(report.doc_ids) == len(documents)
