"""Parallel bulk ingest: ``store_many(..., workers=N)``.

Worker threads drive private sessions against one shared engine, so
these tests check the things that can only break there: lost or
double-stored documents, compensation after an abort, and — with the
fault injector armed mid-batch — that indexes, caches and the
meta-table stay consistent with exactly the surviving documents.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import XML2Oracle, compare
from repro.core.ingest import NO_RETRY, RetryPolicy
from repro.ordb import Database
from repro.ordb.errors import TransientEngineFault
from repro.xmlkit import parse
from repro.xmlkit.errors import XMLValidityError

SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))

DTD = """
<!ELEMENT Uni (Name, Student*)>
<!ELEMENT Name (#PCDATA)>
<!ELEMENT Student (#PCDATA)>
"""


def make_docs(count):
    return [
        f"<Uni><Name>U{n}</Name><Student>A{n}</Student>"
        f"<Student>B{n}</Student></Uni>"
        for n in range(count)
    ]


def make_tool(**db_kwargs):
    tool = XML2Oracle(db=Database(**db_kwargs))
    tool.register_schema(DTD)
    return tool


def retry_without_sleep(attempts=3):
    return RetryPolicy(max_attempts=attempts,
                       sleep=lambda _seconds: None)


def check_consistency(tool, stored_outcomes):
    """The shared structures agree with exactly the surviving docs."""
    db = tool.db
    doc_ids = sorted(o.doc_id for o in stored_outcomes)
    assert len(set(doc_ids)) == len(doc_ids), "duplicate doc ids"
    # meta-table: one row per surviving document, none for casualties
    meta_ids = sorted(
        int(v) for (v,) in
        db.execute("SELECT m.DocID FROM TabMetadata m").rows)
    assert meta_ids == doc_ids
    # physical rows: every table's indexes agree with its row list
    for table in db.catalog.tables.values():
        problems = table.indexes.verify(table.data.rows)
        assert problems == [], (table.name, problems)
    # root table: exactly one row per surviving document
    assert db.execute(
        "SELECT COUNT(*) FROM TabUni").scalar() == len(doc_ids)
    # every survivor round-trips
    for outcome in stored_outcomes:
        rebuilt = tool.fetch(outcome.doc_id)
        assert rebuilt.root_element.tag == "Uni"


class TestParallelStoreMany:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_all_documents_stored(self, workers):
        docs = make_docs(10)
        tool = make_tool()
        report = tool.store_many(docs, workers=workers)
        assert report.ok
        assert len(report.stored) == 10
        check_consistency(tool, report.stored)
        for outcome in report.stored:
            rebuilt = tool.fetch(outcome.doc_id)
            assert compare(parse(docs[outcome.index]),
                           rebuilt).score == 1.0

    def test_outcomes_in_input_order(self):
        docs = make_docs(8)
        tool = make_tool()
        report = tool.store_many(
            docs, workers=3, doc_names=[f"d{n}.xml" for n in range(8)])
        assert [o.index for o in report.outcomes] == list(range(8))
        assert [o.doc_name for o in report.outcomes] == [
            f"d{n}.xml" for n in range(8)]

    def test_worker_sessions_are_closed(self):
        tool = make_tool()
        tool.store_many(make_docs(6), workers=3)
        assert not tool.db._open_sessions

    def test_quarantine_keeps_going(self):
        docs = make_docs(6)
        docs[2] = "<Uni><Wrong/></Uni>"  # invalid against the DTD
        tool = make_tool()
        report = tool.store_many(docs, workers=3,
                                 continue_on_error=True,
                                 retry=NO_RETRY)
        assert len(report.stored) == 5
        (bad,) = report.quarantined
        assert bad.index == 2
        assert bad.classification == "permanent"
        check_consistency(tool, report.stored)

    def test_abort_compensates_committed_documents(self):
        docs = make_docs(6)
        docs[3] = "<Uni><Wrong/></Uni>"
        tool = make_tool()
        with pytest.raises(XMLValidityError):
            tool.store_many(docs, workers=3, retry=NO_RETRY)
        # every committed document of the batch was deleted again
        assert tool.db.execute(
            "SELECT COUNT(*) FROM TabUni").scalar() == 0
        assert tool.db.execute(
            "SELECT COUNT(*) FROM TabMetadata").scalar() == 0
        assert tool.documents == {}

    def test_lock_fault_site_is_retried(self):
        docs = make_docs(6)
        tool = make_tool()
        tool.db.faults.arm(site="lock", at=4, times=1)
        report = tool.store_many(docs, workers=2,
                                 retry=retry_without_sleep())
        assert report.ok
        assert sum(o.attempts for o in report.outcomes) == 7
        check_consistency(tool, report.stored)

    def test_serial_path_unchanged_without_workers(self):
        docs = make_docs(4)
        tool = make_tool()
        report = tool.store_many(docs)  # one batch transaction
        assert report.ok
        assert [o.doc_id for o in report.stored] == [1, 2, 3, 4]


class TestCrashConsistencyUnderConcurrency:
    """Faults mid-parallel-batch must leave a consistent engine."""

    def test_storage_fault_quarantines_one_document(self):
        docs = make_docs(9)
        tool = make_tool()
        tool.db.faults.arm(site="storage", at=7, times=1)
        report = tool.store_many(docs, workers=3,
                                 continue_on_error=True,
                                 retry=NO_RETRY)
        assert len(report.quarantined) == 1
        assert len(report.stored) == 8
        (bad,) = report.quarantined
        assert isinstance(bad.error, TransientEngineFault)
        check_consistency(tool, report.stored)

    def test_seeded_random_faults_leave_consistent_state(self):
        docs = make_docs(12)
        tool = make_tool()
        tool.db.faults.arm(rate=0.02, seed=SEED, times=None)
        report = tool.store_many(docs, workers=4,
                                 continue_on_error=True,
                                 retry=retry_without_sleep())
        tool.db.faults.clear()  # the checks below must run clean
        assert len(report.outcomes) == 12
        check_consistency(tool, report.stored)

    def test_view_cache_follows_surviving_rows(self):
        tool = make_tool()
        tool.db.execute(
            "CREATE VIEW UniCount AS SELECT COUNT(*) n FROM TabUni")
        assert tool.db.execute(
            "SELECT * FROM UniCount").scalar() == 0
        docs = make_docs(6)
        tool.db.faults.arm(site="storage", at=5, times=1)
        report = tool.store_many(docs, workers=3,
                                 continue_on_error=True,
                                 retry=NO_RETRY)
        # the cached pre-ingest result must not be served stale
        assert int(tool.db.execute(
            "SELECT * FROM UniCount").scalar()) == len(report.stored)

    def test_fault_during_abort_batch_still_compensates(self):
        docs = make_docs(6)
        docs[4] = "<Uni><Wrong/></Uni>"
        tool = make_tool()
        # a commit-site predicate that never fires: its sleep widens
        # the interleavings of the workers' commits
        tool.db.faults.arm(site="commit", times=None,
                           predicate=lambda _event: time.sleep(0.001))
        with pytest.raises(XMLValidityError):
            tool.store_many(docs, workers=3, retry=NO_RETRY)
        for table in tool.db.catalog.tables.values():
            problems = table.indexes.verify(table.data.rows)
            assert problems == [], (table.name, problems)
        assert tool.db.execute(
            "SELECT COUNT(*) FROM TabUni").scalar() == 0


class TestDurableCompensation:
    """Aborted parallel batches against a durable engine: the
    compensation deletes must land in the WAL too, so a later
    recovery replays the abort — not the half-batch."""

    def test_aborted_batch_absent_after_recovery(self, tmp_path):
        docs = make_docs(6)
        docs[3] = "<Uni><Wrong/></Uni>"
        tool = make_tool(path=tmp_path)
        with pytest.raises(XMLValidityError):
            tool.store_many(docs, workers=3, retry=NO_RETRY)
        assert tool.db.execute(
            "SELECT COUNT(*) FROM TabUni").scalar() == 0
        tool.db.close()
        recovered = Database(path=tmp_path)
        # the committed stores and their compensation deletes both
        # replay: the batch is gone from the recovered state too
        assert recovered.execute(
            "SELECT COUNT(*) FROM TabUni").scalar() == 0
        assert recovered.execute(
            "SELECT COUNT(*) FROM TabMetadata").scalar() == 0
        recovered.close()

    def test_media_fault_mid_batch_compensates_durably(self,
                                                       tmp_path):
        """A torn WAL write aborts the batch; the log self-repairs,
        so the compensation deletes are replayable afterwards."""
        from repro.ordb import TornWrite, WalFault

        docs = make_docs(8)
        tool = make_tool(path=tmp_path)
        appends_before = tool.db.stats["wal_appends"]
        tool.db.faults.arm(site="wal", at=4, error=TornWrite)
        with pytest.raises(WalFault):
            tool.store_many(docs, workers=3, retry=NO_RETRY)
        assert tool.db.execute(
            "SELECT COUNT(*) FROM TabUni").scalar() == 0
        # compensation committed through the repaired log
        assert tool.db.stats["wal_appends"] > appends_before
        tool.db.close()
        recovered = Database(path=tmp_path)
        assert recovered.execute(
            "SELECT COUNT(*) FROM TabUni").scalar() == 0
        assert recovered.execute(
            "SELECT COUNT(*) FROM TabMetadata").scalar() == 0
        for table in recovered.catalog.tables.values():
            problems = table.indexes.verify(table.data.rows)
            assert problems == [], (table.name, problems)
        recovered.close()

    def test_successful_durable_batch_round_trips(self, tmp_path):
        docs = make_docs(10)
        tool = make_tool(path=tmp_path)
        report = tool.store_many(docs, workers=4)
        assert report.ok
        check_consistency(tool, report.stored)
        tool.db.close()
        recovered = Database(path=tmp_path)
        assert recovered.execute(
            "SELECT COUNT(*) FROM TabUni").scalar() == 10
        assert sorted(int(v) for (v,) in recovered.execute(
            "SELECT m.DocID FROM TabMetadata m").rows) == sorted(
            o.doc_id for o in report.stored)
        recovered.close()
