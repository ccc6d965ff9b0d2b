"""Bulk ingestion: taxonomy, retries, quarantine, atomic facade."""

import pytest

from repro.cli import main
from repro.core import (
    NO_RETRY,
    RetryPolicy,
    XML2Oracle,
    classify,
    error_code,
)
from repro.obs import Observability
from repro.ordb import TransientEngineFault
from repro.ordb.errors import DanglingReference, UniqueViolation
from repro.xmlkit import parse
from repro.xmlkit.errors import XMLSyntaxError, XMLValidityError

SCHOOL_DTD = """
<!ELEMENT School (Student+, Course+, Enrolment*)>
<!ELEMENT Student (SName)>
<!ATTLIST Student sid ID #REQUIRED>
<!ELEMENT Course (CName)>
<!ATTLIST Course cid ID #REQUIRED>
<!ELEMENT Enrolment EMPTY>
<!ATTLIST Enrolment who IDREF #REQUIRED what IDREF #REQUIRED>
<!ELEMENT SName (#PCDATA)>
<!ELEMENT CName (#PCDATA)>
"""


def school_doc(n: int, dangling: bool = False) -> str:
    what = "c999" if dangling else f"c{n}"
    return (f'<School><Student sid="s{n}"><SName>N{n}</SName>'
            f'</Student><Course cid="c{n}"><CName>C{n}</CName>'
            f'</Course><Enrolment who="s{n}" what="{what}"/></School>')


@pytest.fixture
def tool():
    tool = XML2Oracle(validate_documents=False)
    tool.register_schema(SCHOOL_DTD,
                         sample_document=school_doc(0))
    return tool


def state_snapshot(tool):
    """Facade + engine state that must survive failed ingests."""
    return (
        tool._next_doc_id,
        sorted(tool.documents),
        {name: len(table.data.rows)
         for name, table in tool.db.catalog.tables.items()},
    )


class TestTaxonomy:
    def test_injected_fault_is_transient(self):
        assert classify(TransientEngineFault("boom")) == "transient"

    def test_constraint_violation_is_permanent(self):
        assert classify(UniqueViolation("dup")) == "permanent"

    def test_plain_exception_is_permanent(self):
        assert classify(ValueError("nope")) == "permanent"

    def test_error_code_prefers_ora_code(self):
        assert error_code(DanglingReference("x")) == "ORA-22888"
        assert error_code(ValueError("x")) == "ValueError"


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=0.3)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == \
            [0.1, 0.2, 0.3, 0.3]

    def test_injected_sleep(self):
        sleeps = []
        policy = RetryPolicy(base_delay=0.5, jitter=0.0,
                             sleep=sleeps.append)
        policy.wait(1)
        policy.wait(2)
        assert sleeps == [0.5, 1.0]

    def test_jitter_spreads_but_respects_the_cap(self):
        policy = RetryPolicy(base_delay=0.5, jitter=0.5, seed=7,
                             sleep=lambda _s: None)
        pauses = [policy.jittered_delay(2) for _ in range(50)]
        assert all(0.5 <= pause <= 1.0 for pause in pauses)
        assert len(set(pauses)) > 1  # actually randomized

    def test_jitter_is_seedable(self):
        first = RetryPolicy(seed=42, sleep=lambda _s: None)
        second = RetryPolicy(seed=42, sleep=lambda _s: None)
        assert [first.jittered_delay(n) for n in (1, 2, 3)] == \
            [second.jittered_delay(n) for n in (1, 2, 3)]

    def test_no_retry_never_sleeps(self):
        assert NO_RETRY.max_attempts == 1


class TestStoreMany:
    def test_all_good(self, tool):
        report = tool.store_many([school_doc(1), school_doc(2)],
                                 retry=NO_RETRY)
        assert report.ok
        assert report.doc_ids == [1, 2]
        assert sorted(tool.documents) == [1, 2]

    def test_quarantine_continues_past_bad_documents(self, tool):
        report = tool.store_many(
            [school_doc(1), school_doc(2, dangling=True),
             "<not xml", school_doc(3)],
            continue_on_error=True, retry=NO_RETRY)
        assert not report.ok
        assert [o.status for o in report.outcomes] == \
            ["stored", "quarantined", "quarantined", "stored"]
        dangling, syntax = report.quarantined
        assert dangling.error_code == "ORA-22888"
        assert dangling.classification == "permanent"
        assert syntax.error_code == "XMLSyntaxError"
        # good documents really committed
        assert report.doc_ids == [1, 2]
        assert tool.fetch(2).root_element.find("Student") is not None

    def test_too_deep_document_is_quarantined(self, tool):
        """A 10 000-deep document is refused by the XML parser; the
        rest of the batch stores around it."""
        deep = "<School>" + "<x>" * 10_000 + "</x>" * 10_000 + "</School>"
        report = tool.store_many(
            [school_doc(1), deep, school_doc(2)],
            continue_on_error=True, retry=NO_RETRY)
        assert [o.status for o in report.outcomes] == \
            ["stored", "quarantined", "stored"]
        (refused,) = report.quarantined
        assert isinstance(refused.error, XMLSyntaxError)
        assert refused.error_code == "XMLSyntaxError"
        assert report.doc_ids == [1, 2]

    def test_abort_rolls_back_whole_batch(self, tool):
        before = state_snapshot(tool)
        with pytest.raises(DanglingReference):
            tool.store_many(
                [school_doc(1), school_doc(2, dangling=True)],
                retry=NO_RETRY)
        assert state_snapshot(tool) == before
        # the id sequence rewound: next store reuses DocID 1
        assert tool.store(parse(school_doc(9))).doc_id == 1

    def test_transient_fault_retried_with_injected_clock(self, tool):
        tool.db.faults.arm(site="storage", at=5, times=1)
        sleeps = []
        report = tool.store_many(
            [school_doc(1)],
            retry=RetryPolicy(max_attempts=3, base_delay=0.25,
                              jitter=0.0, sleep=sleeps.append))
        assert report.ok
        assert report.outcomes[0].attempts == 2
        assert sleeps == [0.25]

    def test_exhausted_transient_fault_quarantines(self, tool):
        # no positional trigger + unlimited times: every attempt fails
        tool.db.faults.arm(site="storage", times=None)
        report = tool.store_many(
            [school_doc(1)], continue_on_error=True,
            retry=RetryPolicy(max_attempts=2,
                              sleep=lambda _s: None))
        (outcome,) = report.quarantined
        assert outcome.attempts == 2
        assert outcome.classification == "transient"
        assert outcome.error_code == "ORA-03113"

    def test_retries_keep_a_faulty_batch_flowing(self, tool):
        """A seeded 10 % storage-fault rate: retries store most of
        the batch, and the quarantined rest is accounted for."""
        docs = [school_doc(n) for n in range(1, 9)]
        tool.db.faults.arm(site="storage", rate=0.10, seed=1234,
                           times=None)
        report = tool.store_many(
            docs, continue_on_error=True,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0,
                              sleep=lambda _s: None))
        assert len(report.stored) >= len(docs) // 2
        assert len(report.stored) + len(report.quarantined) == len(docs)
        assert sum(outcome.attempts for outcome in report.outcomes) \
            > len(docs)

    def test_observing_an_ingest_leaves_identical_stats(self):
        """Every count lives in one always-on dict: the same faulty
        ingest, observed or not, leaves the same ``db.stats``."""
        def ingest(obs):
            tool = XML2Oracle(validate_documents=False, obs=obs)
            tool.register_schema(SCHOOL_DTD,
                                 sample_document=school_doc(0))
            tool.db.faults.arm(site="storage", rate=0.10, seed=1234,
                               times=None)
            report = tool.store_many(
                [school_doc(n, dangling=n == 5) for n in range(1, 9)],
                continue_on_error=True,
                retry=RetryPolicy(max_attempts=4, base_delay=0.0,
                                  sleep=lambda _s: None))
            return tool, report

        quiet, quiet_report = ingest(Observability())
        observed, observed_report = ingest(Observability(enabled=True))
        assert observed.db.stats == quiet.db.stats
        assert observed_report.as_dict() == quiet_report.as_dict()
        assert quiet.db.stats["errors"] > 0
        assert quiet.db.stats["savepoint_rollbacks"] > 0
        assert len(observed.db.faults.fired) == len(quiet.db.faults.fired)
        assert observed.obs.metrics.histogram(
            "phase.store_seconds").count > 0

    def test_permanent_fault_not_retried(self, tool):
        sleeps = []
        report = tool.store_many(
            [school_doc(1, dangling=True)], continue_on_error=True,
            retry=RetryPolicy(max_attempts=5, sleep=sleeps.append))
        assert report.quarantined[0].attempts == 1
        assert sleeps == []

    def test_doc_names_label_outcomes(self, tool):
        report = tool.store_many(
            [school_doc(1), school_doc(2, dangling=True)],
            continue_on_error=True, retry=NO_RETRY,
            doc_names=["a.xml", "b.xml"])
        assert report.outcomes[0].doc_name == "a.xml"
        assert "b.xml" in report.describe()
        assert "1 stored, 1 quarantined" in report.describe()

    def test_validator_path_quarantines_as_permanent(self):
        tool = XML2Oracle()  # validation on
        tool.register_schema(SCHOOL_DTD)
        report = tool.store_many([school_doc(1, dangling=True)],
                                 continue_on_error=True,
                                 retry=NO_RETRY)
        (outcome,) = report.quarantined
        assert outcome.error_code == "XMLValidityError"
        assert isinstance(outcome.error, XMLValidityError)


class TestStoreAtomicity:
    def test_fault_mid_store_leaves_pristine_state(self, tool):
        tool.store(parse(school_doc(1)))
        before = state_snapshot(tool)
        tool.db.faults.arm(site="storage", at=3)
        with pytest.raises(TransientEngineFault):
            tool.store(parse(school_doc(2)))
        assert state_snapshot(tool) == before

    def test_doc_id_not_burned_by_failure(self, tool):
        tool.db.faults.arm(site="statement", at=2)
        with pytest.raises(TransientEngineFault):
            tool.store(parse(school_doc(1)))
        stored = tool.store(parse(school_doc(2)))
        assert stored.doc_id == 1


class TestRegisterSchemaAtomicity:
    def test_failed_registration_rolls_back_ddl(self):
        tool = XML2Oracle()
        types_before = set(tool.db.catalog.types)
        tables_before = set(tool.db.catalog.tables)
        tool.db.faults.arm(site="statement", at=4)
        with pytest.raises(TransientEngineFault):
            tool.register_schema(SCHOOL_DTD)
        assert set(tool.db.catalog.types) == types_before
        assert set(tool.db.catalog.tables) == tables_before
        assert tool.schemas == []

    def test_schema_id_not_burned(self):
        tool = XML2Oracle()
        tool.db.faults.arm(site="statement", at=4)
        with pytest.raises(TransientEngineFault):
            tool.register_schema(SCHOOL_DTD)
        schema = tool.register_schema(SCHOOL_DTD)
        assert schema.schema_id in (None, "S1")
        second = tool.register_schema(SCHOOL_DTD)
        assert second.schema_id == "S2"


class TestCliIngest:
    @pytest.fixture
    def corpus(self, tmp_path):
        dtd = tmp_path / "school.dtd"
        dtd.write_text(SCHOOL_DTD)
        files = []
        for n in (1, 2):
            path = tmp_path / f"doc{n}.xml"
            path.write_text(school_doc(n))
            files.append(str(path))
        bad = tmp_path / "bad.xml"
        bad.write_text(school_doc(9, dangling=True))
        return {"dtd": str(dtd), "good": files, "bad": str(bad)}

    def test_ingest_all_good(self, corpus, capsys):
        assert main(["ingest", *corpus["good"],
                     "--dtd", corpus["dtd"]]) == 0
        out = capsys.readouterr().out
        assert "2 stored, 0 quarantined" in out

    def test_ingest_abort_by_default(self, corpus, capsys):
        assert main(["ingest", corpus["good"][0], corpus["bad"],
                     "--dtd", corpus["dtd"]]) == 1
        err = capsys.readouterr().err
        assert "rolled back" in err

    def test_ingest_continue_on_error(self, corpus, capsys):
        assert main(["ingest", corpus["good"][0], corpus["bad"],
                     corpus["good"][1], "--dtd", corpus["dtd"],
                     "--continue-on-error"]) == 1
        out = capsys.readouterr().out
        assert "2 stored, 1 quarantined" in out
        assert "QUARANTINED" in out

    def test_ingest_internal_dtd(self, tmp_path, capsys):
        document = tmp_path / "uni.xml"
        document.write_text(
            "<!DOCTYPE Uni [<!ELEMENT Uni (#PCDATA)>]>"
            "<Uni>hello</Uni>")
        assert main(["ingest", str(document)]) == 0
        assert "1 stored" in capsys.readouterr().out

    def test_ingest_fault_flag(self, corpus, capsys):
        # every quarantined document failed transiently, so the exit
        # code is EX_TEMPFAIL (75): a shell-level retry may clear it
        assert main(["ingest", *corpus["good"],
                     "--dtd", corpus["dtd"],
                     "--continue-on-error", "--retries", "0",
                     "--fault", "storage:4"]) == 75
        out = capsys.readouterr().out
        assert "ORA-03113" in out

    def test_ingest_bad_fault_spec(self, corpus):
        with pytest.raises(SystemExit):
            main(["ingest", *corpus["good"], "--dtd", corpus["dtd"],
                  "--fault", "storage:x"])
