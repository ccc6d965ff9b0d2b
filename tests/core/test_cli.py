"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main
from repro.workloads import SAMPLE_DOCUMENT

_SIMPLE_DOCUMENT = """<!DOCTYPE Uni [
<!ELEMENT Uni (Name, Student*)>
<!ELEMENT Student (#PCDATA)>
<!ATTLIST Student nr CDATA #REQUIRED>
<!ELEMENT Name (#PCDATA)>
]>
<Uni><Name>HTWK</Name>
<Student nr="1">Conrad</Student>
<Student nr="2">Meier</Student>
</Uni>
"""


@pytest.fixture
def document_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(_SIMPLE_DOCUMENT)
    return str(path)


@pytest.fixture
def appendix_file(tmp_path):
    path = tmp_path / "appendix_a.xml"
    path.write_text(SAMPLE_DOCUMENT)
    return str(path)


class TestSchemaCommand:
    def test_prints_ddl(self, document_file, capsys):
        assert main(["schema", document_file]) == 0
        out = capsys.readouterr().out
        assert "CREATE TYPE Type_Student" in out
        assert "CREATE TABLE TabUni" in out

    def test_oracle8_mode(self, appendix_file, capsys):
        assert main(["schema", appendix_file,
                     "--mode", "oracle8"]) == 0
        out = capsys.readouterr().out
        assert "refCourse REF Type_Course" in out

    def test_clob_flag(self, document_file, capsys):
        assert main(["schema", document_file, "--clob"]) == 0
        assert "CLOB" in capsys.readouterr().out

    def test_external_dtd(self, tmp_path, capsys):
        dtd = tmp_path / "uni.dtd"
        dtd.write_text("<!ELEMENT Uni (#PCDATA)>")
        document = tmp_path / "d.xml"
        document.write_text("<Uni>x</Uni>")
        assert main(["schema", str(document), "--dtd",
                     str(dtd)]) == 0
        assert "TabUni" in capsys.readouterr().out

    def test_missing_dtd_errors(self, tmp_path):
        document = tmp_path / "d.xml"
        document.write_text("<Uni>x</Uni>")
        with pytest.raises(SystemExit):
            main(["schema", str(document)])


class TestLoadCommand:
    def test_prints_inserts(self, document_file, capsys):
        assert main(["load", document_file]) == 0
        out = capsys.readouterr().out
        assert "DocID 1" in out
        assert "INSERT INTO TabUni VALUES(Type_Uni(" in out


class TestQueryCommand:
    def test_path_query(self, document_file, capsys):
        assert main(["query", document_file, "/Uni/Student"]) == 0
        out = capsys.readouterr().out
        assert "Conrad" in out and "Meier" in out
        assert "2 row(s)" in out

    def test_predicate_and_select(self, appendix_file, capsys):
        assert main([
            "query", appendix_file, "/University/Student",
            "--predicate", "Course/Professor/PName=Jaeger",
            "--select", "LName"]) == 0
        out = capsys.readouterr().out
        assert "Conrad" in out
        assert "1 row(s)" in out

    def test_bad_predicate_errors(self, document_file):
        with pytest.raises(SystemExit):
            main(["query", document_file, "/Uni/Student",
                  "--predicate", "no-equals-sign"])


class TestRoundtripCommand:
    def test_reports_fidelity(self, appendix_file, capsys):
        assert main(["roundtrip", appendix_file]) == 0
        out = capsys.readouterr().out
        assert "overall fidelity: 1.000" in out

    def test_emit_prints_document(self, appendix_file, capsys):
        assert main(["roundtrip", appendix_file, "--emit"]) == 0
        out = capsys.readouterr().out
        assert "&cs;" in out


class TestDemoCommand:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "students of Professor Jaeger: ['Conrad']" in out

    def test_demo_oracle8(self, capsys):
        assert main(["demo", "--mode", "oracle8"]) == 0
        out = capsys.readouterr().out
        assert "INSERT statement(s)" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


class TestTypeHintFlag:
    def test_hint_types_a_leaf(self, appendix_file, capsys):
        assert main(["schema", appendix_file,
                     "--hint", "CreditPts=NUMBER",
                     "--hint", "StudNr=INTEGER"]) == 0
        out = capsys.readouterr().out
        assert "attrCreditPts NUMBER" in out
        assert "attrStudNr INTEGER" in out

    def test_malformed_hint_errors(self, appendix_file):
        with pytest.raises(SystemExit):
            main(["schema", appendix_file, "--hint", "nonsense"])


class TestStatsCommand:
    def test_text_prints_engine_counts_after_the_histograms(
            self, document_file, capsys):
        assert main(["stats", document_file, "--text"]) == 0
        histograms, counts = capsys.readouterr().out.split("\n\n")
        assert "phase.store_seconds (s): count=1" in histograms
        lines = dict(line.split(": ") for line in counts.split("\n")
                     if line)
        assert lines["commits"] == "2"  # the schema, then the document
        assert lines["errors"] == "0"
        assert int(lines["statements"]) > 0


class TestDurableCommands:
    def test_ingest_db_path_then_recover_verify(self, document_file,
                                                tmp_path, capsys):
        where = str(tmp_path / "dbdir")
        assert main(["ingest", document_file,
                     "--db-path", where]) == 0
        out = capsys.readouterr().out
        assert "durable:" in out and "WAL record(s)" in out
        assert main(["db", "recover", "--db-path", where,
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "recovered from log only" in out
        assert "integrity verified" in out

    def test_checkpoint_truncates_and_recovers_from_snapshot(
            self, document_file, tmp_path, capsys):
        where = str(tmp_path / "dbdir")
        assert main(["ingest", document_file, "--db-path", where,
                     "--fsync", "always"]) == 0
        capsys.readouterr()
        assert main(["db", "checkpoint", "--db-path", where]) == 0
        out = capsys.readouterr().out
        assert "checkpoint written" in out and "WAL truncated" in out
        assert main(["db", "recover", "--db-path", where,
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "recovered from checkpoint + log" in out

    def test_second_ingest_appends_to_recovered_state(
            self, document_file, tmp_path, capsys):
        where = str(tmp_path / "dbdir")
        assert main(["ingest", document_file,
                     "--db-path", where]) == 0
        capsys.readouterr()
        # the second run recovers the schema, so registering it
        # again fails the batch: the durable state must be unharmed
        assert main(["ingest", document_file,
                     "--db-path", where]) == 1
        capsys.readouterr()
        assert main(["db", "recover", "--db-path", where,
                     "--verify"]) == 0

    def test_recover_missing_directory_errors(self, tmp_path,
                                              capsys):
        missing = str(tmp_path / "nowhere")
        assert main(["db", "recover", "--db-path", missing]) == 1
        err = capsys.readouterr().err
        assert "no durable database" in err
