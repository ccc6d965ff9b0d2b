"""CLM1: INSERT statements per document, per mapping.

Sections 1, 4.1 and 4.2: generic relational shredding "turns the
upload of a document into a large number of relational insert
operations", while the object-relational mapping "requires a single
INSERT query for one document".  The counts here are the CLM1 table
of EXPERIMENTS.md; load *time* per mapping is not asserted anywhere
(the perf ledger measures store cost end to end).
"""

import pytest

from repro.core import XML2Oracle
from repro.core.loader import load_document
from repro.ordb import CompatibilityMode, Database
from repro.relational import AttributeMapping, EdgeMapping, InliningMapping
from repro.workloads import make_university, university_dtd

#: students -> (element nodes, OR Oracle 9, OR Oracle 8, inlining,
#: attribute, edge) INSERT statements for one document
EXPERIMENTS_TABLE = {
    5: (401, 1, 36, 66, 242, 340),
    20: (1568, 1, 141, 261, 945, 1327),
    50: (3902, 1, 351, 651, 2351, 3301),
}


def _document(students: int):
    return make_university(students=students, courses_per_student=3,
                           subjects_per_professor=2)


def _or_plan(mode: CompatibilityMode = CompatibilityMode.ORACLE9):
    tool = XML2Oracle(mode=mode, metadata=False)
    tool.register_schema(university_dtd())
    return tool


def insert_counts(document) -> dict[str, int]:
    """INSERT statements each mapping needs for *document*."""
    attribute = AttributeMapping()
    attribute.prepare(attribute.collect_names(document))
    return {
        "or_oracle9": load_document(_or_plan().schemas[0].plan,
                                    document, 1).insert_count,
        "or_oracle8": load_document(
            _or_plan(CompatibilityMode.ORACLE8).schemas[0].plan,
            document, 1).insert_count,
        "inlining": InliningMapping(university_dtd())
        .shred(document, 1).insert_count,
        "attribute": attribute.shred(document, 1).insert_count,
        "edge": EdgeMapping().shred(document, 1).insert_count,
    }


@pytest.mark.parametrize("students", sorted(EXPERIMENTS_TABLE))
def test_insert_count_ordering(students):
    """OR/Oracle 9 (1) < OR/Oracle 8 <= inlining < attribute < edge."""
    counts = insert_counts(_document(students))
    assert counts["or_oracle9"] == 1
    assert counts["or_oracle9"] < counts["or_oracle8"]
    assert counts["or_oracle8"] <= counts["inlining"]
    assert counts["inlining"] < counts["attribute"]
    assert counts["attribute"] < counts["edge"]


@pytest.mark.parametrize("students", sorted(EXPERIMENTS_TABLE))
def test_counts_match_the_experiments_table(students):
    document = _document(students)
    nodes = sum(1 for _ in document.root_element.iter())
    counts = insert_counts(document)
    assert (nodes, *counts.values()) == EXPERIMENTS_TABLE[students]
    # the edge table needs a row for at least every other node
    assert counts["edge"] >= nodes / 2


@pytest.mark.parametrize("mode", [CompatibilityMode.ORACLE9,
                                  CompatibilityMode.ORACLE8],
                         ids=["oracle9", "oracle8"])
def test_or_statements_execute(mode):
    """The counted statements are the ones that store the document."""
    tool = _or_plan(mode)
    result = load_document(tool.schemas[0].plan, _document(5), 1)
    for statement in result.statements:
        tool.db.execute(statement)
    assert tool.db.execute(
        "SELECT COUNT(*) FROM TabUniversity").scalar() == 1
    if mode is CompatibilityMode.ORACLE9:
        assert result.insert_count == 1
    else:
        assert result.insert_count > 1


def test_edge_load_executes_every_counted_insert():
    db = Database()
    edge = EdgeMapping()
    edge.install(db)
    report = edge.load(db, _document(5), 1)
    rows = sum(db.execute(f"SELECT COUNT(*) FROM {table}").scalar()
               for table in ("EDGE", "VAL_TAB"))
    assert report.insert_count == rows == EXPERIMENTS_TABLE[5][-1]
