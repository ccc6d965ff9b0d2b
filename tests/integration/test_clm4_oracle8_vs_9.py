"""CLM4: the Oracle 8 REF workaround vs Oracle 9 nested collections.

Sections 2.2 and 4.2: Oracle 8's collection restriction forces the
REF-based workaround — more types, more tables, more INSERTs and
joins in queries — while Oracle 9's arbitrary nesting gives "a more
natural modeling".  Section 7 lists the workaround's drawback:
"usage of references does not preserve the order of elements".
"""

import pytest

from repro.core import (
    PathQueryBuilder,
    XML2Oracle,
    analyze,
    compare,
    generate_schema,
)
from repro.ordb import CompatibilityMode
from repro.workloads import make_university, sample_document, university_dtd

ORACLE9, ORACLE8 = CompatibilityMode.ORACLE9, CompatibilityMode.ORACLE8
_MODES = pytest.mark.parametrize("mode", [ORACLE9, ORACLE8],
                                 ids=["oracle9", "oracle8"])

PNAME_PATH = "/University/Student/Course/Professor/PName"


def _tool(mode) -> XML2Oracle:
    tool = XML2Oracle(mode=mode, metadata=False)
    tool.register_schema(university_dtd())
    return tool


def _schema_counts(mode) -> tuple[int, int]:
    script = generate_schema(analyze(university_dtd(), mode=mode))
    return script.type_count, script.table_count


def test_workaround_spreads_the_document_over_more_tables():
    types9, tables9 = _schema_counts(ORACLE9)
    types8, tables8 = _schema_counts(ORACLE8)
    assert tables8 > tables9 == 1
    assert (types9, tables9, types8, tables8) == (9, 1, 10, 4)


def test_workaround_needs_more_inserts_and_joins():
    """The sample document: 1 INSERT and 0 joins in Oracle 9 mode,
    7 INSERTs and 2 joins through the REFs in Oracle 8 mode."""
    measured = {}
    for mode in (ORACLE9, ORACLE8):
        tool = _tool(mode)
        stored = tool.store(sample_document())
        query = PathQueryBuilder(tool.schemas[0].plan).build(PNAME_PATH)
        measured[mode] = (stored.load_result.insert_count,
                          query.join_count)
    assert measured == {ORACLE9: (1, 0), ORACLE8: (7, 2)}


@_MODES
def test_both_modes_answer_queries_and_fetch(mode):
    tool = _tool(mode)
    stored = tool.store(make_university(students=10))
    assert tool.query(PNAME_PATH).rows
    document = tool.fetch(stored.doc_id)
    assert len(document.root_element.find_all("Student")) == 10


def test_oracle8_loses_sibling_order():
    """Oracle 9 keeps document order exactly; across Oracle 8's REFs
    the children of one parent come back regrouped."""
    orders = {}
    for mode in (ORACLE9, ORACLE8):
        tool = _tool(mode)
        document = sample_document()
        stored = tool.store(document)
        orders[mode] = compare(document,
                               tool.fetch(stored.doc_id)).order_preserved
    assert orders == {ORACLE9: True, ORACLE8: False}
