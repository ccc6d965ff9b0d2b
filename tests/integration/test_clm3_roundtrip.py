"""CLM3: information loss in the mapping, and its repair.

Sections 5, 6.1 and 7: the plain mapping loses comments, processing
instructions, entity references and prolog information; the
meta-table extensions recover them.  Fidelity is measured per fact
category on the document-centric article corpus, for the OR mapping
with and without its meta-database and for the edge-table baseline.
"""

import pytest

from repro.core import XML2Oracle, compare
from repro.ordb import Database
from repro.relational import EdgeMapping, reconstruct_edge
from repro.workloads import (
    ARTICLE_DOCUMENT,
    UNIVERSITY_DTD,
    make_university,
    sample_document,
)
from repro.xmlkit import parse


def _or_roundtrip(document, metadata: bool):
    tool = XML2Oracle(metadata=metadata)
    tool.register_schema(document.doctype.dtd)
    stored = tool.store(document)
    return compare(document, tool.fetch(stored.doc_id))


def _edge_rebuild(document):
    """Shred *document* into an edge table and rebuild it."""
    db = Database()
    edge = EdgeMapping()
    edge.install(db)
    edge.load(db, document, 1)
    return reconstruct_edge(db, 1)


def _edge_roundtrip(document):
    return compare(document, _edge_rebuild(document))


@pytest.fixture(scope="module")
def reports():
    document = parse(ARTICLE_DOCUMENT)
    return {
        "or_with_metadata": _or_roundtrip(document, metadata=True),
        "or_without_metadata": _or_roundtrip(document, metadata=False),
        "edge": _edge_roundtrip(document),
    }


def test_fidelity_ordering(reports):
    """The meta-database closes the gap the paper describes."""
    full = reports["or_with_metadata"]
    bare = reports["or_without_metadata"]
    assert full.score > bare.score
    assert full.score >= reports["edge"].score
    assert full.score == 1.0


@pytest.mark.parametrize("pipeline, comments, pis", [
    ("or_with_metadata", 1.0, 1.0),
    ("or_without_metadata", 0.0, 0.0),
    ("edge", 0.0, 0.0),
])
def test_per_category_scores(reports, pipeline, comments, pis):
    report = reports[pipeline]
    assert report.category_score("comments") == comments
    assert report.category_score("pis") == pis
    for kept in ("elements", "attributes", "text"):
        assert report.category_score(kept) == 1.0


def test_scores_match_the_experiments_table(reports):
    """Overall score (facts and sibling order) and fact score alone."""
    measured = {name: (round(report.score, 3),
                       round(report.fact_score, 3))
                for name, report in reports.items()}
    assert measured == {
        "or_with_metadata": (1.0, 1.0),
        "or_without_metadata": (0.9, 0.846),
        "edge": (0.9, 0.846),
    }
    # the gap between the two scores is facts alone: order survives
    assert all(report.order_preserved for report in reports.values())


@pytest.mark.parametrize("metadata", [True, False],
                         ids=["with-metadata", "without-metadata"])
def test_entity_reference_needs_the_meta_table(metadata):
    """Section 6.1: '&cs;' is expanded before storage; only the
    meta-table brings the reference back on export."""
    document = sample_document()
    tool = XML2Oracle(metadata=metadata)
    tool.register_schema(document.doctype.dtd)
    text = tool.fetch_text(tool.store(document).doc_id)
    assert ("&cs;" in text) is metadata
    assert ("Computer Science" in text) is not metadata


@pytest.mark.parametrize("students", [5, 20])
def test_data_centric_documents_are_lossless(students):
    """No comments or PIs to lose: fidelity 1.0 without meta-data."""
    document = make_university(students=students)
    tool = XML2Oracle(metadata=False)
    tool.register_schema(UNIVERSITY_DTD)
    stored = tool.store(document)
    assert compare(document, tool.fetch(stored.doc_id)).score == 1.0


def test_edge_table_keeps_only_the_expanded_entity():
    rebuilt = _edge_rebuild(sample_document())
    assert rebuilt.find("StudyCourse").text() == "Computer Science"
