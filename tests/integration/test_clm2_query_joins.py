"""CLM2: dot-notation navigation instead of join chains.

Section 4.1: "The object structure can be traversed using the dot
notation without executing join operations."  The same path query is
planned over the OR mapping (no joins, one table in FROM), DTD
inlining (joins at repetition points) and the edge table (one
self-join per path step).  Query latency per mapping is not asserted;
the join counts are the claim.
"""

import pytest

from repro.core import PathQueryBuilder, XML2Oracle
from repro.ordb import Database
from repro.relational import EdgeMapping, InliningMapping
from repro.workloads import (
    deep_chain_document_xml,
    deep_chain_dtd,
    make_university,
    university_dtd,
)
from repro.xmlkit import parse

UNIVERSITY_PATH = ["University", "Student", "Course", "Professor",
                   "PName"]


def _chain(depth: int) -> list[str]:
    return [f"N{level}" for level in range(depth + 1)]


def _university_tool() -> XML2Oracle:
    tool = XML2Oracle(metadata=False)
    tool.register_schema(university_dtd())
    return tool


def _edge() -> tuple[Database, EdgeMapping]:
    db = Database()
    mapping = EdgeMapping()
    mapping.install(db)
    return db, mapping


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_or_deep_path_is_one_table_no_joins(depth):
    tool = XML2Oracle(metadata=False)
    tool.register_schema(deep_chain_dtd(depth), root="N0")
    tool.store(parse(deep_chain_document_xml(depth)))
    query = PathQueryBuilder(tool.schemas[0].plan).build(_chain(depth))
    assert query.join_count == 0
    assert query.from_count == 1
    assert tool.db.execute(query.sql).rows == [("leaf",)]


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_edge_deep_path_needs_depth_plus_two_joins(depth):
    """One edge self-join per step, plus the text and value joins."""
    db, edge = _edge()
    edge.load(db, parse(deep_chain_document_xml(depth)), 1)
    sql = edge.path_query(_chain(depth), doc_id=1)
    assert db.explain(sql).join_count == depth + 2
    assert db.execute(sql).rows == [("leaf",)]


def test_join_count_ordering():
    """Same path: OR joins (0) < inlining joins (3) < edge joins (6)."""
    or_query = PathQueryBuilder(_university_tool().schemas[0].plan) \
        .build("/" + "/".join(UNIVERSITY_PATH))
    inline_joins = Database().explain(
        InliningMapping(university_dtd()).path_query(UNIVERSITY_PATH)
    ).join_count
    edge_db, edge = _edge()
    edge_joins = edge_db.explain(
        edge.path_query(UNIVERSITY_PATH)).join_count
    assert or_query.join_count == 0 < inline_joins < edge_joins
    assert (inline_joins, edge_joins) == (3, 6)


def test_predicate_query_has_no_joins_and_agrees_with_edge():
    """The Section 4.1 query shape with a predicate stays join-free,
    and it finds the same professors the edge table's join chain
    does."""
    document = make_university(students=4)
    tool = _university_tool()
    tool.store(document)
    query = PathQueryBuilder(tool.schemas[0].plan).build(
        "/University/Student",
        predicate=("Course/Professor/PName", "=", "Kudrass"),
        select="LName")
    assert query.join_count == 0

    or_names = tool.query("/" + "/".join(UNIVERSITY_PATH))
    db, edge = _edge()
    edge.load(db, document, 1)
    edge_names = db.execute(edge.path_query(UNIVERSITY_PATH, doc_id=1))
    assert sorted(or_names.rows) == sorted(edge_names.rows)
    assert or_names.rows
