"""CLM6: recursive relationships (Section 6.2).

The naive tree-based mapper would loop forever; the tree builder
detects the cycle and refuses, and the analyzer's REF strategy — a
forward type declaration plus a TABLE OF REF collection — maps, loads
and queries recursive documents in both engine modes.
"""

import pytest

from repro.core import XML2Oracle, compare
from repro.dtd import RecursionError_, build_tree, parse_dtd
from repro.ordb import CompatibilityMode
from repro.workloads import ORG_CHART_DOCUMENT, ORG_CHART_DTD
from repro.xmlkit import XMLSyntaxError, parse
from repro.xmlkit.parser import MAX_ELEMENT_DEPTH

#: the paper's own Professor/Dept cycle
PAPER_DTD = """
<!ELEMENT Root (Professor)>
<!ELEMENT Professor (PName, Dept)>
<!ELEMENT Dept (DName, Professor*)>
<!ELEMENT PName (#PCDATA)>
<!ELEMENT DName (#PCDATA)>
"""

PAPER_DOCUMENT = """
<Root>
 <Professor><PName>Kudrass</PName>
  <Dept><DName>CS</DName>
   <Professor><PName>Conrad</PName>
    <Dept><DName>IS</DName></Dept>
   </Professor>
  </Dept>
 </Professor>
</Root>
"""


class TestNaiveMapperWouldLoop:
    def test_tree_builder_refuses_recursion(self):
        with pytest.raises(RecursionError_) as info:
            build_tree(parse_dtd(PAPER_DTD))
        assert "Professor" in str(info.value)
        assert "Dept" in str(info.value)


class TestRefStrategy:
    def test_schema_matches_section_6_2(self):
        tool = XML2Oracle()
        schema = tool.register_schema(PAPER_DTD)
        text = schema.script.text
        # forward declaration before use
        assert "CREATE TYPE Type_Professor;" in text + ";"
        assert ("CREATE TYPE TypeRef_Professor AS TABLE OF REF"
                " Type_Professor") in text
        # Type_Dept holds the collection of professor REFs
        assert "attrProfessor TypeRef_Professor" in text

    @pytest.mark.parametrize("mode", [CompatibilityMode.ORACLE9,
                                      CompatibilityMode.ORACLE8])
    def test_roundtrip_both_modes(self, mode):
        tool = XML2Oracle(mode=mode)
        tool.register_schema(PAPER_DTD)
        document = parse(PAPER_DOCUMENT)
        stored = tool.store(document)
        rebuilt = tool.fetch(stored.doc_id)
        assert compare(document, rebuilt).score == 1.0

    def test_query_across_recursion_levels(self):
        tool = XML2Oracle()
        tool.register_schema(PAPER_DTD)
        tool.store(parse(PAPER_DOCUMENT))
        inner = tool.query(
            "/Root/Professor/Dept/Professor/PName")
        assert inner.rows == [("Conrad",)]
        deeper = tool.query(
            "/Root/Professor/Dept/Professor/Dept/DName")
        assert deeper.rows == [("IS",)]


class TestSelfRecursion:
    def test_org_chart_roundtrip(self):
        tool = XML2Oracle()
        tool.register_schema(ORG_CHART_DTD)
        document = parse(ORG_CHART_DOCUMENT)
        stored = tool.store(document)
        rebuilt = tool.fetch(stored.doc_id)
        assert compare(document, rebuilt).score == 1.0

    def test_each_dept_is_one_row(self):
        tool = XML2Oracle()
        tool.register_schema(ORG_CHART_DTD)
        tool.store(parse(ORG_CHART_DOCUMENT))
        assert tool.sql(
            "SELECT COUNT(*) FROM TabDept").scalar() == 5

    def test_nested_dept_query(self):
        tool = XML2Oracle()
        tool.register_schema(ORG_CHART_DTD)
        tool.store(parse(ORG_CHART_DOCUMENT))
        level2 = tool.query("/Organization/Dept/Dept/DName")
        assert {row[0] for row in level2.rows} == {
            "Information Systems", "Graphics"}
        level3 = tool.query("/Organization/Dept/Dept/Dept/DName")
        assert level3.rows == [("CAD Lab",)]

    def test_drop_force_cleans_recursive_types(self):
        """Section 6.2: 'the deletion of any type must be propagated
        to all dependents by using DROP FORCE'."""
        from repro.ordb import DependentObjectsExist

        tool = XML2Oracle()
        tool.register_schema(ORG_CHART_DTD)
        with pytest.raises(DependentObjectsExist):
            tool.sql("DROP TYPE Type_Dept")
        tool.sql("DROP TYPE Type_Dept FORCE")
        assert "TYPE_DEPT" not in tool.db.catalog.types
        assert "TABDEPT" not in tool.db.catalog.tables


def nested_org(depth: int) -> str:
    """An organization whose departments nest *depth* levels deep."""
    opening = "".join(
        f"<Dept><DName>level{level}</DName>" for level in range(depth))
    return f"<Organization>{opening}{'</Dept>' * depth}</Organization>"


class TestRecursionDepth:
    @pytest.mark.parametrize("depth", [4, 16, 48])
    def test_one_insert_per_level(self, depth):
        """One row per Dept plus the root, at every depth."""
        tool = XML2Oracle(metadata=False)
        tool.register_schema(ORG_CHART_DTD)
        document = parse(nested_org(depth))
        stored = tool.store(document)
        assert stored.load_result.insert_count == depth + 1
        assert compare(document, tool.fetch(stored.doc_id)).score == 1.0


def professor_chain(pairs: int) -> str:
    """The paper's Professor/Dept cycle nested *pairs* times; its
    deepest element (the last DName) sits at level 2 * pairs + 2."""
    opening = "".join(
        f"<Professor><PName>p{level}</PName><Dept><DName>d{level}</DName>"
        for level in range(pairs))
    return f"<Root>{opening}{'</Dept></Professor>' * pairs}</Root>"


class TestDepthLimit:
    def test_chain_at_the_xml_depth_limit_stores_and_round_trips(self):
        pairs = (MAX_ELEMENT_DEPTH - 2) // 2
        assert 2 * pairs + 2 == MAX_ELEMENT_DEPTH
        tool = XML2Oracle()
        tool.register_schema(PAPER_DTD)
        document = parse(professor_chain(pairs))
        stored = tool.store(document)
        assert compare(document, tool.fetch(stored.doc_id)).score == 1.0
        deepest = "/Root" + "/Professor/Dept" * pairs + "/DName"
        assert tool.query(deepest).rows == [(f"d{pairs - 1}",)]

    def test_one_pair_longer_is_a_syntax_error(self):
        pairs = (MAX_ELEMENT_DEPTH - 2) // 2 + 1
        with pytest.raises(XMLSyntaxError, match="nest deeper"):
            parse(professor_chain(pairs))
