"""Entity table, expansion and re-substitution (Section 6.1)."""

import pytest

from repro.xmlkit import entities, parse
from repro.xmlkit.entities import (
    EntityDefinition,
    EntityTable,
    EntityError,
    PREDEFINED_ENTITIES,
    escape_attribute,
    escape_text,
    expand_char_reference,
    resubstitute,
)


class TestEntityTable:
    def test_define_and_lookup(self):
        table = EntityTable()
        table.define(EntityDefinition("cs", "Computer Science"))
        assert table.lookup_general("cs").replacement == \
            "Computer Science"

    def test_first_declaration_wins(self):
        table = EntityTable()
        table.define(EntityDefinition("e", "first"))
        table.define(EntityDefinition("e", "second"))
        assert table.expand_general("e") == "first"

    def test_parameter_and_general_namespaces_are_separate(self):
        table = EntityTable()
        table.define(EntityDefinition("e", "gen"))
        table.define(EntityDefinition("e", "param", is_parameter=True))
        assert table.lookup_general("e").replacement == "gen"
        assert table.lookup_parameter("e").replacement == "param"

    def test_internal_general_excludes_external(self):
        table = EntityTable()
        table.define(EntityDefinition("a", "x"))
        table.define(EntityDefinition("b", None, system_id="b.txt"))
        assert table.internal_general() == {"a": "x"}


class TestExpansion:
    def test_predefined(self):
        table = EntityTable()
        for name, value in PREDEFINED_ENTITIES.items():
            assert table.expand_general(name) == value

    def test_nested_expansion(self):
        table = EntityTable()
        table.define(EntityDefinition("inner", "X"))
        table.define(EntityDefinition("outer", "a&inner;b"))
        assert table.expand_general("outer") == "aXb"

    def test_undefined_entity_raises(self):
        with pytest.raises(EntityError):
            EntityTable().expand_general("nope")

    def test_recursion_detected(self):
        table = EntityTable()
        table.define(EntityDefinition("a", "&b;"))
        table.define(EntityDefinition("b", "&a;"))
        with pytest.raises(EntityError, match="recursive"):
            table.expand_general("a")

    def test_self_recursion_detected(self):
        table = EntityTable()
        table.define(EntityDefinition("a", "x&a;x"))
        with pytest.raises(EntityError, match="recursive"):
            table.expand_general("a")

    def test_expand_text_mixes_kinds(self):
        table = EntityTable()
        table.define(EntityDefinition("e", "mid"))
        assert table.expand_text("a&e;b&#65;c&lt;") == "amidbAc<"

    def test_unterminated_reference(self):
        with pytest.raises(EntityError, match="unterminated"):
            EntityTable().expand_text("a&ent")


class TestExpansionWork:
    """Expansion is bounded by its work, not only by its output."""

    @staticmethod
    def spy(monkeypatch) -> list[str]:
        """Record every entity whose replacement text gets expanded."""
        expanded: list[str] = []
        original = entities._Expansion.text

        def text(self, replacement, stack):
            if stack:
                expanded.append(stack[-1])
            return original(self, replacement, stack)

        monkeypatch.setattr(entities._Expansion, "text", text)
        return expanded

    def test_each_entity_expands_once_per_document(self, monkeypatch):
        subset = ['<!ENTITY e0 "ha">']
        for level in range(1, 4):
            subset.append(f'<!ENTITY e{level}'
                          f' "{"&e%d;" % (level - 1) * 10}">')
        source = ("<!DOCTYPE a [" + "".join(subset) + "]>"
                  '<a x="&e3;">&e3;&e2;<b>&e3;&e1;</b></a>')
        expanded = self.spy(monkeypatch)
        root = parse(source).root_element
        assert sorted(expanded) == ["e0", "e1", "e2", "e3"]
        assert root.get("x") == "ha" * 1000
        assert root.text_content() == "ha" * (1000 + 100 + 1000 + 10)

    def test_expand_general_memoises_within_one_call(self, monkeypatch):
        table = EntityTable()
        table.define(EntityDefinition("leaf", "x"))
        table.define(EntityDefinition("pair", "&leaf;&leaf;"))
        table.define(EntityDefinition("top", "&pair;&pair;&leaf;"))
        expanded = self.spy(monkeypatch)
        assert table.expand_general("top") == "xxxxx"
        assert sorted(expanded) == ["leaf", "pair", "top"]

    def test_nested_references_share_one_budget(self, monkeypatch):
        """Each level alone stays under the limit; together they do
        not."""
        monkeypatch.setattr(entities, "MAX_EXPANSION_SIZE", 250)
        table = EntityTable()
        table.define(EntityDefinition("e0", "x" * 10))
        table.define(EntityDefinition("e1", "&e0;" * 10))   # 100 chars
        table.define(EntityDefinition("e2", "&e1;&e1;"))   # 200 chars
        with pytest.raises(EntityError, match="size limit"):
            table.expand_general("e2")


class TestCharReferences:
    @pytest.mark.parametrize("body,expected", [
        ("#65", "A"), ("#x41", "A"), ("#x26", "&"), ("#10", "\n"),
    ])
    def test_valid(self, body, expected):
        assert expand_char_reference(body) == expected

    @pytest.mark.parametrize("body", ["#", "#x", "#abc", "#xGG",
                                      "#11141111111"])
    def test_invalid(self, body):
        with pytest.raises(EntityError):
            expand_char_reference(body)


class TestEscaping:
    def test_escape_text(self):
        assert escape_text("a<b&c>d") == "a&lt;b&amp;c&gt;d"

    def test_escape_attribute_double(self):
        assert escape_attribute('say "hi" & <go>') == \
            "say &quot;hi&quot; &amp; &lt;go>"

    def test_escape_attribute_single(self):
        assert escape_attribute("it's", quote="'") == "it&apos;s"


class TestResubstitution:
    def test_simple(self):
        text = "Welcome to Computer Science!"
        out = resubstitute(text, {"cs": "Computer Science"})
        assert out == "Welcome to &cs;!"

    def test_longest_replacement_wins(self):
        definitions = {"a": "data", "ab": "database systems"}
        out = resubstitute("database systems and data", definitions)
        assert out == "&ab; and &a;"

    def test_empty_replacement_ignored(self):
        assert resubstitute("abc", {"e": ""}) == "abc"
