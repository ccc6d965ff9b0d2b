"""Entity definitions and expansion.

Section 6.1 of the paper discusses the round-trip consequences of
expanding entity references before storage: XML2Oracle expands entities
at their occurrences, losing the original definitions unless the
meta-database records them.  This module provides both halves: a table
of entity definitions (fed by the DTD parser) and expansion with
recursion protection, plus the reverse *re-substitution* used when a
document is reconstructed from the database.
"""

from __future__ import annotations

from .errors import EntityError

#: The five predefined entities of XML 1.0 (production [68] note).
PREDEFINED_ENTITIES: dict[str, str] = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

#: Maximum cumulative expansion size; guards against billion-laughs input.
MAX_EXPANSION_SIZE = 8 * 1024 * 1024


class EntityDefinition:
    """One ``<!ENTITY ...>`` declaration."""

    def __init__(self, name: str, replacement: str | None,
                 is_parameter: bool = False,
                 system_id: str | None = None,
                 public_id: str | None = None,
                 notation: str | None = None):
        self.name = name
        self.replacement = replacement
        self.is_parameter = is_parameter
        self.system_id = system_id
        self.public_id = public_id
        self.notation = notation

    @property
    def is_internal(self) -> bool:
        """True for entities defined with a literal replacement text."""
        return self.replacement is not None

    @property
    def is_unparsed(self) -> bool:
        """True for NDATA (unparsed) entities."""
        return self.notation is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "%" if self.is_parameter else "&"
        return f"EntityDefinition({kind}{self.name};)"


class EntityTable:
    """Registry of general and parameter entities for one DTD."""

    def __init__(self) -> None:
        self.general: dict[str, EntityDefinition] = {}
        self.parameter: dict[str, EntityDefinition] = {}

    def define(self, definition: EntityDefinition) -> None:
        """Register *definition*; first declaration wins (per the spec)."""
        table = self.parameter if definition.is_parameter else self.general
        table.setdefault(definition.name, definition)

    def lookup_general(self, name: str) -> EntityDefinition | None:
        return self.general.get(name)

    def lookup_parameter(self, name: str) -> EntityDefinition | None:
        return self.parameter.get(name)

    def internal_general(self) -> dict[str, str]:
        """Mapping of internal general entity name -> replacement text.

        This is exactly what the paper proposes storing in the extended
        meta-database (Section 6.1).
        """
        return {
            name: d.replacement
            for name, d in self.general.items()
            if d.is_internal
        }

    # -- expansion ----------------------------------------------------------

    def expand_general(self, name: str,
                       memo: dict[str, str] | None = None) -> str:
        """Fully expand general entity *name* to its replacement text.

        Nested entity references inside the replacement are expanded
        recursively.  Raises :class:`EntityError` for undefined entities,
        recursive definitions, or runaway expansion.  *memo* (name ->
        finished expansion) lets a caller share expansions across
        calls, e.g. every reference of one document.
        """
        return _Expansion(self, memo).general(name, ())

    def expand_text(self, text: str,
                    memo: dict[str, str] | None = None) -> str:
        """Expand every general entity and character reference in *text*."""
        return _Expansion(self, memo).text(text, ())


class _Expansion:
    """One top-level expansion: each entity is expanded at most once
    (the memo), and every nested reference draws on one shared size
    budget, so the work — not just the output — stays bounded."""

    __slots__ = ("table", "memo", "budget")

    def __init__(self, table: EntityTable,
                 memo: dict[str, str] | None):
        self.table = table
        self.memo = {} if memo is None else memo
        self.budget = MAX_EXPANSION_SIZE

    def general(self, name: str, stack: tuple[str, ...]) -> str:
        if name in PREDEFINED_ENTITIES:
            return PREDEFINED_ENTITIES[name]
        expanded = self.memo.get(name)
        if expanded is not None:
            return expanded
        if name in stack:
            chain = " -> ".join(stack + (name,))
            raise EntityError(f"recursive entity reference: {chain}")
        definition = self.table.general.get(name)
        if definition is None:
            raise EntityError(f"undefined entity '&{name};'")
        if definition.is_unparsed:
            raise EntityError(
                f"reference to unparsed entity '&{name};' in content")
        if not definition.is_internal:
            raise EntityError(
                f"external entity '&{name};' cannot be resolved offline")
        expanded = self.text(definition.replacement, stack + (name,))
        self.memo[name] = expanded
        return expanded

    def text(self, source: str, stack: tuple[str, ...]) -> str:
        out: list[str] = []
        start = 0
        while True:
            amp = source.find("&", start)
            if amp == -1:
                out.append(source[start:])
                return "".join(out)
            out.append(source[start:amp])
            end = source.find(";", amp + 1)
            if end == -1:
                raise EntityError("unterminated entity reference")
            body = source[amp + 1:end]
            expanded = (
                expand_char_reference(body)
                if body.startswith("#")
                else self.general(body, stack)
            )
            self.budget -= len(expanded)
            if self.budget < 0:
                raise EntityError("entity expansion exceeds size limit")
            out.append(expanded)
            start = end + 1


def expand_char_reference(body: str) -> str:
    """Expand a character reference body (``#38`` or ``#x26``)."""
    digits = body[1:]
    try:
        code = int(digits[1:], 16) if digits[:1] in ("x", "X") else int(digits)
    except ValueError:
        raise EntityError(f"malformed character reference '&{body};'") from None
    try:
        return chr(code)
    except (ValueError, OverflowError):
        raise EntityError(
            f"character reference '&{body};' out of range") from None


def escape_text(text: str) -> str:
    """Escape character data for serialization into element content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(text: str, quote: str = '"') -> str:
    """Escape character data for serialization into an attribute value."""
    escaped = text.replace("&", "&amp;").replace("<", "&lt;")
    if quote == '"':
        return escaped.replace('"', "&quot;")
    return escaped.replace("'", "&apos;")


def resubstitute(text: str, definitions: dict[str, str]) -> str:
    """Replace literal occurrences of entity replacement texts by references.

    This is the recovery step of Section 6.1: given the internal entity
    definitions preserved in the meta-table, rewrite stored character
    data so the original ``&name;`` references reappear.  Longer
    replacement texts are substituted first so overlapping definitions
    behave deterministically.
    """
    ordered = sorted(definitions.items(), key=lambda kv: -len(kv[1]))
    for name, replacement in ordered:
        if replacement:
            text = text.replace(replacement, f"&{name};")
    return text
