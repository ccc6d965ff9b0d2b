"""Generic relational baseline mappings (references [5], [9] of the paper).

These are the comparison points of the paper's argument: edge tables
and attribute tables (structure-oriented, Florescu & Kossmann) and DTD
inlining (content-oriented, Shanmugasundaram et al.).  Each exposes
``schema_statements`` / ``install`` / ``shred`` / ``load`` /
``path_query`` so the CLM1–CLM3 tests can compare them against the
object-relational mapping on identical documents.
"""

from .attribute import AttributeMapping
from .edge import EdgeMapping
from .inlining import InliningMapping, Relation
from .reconstruct import reconstruct_edge, reconstruct_inlined
from .shredder import LoadReport, sanitize_name, sql_quote

__all__ = [
    "AttributeMapping",
    "EdgeMapping",
    "InliningMapping",
    "LoadReport",
    "Relation",
    "reconstruct_edge",
    "reconstruct_inlined",
    "sanitize_name",
    "sql_quote",
]
