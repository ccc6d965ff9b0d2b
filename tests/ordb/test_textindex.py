"""Content search: CONTAINS full-text, trigram LIKE, VECTOR distance.

Covers the posting-list index structures (DDL, journaled maintenance,
NULL/3VL semantics, ESCAPE handling), planner/EXPLAIN integration,
the seeded probe-vs-scan differential property, durability (WAL
replay and checkpoint rebuild) and the stats surface.
"""

import random

import pytest

from repro.ordb import (
    Database,
    NameInUse,
    NotSupported,
    TypeMismatch,
)
from repro.ordb.errors import ParseError
from repro.ordb.sql import ast
from repro.ordb.textindex import (
    FullTextIndex,
    TrigramIndex,
    like_fragments,
    parse_contains_query,
    pattern_trigrams,
    tokenize,
    trigrams,
    vector_distance,
)


def verify_all(db: Database) -> None:
    for table in db.catalog.tables.values():
        problems = table.indexes.verify(table.data.rows)
        assert problems == [], problems


def plan_text(db: Database, sql: str) -> str:
    return "\n".join(row[0] for row in db.execute("EXPLAIN " + sql).rows)


DOCS = [
    (0, "the quick brown fox jumps over the lazy dog"),
    (1, "a lazy afternoon nap"),
    (2, "Quick thinking saves the day"),
    (3, "100% of surveyed foxes prefer chicken"),
    (4, None),
    (5, "quick quick slow"),
]


@pytest.fixture
def docs(db):
    db.execute("CREATE TABLE docs(id NUMBER PRIMARY KEY,"
               " body VARCHAR2(200))")
    for key, text in DOCS:
        rendered = "NULL" if text is None else "'" + text + "'"
        db.execute(f"INSERT INTO docs VALUES ({key}, {rendered})")
    db.execute("CREATE INDEX docs_ft ON docs (body) USING FULLTEXT")
    db.execute("CREATE INDEX docs_tg ON docs (body) USING TRIGRAM")
    return db


# -- text decomposition helpers -----------------------------------------------------


class TestDecomposition:
    def test_tokenize_lowercases_and_splits_punctuation(self):
        assert tokenize("Quick, brown FOX!") == {"quick", "brown",
                                                 "fox"}
        assert tokenize(None) == frozenset()
        assert tokenize(123) == frozenset()

    def test_trigrams_fold_case(self):
        assert trigrams("AbCd") == {"abc", "bcd"}
        assert trigrams("ab") == frozenset()
        assert trigrams(None) == frozenset()

    def test_contains_query_and_binds_tighter_than_or(self):
        assert parse_contains_query("a AND b OR c") == (("a", "b"),
                                                        ("c",))
        assert parse_contains_query("lazy dog") == (("lazy", "dog"),)
        assert parse_contains_query("") == ()

    def test_like_fragments_resolve_escapes(self):
        assert like_fragments("%abc%def%") == ["abc", "def"]
        assert like_fragments("a_c") == ["a", "c"]
        assert like_fragments("%100!%%", "!") == ["100%"]
        assert like_fragments("%!!%", "!") == ["!"]
        # malformed escapes: no fragments, evaluator raises later
        assert like_fragments("%a!b%", "!") is None
        assert like_fragments("%a!", "!") is None

    def test_pattern_trigrams_need_three_letter_fragments(self):
        assert pattern_trigrams("%ab%") == frozenset()
        assert pattern_trigrams("%Lazy%") == {"laz", "azy"}
        assert pattern_trigrams("%100!%%", "!") == {"100", "00%"}


# -- DDL ----------------------------------------------------------------------------


class TestContentIndexDdl:
    def test_create_backfills_existing_rows(self, docs):
        table = docs.catalog.table("docs")
        fulltext = next(i for i in table.indexes
                        if isinstance(i, FullTextIndex))
        trigram = next(i for i in table.indexes
                       if isinstance(i, TrigramIndex))
        assert "quick" in fulltext.postings
        assert len(fulltext.postings["quick"]) == 3
        assert "laz" in trigram.postings
        verify_all(docs)

    def test_unknown_method_is_a_parse_error(self, db):
        db.execute("CREATE TABLE t(a VARCHAR2(10))")
        with pytest.raises(ParseError):
            db.execute("CREATE INDEX i ON t (a) USING BTREE")

    def test_content_index_covers_exactly_one_column(self, db):
        db.execute("CREATE TABLE t(a VARCHAR2(10), b VARCHAR2(10))")
        with pytest.raises(NotSupported):
            db.execute("CREATE INDEX i ON t (a, b) USING FULLTEXT")

    def test_content_index_requires_string_column(self, db):
        # a probe over a non-string column would silently drop rows
        # the full-scan evaluators raise TypeMismatch on, so plan
        # choice could change the query outcome
        db.execute("CREATE TABLE t(n NUMBER, v VECTOR(2))")
        with pytest.raises(TypeMismatch, match="string"):
            db.execute("CREATE INDEX t_ft ON t (n) USING FULLTEXT")
        with pytest.raises(TypeMismatch, match="string"):
            db.execute("CREATE INDEX t_tg ON t (v) USING TRIGRAM")

    def test_content_index_accepts_clob(self, db):
        db.execute("CREATE TABLE t(a CLOB)")
        db.execute("CREATE INDEX t_ft ON t (a) USING FULLTEXT")
        db.execute("CREATE INDEX t_tg ON t (a) USING TRIGRAM")

    def test_name_collision_rejected(self, docs):
        with pytest.raises(NameInUse):
            docs.execute(
                "CREATE INDEX docs_ft ON docs (body) USING TRIGRAM")

    def test_drop_index_removes_probes(self, docs):
        docs.execute("DROP INDEX docs_tg")
        docs.reset_stats()
        rows = docs.execute(
            "SELECT d.id FROM docs d WHERE d.body LIKE '%lazy%'").rows
        assert sorted(rows) == [(0,), (1,)]
        assert docs.stats["trigram_lookups"] == 0

    def test_create_index_rolls_back(self, db):
        db.execute("CREATE TABLE t(a VARCHAR2(20))")
        db.execute("INSERT INTO t VALUES ('hello world')")
        with db.session(name="ddl") as session:
            session.execute("BEGIN")
            session.execute(
                "CREATE INDEX t_ft ON t (a) USING FULLTEXT")
            session.execute("ROLLBACK")
        table = db.catalog.table("t")
        assert not any(isinstance(i, FullTextIndex)
                       for i in table.indexes)


# -- CONTAINS -----------------------------------------------------------------------


class TestContains:
    def test_and_or_word_semantics(self, docs):
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body, 'quick AND"
                            " lazy')").rows
        assert sorted(rows) == [(0,)]
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body, 'nap OR"
                            " chicken')").rows
        assert sorted(rows) == [(1,), (3,)]

    def test_match_is_case_insensitive(self, docs):
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body, 'QUICK')").rows
        assert sorted(rows) == [(0,), (2,), (5,)]

    def test_null_body_is_unknown(self, docs):
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body, 'quick')").rows
        assert (4,) not in rows
        rows = docs.execute(
            "SELECT d.id FROM docs d"
            " WHERE NOT CONTAINS(d.body, 'quick')").rows
        assert (4,) not in rows  # UNKNOWN negated is still UNKNOWN

    def test_null_query_is_unknown(self, docs):
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body, NULL)").rows
        assert rows == []

    def test_empty_query_matches_nothing(self, docs):
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body, '  ')").rows
        assert rows == []

    def test_unknown_word_is_provably_empty_probe(self, docs):
        docs.reset_stats()
        rows = docs.execute(
            "SELECT d.id FROM docs d"
            " WHERE CONTAINS(d.body, 'xylophone')").rows
        assert rows == []
        assert docs.stats["fulltext_lookups"] == 1
        assert docs.stats["rows_scanned"] == 0

    def test_contains_without_index_scans(self, db):
        db.execute("CREATE TABLE t(a VARCHAR2(20))")
        db.execute("INSERT INTO t VALUES ('alpha beta')")
        rows = db.execute("SELECT t.a FROM t"
                          " WHERE CONTAINS(t.a, 'beta')").rows
        assert rows == [("alpha beta",)]
        assert db.stats["fulltext_lookups"] == 0

    def test_contains_requires_string_column(self, db):
        db.execute("CREATE TABLE t(n NUMBER)")
        db.execute("INSERT INTO t VALUES (7)")
        with pytest.raises(TypeMismatch):
            db.execute("SELECT t.n FROM t WHERE CONTAINS(t.n, 'x')")


# -- trigram LIKE -------------------------------------------------------------------


class TestTrigramLike:
    def test_non_prefix_like_uses_trigram_probe(self, docs):
        docs.reset_stats()
        rows = docs.execute(
            "SELECT d.id FROM docs d"
            " WHERE d.body LIKE '%lazy%'").rows
        assert sorted(rows) == [(0,), (1,)]
        assert docs.stats["trigram_lookups"] == 1
        assert docs.stats["full_scans"] == 0

    def test_candidates_are_filtered_case_sensitively(self, docs):
        # the index folds case (superset), LIKE itself does not
        rows = docs.execute(
            "SELECT d.id FROM docs d"
            " WHERE d.body LIKE '%Quick%'").rows
        assert sorted(rows) == [(2,)]

    def test_escaped_pattern_probes_and_matches(self, docs):
        docs.reset_stats()
        rows = docs.execute(
            "SELECT d.id FROM docs d"
            " WHERE d.body LIKE '%100!%%' ESCAPE '!'").rows
        assert sorted(rows) == [(3,)]
        assert docs.stats["trigram_lookups"] == 1

    def test_short_fragments_fall_back_to_scan(self, docs):
        docs.reset_stats()
        rows = docs.execute(
            "SELECT d.id FROM docs d WHERE d.body LIKE '%ox%'").rows
        assert sorted(rows) == [(0,), (3,)]
        assert docs.stats["trigram_lookups"] == 0
        assert docs.stats["full_scans"] == 1

    def test_null_body_never_matches(self, docs):
        rows = docs.execute(
            "SELECT d.id FROM docs d WHERE d.body LIKE '%a%'").rows
        assert (4,) not in rows

    def test_wildcard_underscore_splits_fragments(self, docs):
        rows = docs.execute(
            "SELECT d.id FROM docs d"
            " WHERE d.body LIKE '%l_zy%'").rows
        assert sorted(rows) == [(0,), (1,)]

    def test_absent_trigram_is_provably_empty(self, docs):
        docs.reset_stats()
        rows = docs.execute(
            "SELECT d.id FROM docs d"
            " WHERE d.body LIKE '%zzzqqq%'").rows
        assert rows == []
        assert docs.stats["trigram_lookups"] == 1
        assert docs.stats["rows_scanned"] == 0


# -- VECTOR similarity --------------------------------------------------------------


class TestVector:
    @pytest.fixture
    def spots(self, db):
        db.execute("CREATE TABLE spots(id NUMBER PRIMARY KEY,"
                   " emb VECTOR(2))")
        for key, vec in [(0, "[1, 0]"), (1, "[0, 1]"),
                         (2, "[0.9, 0.1]")]:
            db.execute(f"INSERT INTO spots VALUES ({key}, '{vec}')")
        return db

    def test_vector_type_roundtrip(self, spots):
        row = spots.execute(
            "SELECT s.emb FROM spots s WHERE s.id = 0").rows[0]
        assert row[0] == (1.0, 0.0)

    def test_dimension_mismatch_rejected(self, spots):
        with pytest.raises(TypeMismatch):
            spots.execute("INSERT INTO spots VALUES (9, '[1,2,3]')")

    def test_cosine_topk_with_fetch_first(self, spots):
        rows = spots.execute(
            "SELECT s.id FROM spots s"
            " ORDER BY VECTOR_DISTANCE(s.emb, '[1, 0]')"
            " FETCH FIRST 2 ROWS ONLY").rows
        assert [row[0] for row in rows] == [0, 2]

    def test_euclidean_metric_identifier(self, spots):
        value = spots.execute(
            "SELECT VECTOR_DISTANCE(s.emb, '[1, 0]', EUCLIDEAN)"
            " FROM spots s WHERE s.id = 1").scalar()
        assert value == pytest.approx(2 ** 0.5)

    def test_metric_as_string_literal(self, spots):
        value = spots.execute(
            "SELECT VECTOR_DISTANCE(s.emb, '[0, 1]', 'COSINE')"
            " FROM spots s WHERE s.id = 1").scalar()
        assert value == pytest.approx(0.0)

    def test_unknown_metric_rejected(self, spots):
        with pytest.raises(TypeMismatch):
            spots.execute("SELECT VECTOR_DISTANCE(s.emb, '[1,0]',"
                          " MANHATTAN) FROM spots s")

    def test_null_operand_is_null(self, spots):
        spots.execute("INSERT INTO spots VALUES (3, NULL)")
        rows = spots.execute(
            "SELECT s.id FROM spots s"
            " WHERE VECTOR_DISTANCE(s.emb, '[1,0]') < 2").rows
        assert (3,) not in rows

    def test_vector_scans_counted_per_statement(self, spots):
        spots.reset_stats()
        spots.execute("SELECT VECTOR_DISTANCE(s.emb, '[1,0]')"
                      " FROM spots s")
        assert spots.stats["vector_scans"] == 1
        spots.execute("SELECT s.id FROM spots s")
        assert spots.stats["vector_scans"] == 1

    def test_fetch_first_without_order_by(self, spots):
        rows = spots.execute(
            "SELECT s.id FROM spots s FETCH FIRST 1 ROW ONLY").rows
        assert len(rows) == 1

    def test_distance_helper_validates_dimensions(self):
        with pytest.raises(TypeMismatch):
            vector_distance((1.0, 0.0), (1.0, 0.0, 0.0))
        with pytest.raises(TypeMismatch):
            vector_distance((0.0, 0.0), (1.0, 0.0))  # zero cosine


# -- maintenance through DML and rollback -------------------------------------------


class TestMaintenance:
    def test_insert_update_delete_keep_postings(self, docs):
        docs.execute("INSERT INTO docs VALUES (6, 'brand new words')")
        verify_all(docs)
        docs.execute("UPDATE docs SET body = 'rewritten entirely'"
                     " WHERE id = 6")
        verify_all(docs)
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body,"
                            " 'rewritten')").rows
        assert rows == [(6,)]
        docs.execute("DELETE FROM docs WHERE id = 6")
        verify_all(docs)
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body,"
                            " 'rewritten')").rows
        assert rows == []

    def test_untouched_column_short_circuits(self, docs):
        docs.execute("UPDATE docs SET id = 9 WHERE id = 5")
        verify_all(docs)
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body, 'slow')").rows
        assert rows == [(9,)]

    def test_rollback_restores_postings(self, docs):
        with docs.session(name="rb") as session:
            session.execute("BEGIN")
            session.execute("UPDATE docs SET body = 'overwritten'"
                            " WHERE id = 0")
            session.execute("DELETE FROM docs WHERE id = 1")
            session.execute("INSERT INTO docs VALUES"
                            " (7, 'transient row')")
            session.execute("ROLLBACK")
        verify_all(docs)
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body, 'quick AND"
                            " lazy')").rows
        assert rows == [(0,)]
        rows = docs.execute("SELECT d.id FROM docs d"
                            " WHERE CONTAINS(d.body,"
                            " 'transient')").rows
        assert rows == []


# -- planner + EXPLAIN --------------------------------------------------------------


class TestPlansAndExplain:
    def test_explain_renders_trigram_scan_with_cost(self, docs):
        rendered = plan_text(
            docs, "SELECT d.id FROM docs d"
                  " WHERE d.body LIKE '%lazy%'")
        assert "TRIGRAM INDEX SCAN" in rendered
        assert "cost=" in rendered

    def test_explain_renders_fulltext_scan_with_cost(self, docs):
        rendered = plan_text(
            docs, "SELECT d.id FROM docs d"
                  " WHERE CONTAINS(d.body, 'quick')")
        assert "FULLTEXT INDEX SCAN" in rendered
        assert "cost=" in rendered

    def test_explain_renders_vector_distance_cost(self, docs):
        docs.execute("CREATE TABLE v(id NUMBER, emb VECTOR(2))")
        rendered = plan_text(
            docs, "SELECT v.id FROM v"
                  " ORDER BY VECTOR_DISTANCE(v.emb, '[1,0]')"
                  " FETCH FIRST 1 ROW ONLY")
        assert "cost=" in rendered

    def test_scan_wins_when_probe_estimates_everything(self, db):
        # every row holds the needle: posting list == table, so the
        # probe price ties the scan and the probe still wins the tie
        db.execute("CREATE TABLE t(a VARCHAR2(20))")
        for n in range(8):
            db.execute(f"INSERT INTO t VALUES ('common word {n}')")
        db.execute("CREATE INDEX t_ft ON t (a) USING FULLTEXT")
        rendered = plan_text(
            db, "SELECT t.a FROM t WHERE CONTAINS(t.a, 'common')")
        assert "FULLTEXT INDEX SCAN" in rendered


class TestContentSearchWorkAtScale:
    """2 000 documents, 40 of them matching: LIKE '%needle%' and
    CONTAINS probe their indexes and visit only the matching rows,
    where the forced scan visits every row per query."""

    ROWS, MATCHES = 2000, 40

    @pytest.fixture(scope="class")
    def corpus(self):
        db = Database()
        db.execute("CREATE TABLE docs(pk NUMBER PRIMARY KEY,"
                   " body VARCHAR2(80))")
        step = self.ROWS // self.MATCHES
        for n in range(self.ROWS):
            body = (f"lorem ipsum needle {n} magicword text"
                    if n % step == 0 else
                    f"lorem ipsum dolor {n} filler text")
            db.execute(ast.Insert(table="docs", values=(
                ast.Literal(n), ast.Literal(body))))
        db.execute("CREATE INDEX docs_trgm ON docs (body) USING TRIGRAM")
        db.execute("CREATE INDEX docs_ft ON docs (body)"
                   " USING FULLTEXT")
        return db

    @pytest.mark.parametrize("predicate, operation, counter", [
        ("d.body LIKE '%needle%'", "TRIGRAM INDEX SCAN",
         "trigram_lookups"),
        ("CONTAINS(d.body, 'magicword')", "FULLTEXT INDEX SCAN",
         "fulltext_lookups"),
    ], ids=["trigram", "fulltext"])
    def test_probe_beats_the_scan_in_rows_visited(
            self, corpus, predicate, operation, counter):
        sql = f"SELECT d.pk FROM docs d WHERE {predicate}"
        rendered = plan_text(corpus, sql)
        assert operation in rendered
        assert "cost=" in rendered
        corpus.reset_stats()
        for _ in range(5):
            assert corpus.execute(sql).rowcount == self.MATCHES
        assert corpus.stats[counter] == 5
        assert corpus.stats["planner_full_scan_fallbacks"] == 0
        probed = corpus.stats["rows_scanned"]
        corpus.enable_indexes = False
        corpus.reset_stats()
        try:
            assert corpus.execute(sql).rowcount == self.MATCHES
        finally:
            corpus.enable_indexes = True
        assert corpus.stats["rows_scanned"] == self.ROWS
        assert probed == 5 * self.MATCHES


# -- seeded differential property ---------------------------------------------------


class TestContentDifferential:
    WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel"]

    def _populate(self, db, seed: int) -> None:
        rng = random.Random(seed)
        db.execute("CREATE TABLE d(pk NUMBER PRIMARY KEY,"
                   " body VARCHAR2(120), emb VECTOR(2))")
        db.execute("CREATE INDEX d_ft ON d (body) USING FULLTEXT")
        db.execute("CREATE INDEX d_tg ON d (body) USING TRIGRAM")
        for pk in range(80):
            if rng.random() < 0.15:
                body = "NULL"
            else:
                words = rng.sample(self.WORDS, rng.randint(1, 4))
                body = "'" + " ".join(words) + "'"
            emb = f"'[{rng.randint(0, 9)}, {rng.randint(1, 9)}]'"
            db.execute(
                f"INSERT INTO d VALUES ({pk}, {body}, {emb})")

    def _predicate(self, rng) -> str:
        w1, w2 = rng.sample(self.WORDS, 2)
        fragment = w1[1:1 + rng.randint(2, 4)]
        return rng.choice([
            f"CONTAINS(d.body, '{w1}')",
            f"CONTAINS(d.body, '{w1} AND {w2}')",
            f"CONTAINS(d.body, '{w1} OR {w2}')",
            f"d.body LIKE '%{fragment}%'",
            f"d.body LIKE '%{w1}%{w2}%'",
            f"d.body LIKE '%{fragment}!%%' ESCAPE '!'",
            f"VECTOR_DISTANCE(d.emb, '[5, 5]') < 0.1",
            f"VECTOR_DISTANCE(d.emb, '[3, 1]', EUCLIDEAN) < 4",
        ])

    def test_plans_match_forced_full_scan(self, db):
        self._populate(db, seed=4242)
        rng = random.Random(4242)
        for _ in range(60):
            sql = (f"SELECT d.pk FROM d"
                   f" WHERE {self._predicate(rng)}")
            db.enable_indexes = True
            probed = sorted(db.execute(sql).rows)
            db.enable_indexes = False
            scanned = sorted(db.execute(sql).rows)
            db.enable_indexes = True
            assert probed == scanned, sql
        assert db.stats["fulltext_lookups"] > 0
        assert db.stats["trigram_lookups"] > 0
        assert db.stats["vector_scans"] > 0

    def test_dml_keeps_indexes_and_scans_agreeing(self):
        indexed = Database()
        plain = Database(enable_indexes=False)
        self._populate(indexed, seed=11)
        self._populate(plain, seed=11)
        rng = random.Random(11)
        snapshot = "SELECT d.pk, d.body FROM d ORDER BY d.pk"
        for trial in range(10):
            predicate = self._predicate(rng)
            if trial % 3 == 2:
                sql = f"DELETE FROM d WHERE {predicate}"
            else:
                word = rng.choice(self.WORDS)
                sql = (f"UPDATE d SET body = '{word} rewrite"
                       f" {trial}' WHERE {predicate}")
            first = indexed.execute(sql)
            second = plain.execute(sql)
            assert first.rowcount == second.rowcount, sql
            assert indexed.execute(snapshot).rows \
                == plain.execute(snapshot).rows, sql
        verify_all(indexed)


# -- durability ---------------------------------------------------------------------


class TestDurability:
    def _seed(self, db) -> None:
        db.execute("CREATE TABLE docs(id NUMBER PRIMARY KEY,"
                   " body VARCHAR2(100))")
        db.execute("INSERT INTO docs VALUES (1, 'durable words')")
        db.execute(
            "CREATE INDEX docs_ft ON docs (body) USING FULLTEXT")
        db.execute(
            "CREATE INDEX docs_tg ON docs (body) USING TRIGRAM")
        db.execute("INSERT INTO docs VALUES (2, 'replayed payload')")

    def _check(self, recovered: Database) -> None:
        table = recovered.catalog.table("docs")
        kinds = {type(index).__name__ for index in table.indexes}
        assert {"FullTextIndex", "TrigramIndex"} <= kinds
        verify_all(recovered)
        recovered.reset_stats()
        rows = recovered.execute(
            "SELECT d.id FROM docs d"
            " WHERE CONTAINS(d.body, 'replayed')").rows
        assert rows == [(2,)]
        assert recovered.stats["fulltext_lookups"] == 1
        rows = recovered.execute(
            "SELECT d.id FROM docs d"
            " WHERE d.body LIKE '%urabl%'").rows
        assert rows == [(1,)]
        assert recovered.stats["trigram_lookups"] == 1

    def test_content_indexes_rebuild_after_wal_replay(self, tmp_path):
        db = Database(path=tmp_path / "wal.db")
        self._seed(db)
        db.close()
        recovered = Database(path=tmp_path / "wal.db")
        assert recovered.recovery_info["statements_replayed"] > 0
        self._check(recovered)
        recovered.close()

    def test_content_indexes_rebuild_after_checkpoint(self, tmp_path):
        db = Database(path=tmp_path / "ckpt.db")
        self._seed(db)
        db.checkpoint()
        db.execute("UPDATE docs SET body = 'post checkpoint edit'"
                   " WHERE id = 1")
        db.close()
        recovered = Database(path=tmp_path / "ckpt.db")
        assert recovered.recovery_info["checkpoint_loaded"]
        table = recovered.catalog.table("docs")
        verify_all(recovered)
        rows = recovered.execute(
            "SELECT d.id FROM docs d"
            " WHERE CONTAINS(d.body, 'checkpoint')").rows
        assert rows == [(1,)]
        recovered.close()

    def test_rebuild_matches_fresh_build_exactly(self, tmp_path):
        db = Database(path=tmp_path / "same.db")
        self._seed(db)
        before = {
            index.name: {term: sorted(row.values["ID"]
                                      for row in bucket)
                         for term, bucket in index.postings.items()}
            for index in db.catalog.table("docs").indexes
            if isinstance(index, (FullTextIndex, TrigramIndex))
        }
        db.close()
        recovered = Database(path=tmp_path / "same.db")
        after = {
            index.name: {term: sorted(row.values["ID"]
                                      for row in bucket)
                         for term, bucket in index.postings.items()}
            for index in recovered.catalog.table("docs").indexes
            if isinstance(index, (FullTextIndex, TrigramIndex))
        }
        assert before == after
        recovered.close()


# -- stats surface ------------------------------------------------------------------


class TestStatsSurface:
    def test_new_counters_present_after_reset(self, db):
        db.reset_stats()
        for key in ("fulltext_lookups", "trigram_lookups",
                    "vector_scans"):
            assert db.stats[key] == 0

    def test_obs_metrics_mirror_content_lookups(self):
        from repro.obs import Observability

        obs = Observability(enabled=True)
        db = Database(obs=obs)
        db.execute("CREATE TABLE t(a VARCHAR2(40), e VECTOR(2))")
        db.execute("INSERT INTO t VALUES ('needle in haystack',"
                   " '[1, 2]')")
        db.execute("CREATE INDEX t_ft ON t (a) USING FULLTEXT")
        db.execute("CREATE INDEX t_tg ON t (a) USING TRIGRAM")
        db.execute("SELECT t.a FROM t WHERE CONTAINS(t.a, 'needle')")
        db.execute("SELECT t.a FROM t WHERE t.a LIKE '%aysta%'")
        db.execute("SELECT VECTOR_DISTANCE(t.e, '[1, 2]') FROM t")
        # the counts live in db.stats alone, observed or not
        assert db.stats["fulltext_lookups"] == 1
        assert db.stats["trigram_lookups"] == 1
        assert db.stats["vector_scans"] == 1
