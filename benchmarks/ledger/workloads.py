"""The six ledger workloads.

Each workload builds its system in ``setup()`` (timed as ``setup_s``),
runs identical rounds of operations through ``harness.run_rounds``,
and verifies what the system stored or answered in ``finish()``.
Inputs come from ``repro.workloads`` generators seeded by ``--seed``
and are made outside every timed region.  The queried data never
grows while a run measures: where a workload stores documents beside
its reads, the reads touch data that was preloaded, so a faster
ingest does not make the reads look slower.

README.md states why each workload exists and which layers it
exercises and bypasses.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

from harness import Ops, clock, median_ms, run_rounds
from repro.client import connect
from repro.core import XML2Oracle
from repro.core.retriever import Retriever
from repro.core.roundtrip import identical
from repro.ordb import Database, ShardedDatabase, verify_integrity
from repro.ordb.sql import ast
from repro.workloads import (
    UNIVERSITY_DTD,
    make_university_xml,
    university_dtd,
)
from repro.xmlkit import parse as parse_xml

SRC = str(Path(__file__).resolve().parents[2] / "src")

SMALL_STUDENTS = 5
LARGE_STUDENTS = 100

#: an extra metric: value, unit, direction, regression bound (None =
#: a count or diagnostic that compare.py reports but does not gate)
Extra = tuple[float, str, str, float | None]


def _documents(rng: random.Random, count: int,
               students: int = SMALL_STUDENTS) -> list[str]:
    return [make_university_xml(students=students,
                                seed=rng.randrange(2 ** 31))
            for _ in range(count)]


def _students(xml: str) -> list[tuple[str, str]]:
    """(LName, FName) of every student of a generated document."""
    return re.findall(r"<LName>(.*?)</LName>\s*<FName>(.*?)</FName>",
                      xml)


def _parse_fetched(text: str):
    """Parse what ``fetch_text`` returned.  It re-substitutes the
    DTD's ``&cs;`` entity but carries no DOCTYPE to declare it."""
    return parse_xml(text.replace("&cs;", "Computer Science"))


def _sample(rng: random.Random, items: list, count: int) -> list:
    return rng.sample(items, min(count, len(items)))


class Workload:
    """Base: the single-client measuring loop and the bookkeeping
    every workload shares."""

    name = ""
    #: operation classes whose pooled median is ``p50_ms``
    primary: tuple[str, ...] = ()
    #: what ``ops_per_s`` counts
    op_unit = "statements"

    def __init__(self, seed: int, scale: float, scratch: Path,
                 recorder=None):
        self.seed = seed
        self.scale = scale
        self.scratch = scratch
        self.recorder = recorder
        self.setups = 0
        self.db = None

    def sized(self, base: int, floor: int = 1) -> int:
        return max(floor, round(base * self.scale))

    def rng(self, *salt) -> random.Random:
        return random.Random(
            "/".join(str(part) for part in (self.seed, self.name, *salt)))

    def fresh_dir(self) -> Path:
        self.setups += 1
        return self.scratch / f"{self.name}-{self.setups}"

    # -- lifecycle, overridden per workload -----------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def prepare(self, round_no: int, client: int):
        raise NotImplementedError

    def round(self, inputs, ops: Ops, client: int) -> None:
        raise NotImplementedError

    def finish(self, ops: Ops) -> dict[str, Extra]:
        return {}

    # -- measuring --------------------------------------------------------------------

    def warm_up(self) -> None:
        """One unmeasured round (numbered -1: no measured round
        reuses its inputs)."""
        warm = self.run(0.0, 1, first=-1)
        if warm.problems or warm.failed:
            raise RuntimeError(
                f"{self.name}: warm-up round went wrong:"
                f" {warm.problems + warm.failures}")

    def run(self, seconds: float, rounds: int | None,
            first: int = 0) -> Ops:
        ops = Ops(self.recorder)
        self.rounds_run = run_rounds(self, ops, seconds, rounds,
                                     first=first)
        return ops

    def start_counting(self) -> None:
        if self.db is not None:
            self.db.reset_stats()

    def counts(self) -> dict[str, int]:
        """Engine counters since ``start_counting``."""
        return dict(self.db.stats) if self.db is not None else {}


# -- ingest ---------------------------------------------------------------------------


class _Ingest(Workload):
    """Shared by the two single-thread ingest workloads: store XML
    text one document at a time and remember what was acknowledged."""

    primary = ("store",)
    op_unit = "documents"
    students = SMALL_STUDENTS
    preload = 0
    per_round = 0
    sampled = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.preload_docs = _documents(
            self.rng("preload"), self.sized(self.preload),
            self.students)

    def _new_tool(self) -> XML2Oracle:
        raise NotImplementedError

    def setup(self) -> None:
        self.tool = self._new_tool()
        self.db = self.tool.db
        self.schema = self.tool.register_schema(university_dtd())
        self.sources: dict[int, str] = {}
        self.xml_chars = self.statements = self.sql_chars = 0
        for xml in self.preload_docs:
            self.sources[self.tool.store(xml).doc_id] = xml

    def start_counting(self) -> None:
        super().start_counting()
        self.xml_chars = self.statements = self.sql_chars = 0

    def prepare(self, round_no: int, client: int) -> list[str]:
        return _documents(self.rng(round_no), self.per_round,
                          self.students)

    def round(self, inputs, ops: Ops, client: int) -> None:
        for xml in inputs:
            stored = ops.call("store", self.tool.store, xml)
            if stored is None:
                continue
            self.sources[stored.doc_id] = xml
            generated = stored.load_result.statements
            self.xml_chars += len(xml)
            self.statements += len(generated)
            self.sql_chars += sum(map(len, generated))

    def _ingest_extras(self, ops: Ops) -> dict[str, Extra]:
        documents = max(1, len(ops.samples["store"]))
        return {
            "store_p50_ms": (median_ms(ops.samples["store"]), "ms",
                             "lower", 0.08),
            "xml_mb_per_s": (
                self.xml_chars / documents * ops.throughput() / 1e6,
                "MB/s", "higher", 0.08),
            "statements_per_doc": (self.statements / documents,
                                   "count", "lower", None),
            "sql_chars_per_doc": (self.sql_chars / documents,
                                  "count", "lower", None),
        }

    def _check_stored(self, ops: Ops, db, fetch) -> None:
        """Every acknowledged document is there, and a sample of them
        reads back identical to its source."""
        count = db.execute(
            f"SELECT COUNT(*) FROM {self.schema.plan.root.table}"
        ).scalar()
        ops.check(count == len(self.sources),
                  f"{count} documents stored, {len(self.sources)}"
                  f" acknowledged")
        for doc_id in _sample(self.rng("verify"),
                              sorted(self.sources), self.sampled):
            ops.check(
                identical(parse_xml(self.sources[doc_id]),
                          fetch(doc_id)),
                f"document {doc_id} does not round-trip")


class IngestLargeMem(_Ingest):
    name = "ingest_large_mem"
    students = LARGE_STUDENTS
    preload = 2
    per_round = 2

    def _new_tool(self) -> XML2Oracle:
        return XML2Oracle(metadata=True)

    def finish(self, ops: Ops) -> dict[str, Extra]:
        self._check_stored(ops, self.db, self.tool.fetch)
        return self._ingest_extras(ops)


class IngestSmallDurable(_Ingest):
    name = "ingest_small_durable"
    preload = 30
    per_round = 10
    sampled = 5

    def _new_tool(self) -> XML2Oracle:
        self.path = self.fresh_dir()
        return XML2Oracle(db=Database(path=self.path, fsync="commit"),
                          metadata=True)

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            shutil.rmtree(self.path, ignore_errors=True)

    def finish(self, ops: Ops) -> dict[str, Extra]:
        wal_bytes = self.db.stats["wal_bytes"]
        self.db.close()
        start = clock()
        self.db = Database(path=self.path, fsync="commit")
        recovery_s = clock() - start
        info = self.db.recovery_info
        plan = self.schema.plan
        self._check_stored(
            ops, self.db,
            lambda doc_id: Retriever(self.db, plan).fetch(doc_id))
        problems = verify_integrity(self.db)
        ops.check(not problems, f"verify_integrity: {problems[:3]}")
        extras = self._ingest_extras(ops)
        extras.update({
            "recovery_s": (recovery_s, "s", "lower", 0.10),
            "recovery_ms_per_commit": (
                recovery_s * 1e3 / max(1, info["transactions_replayed"]),
                "ms", "lower", 0.10),
            "recovery_replay_share": (
                info["seconds"] / recovery_s, "ratio", "lower", None),
            "commits_recovered": (info["transactions_replayed"],
                                  "count", "higher", None),
            "wal_bytes_per_xml_byte": (
                wal_bytes / max(1, self.xml_chars), "ratio", "lower",
                0.01),
        })
        return extras


# -- queries --------------------------------------------------------------------------


KV_DDL = ("CREATE TABLE ledger_kv(pk NUMBER PRIMARY KEY,"
          " payload VARCHAR2(40))")


def _fill_table(db, rows: int, make_row) -> None:
    """Populate ``ledger_big`` with pre-parsed INSERTs: set-up is not
    where these workloads measure the SQL parser."""
    for n in range(rows):
        db.execute(ast.Insert(
            table="ledger_big",
            values=(ast.FunctionCall(
                "Type_LedgerBig",
                tuple(ast.Literal(value) for value in make_row(n))),)))


class QueryIndexed(Workload):
    name = "query_indexed"
    primary = ("point",)
    rows_per_key = 20
    blocks = 20
    block = (("point", 15), ("range", 1), ("contains", 3))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: distinct grp values = distinct body words; every one owns
        #: ``rows_per_key`` rows
        self.keys = self.sized(1000, floor=10)
        self.rows = self.keys * self.rows_per_key

    def payload(self, n: int) -> str:
        return f"row-{n}-{self.seed}"

    def setup(self) -> None:
        self.db = db = Database()
        db.executescript("""
            CREATE TYPE Type_LedgerBig AS OBJECT(
                pk NUMBER, grp NUMBER, payload VARCHAR2(40),
                body VARCHAR2(80));
            CREATE TABLE ledger_big OF Type_LedgerBig (pk PRIMARY KEY);
        """)
        keys = self.keys
        _fill_table(db, self.rows, lambda n: (
            n, n % keys, self.payload(n),
            f"alpha w{n % keys} beta x{n % 777} gamma"))
        db.execute("CREATE INDEX ledger_big_grp ON ledger_big (grp)")
        db.execute("CREATE INDEX ledger_big_ft ON ledger_big (body)"
                   " USING FULLTEXT")
        db.execute("ANALYZE TABLE ledger_big")

    def prepare(self, round_no: int, client: int) -> list[tuple]:
        rng = self.rng(round_no)
        statements = []
        for _ in range(self.blocks):
            for kind, count in self.block:
                for _ in range(count):
                    statements.append(self._statement(kind, rng))
        return statements

    def _statement(self, kind: str, rng: random.Random) -> tuple:
        if kind == "point":
            key = rng.randrange(self.rows)
            return (kind, "SELECT b.payload FROM ledger_big b"
                          f" WHERE b.pk = {key}",
                    [(self.payload(key),)])
        if kind == "range":
            low = rng.randrange(self.keys - 1)
            return (kind, "SELECT b.payload FROM ledger_big b"
                          f" WHERE b.grp BETWEEN {low} AND {low + 1}",
                    2 * self.rows_per_key)
        word = rng.randrange(self.keys)
        return (kind, "SELECT b.pk FROM ledger_big b"
                      f" WHERE CONTAINS(b.body, 'w{word}')",
                self.rows_per_key)

    def round(self, inputs, ops: Ops, client: int) -> None:
        execute = self.db.execute
        for kind, sql, expected in inputs:
            result = ops.call(kind, execute, sql)
            if result is None:
                continue
            ops.rows_returned += result.rowcount
            if kind == "point":
                ops.check(result.rows == expected,
                          f"{sql}: {result.rows!r}")
            else:
                ops.check(result.rowcount == expected,
                          f"{sql}: {result.rowcount} rows,"
                          f" expected {expected}")

    def finish(self, ops: Ops) -> dict[str, Extra]:
        count = self.db.execute(
            "SELECT COUNT(*) FROM ledger_big").scalar()
        ops.check(count == self.rows, f"{count} rows in ledger_big")
        return {f"{kind}_p50_ms": (median_ms(ops.samples[kind]), "ms",
                                   "lower", 0.08)
                for kind, _ in self.block}


class QueryScanPath(Workload):
    name = "query_scan_path"
    primary = ("scan",)
    fetches = 20
    groups = 100

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = self.sized(6000, floor=self.groups * 2)
        self.preload_docs = _documents(self.rng("preload"),
                                       self.sized(100, floor=4))

    def row(self, n: int) -> tuple:
        # 10007 is prime, so val is distinct per row: ORDER BY val has
        # one right answer
        return (n, n % self.groups, (n * 7919 + self.seed) % 10007,
                f"row-{n}-{self.seed}")

    def setup(self) -> None:
        self.tool = XML2Oracle(metadata=True)
        self.db = db = self.tool.db
        self.tool.register_schema(university_dtd())
        self.sources = {self.tool.store(xml).doc_id: xml
                        for xml in self.preload_docs}
        db.executescript("""
            CREATE TYPE Type_LedgerBig AS OBJECT(
                pk NUMBER, grp NUMBER, val NUMBER,
                payload VARCHAR2(40));
            CREATE TABLE ledger_big OF Type_LedgerBig (pk PRIMARY KEY);
        """)
        _fill_table(db, self.rows, self.row)
        statements = self._statements()
        self.sets = {kind: [entry for entry in statements
                            if entry[0] == kind]
                     for kind in ("path", "scan")}

    def _statements(self) -> list[tuple[str, str, object]]:
        """(class, SQL, expected) of the eight fixed statements; the
        expectations are worked out here from the generated inputs,
        not asked of the engine."""
        table = [self.row(n) for n in range(self.rows)]
        docs = list(self.sources.values())
        query = self.tool.path_query
        by_val = sorted(table, key=lambda row: -row[2])[:10]
        low = [row[2] for row in table if row[1] < self.groups // 2]
        groups: dict[int, list[int]] = {}
        for row in table:
            groups.setdefault(row[1], []).append(row[2])
        return [
            ("path", query("University/Student/LName").sql,
             sum(len(_students(xml)) for xml in docs)),
            ("path", query("University/Student",
                           ("Course/Professor/PName", "=", "Jaeger"),
                           select="LName").sql,
             sum(xml.count("<PName>Jaeger</PName>") for xml in docs)),
            ("path",
             query("University/Student/Course/Professor/Subject").sql,
             sum(xml.count("<Subject>") for xml in docs)),
            ("scan", "SELECT b.grp, COUNT(*), AVG(b.val)"
                     " FROM ledger_big b GROUP BY b.grp",
             sorted((grp, len(vals), sum(vals) / len(vals))
                    for grp, vals in groups.items())),
            ("scan", "SELECT COUNT(*) FROM ledger_big b"
                     " WHERE b.payload LIKE '%-17%'",
             [(sum("-17" in row[3] for row in table),)]),
            ("scan", "SELECT b.pk, b.val FROM ledger_big b"
                     " ORDER BY b.val DESC FETCH FIRST 10 ROWS ONLY",
             [(row[0], row[2]) for row in by_val]),
            ("scan", "SELECT COUNT(*) FROM ledger_big",
             [(self.rows,)]),
            ("scan", "SELECT MIN(b.val), MAX(b.val) FROM ledger_big b"
                     f" WHERE b.grp < {self.groups // 2}",
             [(min(low), max(low))]),
        ]

    @staticmethod
    def _right(sql: str, expected, result) -> bool:
        if isinstance(expected, int):
            return result.rowcount == expected
        if "GROUP BY" in sql:
            got = sorted((grp, count, float(avg))
                         for grp, count, avg in result.rows)
            return len(got) == len(expected) and all(
                a[:2] == b[:2] and abs(a[2] - b[2]) < 1e-6
                for a, b in zip(got, expected))
        return result.rows == expected

    def prepare(self, round_no: int, client: int) -> list[int]:
        rng = self.rng(round_no)
        doc_ids = sorted(self.sources)
        return [rng.choice(doc_ids) for _ in range(self.fetches)]

    def _run_set(self, statements: list[tuple]) -> list:
        return [self.db.execute(sql) for _, sql, _ in statements]

    def round(self, inputs, ops: Ops, client: int) -> None:
        # the statements of a class differ in cost by up to 6x, so a
        # median over single statements would sit between two of
        # them; one sample is one pass over the whole class
        for kind, statements in self.sets.items():
            results = ops.call(kind, self._run_set, statements,
                               weight=len(statements))
            for (_, sql, expected), result in zip(statements,
                                                  results or ()):
                ops.rows_returned += result.rowcount
                ops.check(self._right(sql, expected, result),
                          f"wrong answer to: {sql}")
        for doc_id in inputs:
            text = ops.call("fetch", self.tool.fetch_text, doc_id)
            if text is not None:
                self.last_fetch = (doc_id, text)
                ops.check(text.count("<Student ") == SMALL_STUDENTS,
                          f"fetch_text({doc_id}) lost students")

    def finish(self, ops: Ops) -> dict[str, Extra]:
        doc_ids = _sample(self.rng("verify"), sorted(self.sources), 4)
        texts = [(doc_id, self.tool.fetch_text(doc_id))
                 for doc_id in doc_ids] + [self.last_fetch]
        for doc_id, text in texts:
            ops.check(identical(parse_xml(self.sources[doc_id]),
                                _parse_fetched(text)),
                      f"document {doc_id} does not round-trip")
        return {name: (median_ms(ops.samples[kind]), "ms", "lower", 0.12)
                for kind, name in (("path", "path_set_p50_ms"),
                                   ("scan", "scan_set_p50_ms"),
                                   ("fetch", "fetch_p50_ms"))}


# -- the wire -------------------------------------------------------------------------


class ServerMixedRW(Workload):
    name = "server_mixed_rw"
    primary = ("point",)
    reads = ("point", "fetch", "query")
    op_unit = "requests"
    clients = 2
    mix = (("point", 30), ("fetch", 10), ("query", 5), ("store", 5))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kv_rows = self.sized(1000, floor=50)
        self.preload_docs = _documents(self.rng("preload"),
                                       self.sized(40, floor=4))
        self.proc = None
        self.connections = []

    def payload(self, n: int) -> str:
        return f"row-{n}-{self.seed}"

    def _fill_kv(self, executor) -> None:
        """The point-select table, on a connection or an engine."""
        executor.execute(KV_DDL)
        for n in range(self.kv_rows):
            executor.execute(f"INSERT INTO ledger_kv VALUES({n},"
                             f" '{self.payload(n)}')")

    def setup(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                     else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        banner = self.proc.stderr.readline()
        found = re.search(r"ordb://\S+", banner)
        if found is None:
            raise RuntimeError(f"server did not start: {banner!r}"
                               f" {self.proc.stderr.read()!r}")
        self.url = found.group(0)
        self.admin = admin = connect(self.url)
        self.connections = [admin]
        admin.register_schema(dtd=UNIVERSITY_DTD)
        self._fill_kv(admin)
        self.preloaded = {admin.store(xml)["doc_id"]: xml
                          for xml in self.preload_docs}
        self.stored: dict[int, str] = {}
        self.clients_conn = [connect(self.url)
                             for _ in range(self.clients)]
        self.connections += self.clients_conn

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.proc is not None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
            self.proc = None

    def prepare(self, round_no: int, client: int) -> list[tuple]:
        rng = self.rng(round_no, client)
        doc_ids = sorted(self.preloaded)
        requests = []
        for kind, count in self.mix:
            for _ in range(count):
                if kind == "point":
                    requests.append((kind, rng.randrange(self.kv_rows)))
                elif kind == "store":
                    requests.append((kind, _documents(rng, 1)[0]))
                else:
                    requests.append((kind, rng.choice(doc_ids)))
        rng.shuffle(requests)
        return requests

    def round(self, inputs, ops: Ops, client: int) -> None:
        conn = self.clients_conn[client]
        for kind, argument in inputs:
            if kind == "point":
                result = ops.call(
                    kind, conn.execute,
                    "SELECT k.payload FROM ledger_kv k"
                    f" WHERE k.pk = {argument}")
                if result is not None:
                    ops.check(
                        result.rows == [(self.payload(argument),)],
                        f"point {argument}: {result.rows!r}")
            elif kind == "fetch":
                text = ops.call(kind, conn.fetch, argument)
                if text is not None:
                    ops.check(
                        text.count("<Student ") == SMALL_STUDENTS,
                        f"fetch({argument}) lost students")
            elif kind == "query":
                students = _students(self.preloaded[argument])
                name = students[0][0]
                result = ops.call(
                    kind, conn.query, "University/Student",
                    ("LName", "=", name), doc_id=argument,
                    select="FName")
                if result is not None:
                    got = sorted(row[0] for row in result.rows)
                    ops.check(
                        got == sorted(first for last, first in students
                                      if last == name),
                        f"query doc {argument} LName={name}: {got}")
            else:
                reply = ops.call(kind, conn.store, argument)
                if reply is not None:
                    # one dict shared by both clients: item
                    # assignment is atomic and the keys are distinct
                    self.stored[reply["doc_id"]] = argument

    def run(self, seconds: float, rounds: int | None,
            first: int = 0) -> Ops:
        clients = [Ops(self.recorder) for _ in range(self.clients)]
        errors: list[BaseException] = []
        barrier = threading.Barrier(self.clients)
        done = [0] * self.clients

        def client(index: int) -> None:
            try:
                barrier.wait(30)
                done[index] = run_rounds(self, clients[index], seconds,
                                         rounds, client=index,
                                         first=first)
            except BaseException as error:  # re-raised below
                barrier.abort()
                errors.append(error)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self.rounds_run = sum(done)
        ops = Ops()
        for each in clients:
            ops.absorb(each)
        return ops

    def _embedded_point_ms(self) -> float:
        """Median of the same point select on an engine in this
        process: what the wire and the server add is the difference."""
        db = Database()
        self._fill_kv(db)
        rng = self.rng("embedded")
        samples = []
        for _ in range(600):
            sql = ("SELECT k.payload FROM ledger_kv k"
                   f" WHERE k.pk = {rng.randrange(self.kv_rows)}")
            start = clock()
            db.execute(sql)
            samples.append(clock() - start)
        return median_ms(samples[100:])

    def finish(self, ops: Ops) -> dict[str, Extra]:
        count = self.admin.execute(
            "SELECT COUNT(*) FROM TabUniversity").scalar()
        everything = {**self.preloaded, **self.stored}
        ops.check(count == len(everything),
                  f"{count} documents on the server,"
                  f" {len(everything)} acknowledged")
        rng = self.rng("verify")
        for doc_id in (_sample(rng, sorted(self.stored), 3)
                       + _sample(rng, sorted(self.preloaded), 2)):
            ops.check(identical(parse_xml(everything[doc_id]),
                                _parse_fetched(self.admin.fetch(doc_id))),
                      f"document {doc_id} does not round-trip")
        stats = self.admin.server_stats()
        reads = [sample for kind in self.reads
                 for sample in ops.samples[kind]]
        extras = {
            "read_p50_ms": (median_ms(reads), "ms", "lower", 0.20),
            "store_p50_ms": (median_ms(ops.samples["store"]), "ms",
                             "lower", 0.20),
            "point_p50_ms": (median_ms(ops.samples["point"]), "ms",
                             "lower", 0.20),
            "server_requests": (stats["server"]["requests"], "count",
                                "higher", None),
            "server_errors": (stats["server"]["errors"], "count",
                              "lower", None),
            "server_shed": (stats["shed"], "count", "lower", None),
            "admission_queued": (stats["admission"]["queued"], "count",
                                 "lower", None),
        }
        if self.recorder is not None:
            extras["wire_overhead_ms"] = (
                median_ms(ops.samples["point"])
                - self._embedded_point_ms(), "ms", "lower", None)
        return extras


# -- the router -----------------------------------------------------------------------


class Sharded4Mixed(Workload):
    name = "sharded4_mixed"
    primary = ("scatter",)
    op_unit = "documents+statements"
    shards = 4
    workers = 2
    batch = 12
    scatters = 6
    fetches = 20
    acct_groups = 20

    GROUPED = ("SELECT a.grp, COUNT(*), AVG(a.val)"
               " FROM ledger_acct a GROUP BY a.grp")
    COUNT = "SELECT COUNT(*) FROM ledger_acct"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a whole number of rows per group, at any --scale
        self.acct_rows = self.sized(50, floor=2) * self.acct_groups
        self.preload_docs = _documents(self.rng("preload"),
                                       self.sized(40, floor=4))

    def _open(self) -> ShardedDatabase:
        return ShardedDatabase(n_shards=self.shards, path=self.path,
                               fsync="commit")

    def setup(self) -> None:
        self.path = self.fresh_dir()
        self.db = db = self._open()
        self.tool = tool = XML2Oracle(db=db, metadata=True)
        # two copies of the schema: reads go to the preloaded one,
        # ingest to the other, so what is queried stays the same size
        self.queried = tool.register_schema(university_dtd())
        self.ingested = tool.register_schema(university_dtd())
        report = tool.store_many(self.preload_docs,
                                 schema=self.queried,
                                 workers=self.workers)
        self.preloaded = {outcome.doc_id: self.preload_docs[outcome.index]
                          for outcome in report.outcomes}
        self.stored: dict[int, str] = {}
        db.execute("CREATE TABLE ledger_acct(pk NUMBER PRIMARY KEY,"
                   " grp NUMBER, val NUMBER)")
        for n in range(self.acct_rows):
            # no document pinned: the router hashes each statement to
            # a shard, which spreads the rows
            db.execute(f"INSERT INTO ledger_acct VALUES({n},"
                       f" {n % self.acct_groups}, {n * 37 % 1009})")
        self.path_sql = tool.path_query("University/Student/LName",
                                        schema=self.queried).sql
        self.path_rows = sum(len(_students(xml))
                             for xml in self.preload_docs)
        self.scatter_legs = 0

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            shutil.rmtree(self.path, ignore_errors=True)

    def start_counting(self) -> None:
        super().start_counting()
        self.scatter_legs = 0

    def prepare(self, round_no: int, client: int) -> tuple:
        rng = self.rng(round_no)
        doc_ids = sorted(self.preloaded)
        return (_documents(rng, self.batch),
                [rng.choice(doc_ids) for _ in range(self.fetches)])

    def round(self, inputs, ops: Ops, client: int) -> None:
        documents, fetch_ids = inputs
        tool, db = self.tool, self.db
        # the bulk load runs on pool threads, so it gets no root span
        report = ops.call("ingest", tool.store_many, documents,
                          schema=self.ingested, workers=self.workers,
                          weight=len(documents), root=False)
        if report is not None:
            ops.check(len(report.stored) == len(documents),
                      "store_many stored"
                      f" {len(report.stored)}/{len(documents)}")
            for outcome in report.stored:
                self.stored[outcome.doc_id] = documents[outcome.index]
        selects = db.stats["selects"]
        for n in range(self.scatters):
            grouped = n < self.scatters - 1
            result = ops.call("scatter", db.execute,
                              self.GROUPED if grouped else self.COUNT)
            if result is None:
                continue
            ops.rows_returned += result.rowcount
            if grouped:
                ops.check(
                    sorted((grp, count) for grp, count, _ in result.rows)
                    == [(grp, self.acct_rows // self.acct_groups)
                        for grp in range(self.acct_groups)],
                    f"scatter GROUP BY: {result.rows[:3]!r}...")
            else:
                ops.check(result.rows == [(self.acct_rows,)],
                          f"scatter COUNT: {result.rows!r}")
        for _ in range(self.scatters):
            result = ops.call("scatter_path", db.execute, self.path_sql)
            if result is not None:
                ops.rows_returned += result.rowcount
                ops.check(result.rowcount == self.path_rows,
                          f"scatter path: {result.rowcount} rows,"
                          f" expected {self.path_rows}")
        self.scatter_legs += db.stats["selects"] - selects
        for doc_id in fetch_ids:
            text = ops.call("pinned_fetch", tool.fetch_text, doc_id)
            if text is not None:
                ops.check(text.count("<Student ") == SMALL_STUDENTS,
                          f"fetch_text({doc_id}) lost students")

    def finish(self, ops: Ops) -> dict[str, Extra]:
        tool = self.tool
        everything = {**self.preloaded, **self.stored}
        rng = self.rng("verify")
        for doc_id in (_sample(rng, sorted(self.stored), 3)
                       + _sample(rng, sorted(self.preloaded), 2)):
            ops.check(identical(parse_xml(everything[doc_id]),
                                tool.fetch(doc_id)),
                      f"document {doc_id} does not round-trip")
        per_shard = [0] * self.shards
        for doc_id in everything:
            per_shard[self.db.shard_for(doc_id)] += 1
        scatter_queries = (len(ops.samples["scatter"])
                           + len(ops.samples["scatter_path"]))
        self.db.close()
        start = clock()
        self.db = self._open()
        recovery_s = clock() - start
        for schema, expected in ((self.queried, self.preloaded),
                                 (self.ingested, self.stored)):
            count = self.db.execute(
                f"SELECT COUNT(*) FROM {schema.plan.root.table}"
            ).scalar()
            ops.check(count == len(expected),
                      f"{count} rows in {schema.plan.root.table} after"
                      f" re-open, {len(expected)} acknowledged")
        problems = self.db.verify()
        ops.check(not problems, f"verify: {problems[:3]}")
        return {
            "ingest_docs_per_s": (
                self.batch * 1e3 / median_ms(ops.samples["ingest"]),
                "1/s", "higher", 0.15),
            "scatter_p50_ms": (median_ms(ops.samples["scatter"]), "ms",
                               "lower", 0.15),
            "scatter_path_p50_ms": (
                median_ms(ops.samples["scatter_path"]), "ms", "lower",
                0.15),
            "pinned_fetch_p50_ms": (
                median_ms(ops.samples["pinned_fetch"]), "ms", "lower",
                0.15),
            "recovery_s": (recovery_s, "s", "lower", None),
            "scatter_legs_per_query": (
                self.scatter_legs / max(1, scatter_queries), "count",
                "lower", None),
            "shard_doc_skew": (
                max(per_shard) * self.shards / sum(per_shard), "ratio",
                "lower", None),
        }


WORKLOADS = {workload.name: workload for workload in (
    IngestLargeMem, IngestSmallDurable, QueryIndexed, QueryScanPath,
    ServerMixedRW, Sharded4Mixed)}
