"""The XML2Oracle facade: the utility program of Section 3 as a library.

Wires the whole pipeline of Fig. 1 together: the XML parser and the
DTD parser feed the analyzer, the generator emits the schema script,
the loader stores documents, the meta-table keeps Section 5's
bookkeeping, and the retriever reverses the trip.

>>> from repro.core import XML2Oracle
>>> tool = XML2Oracle()
>>> schema = tool.register_schema('''
...   <!ELEMENT Uni (Name, Student*)> <!ELEMENT Name (#PCDATA)>
...   <!ELEMENT Student (#PCDATA)>''')
>>> doc = tool.store('<Uni><Name>HTWK</Name><Student>A</Student>'
...                  '<Student>B</Student></Uni>')
>>> doc.load_result.insert_count  # single INSERT (Section 4.2)
1
>>> tool.query("/Uni/Student").column("COLUMN_VALUE")
['A', 'B']
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.dtd.model import DTD, AttributeType
from repro.dtd.parser import parse_dtd
from repro.dtd.validator import Validator
from repro.obs import Observability
from repro.ordb.engine import Database
from repro.ordb.results import Result
from repro.ordb.schema import CompatibilityMode
from repro.ordb.sessions import Session
from repro.xmlkit.dom import Document, Element
from repro.xmlkit.errors import XMLValidityError
from repro.xmlkit.parser import parse as parse_xml
from repro.xmlkit.serializer import Serializer
from .analyzer import Analyzer
from .generator import SchemaScript, generate_schema
from .ingest import DocumentOutcome, IngestReport, RetryPolicy, classify, error_code
from .loader import DocumentLoader, LoadResult
from .metadata import MetadataRegistry
from .naming import NameGenerator, SchemaIdAllocator
from .plan import MappingConfig, MappingPlan
from .queries import PathQuery, PathQueryBuilder
from .retriever import Retriever


@dataclass
class RegisteredSchema:
    """One document type installed in the database."""

    dtd: DTD
    plan: MappingPlan
    script: SchemaScript
    schema_id: str
    validator: Validator

    @property
    def root_name(self) -> str:
        return self.plan.root.name


@dataclass
class StoredDocument:
    """Handle for one stored document."""

    doc_id: int
    schema: RegisteredSchema
    load_result: LoadResult
    misc_count: int = 0
    warnings: list[str] = field(default_factory=list)


def infer_idref_targets(document: Document | Element,
                        dtd: DTD) -> dict[tuple[str, str], str]:
    """Determine IDREF target element types from a sample document.

    Section 4.4: "This kind of information cannot be captured from the
    DTD, rather from the XML document."  We scan the document: the
    element type owning each ID value becomes the target of every
    IDREF attribute that mentions the value.
    """
    root = (document.root_element if isinstance(document, Document)
            else document)
    id_owner: dict[str, str] = {}
    idref_sites: list[tuple[str, str, str]] = []
    for element in root.iter_elements():
        declarations = dtd.attributes_of(element.tag)
        for name, declaration in declarations.items():
            value = element.get(name)
            if value is None:
                continue
            if declaration.attribute_type is AttributeType.ID:
                id_owner[value] = element.tag
            elif declaration.attribute_type is AttributeType.IDREF:
                idref_sites.append((element.tag, name, value))
    targets: dict[tuple[str, str], str] = {}
    for element_tag, attribute, value in idref_sites:
        owner = id_owner.get(value)
        if owner is not None:
            targets.setdefault((element_tag, attribute), owner)
    return targets


class XML2Oracle:
    """Programmatic interface of the XML2Oracle storage system."""

    def __init__(self, db: Database | None = None,
                 mode: CompatibilityMode = CompatibilityMode.ORACLE9,
                 config: MappingConfig | None = None,
                 metadata: bool = True,
                 validate_documents: bool = True,
                 obs: Observability | None = None):
        self.db = db or Database(mode)
        if obs is not None:
            # one shared Observability: facade phases and engine
            # statements land in the same registry and span tree
            self.db.obs = obs
        self.obs = self.db.obs
        self.config = config or MappingConfig()
        self.validate_documents = validate_documents
        self.metadata: MetadataRegistry | None = (
            MetadataRegistry(self.db) if metadata else None)
        self.schemas: list[RegisteredSchema] = []
        self.documents: dict[int, StoredDocument] = {}
        self._schema_ids = SchemaIdAllocator()
        self._next_doc_id = 0
        # parallel ingest workers share the facade: doc-id allocation
        # and the documents dict mutate under this lock
        self._facade_lock = threading.Lock()

    def _atomic(self, session: Session | None = None):
        """The engine's all-or-nothing scope — on *session* when one
        is given."""
        return (session or self.db).atomic()

    def _pin(self, doc_id: int):
        """Route statements to *doc_id*'s home shard while open.

        A sharded database (:class:`~repro.ordb.sharding.
        ShardedDatabase`) exposes ``pin_document``; pinning keeps one
        document's rows, meta-entries and reads together on one
        shard.  A single-engine database has no pin — no-op."""
        pin = getattr(self.db, "pin_document", None)
        if pin is None:
            return contextlib.nullcontext()
        return pin(doc_id)

    @property
    def mode(self) -> CompatibilityMode:
        return self.db.mode

    # -- schema registration --------------------------------------------------------

    def register_schema(self, dtd: DTD | str, root: str | None = None,
                        idref_targets: dict[tuple[str, str], str]
                        | None = None,
                        sample_document: Document | Element | str
                        | None = None) -> RegisteredSchema:
        """Analyze a DTD, generate its schema and execute the script.

        ``sample_document`` lets the tool infer IDREF targets the way
        Section 4.4 prescribes (from a document, not the DTD).

        Registration is atomic: when a statement of the generated
        script fails partway, every CREATE already executed is rolled
        back and the allocated SchemaID is returned to the allocator.
        """
        if isinstance(dtd, str):
            dtd = parse_dtd(dtd)
        if idref_targets is None and sample_document is not None:
            if isinstance(sample_document, str):
                sample_document = parse_xml(sample_document)
            idref_targets = infer_idref_targets(sample_document, dtd)
        schema_id = self._schema_ids.allocate()
        try:
            names = NameGenerator(schema_id if self.schemas else None)
            with self.obs.phase("analyze"):
                analyzer = Analyzer(dtd, self.config, self.mode, names,
                                    idref_targets)
                plan = analyzer.analyze(root)
            # the plan's schema_id mirrors the facade's allocation even
            # for the first schema, whose generated names carry no suffix
            plan.schema_id = schema_id
            with self.obs.phase("generate_ddl"):
                script = generate_schema(plan)
            with self.obs.phase("execute_ddl",
                                statements=len(script.statements)):
                with self._atomic():
                    for statement in script.statements:
                        self.db.execute(statement)
                    if self.metadata is not None:
                        self.metadata.register_entities(
                            schema_id, dtd.entities.internal_general())
        except BaseException:
            self._schema_ids.release(schema_id)
            raise
        schema = RegisteredSchema(
            dtd=dtd, plan=plan, script=script, schema_id=schema_id,
            validator=Validator(dtd))
        self.schemas.append(schema)
        return schema

    def schema_script(self, schema: RegisteredSchema | None = None) -> str:
        """The generated DDL of a registered schema."""
        schema = schema or self._default_schema()
        return schema.script.text

    def _default_schema(self) -> RegisteredSchema:
        if not self.schemas:
            raise LookupError("no schema registered yet")
        return self.schemas[-1]

    def _schema_for_root(self, root_name: str) -> RegisteredSchema:
        for schema in reversed(self.schemas):
            if schema.root_name == root_name:
                return schema
        raise LookupError(
            f"no registered schema has root element <{root_name}>")

    # -- storing documents -------------------------------------------------------------

    def store(self, document: Document | Element | str,
              schema: RegisteredSchema | None = None,
              doc_name: str = "", url: str = "",
              session: Session | None = None) -> StoredDocument:
        """Validate, map and load one document; returns its handle.

        The load is atomic: document rows, deferred IDREF updates and
        meta-table entries commit together or — on any failure — roll
        back together, and the document-id counter is rewound so the
        next store reuses the id.  *session* routes every statement
        through one private :class:`~repro.ordb.sessions.Session`
        (parallel ingest gives each worker its own).
        """
        with self.obs.phase("store", doc=doc_name or None):
            stored = self._store(document, schema, doc_name, url,
                                 session)
        if self.obs.enabled:
            self.obs.metrics.counter("ingest.documents", unit="documents").inc()
        return stored

    def _store(self, document: Document | Element | str,
               schema: RegisteredSchema | None,
               doc_name: str, url: str,
               session: Session | None = None) -> StoredDocument:
        executor = session if session is not None else self.db
        tracer = self.obs.tracer if self.obs.enabled else None
        if isinstance(document, str):
            with self.obs.phase("parse", chars=len(document)):
                document = parse_xml(document, tracer=tracer)
        root = (document.root_element if isinstance(document, Document)
                else document)
        if schema is None:
            schema = self._schema_for_root(root.tag)
        if self.validate_documents and isinstance(document, Document):
            with self.obs.phase("validate"):
                report = schema.validator.validate(document)
            if not report.valid:
                raise XMLValidityError(
                    "document is not valid: "
                    + "; ".join(str(e) for e in report.errors[:3]))
        with self._facade_lock:
            self._next_doc_id += 1
            doc_id = self._next_doc_id
        try:
            with self._pin(doc_id), self._atomic(session):
                loader = DocumentLoader(schema.plan, doc_id,
                                        tracer=tracer)
                with self.obs.phase("shred"):
                    load_result = loader.load(document)
                with self.obs.phase(
                        "execute",
                        statements=len(load_result.statements)):
                    for statement in load_result.statements:
                        executor.execute(statement)
                stored = StoredDocument(
                    doc_id=doc_id, schema=schema,
                    load_result=load_result,
                    warnings=list(load_result.warnings))
                if (self.metadata is not None
                        and isinstance(document, Document)):
                    with self.obs.phase("metadata"):
                        self.metadata.register_document(
                            doc_id, document, schema.plan, doc_name,
                            url, on=executor)
                        stored.misc_count = (
                            self.metadata.register_misc_nodes(
                                doc_id, document, on=executor))
        except BaseException:
            with self._facade_lock:
                if self._next_doc_id == doc_id:
                    self._next_doc_id = doc_id - 1
            raise
        with self._facade_lock:
            self.documents[doc_id] = stored
        return stored

    def store_many(self, documents: Iterable[Document | Element | str],
                   schema: RegisteredSchema | None = None,
                   *, continue_on_error: bool = False,
                   retry: RetryPolicy | None = None,
                   doc_names: Sequence[str] | None = None,
                   url: str = "",
                   workers: int | None = None) -> IngestReport:
        """Bulk-load documents with per-document savepoints.

        The whole batch runs in one transaction; each document gets
        its own atomic scope (a savepoint), so a failing document
        rolls back alone.  Transient faults (see
        :mod:`repro.core.ingest`) are retried per *retry* — backoff
        sleeps go through the policy's injected clock.  Exhausted or
        permanent failures either abort and roll back the whole batch
        (default) or, with ``continue_on_error=True``, quarantine the
        document and keep going.  The returned report holds one
        outcome per document, in input order.

        ``workers=N`` (N >= 1) switches to a thread pool where every
        worker drives its own engine session and each document
        commits in its own transaction.  Retry and quarantine behave
        as in the serial path; a batch abort compensates by deleting
        the documents already committed.  Lock-timeout and deadlock
        errors are transient, so contention between workers is
        retried like any connection fault.
        """
        policy = retry or RetryPolicy()
        if workers is not None and workers >= 1:
            return self._store_many_parallel(
                list(documents), schema,
                continue_on_error=continue_on_error, policy=policy,
                doc_names=doc_names, url=url, workers=workers)
        report = IngestReport()
        batch_doc_id = self._next_doc_id
        batch_docs = set(self.documents)
        try:
            with self._atomic():
                for index, document in enumerate(documents):
                    if (doc_names is not None
                            and index < len(doc_names)):
                        name = doc_names[index]
                    else:
                        name = f"doc[{index}]"
                    outcome = self._store_with_retry(
                        document, schema, name, url, index, policy)
                    report.outcomes.append(outcome)
                    if not outcome.stored and not continue_on_error:
                        # unwind the surrounding transaction:
                        # stored-so-far documents roll back with it
                        assert outcome.error is not None
                        raise outcome.error
        except BaseException:
            # the engine rolled back; rewind the facade-side
            # bookkeeping for documents stored earlier in this batch
            for doc_id in list(self.documents):
                if doc_id not in batch_docs:
                    del self.documents[doc_id]
            if self._next_doc_id >= batch_doc_id:
                self._next_doc_id = batch_doc_id
            raise
        return report

    def _store_many_parallel(self, documents: list,
                             schema: RegisteredSchema | None, *,
                             continue_on_error: bool,
                             policy: RetryPolicy,
                             doc_names: Sequence[str] | None,
                             url: str, workers: int) -> IngestReport:
        """The ``workers=N`` bulk load: per-worker sessions,
        per-document transactions, compensation instead of rollback.

        Each pool thread lazily opens one session and keeps it for
        the whole batch.  With ``continue_on_error=False`` the first
        failure sets a stop flag (in-flight documents finish, queued
        ones are skipped), every already-committed document of the
        batch is deleted again, and the failure is re-raised — so the
        all-or-nothing contract of the serial path holds even though
        the documents committed independently.
        """
        local = threading.local()
        sessions: list[Session] = []
        sessions_lock = threading.Lock()
        stop = threading.Event()

        def worker_session() -> Session:
            session = getattr(local, "session", None)
            if session is None:
                session = self.db.session(name="ingest-worker")
                local.session = session
                with sessions_lock:
                    sessions.append(session)
            return session

        def run(index: int, document) -> DocumentOutcome | None:
            if stop.is_set():
                return None
            if doc_names is not None and index < len(doc_names):
                name = doc_names[index]
            else:
                name = f"doc[{index}]"
            outcome = self._store_with_retry(
                document, schema, name, url, index, policy,
                session=worker_session())
            if not outcome.stored and not continue_on_error:
                stop.set()
            return outcome

        try:
            with ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="ingest") as pool:
                futures = [pool.submit(run, index, document)
                           for index, document in enumerate(documents)]
                results = [future.result() for future in futures]
        finally:
            for session in sessions:
                session.close()
        report = IngestReport()
        report.outcomes.extend(o for o in results if o is not None)
        report.outcomes.sort(key=lambda o: o.index)
        if not continue_on_error:
            failed = next(
                (o for o in report.outcomes if not o.stored), None)
            if failed is not None:
                # compensate: the committed part of the batch goes away
                for outcome in report.outcomes:
                    if outcome.stored and outcome.doc_id is not None:
                        self.delete(outcome.doc_id)
                assert failed.error is not None
                raise failed.error
        return report

    def _store_with_retry(self, document, schema, doc_name: str,
                          url: str, index: int,
                          policy: RetryPolicy,
                          session: Session | None = None
                          ) -> DocumentOutcome:
        attempt = 0
        while True:
            attempt += 1
            try:
                stored = self.store(document, schema,
                                    doc_name=doc_name, url=url,
                                    session=session)
            except Exception as error:
                kind = classify(error)
                if (kind == "transient"
                        and attempt < policy.max_attempts):
                    if self.obs.enabled:
                        self.obs.metrics.counter("ingest.retries", unit="retries").inc()
                    policy.wait(attempt)
                    continue
                if self.obs.enabled:
                    self.obs.metrics.counter(
                        "ingest.quarantined", unit="documents").inc()
                return DocumentOutcome(
                    index=index, doc_name=doc_name,
                    status="quarantined", attempts=attempt,
                    error=error, error_code=error_code(error),
                    classification=kind)
            return DocumentOutcome(
                index=index, doc_name=doc_name, status="stored",
                doc_id=stored.doc_id, attempts=attempt)

    # -- fetching documents --------------------------------------------------------------

    def fetch(self, doc_id: int, restore_misc: bool = True) -> Document:
        """Reconstruct a stored document as a DOM tree."""
        stored = self._stored(doc_id)
        with self._pin(doc_id):
            retriever = Retriever(self.db, stored.schema.plan)
            root = retriever.fetch(doc_id)
            document = Document()
            if self.metadata is not None:
                info = self.metadata.document_info(doc_id)
                if info is not None:
                    document.xml_version = str(info[3])
                    document.encoding = str(info[4])
                    if info[5] is not None:
                        document.standalone = str(info[5]).strip() == "Y"
            document.append(root)
            if restore_misc and self.metadata is not None:
                self.metadata.restore_misc_nodes(doc_id, root, document)
        return document

    def fetch_text(self, doc_id: int, indent: str = "",
                   resubstitute_entities: bool = True) -> str:
        """Reconstruct a stored document as XML text (Section 6.1:
        entity references are re-substituted from the meta-table)."""
        stored = self._stored(doc_id)
        document = self.fetch(doc_id)
        entities: dict[str, str] = {}
        if resubstitute_entities and self.metadata is not None:
            entities = self.metadata.entities_for(stored.schema.schema_id)
        serializer = Serializer(indent=indent,
                                entity_definitions=entities)
        return serializer.serialize(document)

    def _stored(self, doc_id: int) -> StoredDocument:
        stored = self.documents.get(doc_id)
        if stored is None:
            raise LookupError(f"no stored document with id {doc_id}")
        return stored

    # -- deleting documents --------------------------------------------------------------

    def delete(self, doc_id: int) -> int:
        """Remove one stored document: every row whose synthetic
        ``IDElementname`` belongs to the document, plus its meta-data.

        Returns the number of rows deleted.  REFs from other documents
        never point into a deleted document (ids are document-scoped),
        so no dangling references are introduced.

        The deletes run in one atomic scope: a document disappears
        all-or-nothing.  That matters beyond tidiness — batch-abort
        compensation (``store_many`` without ``continue_on_error``)
        deletes the committed part of an aborted batch, and on a
        durable engine each transaction is one WAL record; per-table
        autocommit deletes would let a crash mid-compensation leave a
        half-deleted document in the replay path.
        """
        stored = self._stored(doc_id)
        plan = stored.schema.plan
        deleted = 0
        with self._pin(doc_id), self._atomic():
            for element in plan.table_stored_elements():
                result = self.db.execute(
                    f"DELETE FROM {element.table} t"
                    f" WHERE t.{element.id_column} = 'D{doc_id}'"
                    f" OR t.{element.id_column} LIKE 'D{doc_id}.%'")
                deleted += result.rowcount
            if self.metadata is not None:
                deleted += self.db.execute(
                    f"DELETE FROM TabMetadata WHERE DocID = {doc_id}"
                ).rowcount
                deleted += self.db.execute(
                    f"DELETE FROM TabMiscNode WHERE DocID = {doc_id}"
                ).rowcount
        del self.documents[doc_id]
        return deleted

    # -- querying -------------------------------------------------------------------------

    def path_query(self, path: str | list[str],
                   predicate: tuple[str, str, str] | None = None,
                   doc_id: int | None = None,
                   schema: RegisteredSchema | None = None,
                   select: str | None = None) -> PathQuery:
        """Render (but do not run) the dot-notation SQL for a path."""
        if schema is None:
            steps = ([s for s in path.split("/") if s]
                     if isinstance(path, str) else list(path))
            schema = self._schema_for_root(steps[0])
        return PathQueryBuilder(schema.plan).build(path, predicate,
                                                   doc_id, select)

    def query(self, path: str | list[str],
              predicate: tuple[str, str, str] | None = None,
              doc_id: int | None = None,
              schema: RegisteredSchema | None = None,
              select: str | None = None) -> Result:
        """Build and execute a path query."""
        rendered = self.path_query(path, predicate, doc_id, schema,
                                   select)
        return self.db.execute(rendered.sql)

    def sql(self, statement: str) -> Result:
        """Escape hatch: run raw SQL against the embedded engine."""
        return self.db.execute(statement)
