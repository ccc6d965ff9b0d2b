"""The fault-tolerant network front end of the XML2Oracle engine.

:class:`DatabaseServer` turns the embedded engine into the
client/server deployment the paper assumes ("database systems ...
used by millions of users"): a threaded TCP server where every
connection owns one :class:`~repro.ordb.sessions.Session`, speaking
the CRC-framed protocol of :mod:`repro.server.wire`.

Robustness is the design center, not an afterthought:

* **statement timeouts** — every connection's session carries the
  configured ``statement_timeout``; a statement that exceeds it is
  aborted by the engine (ORA-01013) and the server rolls the whole
  session back before replying, so locks never outlive the budget;
* **admission control** — requests take an executor slot from a
  bounded :class:`~repro.server.admission.AdmissionController`;
  overload sheds with transient ORA-00020 within ``queue_timeout``
  instead of queuing unboundedly;
* **idle/read deadlines** — a connection silent for ``idle_timeout``
  (or stalling mid-frame past ``read_timeout``) is dropped;
* **disconnect hygiene** — when a client vanishes mid-transaction its
  session is rolled back and closed, releasing every lock it held;
* **graceful drain** — :meth:`shutdown` (wired to SIGTERM by ``repro
  serve``) stops accepting, lets in-flight statements finish inside a
  drain budget, cancels overdue lock waits, checkpoints a durable
  engine and exits; committed transactions are already in the WAL, so
  drain loses nothing;
* **fault injection** — the engine's ``net`` fault site fires after
  each request (``op="recv"``) and before each response
  (``op="send"``); errors carrying a ``net_effect`` physically damage
  the conversation (torn frame, dropped connection, long stall).
"""

from __future__ import annotations

import socket
import threading
import time

from ..core.xml2oracle import XML2Oracle
from ..ordb.errors import (
    ConnectionLost,
    OrdbError,
    ProtocolError,
    ServerShuttingDown,
    StatementTimeout,
)
from .admission import AdmissionController
from . import wire


class ServerConfig:
    """Knobs of one :class:`DatabaseServer` (defaults are sane for
    tests; production-ish deployments raise the limits)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = 64,
                 max_active: int = 8, max_queue: int = 16,
                 queue_timeout: float = 1.0,
                 statement_timeout: float | None = 5.0,
                 idle_timeout: float = 30.0,
                 read_timeout: float = 5.0,
                 drain_timeout: float = 5.0,
                 allow_remote_shutdown: bool = False):
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_active = max_active
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self.statement_timeout = statement_timeout
        self.idle_timeout = idle_timeout
        self.read_timeout = read_timeout
        self.drain_timeout = drain_timeout
        self.allow_remote_shutdown = allow_remote_shutdown


class _Connection:
    """Server-side bookkeeping for one client socket."""

    def __init__(self, sock: socket.socket, addr, session):
        self.sock = sock
        self.addr = addr
        self.session = session
        #: True while a request of this connection holds an executor
        #: slot — what the drain path waits on
        self.busy = False


class DatabaseServer:
    """Serves one engine (wrapped in an XML2Oracle facade) over TCP."""

    def __init__(self, tool: XML2Oracle | None = None, *,
                 db=None, config: ServerConfig | None = None):
        if tool is None:
            tool = XML2Oracle(db=db)
        elif db is not None and tool.db is not db:
            raise ValueError("pass either tool or db, not both")
        self.tool = tool
        self.db = tool.db
        self.config = config or ServerConfig()
        self.admission = AdmissionController(
            max_active=self.config.max_active,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout)
        #: monotonically increasing counters, never reset
        self.stats = {"connections_accepted": 0,
                      "connections_rejected": 0,
                      "requests": 0, "errors": 0,
                      "statement_timeouts": 0, "disconnects": 0,
                      "net_faults": 0}
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._schema_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._ops = {
            "ping": self._op_ping,
            "execute": self._op_execute,
            "register_schema": self._op_register_schema,
            "store": self._op_store,
            "query": self._op_query,
            "fetch": self._op_fetch,
            "stats": self._op_stats,
            "shutdown": self._op_shutdown,
        }

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound — port 0 resolves on start."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"ordb://{host}:{port}"

    def start(self) -> "DatabaseServer":
        """Bind, listen and accept in a background thread."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        listener.settimeout(0.2)  # poll the drain flag
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ordb-server-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """:meth:`start` (when needed) then block until shut down."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def __enter__(self) -> "DatabaseServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop the server; with *drain*, gracefully.

        Graceful drain: stop accepting, answer further requests with
        transient ORA-01089, give in-flight statements up to the
        drain budget to finish, cancel overdue lock waits, close all
        connections (rolling their sessions back), checkpoint a
        durable engine.  Committed work is already in the WAL before
        any client saw an acknowledgement, so drain never loses a
        committed transaction.
        """
        if self._stopped.is_set():
            return
        self._draining.set()
        if drain:
            budget = (self.config.drain_timeout
                      if timeout is None else timeout)
            deadline = time.monotonic() + budget
            while (self._busy_connections()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            # whatever is still running is stuck on a lock: unstick it
            for connection in self._busy_connections():
                self.db.locks.cancel(connection.session.sid)
            while (self._busy_connections()
                   and time.monotonic() < deadline + 1.0):
                time.sleep(0.01)
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        # wake every handler blocked in recv; each rolls back and
        # closes its own session on the way out
        for connection in self._snapshot_connections():
            try:
                connection.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.sock.close()
        limit = time.monotonic() + 5.0
        while self._snapshot_connections() and time.monotonic() < limit:
            time.sleep(0.01)
        # safety net for handlers that never ran their cleanup
        for connection in self._snapshot_connections():
            self._retire(connection)
        if self.db.path is not None:
            try:
                self.db.checkpoint()
            except OrdbError:
                pass  # open transactions etc.; the WAL has everything
        self._stopped.set()

    def _busy_connections(self) -> list[_Connection]:
        with self._conn_lock:
            return [c for c in self._connections if c.busy]

    def _snapshot_connections(self) -> list[_Connection]:
        with self._conn_lock:
            return list(self._connections)

    # -- accept / per-connection loop --------------------------------------------

    def _accept_loop(self) -> None:
        while not self._draining.is_set():
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us
            with self._conn_lock:
                crowded = (len(self._connections)
                           >= self.config.max_connections)
            if crowded:
                # a plain close reads as transient ConnectionLost on
                # the client, which retries after backoff — exactly
                # the degradation we want from a full house
                self.stats["connections_rejected"] += 1
                sock.close()
                continue
            self.stats["connections_accepted"] += 1
            thread = threading.Thread(
                target=self._serve_connection, args=(sock, addr),
                name=f"ordb-conn-{addr[1]}", daemon=True)
            thread.start()

    def _serve_connection(self, sock: socket.socket, addr) -> None:
        session = self.db.session(name=f"net-{addr[0]}:{addr[1]}")
        session.statement_timeout = self.config.statement_timeout
        connection = _Connection(sock, addr, session)
        with self._conn_lock:
            self._connections.add(connection)
        try:
            sock.settimeout(self.config.read_timeout)
            wire.expect_magic(sock)
            wire.send_magic(sock)
            self._request_loop(connection)
        except (ConnectionLost, ProtocolError, OSError):
            pass  # disconnects and garbage both end the conversation
        finally:
            self._retire(connection)

    def _retire(self, connection: _Connection) -> None:
        with self._conn_lock:
            if connection not in self._connections:
                return
            self._connections.discard(connection)
        self.stats["disconnects"] += 1
        try:
            # rollback + close releases every lock the client's open
            # transaction held — a dead client must never block others
            connection.session.close()
        except OrdbError:
            pass
        connection.sock.close()

    def _request_loop(self, connection: _Connection) -> None:
        sock = connection.sock
        while True:
            try:
                request = wire.decode_message(wire.recv_frame(
                    sock, header_timeout=self.config.idle_timeout,
                    payload_timeout=self.config.read_timeout))
            except socket.timeout:
                return  # idle or stalled past its deadline: drop it
            self.stats["requests"] += 1
            if not self._net_fault(connection, "recv"):
                return
            response = self._respond(connection, request)
            if not self._net_fault(connection, "send"):
                return
            try:
                wire.send_message(sock, response)
            except (OSError, socket.timeout):
                return

    def _net_fault(self, connection: _Connection, op: str) -> bool:
        """Fire the ``net`` site; apply any injected damage.

        Returns False when the connection must die now (drop/torn),
        True to continue the conversation.
        """
        try:
            self.db.faults.hit("net", op=op,
                               session=connection.session.name)
        except OrdbError as fault:
            # any armed error at this site damages the conversation;
            # only NetFault subclasses refine *how* (net_effect)
            self.stats["net_faults"] += 1
            effect = getattr(fault, "net_effect", None)
            if effect == "slow":
                time.sleep(getattr(fault, "delay", 0.2))
                return True
            if effect == "torn":
                frame = wire.encode_frame(
                    wire.encode_message({"ok": True, "torn": True}))
                try:
                    connection.sock.sendall(frame[:len(frame) // 2])
                except OSError:
                    pass
                return False
            return False  # "drop" and plain NetFault sever the link
        return True

    # -- request handling ---------------------------------------------------------

    def _respond(self, connection: _Connection, request: dict) -> dict:
        try:
            payload = self._handle(connection, request)
        except BaseException as error:  # every failure crosses the wire
            self.stats["errors"] += 1
            if isinstance(error, StatementTimeout):
                self.stats["statement_timeouts"] += 1
            return {"ok": False, "error": wire.encode_error(error)}
        payload["ok"] = True
        return payload

    def _handle(self, connection: _Connection, request: dict) -> dict:
        op = request.get("op")
        handler = self._ops.get(op)
        if handler is None:
            raise ProtocolError(f"unknown operation {op!r}")
        if op in ("ping", "stats", "shutdown") \
                or self._is_txn_control(request):
            # control plane bypasses admission.  Transaction control
            # especially must: a COMMIT/ROLLBACK queued behind a
            # statement that is *waiting for this session's locks*
            # is a priority inversion — the slot holder blocks on a
            # lock only the queued rollback can free
            return handler(connection, request)
        if self._draining.is_set():
            raise ServerShuttingDown(
                "server is draining; retry against the restarted"
                " server")
        self.admission.acquire()
        connection.busy = True
        try:
            return handler(connection, request)
        finally:
            connection.busy = False
            self.admission.release()

    @staticmethod
    def _is_txn_control(request: dict) -> bool:
        if request.get("op") != "execute":
            return False
        sql = request.get("sql")
        if not isinstance(sql, str):
            return False
        head = sql.lstrip().split(None, 1)
        return bool(head) and head[0].upper() in (
            "BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT", "SET")

    @staticmethod
    def _field(request: dict, name: str, kind: type = str):
        value = request.get(name)
        if not isinstance(value, kind):
            raise ProtocolError(
                f"operation {request.get('op')!r} needs a"
                f" {kind.__name__} field {name!r}")
        return value

    def _op_ping(self, connection, request: dict) -> dict:
        return {"pong": True}

    def _op_stats(self, connection, request: dict) -> dict:
        return {"stats": self.snapshot()}

    def _op_shutdown(self, connection, request: dict) -> dict:
        if not self.config.allow_remote_shutdown:
            raise ProtocolError(
                "remote shutdown is disabled on this server")
        threading.Thread(target=self.shutdown, daemon=True).start()
        return {"draining": True}

    def _op_execute(self, connection, request: dict) -> dict:
        sql = self._field(request, "sql")
        try:
            result = connection.session.execute(sql)
        except StatementTimeout:
            # the statement is dead; per the contract the whole
            # session rolls back too, so its locks are gone before
            # the client hears about the timeout
            connection.session.rollback()
            raise
        # clients see their isolation state on every round trip, so
        # SET TRANSACTION READ ONLY / SERIALIZABLE is observable
        # without a second request
        return {"result": wire.encode_result(result),
                "txn": connection.session.txn_status()}

    def _op_register_schema(self, connection, request: dict) -> dict:
        dtd = request.get("dtd")
        root = request.get("root")
        sample = None
        document = request.get("document")
        if isinstance(document, str):
            from ..xmlkit import parse as parse_xml

            sample = parse_xml(document)
            if dtd is None and sample.doctype is not None:
                dtd = sample.doctype.dtd
        if dtd is None:
            raise ProtocolError(
                "register_schema needs a 'dtd' string or a"
                " 'document' carrying an internal DTD subset")
        # repeated registrations (every `ingest --url` run sends one)
        # must reuse the installed schema, keyed by root element
        reuse_key = root
        if reuse_key is None and sample is not None:
            reuse_key = sample.root_element.tag
        with self._schema_lock:
            schema = self._schema_by_root(reuse_key)
            if schema is None:
                schema = self.tool.register_schema(
                    dtd, root=root, sample_document=sample)
        return {"root": schema.root_name,
                "schema_id": schema.schema_id,
                "statements": len(schema.script.statements)}

    def _schema_by_root(self, root: str | None):
        if root is None:
            return None
        for schema in self.tool.schemas:
            if schema.root_name.upper() == root.upper():
                return schema
        return None

    def _op_store(self, connection, request: dict) -> dict:
        text = self._field(request, "document")
        root = request.get("root")
        with self._schema_lock:
            schema = self._schema_by_root(root)
        stored = self.tool.store(
            text, schema=schema,
            doc_name=str(request.get("doc_name", "")),
            url=str(request.get("url", "")),
            session=connection.session)
        return {"doc_id": stored.doc_id,
                "root": stored.schema.root_name,
                "warnings": list(stored.warnings)}

    def _op_query(self, connection, request: dict) -> dict:
        path = request.get("path")
        if not isinstance(path, (str, list)):
            raise ProtocolError("operation 'query' needs a 'path'")
        predicate = request.get("predicate")
        if predicate is not None:
            predicate = tuple(predicate)
        rendered = self.tool.path_query(
            path, predicate=predicate, doc_id=request.get("doc_id"),
            select=request.get("select"))
        try:
            result = connection.session.execute(rendered.sql)
        except StatementTimeout:
            connection.session.rollback()
            raise
        return {"result": wire.encode_result(result),
                "sql": rendered.sql}

    def _op_fetch(self, connection, request: dict) -> dict:
        doc_id = self._field(request, "doc_id", int)
        return {"text": self.tool.fetch_text(doc_id)}

    # -- introspection ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Point-in-time server counters (wire-encodable)."""
        with self._conn_lock:
            connections = len(self._connections)
        return {"server": dict(self.stats),
                "admission": dict(self.admission.stats),
                "shed": self.admission.shed,
                "active": self.admission.active,
                "queued": self.admission.queued,
                "connections": connections,
                "draining": self._draining.is_set()}
