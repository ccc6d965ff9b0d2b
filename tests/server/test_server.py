"""The server proper: request cycle, timeouts, shedding, hygiene.

Every scenario here drives a real listening server over loopback —
the robustness claims (bounded shedding, lock release on disconnect,
statement-timeout rollback) are only meaningful end to end.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.client import connect
from repro.ordb.errors import (
    ConnectionLost,
    ParseError,
    ProtocolError,
    ServerBusy,
    StatementTimeout,
    is_transient,
)
from repro.server import wire

from .conftest import SCHOOL_DOC
from tests.ordb.test_concurrency import run_threads
from tests.ordb.test_sql_parser import DEEP_STATEMENTS


class TestRequestCycle:
    def test_ping(self, server):
        with connect(server.url) as conn:
            assert conn.ping()
        assert server.stats["requests"] >= 1

    def test_execute_round_trip(self, server):
        with connect(server.url) as conn:
            conn.execute("CREATE TABLE T(a NUMBER, b VARCHAR2(10))")
            result = conn.execute("INSERT INTO T VALUES(1, 'x')")
            assert result.rowcount == 1  # DML rowcount over the wire
            rows = conn.execute("SELECT a, b FROM T").rows
            assert rows == [(1, "x")]

    def test_document_lifecycle_over_the_wire(self, server):
        with connect(server.url) as conn:
            registered = conn.register_schema(document=SCHOOL_DOC)
            assert registered["root"] == "School"
            stored = conn.store(SCHOOL_DOC, root="School")
            doc_id = stored["doc_id"]
            result = conn.query("School/Student/SName", doc_id=doc_id)
            assert any("Ann" in str(cell)
                       for row in result.rows for cell in row)
            assert "<SName>Ann</SName>" in conn.fetch(doc_id)

    @pytest.mark.parametrize("name", sorted(DEEP_STATEMENTS))
    def test_deep_statement_is_a_parse_error_over_the_wire(
            self, server, name):
        with connect(server.url) as conn:
            conn.execute("CREATE TABLE T (a NUMBER)")
            with pytest.raises(ParseError) as info:
                conn.execute(DEEP_STATEMENTS[name])
            assert info.value.code == "ORA-00900"  # not ORA-00600
            assert conn.ping()  # the session survives

    def test_repeated_registration_reuses_the_schema(self, server):
        with connect(server.url) as conn:
            first = conn.register_schema(document=SCHOOL_DOC)
            second = conn.register_schema(document=SCHOOL_DOC)
        assert first["schema_id"] == second["schema_id"]
        assert len(server.tool.schemas) == 1

    def test_unknown_op_is_permanent_protocol_error(self, server):
        with connect(server.url) as conn:
            with pytest.raises(ProtocolError) as info:
                conn.request("frobnicate")
            assert not is_transient(info.value)
            assert conn.ping()  # the conversation survives

    def test_stats_op(self, server):
        with connect(server.url) as conn:
            stats = conn.server_stats()
        assert stats["connections"] == 1
        assert stats["server"]["connections_accepted"] == 1
        assert not stats["draining"]

    def test_remote_shutdown_disabled_by_default(self, server):
        with connect(server.url) as conn:
            with pytest.raises(ProtocolError, match="disabled"):
                conn.shutdown_server()


class TestTransactions:
    def test_transaction_spans_requests(self, server):
        with connect(server.url) as writer, \
                connect(server.url) as reader:
            writer.execute("CREATE TABLE T(v NUMBER)")
            writer.begin()
            writer.execute("INSERT INTO T VALUES(1)")
            writer.execute("INSERT INTO T VALUES(2)")
            writer.commit()
            assert reader.execute(
                "SELECT COUNT(*) FROM T").scalar() == 2

    def test_rollback_discards_the_batch(self, server):
        with connect(server.url) as conn:
            conn.execute("CREATE TABLE T(v NUMBER)")
            conn.begin()
            conn.execute("INSERT INTO T VALUES(1)")
            conn.rollback()
            assert conn.execute("SELECT COUNT(*) FROM T").scalar() == 0

    def test_disconnect_mid_transaction_releases_locks(self, server):
        """Killing a client mid-transaction must free its locks: the
        next client acquires the same table lock immediately."""
        victim = connect(server.url)
        victim.execute("CREATE TABLE T(v NUMBER)")
        victim.begin()
        victim.execute("INSERT INTO T VALUES(1)")  # holds X on T
        victim.close()  # vanish without COMMIT or ROLLBACK
        with connect(server.url) as survivor:
            started = time.monotonic()
            survivor.execute("INSERT INTO T VALUES(2)")
            elapsed = time.monotonic() - started
        # well under the engine's 5s lock timeout: the server rolled
        # the dead session back as soon as the socket died
        assert elapsed < 2.0
        # and the victim's uncommitted row is gone
        with connect(server.url) as conn:
            assert conn.execute("SELECT v FROM T").rows == [(2,)]
        assert server.stats["disconnects"] >= 1


class TestStatementTimeout:
    def test_blocked_statement_aborts_within_budget(self, make_server):
        server = make_server(statement_timeout=0.3)
        with connect(server.url) as holder, \
                connect(server.url) as blocked:
            holder.execute("CREATE TABLE T(v NUMBER)")
            holder.begin()
            holder.execute("INSERT INTO T VALUES(1)")
            started = time.monotonic()
            with pytest.raises(StatementTimeout) as info:
                blocked.execute("INSERT INTO T VALUES(2)")
            elapsed = time.monotonic() - started
            assert 0.25 <= elapsed < 1.5
            assert is_transient(info.value)
            holder.rollback()
        assert server.stats["statement_timeouts"] == 1

    def test_timeout_rolls_the_whole_session_back(self, make_server):
        """ORA-01013 aborts the statement AND the session's open
        transaction, so locks never outlive the budget."""
        server = make_server(statement_timeout=0.3)
        with connect(server.url) as holder, \
                connect(server.url) as victim:
            holder.execute("CREATE TABLE A(v NUMBER)")
            holder.execute("CREATE TABLE B(v NUMBER)")
            holder.begin()
            holder.execute("INSERT INTO A VALUES(1)")
            victim.begin()
            victim.execute("INSERT INTO B VALUES(1)")  # X on B
            with pytest.raises(StatementTimeout):
                victim.execute("INSERT INTO A VALUES(2)")
            # the victim's whole transaction rolled back server-side:
            # its lock on B is gone and the holder takes B instantly
            started = time.monotonic()
            holder.execute("INSERT INTO B VALUES(2)")
            assert time.monotonic() - started < 1.0
            holder.commit()
            assert victim.execute(
                "SELECT COUNT(*) FROM B").scalar() == 1


class TestAdmissionControl:
    def test_overload_sheds_within_the_queue_timeout(self, make_server):
        server = make_server(max_active=1, max_queue=0,
                             queue_timeout=0.4,
                             statement_timeout=10.0)
        holder = connect(server.url)
        occupant = connect(server.url)
        shed = connect(server.url)
        try:
            holder.execute("CREATE TABLE T(v NUMBER)")
            holder.begin()
            holder.execute("INSERT INTO T VALUES(1)")  # X on T
            # occupy the single executor slot with a lock wait
            outcome = {}

            def occupy():
                outcome["result"] = occupant.execute(
                    "INSERT INTO T VALUES(2)")

            occupier = threading.Thread(target=occupy, daemon=True)
            occupier.start()
            time.sleep(0.2)  # let the occupant take the slot
            started = time.monotonic()
            with pytest.raises(ServerBusy) as info:
                shed.execute("SELECT COUNT(*) FROM T")
            elapsed = time.monotonic() - started
            assert elapsed < 1.0  # bounded: queue_timeout + margin
            assert is_transient(info.value)
            # transaction control bypasses admission: without that,
            # this rollback would queue behind the occupant that is
            # waiting for this very session's lock (priority
            # inversion) and the server would wedge
            holder.rollback()
            occupier.join(10.0)
            assert not occupier.is_alive()
            assert outcome["result"].rowcount == 1
            assert server.admission.shed >= 1
            assert server.admission.stats["shed_queue_full"] >= 1
        finally:
            for conn in (holder, occupant, shed):
                conn.close()

    def test_slots_drain_back_to_zero(self, server):
        with connect(server.url) as conn:
            conn.execute("CREATE TABLE T(v NUMBER)")
            for n in range(5):
                conn.execute(f"INSERT INTO T VALUES({n})")
        assert server.admission.active == 0
        assert server.admission.queued == 0


class TestConnectionLimits:
    def test_connection_cap_rejects_transiently(self, make_server):
        server = make_server(max_connections=1)
        with connect(server.url) as conn:
            assert conn.ping()
            with pytest.raises(ConnectionLost) as info:
                connect(server.url)
            assert is_transient(info.value)
        assert server.stats["connections_rejected"] == 1

    def test_idle_connection_is_dropped(self, make_server):
        server = make_server(idle_timeout=0.3, read_timeout=0.3)
        conn = connect(server.url)
        assert conn.ping()
        time.sleep(0.9)
        with pytest.raises(ConnectionLost):
            conn.ping()
        assert server.stats["disconnects"] >= 1

    def test_bad_magic_gets_the_peer_dropped(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"HTTP/1.1")
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # server hung up

    def test_garbage_frame_ends_the_conversation(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.settimeout(5.0)
            wire.send_magic(sock)
            wire.expect_magic(sock)
            frame = bytearray(wire.encode_frame(
                wire.encode_message({"op": "ping"})))
            frame[-1] ^= 0xFF  # break the checksum
            sock.sendall(bytes(frame))
            assert sock.recv(1) == b""
        # and the server keeps serving honest clients
        with connect(server.url) as conn:
            assert conn.ping()


class TestNetFaults:
    def test_dropped_connection_is_transient(self, server):
        from repro.ordb.errors import DroppedConnection

        server.db.faults.arm(site="net", times=1,
                             error=DroppedConnection)
        with pytest.raises(ConnectionLost) as info:
            with connect(server.url) as conn:
                conn.ping()
        assert is_transient(info.value)
        assert server.stats["net_faults"] == 1

    def test_torn_frame_is_detected_client_side(self, server):
        from repro.ordb.errors import TornFrame

        server.db.faults.arm(
            site="net", times=1, error=TornFrame,
            predicate=lambda e: e.context.get("op") == "send")
        with pytest.raises(ConnectionLost):
            with connect(server.url) as conn:
                conn.ping()
        assert server.stats["net_faults"] == 1

    def test_slow_network_stalls_but_succeeds(self, server):
        from repro.ordb.errors import SlowNetwork

        server.db.faults.arm(site="net", times=1, error=SlowNetwork)
        with connect(server.url) as conn:
            started = time.monotonic()
            assert conn.ping()
            assert time.monotonic() - started >= 0.2


class TestParallelClients:
    def test_many_clients_commit_disjoint_rows(self, server):
        with connect(server.url) as admin:
            admin.execute("CREATE TABLE T(v NUMBER)")

        def client(base):
            def work():
                with connect(server.url) as conn:
                    conn.begin()
                    conn.execute(f"INSERT INTO T VALUES({base})")
                    conn.execute(f"INSERT INTO T VALUES({base + 1})")
                    conn.commit()
            return work

        errors = run_threads([client(n * 10) for n in range(8)])
        assert errors == []
        with connect(server.url) as conn:
            assert conn.execute(
                "SELECT COUNT(*) FROM T").scalar() == 16
