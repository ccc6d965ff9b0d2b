"""The deterministic fault-injection harness."""

import threading

import pytest

from repro.ordb import (
    Fault,
    FaultInjector,
    TransientEngineFault,
    is_transient,
)
from repro.ordb.errors import NotSupported
from repro.ordb.sql import ast


@pytest.fixture
def table(db):
    db.execute("CREATE TABLE T(a NUMBER)")
    return db


class TestCounters:
    def test_unarmed_hits_only_count(self, table):
        table.faults.reset()
        table.execute("INSERT INTO T VALUES(1)")
        assert table.faults.events["parse"] == 1
        assert table.faults.events["statement"] == 1
        assert table.faults.events["lock"] == 1    # X lock on T
        assert table.faults.events["storage"] == 1
        assert table.faults.total_events == 4

    def test_dry_run_reveals_sweep_space(self, table):
        """A clean run's counters are the exhaustive-sweep domain."""
        table.faults.reset()
        for n in range(5):
            table.execute(f"INSERT INTO T VALUES({n})")
        assert table.faults.events["storage"] == 5

    def test_update_and_delete_hit_per_row(self, table):
        for n in range(3):
            table.execute(f"INSERT INTO T VALUES({n})")
        table.faults.reset()
        table.execute("UPDATE T SET a = a + 10")
        assert table.faults.events["storage"] == 3
        table.faults.reset()
        table.execute("DELETE FROM T")
        assert table.faults.events["storage"] == 3


class TestTriggers:
    def test_fire_by_count(self, table):
        table.faults.arm(site="storage", at=2)
        table.execute("INSERT INTO T VALUES(1)")
        with pytest.raises(TransientEngineFault):
            table.execute("INSERT INTO T VALUES(2)")
        assert table.execute("SELECT COUNT(*) FROM T").scalar() == 1

    def test_fire_by_predicate(self, table):
        table.faults.arm(
            site="statement",
            predicate=lambda e: "DELETE"
            in type(e.context.get("statement")).__name__.upper())
        table.execute("INSERT INTO T VALUES(1)")
        with pytest.raises(TransientEngineFault):
            table.execute("DELETE FROM T")

    def test_seeded_random_replays_exactly(self, table):
        def run(seed):
            injector = FaultInjector()
            fault = injector.arm(site="storage", rate=0.3, seed=seed,
                                 times=None)
            fired = []
            for n in range(50):
                try:
                    injector.hit("storage", n=n)
                except TransientEngineFault:
                    fired.append(n)
            return fired

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_times_bounds_firing(self, table):
        table.faults.arm(site="storage", times=1)
        with pytest.raises(TransientEngineFault):
            table.execute("INSERT INTO T VALUES(1)")
        table.execute("INSERT INTO T VALUES(2)")  # fault spent
        assert table.execute("SELECT COUNT(*) FROM T").scalar() == 1

    def test_custom_error_class(self, table):
        table.faults.arm(site="statement", at=1, error=NotSupported)
        with pytest.raises(NotSupported):
            table.execute("INSERT INTO T VALUES(1)")

    def test_parse_site(self, table):
        table.faults.arm(site="parse", at=1)
        with pytest.raises(TransientEngineFault):
            table.execute("INSERT INTO T VALUES(1)")
        # pre-parsed statements skip the parse boundary
        from repro.ordb.sql.parser import parse_statement
        statement = parse_statement("INSERT INTO T VALUES(2)")
        table.faults.clear()
        table.execute(statement)
        assert table.execute("SELECT COUNT(*) FROM T").scalar() == 1


class TestLifecycle:
    def test_disarm_specific_fault(self, table):
        fault = table.faults.arm(site="storage")
        other = table.faults.arm(site="parse", at=999)
        table.faults.disarm(fault)
        table.execute("INSERT INTO T VALUES(1)")
        assert table.faults.armed  # the other fault is still armed

    def test_clear_keeps_counters(self, table):
        table.execute("INSERT INTO T VALUES(1)")
        before = table.faults.total_events
        table.faults.arm(site="storage")
        table.faults.clear()
        assert not table.faults.armed
        assert table.faults.total_events == before

    def test_reset_zeroes_everything(self, table):
        table.faults.arm(site="storage")
        with pytest.raises(TransientEngineFault):
            table.execute("INSERT INTO T VALUES(1)")
        table.faults.reset()
        assert not table.faults.armed
        assert table.faults.total_events == 0
        assert table.faults.fired == []

    def test_fired_history(self, table):
        table.faults.arm(site="storage", at=1)
        with pytest.raises(TransientEngineFault):
            table.execute("INSERT INTO T VALUES(1)")
        (event,) = table.faults.fired
        assert event.site == "storage"
        assert event.context["op"] == "insert"
        assert event.context["table"] == "T"


class TestPredicatesRunUnlocked:
    def test_a_waiting_predicate_stalls_only_its_own_session(self, db):
        """A predicate that blocks holds up the statement it guards,
        never an unrelated session's statement at the same site."""
        db.execute("CREATE TABLE A(n NUMBER)")
        db.execute("CREATE TABLE B(n NUMBER)")
        entered, release = threading.Event(), threading.Event()

        def hold_inserts(event) -> bool:
            if isinstance(event.context["statement"], ast.Insert):
                entered.set()
                release.wait(10.0)
            return False

        db.faults.arm(site="statement", predicate=hold_inserts,
                      times=None)
        writer_session = db.session(name="writer")
        reader_session = db.session(name="reader")
        counted = []
        writer = threading.Thread(target=writer_session.execute,
                                  args=("INSERT INTO A VALUES(1)",))
        reader = threading.Thread(target=lambda: counted.append(
            reader_session.execute("SELECT COUNT(*) FROM B").scalar()))
        writer.start()
        try:
            assert entered.wait(10.0)
            reader.start()
            reader.join(5.0)
            finished_while_held = not reader.is_alive()
        finally:
            release.set()
            writer.join(10.0)
            reader.join(10.0)
        assert finished_while_held
        assert counted == [0]
        assert db.execute("SELECT COUNT(*) FROM A").scalar() == 1
        writer_session.close()
        reader_session.close()

    def test_a_times_1_fault_fires_once_under_concurrent_hits(self):
        """Every session passes the predicate at the same moment; the
        trigger accounting still lets exactly one of them fire."""
        sessions = 8
        faults = FaultInjector()
        together = threading.Barrier(sessions)
        fault = faults.arm(site="statement",
                           predicate=lambda event: together.wait(10.0)
                           is not None, times=1)
        raised = []

        def hit() -> None:
            try:
                faults.hit("statement")
            except TransientEngineFault:
                raised.append(1)

        threads = [threading.Thread(target=hit) for _ in range(sessions)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20.0)
        assert not together.broken
        assert len(raised) == 1
        assert fault.fired == 1
        assert fault.matches == 1
        assert len(faults.fired) == 1


class TestEngineIntegration:
    def test_injected_error_is_transient(self):
        fault = Fault()
        assert is_transient(fault.error("boom"))

    def test_transaction_control_exempt(self, table):
        """COMMIT/ROLLBACK must always be possible under faults."""
        table.faults.arm(site="statement", times=None)
        table.execute("BEGIN")        # exempt: does not raise
        with pytest.raises(TransientEngineFault):
            table.execute("INSERT INTO T VALUES(1)")
        table.execute("ROLLBACK")     # exempt: recovery works
        assert not table.in_transaction

    def test_fault_leaves_clean_state_mid_transaction(self, table):
        table.execute("INSERT INTO T VALUES(1)")
        table.faults.arm(site="storage", at=2)
        table.execute("BEGIN")
        table.execute("INSERT INTO T VALUES(2)")
        with pytest.raises(TransientEngineFault):
            table.execute("INSERT INTO T VALUES(3)")
        table.execute("COMMIT")
        values = {int(v) for (v,) in
                  table.execute("SELECT a FROM T").rows}
        assert values == {1, 2}

    def test_unknown_site_rejected(self, db):
        with pytest.raises(ValueError):
            db.faults.arm(site="network")
