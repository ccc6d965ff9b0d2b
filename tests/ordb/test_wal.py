"""Property-based tests of the WAL frame format.

The frame layout (``RWAL0001 | len | crc | payload | ...``) carries
every committed transaction, so its decoder must satisfy three
properties under *any* byte-level damage:

* round-trip — what was encoded is what decodes back, in order;
* corruption rejection — flipping any single byte of a record's
  frame makes that record (and everything after it) untrusted;
* torn-tail truncation — cutting the file at any offset inside the
  final frame recovers exactly the preceding records.
"""

import os
import sys
import threading
import time

from hypothesis import given, settings, strategies as st

from repro.ordb import (
    Database,
    FaultInjector,
    TornWrite,
    WriteAheadLog,
    decode_records,
    decode_transaction,
    encode_record,
    encode_transaction,
)
from repro.ordb.wal import FRAME_OVERHEAD, MAGIC

_payloads = st.lists(st.binary(max_size=200), max_size=8)


def _log_bytes(payloads):
    return MAGIC + b"".join(encode_record(p) for p in payloads)


# -- round trip ---------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(_payloads)
def test_encode_decode_roundtrip(payloads):
    records, valid_end = decode_records(_log_bytes(payloads))
    assert records == payloads
    assert valid_end == len(_log_bytes(payloads))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9),
       st.lists(st.text(max_size=80), max_size=6))
def test_transaction_payload_roundtrip(seq, statements):
    seq_out, stmts_out = decode_transaction(
        encode_transaction(seq, statements))
    assert (seq_out, stmts_out) == (seq, statements)


@settings(max_examples=60, deadline=None)
@given(payloads=_payloads)
def test_append_reopen_roundtrip(tmp_path_factory, payloads):
    where = tmp_path_factory.mktemp("wal")
    log = WriteAheadLog(where / "wal.log", policy="off")
    log.open()
    for payload in payloads:
        log.append(payload)
    log.close()
    reopened = WriteAheadLog(where / "wal.log")
    assert reopened.open() == payloads
    assert reopened.truncated_bytes == 0
    reopened.close()


# -- corruption rejection -----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=1, max_size=150), st.data())
def test_any_single_byte_corruption_rejects_record(payload, data):
    intact = _log_bytes([payload])
    index = data.draw(st.integers(min_value=len(MAGIC),
                                  max_value=len(intact) - 1),
                      label="corrupted byte index")
    flip = data.draw(st.integers(min_value=1, max_value=255),
                     label="xor mask")
    damaged = bytearray(intact)
    damaged[index] ^= flip
    records, _ = decode_records(bytes(damaged))
    # the CRC covers the length prefix too, so a damaged header
    # cannot silently re-frame the payload either
    assert records == []


def test_exhaustive_single_byte_corruption_of_frame():
    payload = b"INSERT INTO TabProf VALUES ('Jaeger', 'CAD')"
    intact = _log_bytes([payload])
    for index in range(len(MAGIC), len(intact)):
        damaged = bytearray(intact)
        damaged[index] ^= 0x01
        records, _ = decode_records(bytes(damaged))
        assert records == [], f"corruption at byte {index} accepted"


def test_damaged_magic_discards_whole_file():
    data = _log_bytes([b"a", b"b"])
    for index in range(len(MAGIC)):
        damaged = bytearray(data)
        damaged[index] ^= 0x01
        assert decode_records(bytes(damaged)) == ([], 0)
    assert decode_records(b"") == ([], 0)
    assert decode_records(MAGIC[:4]) == ([], 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.binary(max_size=60), min_size=2, max_size=6),
       st.data())
def test_corruption_keeps_preceding_records(payloads, data):
    # damage a byte inside frame k: frames 0..k-1 still decode
    frames = [encode_record(p) for p in payloads]
    k = data.draw(st.integers(min_value=0,
                              max_value=len(payloads) - 1),
                  label="damaged frame")
    start = len(MAGIC) + sum(len(f) for f in frames[:k])
    index = data.draw(st.integers(min_value=start,
                                  max_value=start + len(frames[k]) - 1),
                      label="byte within frame")
    damaged = bytearray(MAGIC + b"".join(frames))
    damaged[index] ^= 0xFF
    records, valid_end = decode_records(bytes(damaged))
    assert records == payloads[:k]
    assert valid_end == start


# -- torn-tail truncation -----------------------------------------------------------


def test_torn_tail_truncation_at_every_offset(tmp_path):
    payloads = [b"alpha", b"beta" * 10, b"gamma-final-record"]
    intact = _log_bytes(payloads)
    final_start = len(_log_bytes(payloads[:-1]))
    for cut in range(final_start, len(intact)):
        torn = intact[:cut]
        records, valid_end = decode_records(torn)
        assert records == payloads[:-1]
        assert valid_end == final_start
        # the log object must recover the same way, durably
        path = tmp_path / f"wal-{cut}.log"
        path.write_bytes(torn)
        log = WriteAheadLog(path)
        assert log.open() == payloads[:-1]
        assert log.truncated_bytes == cut - final_start
        log.close()
        assert path.read_bytes() == intact[:final_start]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.binary(max_size=60), min_size=1, max_size=6),
       st.data())
def test_torn_tail_truncation_property(payloads, data):
    intact = _log_bytes(payloads)
    final_start = len(_log_bytes(payloads[:-1]))
    cut = data.draw(st.integers(min_value=final_start,
                                max_value=len(intact) - 1),
                    label="cut offset")
    records, valid_end = decode_records(intact[:cut])
    assert records == payloads[:-1]
    assert valid_end == final_start


def test_append_after_torn_recovery_continues_cleanly(tmp_path):
    path = tmp_path / "wal.log"
    intact = _log_bytes([b"one", b"two"])
    path.write_bytes(intact + encode_record(b"three")[:5])
    log = WriteAheadLog(path)
    assert log.open() == [b"one", b"two"]
    log.append(b"four")
    log.close()
    assert WriteAheadLog(path).open() == [b"one", b"two", b"four"]


# -- injected media faults ----------------------------------------------------------


def test_torn_write_fault_damages_then_recovers(tmp_path):
    faults = FaultInjector()
    log = WriteAheadLog(tmp_path / "wal.log", faults=faults)
    log.open()
    log.append(b"committed")
    faults.arm(site="wal", at=1, error=TornWrite)
    try:
        log.append(b"never-lands")
    except TornWrite:
        pass
    else:  # pragma: no cover - the fault must fire
        raise AssertionError("armed fault did not fire")
    # a crash here leaves the half-frame on disk; recovery drops it
    crash_image = (tmp_path / "wal.log").read_bytes()
    (tmp_path / "crashed.log").write_bytes(crash_image)
    reopened = WriteAheadLog(tmp_path / "crashed.log")
    assert reopened.open() == [b"committed"]
    assert reopened.truncated_bytes > 0
    reopened.close()
    # a *surviving* engine repairs the tail before the next append
    log.append(b"carries-on")
    log.close()
    healed = WriteAheadLog(tmp_path / "wal.log")
    assert healed.open() == [b"committed", b"carries-on"]
    assert healed.truncated_bytes == 0
    healed.close()


def test_database_survives_torn_commit(tmp_path):
    where = tmp_path / "db"
    db = Database(path=where)
    db.execute("CREATE TABLE T(n NUMBER)")
    db.execute("INSERT INTO T VALUES (1)")
    db.faults.arm(site="wal", at=1, error=TornWrite)
    try:
        db.execute("INSERT INTO T VALUES (2)")
    except TornWrite:
        pass
    # durable-commit atomicity: memory rolled back with the log
    assert db.execute("SELECT COUNT(*) FROM T").scalar() == 1
    # crash image taken right after the fault still has the torn tail
    crash = tmp_path / "crash"
    crash.mkdir()
    (crash / "wal.log").write_bytes((where / "wal.log").read_bytes())
    crashed = Database(path=crash)
    assert crashed.execute("SELECT COUNT(*) FROM T").scalar() == 1
    assert crashed.recovery_info["torn_bytes_discarded"] > 0
    crashed.close()
    # the surviving engine keeps committing; nothing is lost
    db.execute("INSERT INTO T VALUES (3)")
    db.close()
    recovered = Database(path=where)
    assert [int(n) for (n,) in
            recovered.execute("SELECT t.n FROM T t ORDER BY t.n")
            .rows] == [1, 3]
    recovered.close()


def test_group_commit_batches_committers_queued_behind_the_leader(
        tmp_path):
    """At ``fsync=always``, committers that arrive while the leader is
    inside its write share the next batch and its one fsync.  A
    never-firing ``wal`` predicate holds the leader's first frame
    until every other session has run its INSERT and queued its
    COMMIT, so the batching is deterministic: one batch of 1, then
    one batch of the rest."""
    committers = 8
    db = Database(path=tmp_path, fsync="always", group_commit=True)
    for n in range(committers):  # a table each: no lock waits
        db.execute(f"CREATE TABLE T{n}(n NUMBER)")
    db.reset_stats()
    entered, release = threading.Event(), threading.Event()

    def hold_first_frame(event) -> bool:
        if not entered.is_set():
            entered.set()
            release.wait(10.0)
        return False

    def insert_and_commit(n: int) -> None:
        with db.session(name=f"committer-{n}") as session:
            session.begin()
            session.execute(f"INSERT INTO T{n} VALUES({n})")
            session.commit()

    db.faults.arm(site="wal", predicate=hold_first_frame, times=None)
    threads = [threading.Thread(target=insert_and_commit, args=(n,))
               for n in range(committers)]
    threads[0].start()
    assert entered.wait(10.0)  # the leader is inside its write
    for thread in threads[1:]:
        thread.start()
    deadline = time.monotonic() + 10.0
    try:
        while len(db.group_committer._queue) < committers - 1:
            assert time.monotonic() < deadline, "committers never queued"
            time.sleep(0.001)
    finally:
        release.set()
        for thread in threads:
            thread.join(10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert db.stats["commits"] == db.stats["wal_appends"] == committers
    assert db.stats["group_commit_records"] == committers
    assert db.stats["group_commit_batches"] == 2
    assert db.group_committer.batch_sizes[committers - 1] == 1
    db.close()
    reopened = Database(path=tmp_path)
    assert [reopened.execute(f"SELECT t.n FROM T{n} t").scalar()
            for n in range(committers)] == list(range(committers))
    reopened.close()


def test_concurrent_commits_are_counted_exactly(tmp_path):
    """Every ``stats`` count two sessions can bump at once is bumped
    under a lock: with the interpreter switching threads as often as
    it can, 8 sessions x 100 commits count as exactly 800."""
    workers, commits = 8, 100
    db = Database(path=tmp_path, fsync="off", group_commit=True)
    for n in range(workers):
        db.execute(f"CREATE TABLE T{n}(n NUMBER)")
    db.reset_stats()

    def work(n: int) -> None:
        with db.session(name=f"worker-{n}") as session:
            for i in range(commits):
                session.begin()
                session.execute(f"INSERT INTO T{n} VALUES({i})")
                session.commit()

    threads = [threading.Thread(target=work, args=(n,))
               for n in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = workers * commits
    assert db.stats["commits"] == db.stats["wal_appends"] == total
    assert db.stats["group_commit_records"] == total
    assert db.stats["statements"] == db.stats["rows_touched"] == total
    db.close()
