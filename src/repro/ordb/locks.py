"""Table-level lock manager: the engine's concurrency-control core.

Sessions (see :mod:`repro.ordb.sessions`) follow strict two-phase
locking at table granularity, the coarse end of Oracle's TM-lock
spectrum:

* a SELECT takes **S** (shared) locks on every table it reads,
* DML takes an **X** (exclusive) lock on its target table,
* DDL takes **X** on the catalog resource plus the named object,

and every lock is held until the owning transaction commits or rolls
back (statement-duration in autocommit).  An S holder asking for X on
the same resource performs a *lock upgrade*: it waits until it is the
sole holder, which is exactly the schedule that produces the classic
upgrade deadlock — two S holders both asking for X.

Waiters are bookkept in a wait-for graph.  A request that would close
a cycle is refused immediately with :class:`DeadlockDetected`
(ORA-00060) — the requester is the victim, Oracle-style, and its
already-held locks survive so the transaction may retry or roll back.
Requests that merely contend wait on a condition variable up to
``timeout`` seconds and then raise :class:`LockTimeout` (ORA-30006).
Both errors are classified transient, so the ingest retry policy
(:mod:`repro.core.ingest`) re-drives a deadlocked document.

The manager is self-contained and engine-agnostic: resources are
opaque strings, sessions are opaque integer ids.

>>> manager = LockManager(timeout=0.05)
>>> manager.acquire(1, "TABPROF", "S")
>>> manager.acquire(2, "TABPROF", "S")     # S is compatible with S
>>> manager.acquire(2, "TABPROF", "X")     # upgrade blocked by 1
Traceback (most recent call last):
    ...
repro.ordb.errors.LockTimeout: ORA-30006: ...
>>> manager.release_all(1)
>>> manager.acquire(2, "TABPROF", "X")     # now sole holder: granted
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from .errors import DeadlockDetected, LockTimeout

#: Lock modes.  X is strictly stronger than S.
SHARED = "S"
EXCLUSIVE = "X"

#: Pseudo-resource locked exclusively by every DDL statement, so that
#: schema changes serialize against each other and the catalog dicts
#: are never restructured under a concurrent DDL.
CATALOG_RESOURCE = "#CATALOG"

#: Upper bound for one condition-variable sleep; short slices keep
#: timeout accounting accurate across spurious wakeups.
_WAIT_SLICE = 0.05


class LockManager:
    """Grants S/X locks on named resources to integer session ids."""

    def __init__(self, timeout: float = 5.0):
        #: default seconds a request may wait before ORA-30006
        self.timeout = timeout
        self._mutex = threading.Lock()
        self._granted = threading.Condition(self._mutex)
        #: resource -> {session id: mode}
        self._holders: dict[str, dict[int, str]] = {}
        #: resources each session currently holds (for release_all)
        self._held: dict[int, set[str]] = {}
        #: the wait-for graph: waiting session -> blocking sessions
        self._waits_for: dict[int, frozenset[int]] = {}
        #: resource -> sessions currently waiting for X on it.  New S
        #: requests queue behind these, or a steady stream of readers
        #: would starve writers forever (S is always compatible with
        #: the current S holders, so without the barrier an X waiter
        #: never sees the resource free).
        self._x_waiters: dict[str, set[int]] = {}
        #: sessions whose in-flight lock waits should abort (see
        #: :meth:`cancel`); membership is consumed by the waiter
        self._cancelled: set[int] = set()
        #: monotonically increasing counters, never reset.  The
        #: per-mode acquire counts exist so the MVCC anomaly suite
        #: can assert that snapshot SELECTs take zero S locks.
        self.stats = {"acquires": 0, "s_acquires": 0, "x_acquires": 0,
                      "waits": 0, "upgrades": 0,
                      "timeouts": 0, "deadlocks": 0, "cancels": 0}
        #: optional hook(kind, resource, mode, seconds) with kind in
        #: {"wait", "timeout", "deadlock"}; the engine hangs its
        #: metrics bridge here.  Called under the manager mutex.
        self.on_event: Callable[..., None] | None = None

    # -- acquisition -------------------------------------------------------------

    def acquire(self, sid: int, resource: str, mode: str,
                timeout: float | None = None) -> None:
        """Grant *mode* on *resource* to session *sid*, waiting for
        conflicting holders up to *timeout* (manager default when
        None).  Raises :class:`DeadlockDetected` when waiting would
        close a wait-for cycle, :class:`LockTimeout` on expiry."""
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        limit = self.timeout if timeout is None else timeout
        start = time.monotonic()
        waited = False
        with self._granted:
            self._cancelled.discard(sid)
            holders = self._holders.setdefault(resource, {})
            held = holders.get(sid)
            if held == EXCLUSIVE or held == mode:
                return  # reentrant, or S re-requested while holding S
            registered = False
            try:
                while True:
                    # re-fetch each pass: release_all drops the per-
                    # resource dict when it empties, so a reference
                    # captured before sleeping can go stale
                    holders = self._holders.setdefault(resource, {})
                    blockers = self._blockers(sid, holders, mode)
                    if mode == SHARED and held is None:
                        # fairness barrier: queue behind X waiters
                        blockers |= frozenset(
                            s for s in self._x_waiters.get(resource,
                                                           ())
                            if s != sid)
                    if not blockers:
                        break
                    if mode == EXCLUSIVE and not registered:
                        registered = True
                        self._x_waiters.setdefault(
                            resource, set()).add(sid)
                    if not waited:
                        waited = True
                        self.stats["waits"] += 1
                    # refresh this session's wait-for edges each pass:
                    # the holder set changes while we sleep
                    self._waits_for[sid] = blockers
                    if self._closes_cycle(sid):
                        del self._waits_for[sid]
                        self.stats["deadlocks"] += 1
                        self._emit("deadlock", resource, mode,
                                   time.monotonic() - start)
                        holder_list = ", ".join(
                            str(s) for s in sorted(blockers))
                        raise DeadlockDetected(
                            f"deadlock detected while waiting for"
                            f" {mode} lock on {resource} (session"
                            f" {sid} waits for session(s)"
                            f" {holder_list})")
                    if sid in self._cancelled:
                        self._cancelled.discard(sid)
                        del self._waits_for[sid]
                        self.stats["cancels"] += 1
                        self._emit("timeout", resource, mode,
                                   time.monotonic() - start)
                        raise LockTimeout(
                            f"lock wait cancelled while waiting for"
                            f" {mode} lock on {resource}"
                            f" (session {sid})")
                    remaining = limit - (time.monotonic() - start)
                    if remaining <= 0:
                        del self._waits_for[sid]
                        self.stats["timeouts"] += 1
                        self._emit("timeout", resource, mode,
                                   time.monotonic() - start)
                        raise LockTimeout(
                            f"timeout waiting for {mode} lock on"
                            f" {resource} after {limit:.3f}s"
                            f" (session {sid})")
                    self._granted.wait(min(remaining, _WAIT_SLICE))
            finally:
                if registered:
                    x_waiters = self._x_waiters.get(resource)
                    if x_waiters is not None:
                        x_waiters.discard(sid)
                        if not x_waiters:
                            del self._x_waiters[resource]
                    # readers queued behind this X request may go now
                    self._granted.notify_all()
            self._waits_for.pop(sid, None)
            if held == SHARED and mode == EXCLUSIVE:
                self.stats["upgrades"] += 1
            holders = self._holders.setdefault(resource, {})
            holders[sid] = mode
            self._held.setdefault(sid, set()).add(resource)
            self.stats["acquires"] += 1
            self.stats["s_acquires" if mode == SHARED
                       else "x_acquires"] += 1
            if waited:
                self._emit("wait", resource, mode,
                           time.monotonic() - start)

    @staticmethod
    def _blockers(sid: int, holders: dict[int, str],
                  mode: str) -> frozenset[int]:
        """Sessions whose grants conflict with *sid* asking *mode*."""
        if mode == SHARED:
            return frozenset(s for s, m in holders.items()
                             if m == EXCLUSIVE and s != sid)
        return frozenset(s for s in holders if s != sid)

    def _closes_cycle(self, start: int) -> bool:
        """True when *start*'s fresh wait edges reach back to it."""
        seen: set[int] = set()
        frontier = list(self._waits_for.get(start, ()))
        while frontier:
            sid = frontier.pop()
            if sid == start:
                return True
            if sid in seen:
                continue
            seen.add(sid)
            frontier.extend(self._waits_for.get(sid, ()))
        return False

    def _emit(self, kind: str, resource: str, mode: str,
              seconds: float) -> None:
        if self.on_event is not None:
            self.on_event(kind, resource, mode, seconds)

    # -- release -----------------------------------------------------------------

    def cancel(self, sid: int) -> None:
        """Abort any lock wait session *sid* is sleeping in.

        The waiter wakes and raises :class:`LockTimeout` immediately
        instead of running out its full timeout.  Used by the network
        server's drain path to unstick in-flight statements.  A no-op
        when *sid* is not currently waiting — the flag is cleared on
        the session's next acquire, so it cannot poison future waits.
        """
        with self._granted:
            self._cancelled.add(sid)
            self._granted.notify_all()

    def release_all(self, sid: int) -> None:
        """Drop every lock of session *sid* and wake all waiters."""
        with self._granted:
            self._cancelled.discard(sid)
            for resource in self._held.pop(sid, ()):
                holders = self._holders.get(resource)
                if holders is None:
                    continue
                holders.pop(sid, None)
                if not holders:
                    del self._holders[resource]
            self._waits_for.pop(sid, None)
            # prune this session out of sleeping waiters' recorded
            # edges: they refresh only on wakeup, and a stale edge to
            # a session that no longer holds anything produces false
            # deadlock cycles
            for waiter, blockers in list(self._waits_for.items()):
                if sid in blockers:
                    self._waits_for[waiter] = blockers - {sid}
            self._granted.notify_all()

    # -- introspection -----------------------------------------------------------

    def holding(self, sid: int, resource: str) -> str | None:
        """The mode *sid* holds on *resource*, or None."""
        with self._mutex:
            return self._holders.get(resource, {}).get(sid)

    def waiting_sessions(self) -> set[int]:
        with self._mutex:
            return set(self._waits_for)
