"""Deterministic fault injection for crash-consistency testing.

Every :class:`~repro.ordb.engine.Database` owns a
:class:`FaultInjector` and calls :meth:`FaultInjector.hit` at its
failure-prone boundaries:

* ``parse``     — before a SQL string is parsed;
* ``statement`` — before a parsed statement executes;
* ``lock``      — before each table-lock acquisition (one hit per
  resource the statement locks), modelling contention faults such as
  lock-wait timeouts on a busy server;
* ``storage``   — before each physical row mutation (insert, per-row
  update, per-row delete);
* ``commit``    — at the top of every real COMMIT (one with an open
  transaction), before anything becomes permanent — the crash-just-
  before-durable point;
* ``wal``       — inside the write-ahead log, before each append and
  before each fsync (durable mode only).  Faults whose error carries
  a ``wal_effect`` (:class:`~repro.ordb.errors.TornWrite`,
  :class:`~repro.ordb.errors.ChecksumCorruption`,
  :class:`~repro.ordb.errors.FsyncFailure`) physically damage the
  log file the corresponding way before the error surfaces;
* ``net``       — in the network server, after each request is read
  (``op="recv"``) and before each response is sent (``op="send"``).
  Faults whose error carries a ``net_effect``
  (:class:`~repro.ordb.errors.TornFrame`,
  :class:`~repro.ordb.errors.DroppedConnection`,
  :class:`~repro.ordb.errors.SlowNetwork`) damage the conversation
  the corresponding way — half a frame then hangup, immediate
  hangup, or a long stall.

With no fault armed, a hit only bumps a per-site counter (the counters
double as the sweep index space for exhaustive crash tests: a clean
dry run tells you how many boundaries a workload crosses).  An armed
:class:`Fault` fires **by count** (the N-th matching event), **by
predicate** (any callable on the event), or **seeded-random** (a
per-fault ``random.Random(seed)``, so runs replay exactly).  Firing
raises the fault's error — :class:`TransientEngineFault` by default —
*before* the guarded mutation happens, which is what makes the
injected failure a clean statement/storage boundary crash.

>>> from repro.ordb import Database
>>> db = Database()
>>> _ = db.execute("CREATE TABLE T(a NUMBER)")
>>> fault = db.faults.arm(site="statement", at=1)
>>> db.execute("INSERT INTO T VALUES(1)")
Traceback (most recent call last):
    ...
repro.ordb.errors.TransientEngineFault: ORA-03113: injected fault ...
>>> db.faults.clear()
>>> db.execute("SELECT COUNT(*) FROM T").scalar()  # nothing stored
0

Transaction-control statements other than COMMIT (BEGIN/ROLLBACK/
SAVEPOINT) are exempt from injection: recovery must always be
possible.  COMMIT has its own dedicated ``commit`` site — a commit
that fails before becoming durable is precisely the crash the
recovery tests need to inject — and a fired commit fault leaves the
transaction open, so the caller's rollback path still restores a
clean state.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable

from .errors import OrdbError, TransientEngineFault

#: The boundaries the engine guards.
SITES = ("parse", "statement", "lock", "storage", "commit", "wal",
         "net")


@dataclass(frozen=True)
class FaultEvent:
    """One visit to an injection site."""

    site: str
    sequence: int        # 1-based count across all sites
    site_sequence: int   # 1-based count within this site
    context: dict


@dataclass
class Fault:
    """One armed fault.  Fields are triggers; any may combine.

    ``site=None`` matches every site.  ``at`` counts *matching* events
    (after site/predicate filtering) and fires on the ``at``-th one.
    ``rate`` fires each matching event with the given probability from
    a dedicated ``random.Random(seed)``.  ``times`` bounds how often
    the fault fires (``None`` = unlimited).
    """

    site: str | None = None
    at: int | None = None
    predicate: Callable[[FaultEvent], bool] | None = None
    rate: float = 0.0
    seed: int | None = None
    error: Callable[[str], OrdbError] = TransientEngineFault
    times: int | None = 1
    matches: int = 0
    fired: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    @property
    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times

    def accepts(self, event: FaultEvent) -> bool:
        """Site and predicate filter (runs without the injector
        lock: a predicate may block or consult the injector)."""
        if self.site is not None and event.site != self.site:
            return False
        return self.predicate is None or self.predicate(event)

    def should_fire(self, event: FaultEvent) -> bool:
        """Trigger accounting for one accepted event (caller holds
        the injector lock)."""
        if self.exhausted:
            return False
        self.matches += 1
        if self.at is not None:
            return self.matches == self.at
        if self.rate > 0.0:
            return self._rng.random() < self.rate
        # no positional trigger at all: fire on every match
        return True

    def make_error(self, event: FaultEvent) -> OrdbError:
        return self.error(
            f"injected fault at {event.site} boundary"
            f" #{event.site_sequence} (event #{event.sequence})")


class FaultInjector:
    """Owns the armed faults and boundary counters of one engine."""

    def __init__(self) -> None:
        self._faults: list[Fault] = []
        self.events: dict[str, int] = {}
        self.total_events = 0
        self.fired: list[FaultEvent] = []
        # concurrent sessions hit boundaries from many threads; the
        # counters and per-fault trigger state must update atomically
        self._lock = threading.Lock()

    # -- arming ------------------------------------------------------------------

    def arm(self, site: str | None = None, *, at: int | None = None,
            predicate: Callable[[FaultEvent], bool] | None = None,
            rate: float = 0.0, seed: int | None = None,
            error: Callable[[str], OrdbError] = TransientEngineFault,
            times: int | None = 1) -> Fault:
        """Arm and return a new fault (see :class:`Fault`)."""
        if site is not None and site not in SITES:
            raise ValueError(f"unknown fault site {site!r};"
                             f" expected one of {SITES}")
        fault = Fault(site=site, at=at, predicate=predicate, rate=rate,
                      seed=seed, error=error, times=times)
        self._faults.append(fault)
        return fault

    def disarm(self, fault: Fault) -> None:
        if fault in self._faults:
            self._faults.remove(fault)

    def clear(self) -> None:
        """Disarm every fault (counters and history are kept)."""
        self._faults.clear()

    def reset(self) -> None:
        """Disarm everything and zero counters/history."""
        self.clear()
        self.events.clear()
        self.total_events = 0
        self.fired.clear()

    @property
    def armed(self) -> bool:
        return bool(self._faults)

    # -- the hot path ------------------------------------------------------------

    def hit(self, site: str, **context) -> None:
        """Record one boundary visit; raise if an armed fault fires.

        Predicates run on a snapshot of the armed faults with the lock
        released, so one that blocks stalls only its own session; the
        trigger accounting (``matches``, ``at``, ``rate``, ``times``)
        then runs under the lock again, so a ``times=1`` fault fires
        once however many sessions pass its predicate together.
        """
        with self._lock:
            site_count = self.events.get(site, 0) + 1
            self.events[site] = site_count
            self.total_events += 1
            if not self._faults:
                return
            event = FaultEvent(site, self.total_events, site_count,
                               context)
            armed = [fault for fault in self._faults
                     if not fault.exhausted]
        accepted = [fault for fault in armed if fault.accepts(event)]
        if not accepted:
            return
        with self._lock:
            for fault in accepted:
                if fault in self._faults and fault.should_fire(event):
                    fault.fired += 1
                    self.fired.append(event)
                    raise fault.make_error(event)
