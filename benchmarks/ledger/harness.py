"""Measurement plumbing shared by every ledger workload.

A workload is a sequence of identical *rounds* (the same number of
operations of each class, inputs drawn from the seed and the round
number).  The harness times every operation individually, adds the
operation times up per round, and keeps failures apart from wrong
answers:
an operation the system refuses (any ``OrdbError``) is *failed*; an
operation that returns something other than the expected output makes
the whole run *incorrect*.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from repro.ordb.errors import OrdbError

clock = time.perf_counter

#: percentiles tried for the tail, highest first; the first one with
#: at least ten samples beyond it is reported
_TAILS = (99.9, 99.0, 95.0, 90.0)


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, milliseconds) of the highest percentile that still
    has ten samples beyond it, or None for a sample too small."""
    ordered = sorted(samples)
    for percentile in _TAILS:
        beyond = int(len(ordered) * (1 - percentile / 100))
        if beyond >= 10:
            return percentile, ordered[-beyond - 1] * 1e3
    return None


class Ops:
    """Latency samples, attempt/failure counts and output checks of
    one client (one thread) of a workload."""

    def __init__(self, recorder=None):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        #: seconds the operations of each measured round took together
        #: (what the harness does between operations is not in it)
        self.rounds: list[float] = []
        self._round_s = 0.0
        #: (rounds, operations done) of every client absorbed
        self.clients: list[tuple[list[float], int]] = []
        self.rows_returned = 0
        self._recorder = recorder

    def call(self, kind: str, fn, *args, weight: int = 1,
             root: bool = True, **kwargs):
        """Run and time ``fn(*args)`` as one operation of class
        *kind*; returns its result, or None when the system refused
        it.  *weight* is how many user-visible operations the call
        stands for (a bulk call storing twelve documents counts
        twelve).  ``root=False`` skips the traced root span for a call
        whose work happens on other threads."""
        self.attempted += weight
        if self._recorder is not None and root:
            fn = self._recorder.root(kind, fn)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except OrdbError as error:
            self._round_s += clock() - start
            self.failed += weight
            if len(self.failures) < 5:
                self.failures.append(f"{kind}: {error!r}")
            return None
        elapsed = clock() - start
        self._round_s += elapsed
        self.samples[kind].append(elapsed)
        return result

    def end_round(self) -> None:
        self.rounds.append(self._round_s)
        self._round_s = 0.0

    def check(self, condition: bool, message: str) -> None:
        """Record a wrong answer (never folded into ``failed``)."""
        if not condition and len(self.problems) < 20:
            self.problems.append(message)

    def _clients(self) -> list[tuple[list[float], int]]:
        return self.clients or [(self.rounds,
                                 self.attempted - self.failed)]

    @property
    def wall(self) -> float:
        """Seconds measured (of the client that took longest)."""
        return max(sum(rounds) for rounds, _ in self._clients())

    @property
    def busy(self) -> float:
        """Seconds measured, added over the clients."""
        return sum(sum(rounds) for rounds, _ in self._clients())

    def throughput(self) -> float:
        """Operations per second at the *median* round of each client,
        added over the clients.  Rounds are identical in shape, so the
        median round is a fair one, and a burst of interference that
        slows a few rounds does not move it."""
        return sum(done / len(rounds) / statistics.median(rounds)
                   for rounds, done in self._clients())

    def absorb(self, other: "Ops") -> None:
        self.clients.append((other.rounds,
                             other.attempted - other.failed))
        for kind, values in other.samples.items():
            self.samples[kind].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)
        self.problems.extend(other.problems)
        self.rows_returned += other.rows_returned


def run_rounds(workload, ops: Ops, seconds: float,
               rounds: int | None, client: int = 0,
               first: int = 0) -> int:
    """Closed loop of one client: whole rounds, numbered from *first*,
    until *seconds* have passed (or exactly *rounds* of them when
    given)."""
    deadline = clock() + seconds
    done = 0
    while (done < rounds if rounds is not None
           else done == 0 or clock() < deadline):
        workload.round(workload.prepare(first + done, client), ops,
                       client)
        ops.end_round()
        done += 1
    return done
