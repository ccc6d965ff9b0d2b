"""Metrics: fixed-bucket histograms of timings and batch sizes.

The registry holds every histogram by dotted name and exports the
whole set as JSON (machines) or a plain-text page (humans).  Units are
part of the instrument, not the name, so ``db.statement_seconds`` is a
histogram with ``unit="s"`` rather than a naming convention.  Plain
counts are not kept here: each lives once, in the ``stats`` dict of
the component it describes (``Database.stats``, ``Server.stats``, the
ingest report), where it counts whether or not observability is on.

>>> registry = MetricsRegistry()
>>> registry.histogram("db.statement_seconds", unit="s").observe(0.004)
>>> registry.histogram("db.statement_seconds").count
1
"""

from __future__ import annotations

import bisect
import json
import math
import threading
from dataclasses import dataclass, field

#: Default latency buckets (seconds): 100µs .. 5s, log-ish spacing.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass
class Histogram:
    """Fixed-bucket histogram with cumulative-style accounting.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the overflow.  ``bucket_counts[i]`` counts observations with
    ``value <= buckets[i]`` exclusive of earlier buckets (i.e. plain,
    not cumulative, per-bucket counts); :meth:`cumulative` derives the
    Prometheus-style running totals.
    """

    name: str
    unit: str = ""
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    kind = "histogram"

    def __post_init__(self) -> None:
        if tuple(self.buckets) != tuple(sorted(self.buckets)):
            raise ValueError("histogram buckets must be sorted")
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[
                bisect.bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.total += value
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> list[int]:
        """Running totals per bucket, ending with ``count``."""
        totals, running = [], 0
        for bucket_count in self.bucket_counts:
            running += bucket_count
            totals.append(running)
        return totals

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the q-quantile (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = math.ceil(q * self.count)
        for index, running in enumerate(self.cumulative()):
            if running >= rank:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.maximum
        return self.maximum  # pragma: no cover - cumulative ends at count

    def reset(self) -> None:
        with self._lock:
            self.bucket_counts = [0] * (len(self.buckets) + 1)
            self.count = 0
            self.total = 0.0
            self.minimum = math.inf
            self.maximum = -math.inf

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "unit": self.unit,
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "buckets": {
                **{str(bound): cum for bound, cum
                   in zip(self.buckets, self.cumulative())},
                "+Inf": self.count,
            },
        }


class MetricsRegistry:
    """All histograms of one observed system, by dotted name."""

    def __init__(self) -> None:
        self._instruments: dict[str, Histogram] = {}
        # two threads asking for the same not-yet-registered name must
        # get the same histogram, not two (one of which loses every
        # sample the other records)
        self._create_lock = threading.Lock()

    def histogram(self, name: str, unit: str = "", help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = Histogram(name, unit, help, buckets)
                    self._instruments[name] = instrument
        return instrument

    def get(self, name: str) -> Histogram | None:
        """The named histogram, or None."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def reset(self) -> None:
        """Zero every histogram (the histograms stay registered)."""
        for instrument in self._instruments.values():
            instrument.reset()

    # -- export -------------------------------------------------------------------

    def as_dict(self) -> dict:
        return {name: self._instruments[name].as_dict()
                for name in self.names()}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent,
                          default=_json_default)

    def render_text(self) -> str:
        """A plain-text metrics page, one line per histogram."""
        lines: list[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            unit = f" ({instrument.unit})" if instrument.unit else ""
            lines.append(
                f"{name}{unit}: count={instrument.count}"
                f" sum={instrument.total:.6f}"
                f" mean={instrument.mean:.6f}"
                f" p95<={instrument.quantile(0.95):.6g}")
        return "\n".join(lines)


def _json_default(value):
    if value is math.inf or value is -math.inf:
        return None
    return str(value)  # pragma: no cover - defensive
