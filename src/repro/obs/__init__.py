"""Observability: tracing, metrics, slow-query log (see
``docs/observability.md``).

One :class:`Observability` object is shared by an engine and the
facade driving it.  It is **disabled by default** — the tracer is the
no-op :data:`~repro.obs.tracing.NULL_TRACER`, the engine's hot path
pays a single attribute check, and the paper-reproduction benchmarks
measure the same code they always did.  Enabled, the same object
collects a span tree per pipeline run, a registry of latency and
batch-size histograms and a slow-query log (plain counts live in each
component's always-on ``stats`` dict, not here):

>>> from repro.obs import Observability
>>> obs = Observability(enabled=True)
>>> with obs.phase("parse"):
...     pass
>>> obs.metrics.histogram("phase.parse_seconds").count
1
>>> obs.tracer.last_root.name
'parse'
"""

from __future__ import annotations

import time

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from .slowlog import SlowQuery, SlowQueryLog
from .tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    format_seconds,
)


class _PhaseTimer:
    """Context manager: one span plus one ``phase.*_seconds`` sample."""

    __slots__ = ("_obs", "_span", "_name", "_start")

    def __init__(self, obs: "Observability", name: str, attributes: dict):
        self._obs = obs
        self._name = name
        self._span = obs.tracer.span(name, **attributes)

    def __enter__(self):
        self._start = self._obs.clock()
        return self._span.__enter__()

    def __exit__(self, exc_type, exc, tb):
        elapsed = self._obs.clock() - self._start
        self._obs.metrics.histogram(
            f"phase.{self._name}_seconds", unit="s").observe(elapsed)
        return self._span.__exit__(exc_type, exc, tb)


class _NullPhase:
    """Shared no-op stand-in for :meth:`Observability.phase`."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_PHASE = _NullPhase()


class Observability:
    """Tracer + metrics + slow-query log behind one enable switch."""

    def __init__(self, enabled: bool = False,
                 slow_query_threshold: float | None = None,
                 clock=time.perf_counter):
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.slow_log = SlowQueryLog(threshold=slow_query_threshold)
        self.tracer: Tracer | NullTracer = NULL_TRACER
        self.enabled = False
        if enabled:
            self.enable()

    def enable(self) -> "Observability":
        """Switch collection on (idempotent); keeps prior data."""
        if not self.enabled:
            self.tracer = Tracer(self.clock)
            self.enabled = True
        return self

    def disable(self) -> "Observability":
        """Back to the zero-cost path; collected data stays readable."""
        if self.enabled:
            collected = self.tracer
            self.tracer = NULL_TRACER
            self.enabled = False
            # keep the spans reachable for post-mortem rendering
            self._last_tracer = collected
        return self

    def phase(self, name: str, **attributes):
        """Span *and* latency histogram for one pipeline phase.

        The sample lands in the ``phase.<name>_seconds`` histogram;
        the span nests under whatever span is currently open.
        """
        if not self.enabled:
            return _NULL_PHASE
        attributes = {key: value for key, value in attributes.items()
                      if value is not None}
        return _PhaseTimer(self, name, attributes)

    # -- export ------------------------------------------------------------------

    def export(self) -> dict:
        """Everything collected, as one JSON-able dict."""
        payload: dict = {"metrics": self.metrics.as_dict()}
        if self.slow_log.enabled:
            payload["slow_queries"] = self.slow_log.as_dicts()
        return payload

    def render_text(self) -> str:
        blocks = [self.metrics.render_text()]
        if self.slow_log.enabled:
            blocks.append(self.slow_log.render_text())
        return "\n\n".join(block for block in blocks if block)

    def reset(self) -> None:
        self.metrics.reset()
        self.slow_log.clear()
        self.tracer.reset()


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "format_seconds",
]
