"""Timing wrappers the benchmark installs around each layer's public
entry points, from outside ``src/``.

``install()`` replaces the entry points listed in ``_entry_points``
with wrappers that record one span per call — name, start, end, the
span that caused it, and the operation it belongs to — in per-thread
lists kept in memory until ``Recorder.dump`` writes them out.  A
layer's *self time* is its spans' duration minus the part their child
spans cover, accumulated as the spans close.  Spans never cross
threads: work a call hands to a pool shows up as parentless spans of
the pool's threads.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

clock = time.perf_counter

#: span name of the per-operation root the harness opens
ROOT = "op"


class _ThreadSpans:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op_id = -1
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.amount: dict[str, float] = defaultdict(float)


class Recorder:
    """In-memory span store with running per-layer self times."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadSpans(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def wrap(self, fn, name: str, size_of=None):
        """*fn* with a span named *name* around every call;
        ``size_of(args, result)`` adds to the layer's work count."""
        state_of = self._state

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            frame = [state.next_id, clock(), 0.0]
            state.next_id += 1
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                span_id, start, covered = frame
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                state.spans.append(
                    (span_id, name, start, end, parent, state.op_id))
                state.self_time[name] += duration - covered
                state.calls[name] += 1
                if size_of is not None and result is not None:
                    state.amount[name] += size_of(args, result)

        return traced

    def root(self, kind: str, fn):
        """*fn* as the root span of one operation of class *kind*."""
        traced = self.wrap(fn, ROOT)
        state_of = self._state

        def operation(*args, **kwargs):
            state = state_of()
            state.op_id = state.next_id
            try:
                return traced(*args, **kwargs)
            finally:
                state.op_id = -1

        return operation

    # -- results ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up)."""
        with self._lock:
            for state in self._threads:
                state.spans.clear()
                state.self_time.clear()
                state.calls.clear()
                state.amount.clear()

    def _sum(self, attribute: str) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for state in self._threads:
            for name, value in getattr(state, attribute).items():
                total[name] += value
        return total

    def self_times(self) -> dict[str, float]:
        return self._sum("self_time")

    def calls(self) -> dict[str, float]:
        return self._sum("calls")

    def amounts(self) -> dict[str, float]:
        return self._sum("amount")

    def dump(self, path) -> None:
        """Write every span as ``[thread, id, name, start, end,
        parent, op_id]`` (ids are per thread; parent/op_id -1 = none)."""
        rows = [[state.index, *span]
                for state in self._threads for span in state.spans]
        with open(path, "w") as handle:
            json.dump({"columns": ["thread", "id", "name", "start",
                                   "end", "parent", "op_id"],
                       "spans": rows}, handle)


def _entry_points():
    """(owner, attribute, span name, size_of) for every wrapped call.
    Imported lazily: importing this module must not import the
    system under test."""
    from repro.client import connection
    from repro.core import loader, metadata, queries, retriever
    from repro.core import xml2oracle
    from repro.dtd import validator
    from repro.ordb import engine, sharding, wal
    from repro.server import wire
    from repro.xmlkit import parser, serializer

    def sql_chars(args, result):
        return len(args[0])

    points = [
        (parser.XMLParser, "parse", "xmlkit.parse", None),
        (parser.XMLParser, "parse_fragment", "xmlkit.parse", None),
        (serializer.Serializer, "serialize", "xmlkit.serialize", None),
        (validator.Validator, "validate", "dtd.validate", None),
        (loader.DocumentLoader, "load", "core.loader", None),
        (retriever.Retriever, "fetch", "core.retriever", None),
        (queries.PathQueryBuilder, "build", "core.facade", None),
        # parse_statement as bound in the modules that call it
        (engine, "parse_statement", "ordb.sql", sql_chars),
        (sharding, "parse_statement", "ordb.sql", sql_chars),
        (engine.Database, "execute", "ordb.engine", None),
        (engine, "encode_transaction", "ordb.wal", None),
        (wal.WriteAheadLog, "append", "ordb.wal", None),
        (wal.WriteAheadLog, "append_batch", "ordb.wal", None),
        (wal.WriteAheadLog, "sync", "ordb.wal", None),
        (os, "fsync", "fsync", None),
        (sharding.ShardedSession, "execute", "ordb.sharding", None),
        (connection.RemoteConnection, "request", "client", None),
        (wire, "send_message", "client", None),
        (wire, "decode_result", "client", None),
        (wire, "recv_message", "server.wait", None),
    ]
    points += [(xml2oracle.XML2Oracle, name, "core.facade", None)
               for name in ("store", "fetch", "fetch_text", "query")]
    points += [(metadata.MetadataRegistry, name, "core.metadata", None)
               for name in ("register_document", "register_misc_nodes",
                            "register_entities", "document_info",
                            "restore_misc_nodes", "entities_for")]
    return points


def install() -> Recorder:
    """Wrap every entry point; returns the recorder collecting them."""
    recorder = Recorder()
    for owner, attribute, name, size_of in _entry_points():
        original = getattr(owner, attribute)
        setattr(owner, attribute,
                recorder.wrap(original, name, size_of))
    return recorder
