"""Spans and counters recorded around the calls into each Reprowd layer.

Nothing here patches the library.  Every wrapper enters the stack through a
public constructor seam the library already has:

* ``TracingTransport`` — ``PlatformClient(transport=...)``.  It also wraps
  the bound server method the client hands to the transport, which gives
  the ``server`` spans of an in-process platform;
* ``TracedStore`` — ``PlatformServer(store=...)``;
* ``TracedEngine`` — ``CrowdContext(engine=...)``, which also reaches the
  durable platform store through ``open_task_store(shared_engine=...)``;
* ``TracedCodec`` — ``SqliteEngine(codec=...)`` and ``MemoryEngine(codec=...)``;
* ``TracedAggregator`` — ``CrowdData.get_result_adaptive(aggregator=...)``;
* ``TracedPlatform`` — ``WireServer(platform=...)`` in the traced wire
  server process.

A span is (name, start, end, parent, run id).  Spans stay in memory as flat
arrays and are written once, when the traced pass ends.  A span's layer is
its name up to the first dot: ``core``, ``transport``, ``wire``, ``server``,
``store``, ``engine``, ``codec`` or ``quality``.  Calls per method are the
span counts; ``Tracer.counts`` holds the counters that are not spans
(records, bytes, commits, answers).
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterable

from repro.exceptions import PlatformUnavailableError
from repro.platform.transport import Transport
from repro.platform.wire import encode_value
from repro.storage.records import Codec

_clock = time.perf_counter


class Tracer:
    """Span recorder for one single-threaded pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return *fn* timed as one span named *name* per call."""
        nid = self.name_id(name)
        tracer_open, tracer_close = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer_open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer_close(index)

        return traced

    def truncate(self, length: int) -> None:
        """Forget every span recorded after the first *length*."""
        for column in (self.name, self.start, self.end, self.parent):
            del column[length:]

    def absorb(self, other: dict[str, Any], since: float, until: float) -> None:
        """Merge the spans another process started between *since* and *until*.

        Both processes time with ``time.perf_counter``, a system-wide
        monotonic clock on Linux, so their intervals are comparable.  A root
        span of *other* gets as parent the ``wire`` span of this tracer that
        encloses it: with one client on one connection, the server handles
        each request inside the client's ``wire`` span for it.
        """
        offset = len(self.start)
        wire = sorted(
            (self.start[i], self.end[i], i)
            for i in range(offset)
            if self.names[self.name[i]].startswith("wire.")
        )
        kept: dict[int, int] = {}
        cursor = 0
        for position, nid in enumerate(other["name"]):
            start, end = other["start"][position], other["end"][position]
            if not since <= start < until:
                continue
            parent = other["parent"][position]
            if parent >= 0:
                parent = kept.get(parent, -1)
            else:
                while cursor < len(wire) and wire[cursor][1] < start:
                    cursor += 1
                enclosing = wire[cursor] if cursor < len(wire) else None
                parent = (
                    enclosing[2]
                    if enclosing and enclosing[0] <= start and end <= enclosing[1]
                    else -1
                )
            kept[position] = len(self.start)
            self.name.append(self.name_id(other["names"][nid]))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Times and call counts of a finished pass.

    ``<layer>.s`` sums the spans of a layer that are not nested in a span of
    the same layer; ``<layer>.self_s`` is the time of the layer's spans minus
    the time of their child spans.  ``span:<name>`` sums every span of that
    name and ``<layer>.calls.<method>`` counts them.
    """
    count = len(tracer.start)
    duration = [tracer.end[i] - tracer.start[i] for i in range(count)]
    children = [0.0] * count
    for i in range(count):
        parent = tracer.parent[i]
        if parent >= 0:
            children[parent] += duration[i]
    layer_of = [name.split(".", 1)[0] for name in tracer.names]
    calls_key = [
        f"{layer}.calls.{name.split('.', 1)[1]}"
        for layer, name in zip(layer_of, tracer.names)
    ]
    out: Counter = Counter()
    for i in range(count):
        nid = tracer.name[i]
        layer = layer_of[nid]
        out[f"span:{tracer.names[nid]}"] += duration[i]
        out[calls_key[nid]] += 1
        out[f"{layer}.self_s"] += duration[i] - children[i]
        parent = tracer.parent[i]
        if parent < 0 or layer_of[tracer.name[parent]] != layer:
            out[f"{layer}.s"] += duration[i]
    return dict(out)


_COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"))


def write_spans(path: str, tracers: Iterable[Tracer]) -> None:
    """Write the spans of several passes to *path*.

    Format: one JSON line listing each pass's run id, span-name table,
    counters and span count, then per pass the columns name id (int32),
    start and end (float64 seconds of ``time.perf_counter``) and parent
    index (int32, -1 for a root), in native byte order.
    """
    tracers = list(tracers)
    header = [
        {"run_id": t.run_id, "names": t.names, "counts": dict(t.counts), "spans": len(t.start)}
        for t in tracers
    ]
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        for tracer in tracers:
            for column, _ in _COLUMNS:
                getattr(tracer, column).tofile(handle)


def read_spans(path: str) -> list[dict[str, Any]]:
    """Read what :func:`write_spans` wrote: one dict of columns per pass."""
    with open(path, "rb") as handle:
        passes = json.loads(handle.readline())
        for entry in passes:
            for column, code in _COLUMNS:
                values = array(code)
                values.fromfile(handle, entry["spans"])
                entry[column] = values
    return passes


# -- wrappers ------------------------------------------------------------------


class _Proxy:
    """Delegates every attribute to *inner*; listed methods become spans."""

    def __init__(self, inner: Any, tracer: Tracer, layer: str, methods: Iterable[str]):
        self._inner = inner
        for method in methods:
            bound = getattr(inner, method, None)
            if bound is not None:
                setattr(self, method, tracer.wrap(f"{layer}.{method}", bound))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


#: TaskStore verbs (``repro.platform.store.TaskStore``) timed as store spans.
STORE_METHODS = (
    "allocate_project_id", "allocate_task_ids", "allocate_run_ids",
    "put_project", "get_project", "find_project_id", "list_project_ids",
    "remove_project", "add_tasks", "stage_tasks", "discard_staged",
    "get_task", "get_tasks", "update_task", "remove_task",
    "project_task_ids", "task_id_page", "task_id_slice",
    "resolve_dedup_keys", "claim_dedup_keys", "ensure_indexed",
    "latest_timestamp", "runs_for_task", "runs_for_tasks", "append_runs",
    "run_count", "run_counts_for_tasks", "counts", "describe", "flush",
    "flush_appends", "close",
)

#: PlatformServer verbs the wire dispatches, timed as server spans.
SERVER_METHODS = (
    "require_auth", "create_project", "find_project", "get_project",
    "create_tasks", "extend_tasks_redundancy", "get_task_runs_page",
    "list_project_task_ids", "simulate_work", "statistics", "flush",
)


class TracedStore(_Proxy):
    """A TaskStore whose verbs are ``store.<verb>`` spans."""

    def __init__(self, inner: Any, tracer: Tracer):
        super().__init__(inner, tracer, "store", STORE_METHODS)


class TracedPlatform(_Proxy):
    """A PlatformServer whose verbs are ``server.<verb>`` spans."""

    def __init__(self, inner: Any, tracer: Tracer):
        super().__init__(inner, tracer, "server", SERVER_METHODS)


class TracedEngine(_Proxy):
    """A StorageEngine whose calls are ``engine.<method>`` spans.

    Also counts records written and read, and commits.  On a synchronous
    durable engine every write call not made with ``defer_commit=True`` ends
    in a commit, as do ``commit_group``, ``flush`` and ``close``; a memory
    engine never commits.
    """

    def __init__(self, inner: Any, tracer: Tracer):
        super().__init__(inner, tracer, "engine", ("scan_keys", "count"))
        counts = tracer.counts
        durable = bool(getattr(inner, "synchronous", False))
        wrap = tracer.wrap

        def barrier() -> None:
            if durable:
                counts["engine.commits"] += 1

        def counted(method: str, counter: str | None, commits: bool) -> Callable[..., Any]:
            call = wrap(f"engine.{method}", getattr(inner, method))

            def traced(*args: Any, **kwargs: Any) -> Any:
                if counter:
                    counts[counter] += 1
                if commits:
                    barrier()
                return call(*args, **kwargs)

            return traced

        put_many = wrap("engine.put_many", inner.put_many)
        get_many = wrap("engine.get_many", inner.get_many)
        delete_many = wrap("engine.delete_many", inner.delete_many)
        scan = wrap("engine.scan", lambda *a, **k: list(inner.scan(*a, **k)))

        def _put_many(table, items, if_absent=False, *, defer_commit=False):
            items = list(items)
            counts["engine.records_written"] += len(items)
            if items and not defer_commit:
                barrier()
            return put_many(table, items, if_absent, defer_commit=defer_commit)

        def _get_many(table, keys, default=None):
            counts["engine.records_read"] += len(keys)
            return get_many(table, keys, default)

        def _delete_many(table, keys, *, defer_commit=False):
            keys = list(keys)
            if keys and not defer_commit:
                barrier()
            return delete_many(table, keys, defer_commit=defer_commit)

        def _scan(table, limit=None, start_after=None):
            records = scan(table, limit=limit, start_after=start_after)
            counts["engine.records_read"] += len(records)
            return iter(records)

        self.put = counted("put", "engine.records_written", True)
        self.put_new = counted("put_new", "engine.records_written", True)
        self.get = counted("get", "engine.records_read", False)
        self.put_many, self.get_many, self.delete_many, self.scan = _put_many, _get_many, _delete_many, _scan
        for method in ("delete", "create_table", "drop_table", "commit_group", "flush", "close"):
            setattr(self, method, counted(method, None, True))


class TracedCodec(Codec):
    """A record codec whose calls are ``codec.*`` spans with byte counts.

    Keeps the wrapped codec's ``name`` so engines record and rediscover the
    same codec in their metadata.  ``encode_calls`` and ``decode_calls``
    count values, so a batch of *n* counts *n*.
    """

    def __init__(self, inner: Codec, tracer: Tracer):
        self.name = inner.name
        counts = tracer.counts
        encode = tracer.wrap("codec.encode", inner.encode)
        decode = tracer.wrap("codec.decode", inner.decode)
        encode_many = tracer.wrap("codec.encode_many", inner.encode_many)
        decode_many = tracer.wrap("codec.decode_many", inner.decode_many)

        def _encode(value: Any):
            data = encode(value)
            counts["codec.encode_calls"] += 1
            counts["codec.encoded_bytes"] += len(data)
            return data

        def _decode(data: Any):
            counts["codec.decode_calls"] += 1
            counts["codec.decoded_bytes"] += len(data)
            return decode(data)

        def _encode_many(values: list) -> list:
            datas = encode_many(values)
            counts["codec.encode_calls"] += len(datas)
            counts["codec.encoded_bytes"] += sum(map(len, datas))
            return datas

        def _decode_many(datas: list) -> list:
            counts["codec.decode_calls"] += len(datas)
            counts["codec.decoded_bytes"] += sum(map(len, datas))
            return decode_many(datas)

        self.encode, self.decode = _encode, _decode
        self.encode_many, self.decode_many = _encode_many, _decode_many


class TracedAggregator(_Proxy):
    """An IncrementalAggregator whose calls are ``quality.*`` spans."""

    def __init__(self, inner: Any, tracer: Tracer):
        super().__init__(inner, tracer, "quality", ("counts", "confidence", "decision", "result"))
        counts = tracer.counts
        partial_fit = tracer.wrap("quality.partial_fit", inner.partial_fit)
        update = tracer.wrap("quality.update", inner.update)

        def _partial_fit(page):
            counts["quality.updates"] += len(page)
            return partial_fit(page)

        def _update(item, new_votes):
            counts["quality.updates"] += 1
            return update(item, new_votes)

        self.partial_fit, self.update = _partial_fit, _update


class TracingTransport(Transport):
    """Times and counts every transport attempt of a ``PlatformClient``.

    Over an in-process transport the bound server method is wrapped too, so
    each attempt yields ``transport.<op>`` with a ``server.<op>`` child.
    Over a ``WireTransport`` (``wire=True``) it yields ``transport.<op>``
    with a ``wire.<op>`` child, and counts the bytes of both frames by
    encoding request and response again as the wire protocol frames them;
    the server's spans then come from the server process.
    """

    def __init__(self, inner: Transport, tracer: Tracer, wire: bool = False):
        self.inner = inner
        self.tracer = tracer
        self.wire = wire

    def call(self, name: str, method: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        tracer = self.tracer
        counts = tracer.counts
        outer = tracer.open(tracer.name_id(f"transport.{name}"))
        try:
            if self.wire:
                inner = tracer.open(tracer.name_id(f"wire.{name}"))
                try:
                    result = self.inner.call(name, method, *args, **kwargs)
                finally:
                    tracer.close(inner)
            else:
                result = self.inner.call(name, tracer.wrap(f"server.{name}", method), *args, **kwargs)
        except PlatformUnavailableError:
            counts["transport.retries"] += 1
            raise
        finally:
            tracer.close(outer)
        if self.wire:
            request = {
                "op": name,
                "args": [encode_value(arg) for arg in args],
                "kwargs": {key: encode_value(value) for key, value in kwargs.items()},
            }
            counts["wire.bytes_sent"] += _frame_bytes(request)
            counts["wire.bytes_received"] += _frame_bytes({"ok": True, "result": encode_value(result)})
        if name == "simulate_work":
            counts["workers.answers"] += result
        elif name == "get_task_runs_page":
            counts["collect.runs_transferred"] += sum(len(runs) for _, runs in result)
        return result

    def close(self) -> None:
        self.inner.close()


def _frame_bytes(payload: dict[str, Any]) -> int:
    """Bytes of one wire frame: 4-byte length header plus compact JSON."""
    return 4 + len(json.dumps(payload, separators=(",", ":")).encode("utf-8"))
