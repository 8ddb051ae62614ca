"""Span ledger: time each layer of the BRMI stack from outside the program.

The benchmark wraps the public entry points of each module at run time
(never in the untraced run) and records one span per call: name, start,
end, parent span and action id.  Spans stay in memory and are written
out as JSON lines when the run ends; :func:`layer_metrics` then turns
the two processes' spans into per-layer self times, in the style of
Dapper (Sigelman et al., 2010).

A span's *self time* is its duration minus the part of its interval
that its children cover.  Children that overlap (the DAG scheduler runs
chains concurrently) are merged into one covered interval first.

Server spans cannot name the client action they serve: the wire format
carries no action id and the benchmark does not change the program.
They carry the id of their request's root span instead and are turned
into per-action figures through totals, which is exact because tracing
is switched only while both callers are idle.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

#: Marker attribute set on every wrapper this module installs.
WRAPPED = "__perfbench_wrapped__"

#: Span name -> per-layer metric that receives the span's self time.
SELF_TIME_LAYER = {
    # client process
    "core.create_batch": "core.record_us",
    "core.record": "core.record_us",
    "core.flush": "core.flush_self_us",
    "plan.compile": "plan.lift_us",
    "plan.hash": "plan.lift_us",
    "rmi.call": "rmi.call_self_us",
    "wire.client_encode": "wire.client_encode_us",
    "wire.client_decode": "wire.client_decode_us",
    "aio.request": "aio.request_us",
    # server process
    "rmi.handle": "rmi.handle_self_us",
    "rmi.respond": "rmi.handle_self_us",
    "rmi.dedup": "rmi.dedup_self_us",
    "wire.server_decode": "wire.server_decode_us",
    "wire.server_encode": "wire.server_encode_us",
    "plan.invoke": "plan.invoke_self_us",
    "plan.install": "plan.install_self_us",
    "core.exec": "core.exec_self_us",
    "core.dag.analyze": "core.dag.analyze_us",
    "apps.method": "apps.method_us",
}


class SpanRecorder:
    """In-memory span store for one process.

    ``spans`` holds ``(id, parent, name, start_ns, end_ns, action)``
    tuples; appends are atomic under the interpreter lock, so worker
    threads record without a lock of their own.  The current span is
    kept per thread.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self):
        """(span id, action id) of the innermost open span on this thread."""
        return getattr(self._local, "top", (None, None))

    def set_current(self, top) -> None:
        self._local.top = top

    def span(self, name: str, fn, action=None):
        """Run *fn()* inside a span called *name*.

        A span opened with no parent on its thread is a root: it takes
        *action* (the client passes the action number) or, when that is
        None, its own id.
        """
        if not self.active:
            return fn()
        parent, parent_action = self.current()
        span_id = next(self._ids)
        if parent is None:
            parent_action = action if action is not None else span_id
        self._local.top = (span_id, parent_action)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            end = time.perf_counter_ns()
            self._local.top = (parent, parent_action)
            if self.active:
                self.spans.append(
                    (span_id, parent, name, start, end, parent_action)
                )

    def write_jsonl(self, path: str) -> int:
        """Write every span as one JSON array per line; returns the count."""
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
        return len(spans)


def read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def _traced(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.span(name, lambda: fn(*args, **kwargs))

    setattr(wrapper, WRAPPED, True)
    return wrapper


class Patches:
    """Installs span wrappers and restores the originals exactly."""

    def __init__(self, recorder: SpanRecorder):
        self._recorder = recorder
        self._undo = []

    @property
    def installed(self) -> int:
        return len(self._undo)

    def method(self, cls, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (a plain function in the class body)."""
        self.replace(cls, attr, _traced(self._recorder, name,
                                        cls.__dict__[attr]))

    def function(self, fn, name: str, module_prefixes=("repro",)) -> None:
        """Wrap *fn* in every loaded module that bound it by name.

        ``from repro.wire import encode`` copies the function into the
        importing module, so the wrapper must replace each copy.
        """
        wrapper = _traced(self._recorder, name, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(module_prefixes):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def client_targets():
    """``(owner, attribute, span name)`` for each client entry point.

    A module owner holds a function that other modules may have bound by
    name; a class owner holds a method.
    """
    import repro.wire
    from repro.aio.channel import AioChannel
    from repro.core import proxy
    from repro.plan import model
    from repro.rmi.client import RMIClient

    return (
        (proxy, "create_batch", "core.create_batch"),
        (proxy.BatchRecorder, "record", "core.record"),
        (proxy.BatchProxy, "__getattr__", "core.record"),
        (proxy.BatchRecorder, "flush", "core.flush"),
        (model, "compile_plan", "plan.compile"),
        (model, "plan_hash", "plan.hash"),
        (RMIClient, "call", "rmi.call"),
        (repro.wire, "encode", "wire.client_encode"),
        (repro.wire, "decode", "wire.client_decode"),
        (AioChannel, "request", "aio.request"),
    )


def install_client(recorder: SpanRecorder, extra_modules=()) -> Patches:
    """Wrap the client process's layers: core, plan, rmi, wire, aio."""
    patches = Patches(recorder)
    prefixes = ("repro",) + tuple(extra_modules)
    for owner, attr, name in client_targets():
        if isinstance(owner, type):
            patches.method(owner, attr, name)
        else:
            patches.function(getattr(owner, attr), name, prefixes)
    recorder.active = True
    return patches


def client_wrappers() -> int:
    """How many client entry points carry a span wrapper right now."""
    return sum(
        hasattr(getattr(owner, attr), WRAPPED)
        for owner, attr, _ in client_targets()
    )


def install_server(recorder: SpanRecorder, app_classes) -> Patches:
    """Wrap the server process's layers: rmi, wire, plan, core, apps.

    The dedup window's compute callback and the executor's pool hand-off
    get wrappers too: the first so the window's own cost separates from
    the dispatch it guards, the second so spans in pool threads keep
    their parent.
    """
    import repro.wire
    from repro.core import dag
    from repro.core.executor import BatchExecutor
    from repro.plan.runtime import PlanRuntime
    from repro.rmi.dispatch import DedupWindow, RMICore

    patches = Patches(recorder)
    patches.method(RMICore, "handle", "rmi.handle")
    patches.function(repro.wire.decode, "wire.server_decode")
    patches.function(repro.wire.encode, "wire.server_encode")
    patches.method(PlanRuntime, "invoke", "plan.invoke")
    patches.method(PlanRuntime, "install", "plan.install")
    patches.method(BatchExecutor, "invoke_batch", "core.exec")
    patches.function(dag.analyze_batch, "core.dag.analyze")

    execute = DedupWindow.__dict__["execute"]

    @functools.wraps(execute)
    def dedup_execute(self, call_id, compute, observer=None):
        def respond():
            return recorder.span("rmi.respond", compute)

        return recorder.span(
            "rmi.dedup", lambda: execute(self, call_id, respond, observer)
        )

    setattr(dedup_execute, WRAPPED, True)
    patches.replace(DedupWindow, "execute", dedup_execute)

    spawn = BatchExecutor.__dict__["_spawn"]

    @functools.wraps(spawn)
    def spawn_with_parent(self, pool, fn, *args):
        top = recorder.current()

        def task(*task_args):
            recorder.set_current(top)
            try:
                return fn(*task_args)
            finally:
                recorder.set_current((None, None))

        return spawn(self, pool, task, *args)

    setattr(spawn_with_parent, WRAPPED, True)
    patches.replace(BatchExecutor, "_spawn", spawn_with_parent)

    for cls in app_classes:
        for attr, value in list(vars(cls).items()):
            if callable(value) and not attr.startswith("_"):
                patches.method(cls, attr, "apps.method")
    recorder.active = True
    return patches


# -- aggregation ---------------------------------------------------------


def _covered(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: ``(name, self_ns, blocking_ns)``, plus the root ids.

    *blocking_ns* is the share of the self time that lies on the path
    the caller waits for: a root weighs 1, and children that overlap
    share their parent's weight in proportion to the interval they
    cover together, so blocking times in one tree sum to the root's
    duration.
    """
    by_id = {span[0]: span for span in spans}
    children = {}
    roots = []
    for span in spans:
        parent = span[1]
        if parent is None or parent not in by_id:
            roots.append(span[0])
        else:
            children.setdefault(parent, []).append(span[0])
    out = {}
    stack = [(root, 1.0) for root in roots]
    while stack:
        span_id, weight = stack.pop()
        _, _, name, start, end, _ = by_id[span_id]
        kids = children.get(span_id, ())
        clipped = [
            (max(start, by_id[k][3]), min(end, by_id[k][4])) for k in kids
        ]
        covered = _covered([iv for iv in clipped if iv[1] > iv[0]])
        own = max(0, (end - start) - covered)
        out[span_id] = (name, own, own * weight)
        summed = sum(by_id[k][4] - by_id[k][3] for k in kids)
        child_weight = weight * covered / summed if summed > 0 else weight
        stack.extend((k, child_weight) for k in kids)
    return out, roots


def layer_metrics(client_spans, server_spans, actions: int) -> dict:
    """Per-action layer figures from both processes' traced spans.

    Returns ``{metric: value}`` for every span-derived metric plus two
    consistency figures the traced run checks: ``ledger.coverage``
    (blocking-path self times over traced latency) and
    ``ledger.server_identity`` (the server trees' blocking times over
    their root durations, 1 when every server span has its parent).
    """
    per_us = 1e-3 / max(1, actions)
    values = dict.fromkeys(sorted(set(SELF_TIME_LAYER.values())), 0.0)
    client, client_roots = self_times(client_spans)
    server, server_roots = self_times(server_spans)
    client_roots = set(client_roots)
    server_roots = set(server_roots)
    client_blocking = 0.0
    for span_id, (name, own, block) in client.items():
        if span_id not in client_roots:  # the action's own code
            values[SELF_TIME_LAYER[name]] += own * per_us
            client_blocking += block
    server_blocking = 0.0
    for name, own, block in server.values():
        values[SELF_TIME_LAYER[name]] += own * per_us
        server_blocking += block

    def total(spans, name):
        return sum(s[4] - s[3] for s in spans if s[2] == name)

    latency = sum(s[4] - s[3] for s in client_spans if s[0] in client_roots)
    request = total(client_spans, "aio.request")
    handle = sum(s[4] - s[3] for s in server_spans if s[0] in server_roots)
    ops = sum(1 for s in server_spans if s[2] == "apps.method") / max(1, actions)
    values["aio.wait_us"] = (request - handle) * per_us
    values["core.ops_per_action"] = ops
    values["core.exec_us_per_op"] = (
        values["core.exec_self_us"] / ops if ops else 0.0
    )
    # Across processes the server trees sit inside the client's request
    # spans: a request blocks for its wait plus the server's blocking
    # time, which replaces the request's own (childless) self time.
    blocking = client_blocking - request + (request - handle) + server_blocking
    values["ledger.coverage"] = blocking / latency if latency else 0.0
    values["ledger.server_identity"] = (
        server_blocking / handle if handle else 1.0
    )
    return values
