"""Server-side batch execution: the ``invokeBatch`` replay engine.

Implements the pseudocode of the paper's Figure 2, extended with the full
feature set of §3–§4:

- replays recorded invocations in client order against a local object
  table (seq → object), which is what preserves *remote reference
  identity* (§4.4): the return value of one batched call used as the
  target/argument of a later one is the identical server object, never a
  marshalled stub;
- value results are marshalled back in bulk; remote results never cross
  the wire;
- exception policies (§3.3) decide BREAK / CONTINUE / REPEAT / RESTART
  after every failure, with bounded repeats and restarts;
- cursors (§3.4) run their sub-batch once per array element, producing a
  per-element result matrix and element ids reusable by chained batches;
- chained batches (§3.5) persist the object table in a
  :class:`~repro.core.session.SessionStore` between flushes;
- a dependency-DAG scheduler (:mod:`repro.core.dag`) runs independent
  chains — and cursor *elements* — concurrently on a bounded worker
  pool when the batch shape is provably order-insensitive, merging
  per-unit outcome fragments in serial order so the response is
  byte-identical to serial replay.  Ineligible batches take the serial
  path with the reason recorded in scheduler metrics and a
  ``server.parallel`` trace marker.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.dag import (
    REASON_DISABLED,
    REASON_SESSION,
    SchedulerStats,
    analyze_batch,
)
from repro.core.errors import (
    BatchDependencyError,
    UnsupportedBatchOperationError,
)
from repro.core.policies import (
    MAX_REPEATS,
    MAX_RESTARTS,
    POLICY_TYPES,
    ExceptionAction,
)
from repro.core.recording import NONE_ID, ROOT_SEQ, ArgRef, BatchResponse, InvocationData
from repro.core.session import SessionStore
from repro.net.conditions import CHARGE_BATCH_OP, CHARGE_BATCH_SETUP
from repro.obs.context import _activate, _deactivate, current_span
from repro.obs.tracer import current_tracer
from repro.rmi.exceptions import MarshalError, NoSuchMethodError
from repro.rmi.marshal import marshal, unmarshal
from repro.rmi.remote import RemoteObject, interface_names
from repro.rmi.stub import Stub
from repro.wire.refs import RemoteRef


#: Batch-internal pseudo-method: "export the resolved target as a value
#: result".  The cluster client records it at cross-shard split points —
#: the target marshals to its :class:`~repro.wire.refs.RemoteRef`, so the
#: client-side future yields a live stub that a sub-batch on another
#: shard can take as an ordinary argument.  Only reachable through a
#: batch (ordinary dispatch checks interface specs and rejects it).
EXPORT_OP = "__export__"

#: Size of the process-wide shared scheduler pool (``exec_workers=None``).
#: Eligible work is I/O-bound by declaration (``parallel_safe`` methods
#: commute), so the pool is sized past the core count.
DEFAULT_EXEC_WORKERS = 16

_shared_pool = None
_shared_pool_lock = threading.Lock()


def _default_exec_pool() -> ThreadPoolExecutor:
    """Process-wide worker pool shared by all executors (lazily built).

    Shared on purpose: ``serve --procs`` shards and multi-server tests
    each host one executor per process/server, and a single bounded pool
    keeps total scheduler threads bounded no matter how many servers a
    process runs.
    """
    global _shared_pool
    if _shared_pool is None:
        with _shared_pool_lock:
            if _shared_pool is None:
                _shared_pool = ThreadPoolExecutor(
                    max_workers=DEFAULT_EXEC_WORKERS,
                    thread_name_prefix="repro-exec",
                )
    return _shared_pool


class _RestartSignal(Exception):
    """Internal: a policy chose RESTART; unwind and re-run the batch."""

    def __init__(self, cause):
        super().__init__("batch restart requested")
        self.cause = cause


class _Deferred:
    """A raw value result awaiting marshalling in the merge phase.

    Marshalling exports fresh remote objects in call order, assigning
    object ids from a shared counter — done on worker threads that order
    (and thus the response bytes) would be nondeterministic.  Parallel
    fragments therefore store raw results and log where they went; the
    merge replays the log in serial execution order on the caller
    thread.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


@dataclass
class _Outcome:
    """Mutable state of one batch run.

    With ``defer_marshal`` set (parallel fragments) value results are
    stored as :class:`_Deferred` and their locations appended to
    ``marshal_log`` as ``(container, key)`` pairs, in execution order.
    """

    objects: dict
    results: dict = field(default_factory=dict)
    exceptions: dict = field(default_factory=dict)
    cursor_lengths: dict = field(default_factory=dict)
    cursor_results: dict = field(default_factory=dict)
    cursor_exceptions: dict = field(default_factory=dict)
    not_executed: list = field(default_factory=list)
    break_seq: int = NONE_ID
    broke: bool = False
    defer_marshal: bool = False
    marshal_log: list = field(default_factory=list)

    def record_failure(self, seq: int, exc: BaseException) -> None:
        self.exceptions[seq] = exc

    def record_break(self, seq: int, exc: BaseException) -> None:
        self.exceptions[seq] = exc
        self.break_seq = seq
        self.broke = True

    def record_element_failure(self, seq: int, index: int,
                               exc: BaseException) -> None:
        self.cursor_exceptions.setdefault(seq, {})[index] = exc


class BatchExecutor:
    """Executes batches against one server's exported objects.

    *exec_workers* configures the DAG scheduler: ``None`` (default)
    enables parallel execution on the process-wide shared pool; ``0``
    disables it (every batch takes the serial path); a positive count
    gives this executor a private pool of that size (shut down via
    :meth:`close`).
    """

    def __init__(self, server, session_capacity: int = None,
                 exec_workers: int = None):
        self._server = server
        if session_capacity is None:
            self._sessions = SessionStore()
        else:
            self._sessions = SessionStore(session_capacity)
        if exec_workers is not None and exec_workers < 0:
            raise ValueError(f"exec_workers cannot be negative: {exec_workers}")
        self._exec_workers = exec_workers
        self._parallel_enabled = exec_workers is None or exec_workers > 0
        self._private_pool = None
        self._pool_lock = threading.Lock()
        self._scheduler = SchedulerStats()

    @property
    def sessions(self) -> SessionStore:
        """The chained-batch session store (exposed for tests/metrics)."""
        return self._sessions

    @property
    def scheduler(self) -> SchedulerStats:
        """DAG-scheduler counters (exposed for metrics collectors)."""
        return self._scheduler

    def _pool(self) -> ThreadPoolExecutor:
        if self._exec_workers is None:
            return _default_exec_pool()
        if self._private_pool is None:
            with self._pool_lock:
                if self._private_pool is None:
                    self._private_pool = ThreadPoolExecutor(
                        max_workers=self._exec_workers,
                        thread_name_prefix="repro-exec",
                    )
        return self._private_pool

    def close(self) -> None:
        """Shut down the private worker pool, if one was created.

        The shared pool outlives individual executors and is never shut
        down here.
        """
        pool = self._private_pool
        if pool is not None:
            self._private_pool = None
            pool.shutdown(wait=True)

    def invoke_batch(self, root_obj, invocations, policy,
                     session_id: int = NONE_ID,
                     keep_session: bool = False,
                     validated: bool = False,
                     dag=None) -> BatchResponse:
        """Entry point reached via the ``__invoke_batch__`` pseudo-method.

        *validated* skips the wire-shape re-check: the plan runtime
        validates a shape once at install time and replays it many times.
        *dag* is an optional precomputed :class:`~repro.core.dag.BatchDag`
        (the plan cache stores one per installed plan); when absent the
        analysis runs per batch.  Neither is reachable from the wire —
        the dispatcher pins the pseudo-method arity below them.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._invoke_batch_inner(
                root_obj, invocations, policy, session_id, keep_session,
                validated, dag,
            )
        with tracer.span(
            "server.execute", ops=len(invocations), validated=validated,
        ) as span:
            response = self._invoke_batch_inner(
                root_obj, invocations, policy, session_id, keep_session,
                validated, dag,
            )
            if response.restarts:
                span.set(restarts=response.restarts)
            return response

    def _invoke_batch_inner(self, root_obj, invocations, policy,
                            session_id: int = NONE_ID,
                            keep_session: bool = False,
                            validated: bool = False,
                            dag=None) -> BatchResponse:
        if validated:
            invocations = tuple(invocations)
        else:
            invocations = self._validate(invocations, policy)
        if session_id != NONE_ID:
            base_objects = dict(self._sessions.get(session_id))
            base_objects[ROOT_SEQ] = root_obj
        else:
            base_objects = {ROOT_SEQ: root_obj}

        dag = self._schedule(invocations, policy, dag, session_id)
        restarts = 0
        if dag is not None:
            # Eligible batches are CONTINUE-kind: no BREAK, REPEAT
            # escalation, or RESTART can occur, so no restart loop.
            outcome = _Outcome(objects=dict(base_objects))
            self._scheduler.record_parallel(chains=len(dag.chains))
            tracer = current_tracer()
            if tracer is None:
                self._run_parallel(invocations, policy, outcome, dag)
            else:
                with tracer.span(
                    "server.parallel", chains=len(dag.chains),
                    cursors=len(dag.cursor_units), ops=len(invocations),
                ):
                    self._run_parallel(invocations, policy, outcome, dag)
        else:
            while True:
                outcome = _Outcome(objects=dict(base_objects))
                try:
                    self._run(invocations, policy, outcome)
                    break
                except _RestartSignal as signal:
                    restarts += 1
                    if restarts > MAX_RESTARTS:
                        # Exhausted restarts escalate to BREAK at the
                        # point of failure, like exhausted repeats.
                        outcome = _Outcome(objects=dict(base_objects))
                        self._run(invocations, _NoRestart(policy), outcome)
                        break
                    continue

        response_session = NONE_ID
        if keep_session:
            if session_id != NONE_ID:
                self._sessions.update(session_id, outcome.objects)
                response_session = session_id
            else:
                response_session = self._sessions.create(outcome.objects)
        elif session_id != NONE_ID:
            self._sessions.discard(session_id)

        return BatchResponse(
            results=outcome.results,
            exceptions=outcome.exceptions,
            cursor_lengths=outcome.cursor_lengths,
            cursor_results=outcome.cursor_results,
            cursor_exceptions=outcome.cursor_exceptions,
            not_executed=tuple(outcome.not_executed),
            break_seq=outcome.break_seq,
            session_id=response_session,
            restarts=restarts,
        )

    # -- main replay loop ---------------------------------------------------

    def _run(self, invocations, policy, outcome: _Outcome) -> None:
        self._server.charge(CHARGE_BATCH_SETUP)
        index = 0
        while index < len(invocations):
            inv = invocations[index]
            if outcome.broke:
                outcome.not_executed.append(inv.seq)
                index += 1
                continue
            if inv.in_cursor:
                # Orphan sub-op: its cursor op failed, so its elements
                # never materialized.
                outcome.not_executed.append(inv.seq)
                index += 1
                continue
            if inv.returns_kind == "cursor":
                sub_end = index + 1
                while (
                    sub_end < len(invocations)
                    and invocations[sub_end].cursor_seq == inv.seq
                ):
                    sub_end += 1
                sub_ops = invocations[index + 1 : sub_end]
                ran = self._run_cursor(inv, sub_ops, policy, outcome)
                if not ran:
                    index += 1  # let the main loop mark sub-ops as orphans
                else:
                    index = sub_end
                continue
            self._run_single(inv, policy, outcome)
            index += 1

    # -- DAG scheduler ------------------------------------------------------

    def _schedule(self, invocations, policy, dag, session_id):
        """Pick the execution path; returns an eligible dag or None.

        Serial fallbacks record their reason in the scheduler counters
        and as a zero-duration ``server.parallel`` trace marker.
        """
        if not self._parallel_enabled:
            reason = REASON_DISABLED
        elif session_id != NONE_ID:
            # The session's object table predates this batch; refs into
            # it are invisible to the shape analysis.
            reason = REASON_SESSION
        else:
            if dag is None:
                dag = analyze_batch(invocations, policy)
            if dag.eligible:
                return dag
            reason = dag.reason
        self._scheduler.record_serial(reason)
        tracer = current_tracer()
        if tracer is not None:
            now = tracer.now()
            tracer.record(
                "server.parallel", now, now, serial=True, reason=reason,
                instant=True,
            )
        return None

    def _spawn(self, pool, fn, *args):
        """Submit *fn* to the pool, propagating the ambient trace span.

        The ambient span is a contextvar, so worker threads start blank;
        re-activating the caller's span keeps ``server.op`` spans
        parented under this batch's ``server.execute``.
        """
        parent = current_span()

        def task():
            token = _activate(parent)
            try:
                return fn(*args)
            finally:
                _deactivate(token)

        return pool.submit(task)

    def _run_parallel(self, invocations, policy, outcome, dag):
        """Run an eligible batch: chains concurrent, merge in seq order.

        Scheduling is cancel-steal: the caller runs the first chain
        inline, then claims each still-queued chain back from the pool
        (``Future.cancel`` succeeds only before a task starts) and runs
        it inline too.  Under a saturated pool the caller therefore
        degenerates to plain serial execution — never slower than the
        serial path, and never deadlocked waiting on work no thread
        will pick up.
        """
        self._server.charge(CHARGE_BATCH_SETUP)
        pool = self._pool()
        units = dag.units
        frags = [None] * len(units)
        objects = outcome.objects

        def run_chain(chain):
            for u in chain:
                frags[u] = self._run_unit(
                    invocations, units[u], u in dag.cursor_units, policy,
                    objects, pool,
                )

        chains = dag.chains
        if len(chains) == 1:
            run_chain(chains[0])
        else:
            futures = [
                (chain, self._spawn(pool, run_chain, chain))
                for chain in chains[1:]
            ]
            try:
                run_chain(chains[0])
                for chain, fut in futures:
                    if fut.cancel():
                        run_chain(chain)
                    else:
                        fut.result()
            except BaseException:
                for _chain, fut in futures:
                    fut.cancel()
                raise
        for frag in frags:
            self._merge_fragment(outcome, frag)

    def _run_unit(self, invocations, unit, is_cursor, policy, objects, pool):
        """Run one unit into a private outcome fragment.

        Fragments share the batch's object table (chains write disjoint
        seq keys; dict item writes are atomic under the GIL) but keep
        private result/exception dicts so the merge can replay serial
        insertion order.
        """
        start, end = unit
        frag = _Outcome(objects=objects, defer_marshal=True)
        inv = invocations[start]
        if is_cursor:
            sub_ops = invocations[start + 1 : end]
            ran = self._run_cursor_parallel(inv, sub_ops, policy, frag, pool)
            if not ran:
                # The cursor op failed: its sub-ops become orphans, in
                # the slot where the serial loop would record them.
                for sub in sub_ops:
                    frag.not_executed.append(sub.seq)
        else:
            self._run_single(inv, policy, frag)
        return frag

    def _run_cursor_parallel(self, inv, sub_ops, policy, frag, pool):
        """Cursor unit with per-element fan-out (cancel-steal, like chains).

        Each element runs its sub-batch into an element fragment; the
        index-major merge below reproduces the serial loop's insertion
        order (elements outer, sub-ops inner) exactly.
        """
        resolved = self._resolve_invocation(inv, frag)
        if resolved is None:
            return False
        target, args, kwargs = resolved
        collection, exc, action = self._call_with_policy(
            target, inv, args, kwargs, policy
        )
        if exc is None:
            try:
                items = list(collection)
            except TypeError:
                exc = UnsupportedBatchOperationError(
                    f"{inv.method!r} was batched as a cursor but returned "
                    f"non-iterable {type(collection).__name__}"
                )
                action = policy.decide(exc, inv.method, inv.seq)
        if exc is not None:
            # CONTINUE-kind policy: never a break.
            frag.record_failure(inv.seq, exc)
            return False

        seq = inv.seq
        frag.cursor_lengths[seq] = len(items)
        for index, item in enumerate(items):
            frag.objects[(seq, index)] = item

        element_scope = {seq}
        for sub in sub_ops:
            element_scope.add(sub.seq)
        value_sub_seqs = [s.seq for s in sub_ops if s.returns_kind == "value"]
        for sub_seq in value_sub_seqs:
            frag.cursor_results[sub_seq] = []

        count = len(items)
        if count == 0 or not sub_ops:
            return True

        def run_element(index):
            efrag = _Outcome(objects=frag.objects, defer_marshal=True)
            for sub_seq in value_sub_seqs:
                efrag.cursor_results[sub_seq] = []
            for sub in sub_ops:
                self._run_sub_op(
                    sub, seq, index, element_scope, policy, efrag
                )
            return efrag

        efrags = [None] * count
        if count == 1:
            efrags[0] = run_element(0)
        else:
            self._scheduler.record_elements(count)
            futures = [
                (index, self._spawn(pool, run_element, index))
                for index in range(1, count)
            ]
            try:
                efrags[0] = run_element(0)
                for index, fut in futures:
                    if fut.cancel():
                        efrags[index] = run_element(index)
                    else:
                        efrags[index] = fut.result()
            except BaseException:
                for _index, fut in futures:
                    fut.cancel()
                raise

        # Index-major merge of element fragments == serial loop order.
        for index, efrag in enumerate(efrags):
            for sub in sub_ops:
                if sub.returns_kind == "value":
                    entry = efrag.cursor_results[sub.seq][0]
                    bucket = frag.cursor_results[sub.seq]
                    bucket.append(entry)
                    if isinstance(entry, _Deferred):
                        frag.marshal_log.append((bucket, len(bucket) - 1))
                per_element = efrag.cursor_exceptions.get(sub.seq)
                if per_element and index in per_element:
                    frag.record_element_failure(
                        sub.seq, index, per_element[index]
                    )
        return True

    def _merge_fragment(self, outcome, frag):
        """Fold one unit fragment into the batch outcome, in serial order.

        Called per unit in ascending-seq order, which makes every
        response dict's insertion order — and, via the marshal log, the
        object-export order — identical to a serial run.
        """
        for container, key in frag.marshal_log:
            container[key] = self._marshal_result(container[key].value)
        outcome.results.update(frag.results)
        outcome.exceptions.update(frag.exceptions)
        outcome.cursor_lengths.update(frag.cursor_lengths)
        outcome.cursor_results.update(frag.cursor_results)
        for sub_seq, per_element in frag.cursor_exceptions.items():
            outcome.cursor_exceptions.setdefault(sub_seq, {}).update(
                per_element
            )
        outcome.not_executed.extend(frag.not_executed)

    # -- single ops ---------------------------------------------------------

    def _run_single(self, inv: InvocationData, policy, outcome: _Outcome):
        resolved = self._resolve_invocation(inv, outcome)
        if resolved is None:
            return
        target, args, kwargs = resolved
        result, exc, action = self._call_with_policy(
            target, inv, args, kwargs, policy
        )
        if exc is not None:
            if action == ExceptionAction.BREAK:
                outcome.record_break(inv.seq, exc)
            else:
                outcome.record_failure(inv.seq, exc)
            return
        self._store_result(inv, result, outcome)

    # -- cursors ---------------------------------------------------------

    def _run_cursor(self, inv, sub_ops, policy, outcome: _Outcome) -> bool:
        """Run a cursor op plus its sub-batch; False if the op failed."""
        resolved = self._resolve_invocation(inv, outcome)
        if resolved is None:
            return False
        target, args, kwargs = resolved
        collection, exc, action = self._call_with_policy(
            target, inv, args, kwargs, policy
        )
        if exc is None:
            try:
                items = list(collection)
            except TypeError:
                exc = UnsupportedBatchOperationError(
                    f"{inv.method!r} was batched as a cursor but returned "
                    f"non-iterable {type(collection).__name__}"
                )
                action = policy.decide(exc, inv.method, inv.seq)
        if exc is not None:
            if action == ExceptionAction.BREAK:
                outcome.record_break(inv.seq, exc)
            else:
                outcome.record_failure(inv.seq, exc)
            return False

        seq = inv.seq
        outcome.cursor_lengths[seq] = len(items)
        for index, item in enumerate(items):
            outcome.objects[(seq, index)] = item

        element_scope = {seq}
        for sub in sub_ops:
            element_scope.add(sub.seq)
        value_sub_seqs = [s.seq for s in sub_ops if s.returns_kind == "value"]
        for sub_seq in value_sub_seqs:
            outcome.cursor_results[sub_seq] = []

        for index in range(len(items)):
            for sub in sub_ops:
                if outcome.broke:
                    return True
                self._run_sub_op(
                    sub, seq, index, element_scope, policy, outcome
                )
        return True

    def _run_sub_op(self, sub, cursor_seq, index, element_scope, policy,
                    outcome: _Outcome):
        def pad(exc):
            if sub.returns_kind == "value":
                outcome.cursor_results[sub.seq].append(None)
            outcome.record_element_failure(sub.seq, index, exc)

        try:
            target = self._resolve_ref(
                sub.target, outcome.objects, element_scope, cursor_seq, index
            )
            args = self._substitute(
                sub.args, outcome.objects, element_scope, cursor_seq, index
            )
            kwargs = self._substitute(
                sub.kwargs, outcome.objects, element_scope, cursor_seq, index
            )
        except KeyError:
            # Target/argument depends on a sub-op that failed for this
            # element; propagate that element's original failure.
            cause = self._element_cause(sub, cursor_seq, index, outcome)
            pad(cause)
            return
        result, exc, action = self._call_with_policy(
            target, sub, args, kwargs, policy, index=index
        )
        if exc is not None:
            pad(exc)
            if action == ExceptionAction.BREAK:
                # Mirror into top-level exceptions so the client can find
                # the break cause without digging through matrices.
                outcome.record_break(sub.seq, exc)
            return
        if sub.returns_kind == "value":
            bucket = outcome.cursor_results[sub.seq]
            if outcome.defer_marshal:
                bucket.append(_Deferred(result))
                outcome.marshal_log.append((bucket, len(bucket) - 1))
            else:
                bucket.append(self._marshal_result(result))
        else:
            outcome.objects[(sub.seq, index)] = result

    def _element_cause(self, sub, cursor_seq, index, outcome):
        """The failure that made *sub*'s dependency unavailable.

        Resolved from the seqs *sub* actually references (target first,
        then ArgRefs in recording order) — not from whichever failed
        sub-op happens to come first in dict iteration order, which
        could blame an unrelated op when several failed for the same
        element.
        """
        for dep_seq in sub.referenced_seqs():
            if dep_seq == sub.seq:
                continue
            per_element = outcome.cursor_exceptions.get(dep_seq)
            if per_element is not None and index in per_element:
                return per_element[index]
        return BatchDependencyError(
            f"operation #{sub.seq} depends on an unavailable element result"
        )

    # -- shared helpers ----------------------------------------------------

    def _call_with_policy(self, target, inv, args, kwargs, policy,
                          index: int = None):
        """Invoke one method under the batch's exception policy.

        Returns ``(result, exception, action)`` where exactly one of
        result/exception is meaningful.  REPEAT retries in place (bounded);
        RESTART unwinds via :class:`_RestartSignal`.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._call_with_policy_inner(
                target, inv, args, kwargs, policy, index
            )
        span = tracer.span(
            "server.op", method=inv.method,
            seq=inv.seq if index is None else index,
        )
        try:
            result, exc, action = self._call_with_policy_inner(
                target, inv, args, kwargs, policy, index
            )
        except _RestartSignal:
            span.set(action="RESTART").end()
            raise
        if exc is not None:
            span.set(
                error=repr(exc), action=getattr(action, "name", str(action))
            )
        span.end()
        return result, exc, action

    def _call_with_policy_inner(self, target, inv, args, kwargs, policy,
                                index: int = None):
        attempts = 0
        policy_index = inv.seq if index is None else index
        while True:
            try:
                method = self._method(target, inv.method)
                result = method(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - policies see everything
                action = policy.decide(exc, inv.method, policy_index)
                if action == ExceptionAction.REPEAT:
                    attempts += 1
                    if attempts <= MAX_REPEATS:
                        continue
                    action = ExceptionAction.BREAK
                if action == ExceptionAction.RESTART:
                    raise _RestartSignal(exc)
                self._server.charge(CHARGE_BATCH_OP)
                return None, exc, action
            self._server.charge(CHARGE_BATCH_OP)
            return result, None, None

    def _method(self, target, name):
        if name == EXPORT_OP:
            return lambda: target
        if isinstance(target, Stub):
            # A loopback/foreign stub: the stub enforces its own interface.
            return getattr(target, name)
        if isinstance(target, RemoteObject):
            from repro.rmi.remote import remote_interfaces, remote_methods

            if not any(name in remote_methods(iface)
                       for iface in remote_interfaces(target)):
                raise NoSuchMethodError(name, interface_names(target))
            return getattr(target, name)
        raise NoSuchMethodError(name, (type(target).__name__,))

    def _resolve_invocation(self, inv, outcome):
        """Target + args for a top-level op; None when a dependency died."""
        try:
            target = self._resolve_ref(inv.target, outcome.objects)
            args = self._substitute(inv.args, outcome.objects)
            kwargs = self._substitute(inv.kwargs, outcome.objects)
        except KeyError as exc:
            outcome.record_failure(
                inv.seq,
                BatchDependencyError(
                    f"operation #{inv.seq} ({inv.method}) depends on "
                    f"result {exc.args[0]!r} which is unavailable"
                ),
            )
            return None
        return target, args, kwargs

    def _resolve_ref(self, ref: ArgRef, objects, element_scope=None,
                     cursor_seq=None, element_index=None):
        if element_scope is not None and ref.seq in element_scope:
            if ref.seq == cursor_seq and not ref.is_element:
                return objects[(cursor_seq, element_index)]
            if not ref.is_element:
                return objects[(ref.seq, element_index)]
        if ref.is_element:
            return objects[(ref.seq, ref.cursor_index)]
        return objects[ref.seq]

    def _substitute(self, value, objects, element_scope=None,
                    cursor_seq=None, element_index=None):
        """Replace ArgRefs with live objects and refs with stubs."""
        if isinstance(value, ArgRef):
            return self._resolve_ref(
                value, objects, element_scope, cursor_seq, element_index
            )
        if isinstance(value, RemoteRef):
            # RMI quirk preserved for plain remote args: always a stub,
            # even pointing back into this server (§4.4).
            return unmarshal(value, self._server)
        if isinstance(value, list):
            return [
                self._substitute(v, objects, element_scope, cursor_seq,
                                 element_index)
                for v in value
            ]
        if isinstance(value, tuple):
            return tuple(
                self._substitute(v, objects, element_scope, cursor_seq,
                                 element_index)
                for v in value
            )
        if isinstance(value, dict):
            return {
                k: self._substitute(v, objects, element_scope, cursor_seq,
                                    element_index)
                for k, v in value.items()
            }
        return value

    def _store_result(self, inv, result, outcome):
        if inv.returns_kind == "value":
            if outcome.defer_marshal:
                outcome.results[inv.seq] = _Deferred(result)
                outcome.marshal_log.append((outcome.results, inv.seq))
            else:
                outcome.results[inv.seq] = self._marshal_result(result)
            return
        # Remote-kind: keep the live object server-side (§4.4); nothing
        # crosses the wire.  A stub result (object on a third server) is
        # stored as-is and later calls go through it.
        if not isinstance(result, (RemoteObject, Stub)):
            outcome.record_failure(
                inv.seq,
                UnsupportedBatchOperationError(
                    f"{inv.method!r} was batched as returning a remote "
                    f"object but returned {type(result).__name__}"
                ),
            )
            return
        outcome.objects[inv.seq] = result

    def _marshal_result(self, result):
        return marshal(result, self._server)

    # -- validation -----------------------------------------------------------

    @staticmethod
    def _validate(invocations, policy):
        if not isinstance(policy, POLICY_TYPES):
            raise MarshalError(
                f"batch policy has unexpected type {type(policy).__name__}"
            )
        invocations = tuple(invocations)
        previous = ROOT_SEQ
        for inv in invocations:
            if not isinstance(inv, InvocationData):
                raise MarshalError(
                    f"batch entry has unexpected type {type(inv).__name__}"
                )
            if inv.seq <= previous:
                raise MarshalError(
                    f"batch sequence numbers must increase: {inv.seq} after "
                    f"{previous}"
                )
            previous = inv.seq
        return invocations


class _NoRestart:
    """Policy wrapper that downgrades RESTART to BREAK (restart budget
    exhausted)."""

    def __init__(self, policy):
        self._policy = policy

    def decide(self, exc, method, index):
        action = self._policy.decide(exc, method, index)
        if action == ExceptionAction.RESTART:
            return ExceptionAction.BREAK
        return action
