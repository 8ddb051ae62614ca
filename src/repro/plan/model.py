"""The plan data model: compile, hash, and bind recorded batches.

``compile_plan`` splits a recorded invocation list into an immutable
:class:`BatchPlan` (the shape) and a flat parameter tuple (the values):
every argument leaf that is not batch structure — i.e. not an
:class:`~repro.core.recording.ArgRef` — is replaced by a
:class:`~repro.wire.plans.ParamSlot` numbered in recording order.
Containers keep their geometry, so two batches share a plan exactly when
they perform the same calls on the same shape of arguments.

``plan_hash`` derives the plan's identity from its canonical wire
encoding (the encoder sorts sets and preserves dict insertion order, so
the same recording always produces the same bytes).  Content addressing
gives three properties for free: the cache key needs no coordination,
an installed plan can be shared by every client that produces the same
shape, and the server can verify an upload by re-hashing it.

``lift_shape`` is the cheap half of compilation: one walk that yields a
hashable structural key and the same parameter tuple ``compile_plan``
would lift, without building the plan or encoding it.  Equal keys imply
equal plans (and so equal ``plan_hash`` digests), which lets a client
compile and hash each shape once and answer every repeat from a memo.

``BatchPlan.bind`` is the inverse of compilation: substitute a parameter
tuple back into the slots, yielding plain ``InvocationData`` records the
ordinary executor replays.  Binding never touches live objects — a
:class:`~repro.wire.refs.RemoteRef` parameter stays a ref until the
executor's substitution step unmarshals it, so refs re-resolve on every
invocation (stale ones fail exactly as they would inline).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.core.recording import InvocationData, ArgRef
from repro.rmi.exceptions import PlanError
from repro.wire import canonical_set_order, encode
from repro.wire.plans import ParamSlot
from repro.wire.registry import serializable


@serializable
@dataclass(frozen=True)
class BatchPlan:
    """An immutable, parameterized batch shape.

    ``ops`` are ordinary :class:`InvocationData` records whose argument
    leaves are :class:`ParamSlot` markers; ``policy`` is the exception
    policy the batch was recorded under (part of the shape — the same
    calls under a different policy are a different plan); ``param_count``
    is the arity every invocation's parameter tuple must match.
    """

    ops: Tuple[InvocationData, ...]
    policy: object
    param_count: int

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not isinstance(self.param_count, int) or self.param_count < 0:
            raise ValueError(f"bad param_count: {self.param_count!r}")

    def bind(self, params) -> Tuple[InvocationData, ...]:
        """Substitute *params* into the slots; returns runnable invocations."""
        params = tuple(params)
        if len(params) != self.param_count:
            raise PlanError(
                f"plan expects {self.param_count} parameters, got {len(params)}"
            )
        return tuple(
            InvocationData(
                seq=op.seq,
                target=op.target,
                method=op.method,
                args=_fill(op.args, params),
                kwargs=_fill(op.kwargs, params),
                returns_kind=op.returns_kind,
                cursor_seq=op.cursor_seq,
            )
            for op in self.ops
        )

    def validate_slots(self) -> None:
        """Check every slot index is in range (server-side install guard)."""
        for op in self.ops:
            for slot in _slots_in((op.args, tuple(op.kwargs.values()))):
                if slot.index >= self.param_count:
                    raise PlanError(
                        f"plan op #{op.seq} references slot {slot.index} but "
                        f"the plan declares only {self.param_count} parameters"
                    )

    def __len__(self):
        return len(self.ops)

    def __repr__(self):
        return (
            f"<BatchPlan {len(self.ops)} ops, {self.param_count} params, "
            f"{type(self.policy).__name__}>"
        )


def compile_plan(invocations, policy):
    """Split recorded *invocations* into ``(BatchPlan, params)``.

    The invocations must already be wire-safe (they are, coming out of
    the batch recorder).  Slot numbering follows recording order, so the
    same client code produces the same plan every time.
    """
    params = []
    ops = []
    for inv in invocations:
        ops.append(
            InvocationData(
                seq=inv.seq,
                target=inv.target,
                method=inv.method,
                args=_lift(inv.args, params),
                kwargs=_lift(inv.kwargs, params),
                returns_kind=inv.returns_kind,
                cursor_seq=inv.cursor_seq,
            )
        )
    plan = BatchPlan(ops=tuple(ops), policy=policy, param_count=len(params))
    return plan, tuple(params)


def plan_hash(plan: BatchPlan) -> str:
    """Content hash of the plan's canonical wire encoding (hex sha256)."""
    return hashlib.sha256(encode(plan)).hexdigest()


def lift_shape(invocations, policy):
    """The structural key and parameters of a recording, without compiling.

    The key covers everything ``compile_plan`` keeps in the plan: each
    op's seq, target, method, return kind and cursor link, the geometry
    of its argument containers, dict keys, ArgRef literals and the
    policy's encoding (by value: a :class:`~repro.core.policies.
    CustomPolicy` is mutable, so its identity says nothing).  Leaves
    become a marker in the key and a parameter in recording order, so
    *params* equals the tuple ``compile_plan`` returns.  Sets are keyed
    by their encoding, because their slot numbering follows the values'
    canonical order.
    """
    params = []
    flat = [encode(policy)]
    for inv in invocations:
        flat += (inv.seq, inv.target, inv.method, inv.returns_kind,
                 inv.cursor_seq)
        _shape(inv.args, flat, params)
        _shape(inv.kwargs, flat, params)
    return tuple(flat), tuple(params)


#: Leaf types that need no isinstance walk (none is an ArgRef or container).
_SCALARS = frozenset({str, int, float, bool, bytes, type(None)})

# Markers of the flat shape key.  Private objects compare equal only to
# themselves, so no recorded value can be mistaken for one.
_LEAF, _LIST, _TUPLE, _DICT, _SET, _FROZENSET, _END = (
    object() for _ in range(7)
)


def _shape(value, flat, params):
    """Append *value*'s key tokens to *flat*, its leaves to *params*.

    Mirrors :func:`_lift` branch for branch, so both see the same leaves
    in the same order.
    """
    if isinstance(value, ArgRef):
        flat.append(value)
    elif isinstance(value, (list, tuple)):
        flat.append(_LIST if isinstance(value, list) else _TUPLE)
        for item in value:
            if type(item) in _SCALARS:
                flat.append(_LEAF)
                params.append(item)
            else:
                _shape(item, flat, params)
        flat.append(_END)
    elif isinstance(value, dict):
        flat.append(_DICT)
        for key, item in value.items():
            flat.append(key if type(key) is str else encode(key))
            _shape(item, flat, params)
        flat.append(_END)
    elif isinstance(value, (set, frozenset)):
        flat.append(_FROZENSET if isinstance(value, frozenset) else _SET)
        flat.append(encode(value))
        _lift(value, params)
    else:
        flat.append(_LEAF)
        params.append(value)


def _lift(value, params):
    """Copy *value* with every non-structural leaf replaced by a slot.

    ArgRefs are batch structure and stay literal; container geometry and
    dict keys stay literal (dict keys are not substituted by the executor
    either, so lifting them would change semantics); everything else —
    primitives, registered serializable objects, RemoteRefs — is lifted.
    """
    if isinstance(value, ArgRef):
        return value
    if isinstance(value, list):
        return [_lift(item, params) for item in value]
    if isinstance(value, tuple):
        return tuple(_lift(item, params) for item in value)
    if isinstance(value, dict):
        return {key: _lift(item, params) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        # Iterate in the encoder's canonical order, not hash order:
        # slot numbering must be identical across processes for the
        # same recording, or content addressing splinters per client.
        lifted = {
            _lift(item, params) for item in canonical_set_order(value)
        }
        return frozenset(lifted) if isinstance(value, frozenset) else lifted
    slot = ParamSlot(len(params))
    params.append(value)
    return slot


def _fill(value, params):
    """Substitute slots back with their parameter values."""
    if isinstance(value, ParamSlot):
        return params[value.index]
    if isinstance(value, list):
        return [_fill(item, params) for item in value]
    if isinstance(value, tuple):
        return tuple(_fill(item, params) for item in value)
    if isinstance(value, dict):
        return {key: _fill(item, params) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        filled = {_fill(item, params) for item in value}
        return frozenset(filled) if isinstance(value, frozenset) else filled
    return value


def _slots_in(value):
    """All ParamSlot markers reachable in an argument structure."""
    slots = []
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, ParamSlot):
            slots.append(item)
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
    return slots


def params_carry_refs(params) -> bool:
    """Whether a parameter tuple smuggles :class:`ArgRef` values.

    The recorder lifts only non-ArgRef leaves into slots, so well-formed
    clients never produce such parameters — but the wire cannot stop a
    hand-crafted request from injecting dependency edges the plan's
    cached DAG has never seen.  The runtime re-analyzes (or serializes)
    such invocations instead of trusting the cached schedule.
    """
    stack = [params]
    while stack:
        item = stack.pop()
        if isinstance(item, ArgRef):
            return True
        if isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
    return False
