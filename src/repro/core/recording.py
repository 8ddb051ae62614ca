"""Wire-level data model of a recorded batch (paper §4.1–§4.3).

- :class:`ArgRef` — a reference to the result of an earlier invocation in
  the same batch chain (the paper transmits bare sequence numbers; the
  ``cursor_index`` field additionally addresses one element of a flushed
  cursor, which the paper's chained-batch design requires the server to
  number);
- :class:`InvocationData` — one recorded method call (the class of the
  same name in the paper's Figure 3);
- :class:`BatchResponse` — everything the server sends back from
  ``invokeBatch``: plain results, exceptions, cursor geometry and result
  matrices, what never executed, and the chained-session id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.wire.registry import serializable

#: Sequence number of the batch root (the wrapped remote object).
ROOT_SEQ = 0

#: Marker for "no cursor" / "no session" / "no break" in wire fields.
NONE_ID = -1

RETURN_KINDS = ("value", "remote", "cursor")


@serializable
@dataclass(frozen=True)
class ArgRef:
    """Reference to a prior result within a batch chain.

    ``seq == 0`` is the root object.  ``cursor_index >= 0`` addresses one
    element of the cursor (or cursor-derived object) ``seq`` — used by
    chained batches operating on the cursor's current element.
    """

    seq: int
    cursor_index: int = NONE_ID

    def __post_init__(self):
        if self.seq < 0:
            raise ValueError(f"seq must be >= 0: {self.seq}")
        if self.cursor_index < NONE_ID:
            raise ValueError(f"bad cursor_index: {self.cursor_index}")

    @property
    def is_element(self) -> bool:
        """Whether this addresses a single cursor element."""
        return self.cursor_index != NONE_ID


@serializable
@dataclass(frozen=True)
class InvocationData:
    """One recorded remote method call.

    ``args``/``kwargs`` hold wire-safe values; batch-local references
    appear as :class:`ArgRef` (possibly nested inside containers).
    ``cursor_seq`` marks membership in a cursor's sub-batch.
    """

    seq: int
    target: ArgRef
    method: str
    args: Tuple = ()
    kwargs: Dict = field(default_factory=dict)
    returns_kind: str = "value"
    cursor_seq: int = NONE_ID

    def __post_init__(self):
        if self.seq <= ROOT_SEQ:
            raise ValueError(f"invocation seq must be positive: {self.seq}")
        if not isinstance(self.target, ArgRef):
            raise TypeError(f"target must be an ArgRef: {self.target!r}")
        if not self.method or not isinstance(self.method, str):
            raise ValueError(f"bad method name: {self.method!r}")
        if self.returns_kind not in RETURN_KINDS:
            raise ValueError(f"bad returns_kind: {self.returns_kind!r}")
        if self.cursor_seq != NONE_ID and self.cursor_seq <= ROOT_SEQ:
            raise ValueError(f"bad cursor_seq: {self.cursor_seq}")
        object.__setattr__(self, "args", tuple(self.args))

    @property
    def in_cursor(self) -> bool:
        """Whether this op belongs to a cursor's sub-batch."""
        return self.cursor_seq != NONE_ID

    def referenced_seqs(self) -> "tuple[int, ...]":
        """Seqs this op depends on, in recording order, duplicates kept.

        The target ref comes first, then every :class:`ArgRef` found in
        ``args``/``kwargs`` (depth-first through containers).  This is
        the edge list both the DAG scheduler and the executor's
        element-failure attribution walk.
        """
        seqs = [self.target.seq]
        _collect_ref_seqs(self.args, seqs)
        _collect_ref_seqs(self.kwargs, seqs)
        return tuple(seqs)


def _collect_ref_seqs(value, seqs: list) -> None:
    if isinstance(value, ArgRef):
        seqs.append(value.seq)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_ref_seqs(item, seqs)
    elif isinstance(value, dict):
        for item in value.values():
            _collect_ref_seqs(item, seqs)


@serializable
@dataclass(frozen=True)
class BatchResponse:
    """Everything ``invokeBatch`` returns to the client.

    - ``results``: seq → marshalled value, for value-kind top-level ops
      that ran successfully.  Remote-kind results never cross the wire
      (§4.4) — their success is implied by absence from ``exceptions``;
    - ``exceptions``: seq → exception raised by that op (top level);
    - ``cursor_lengths``: cursor seq → number of array elements;
    - ``cursor_results``: sub-op seq → per-element values, aligned by
      element index (``None`` placeholder where that element raised);
    - ``cursor_exceptions``: sub-op seq → {element index → exception};
    - ``not_executed``: seqs recorded but never run (after a BREAK);
    - ``break_seq``: the op whose exception broke the batch, if any;
    - ``session_id``: server session for chained batches, if kept;
    - ``restarts``: how many RESTART policy actions were taken.

    On the wire a reply carries only the fields that differ from their
    defaults (empty map, ``()``, ``NONE_ID``, ``0``), in declaration
    order; :meth:`from_wire` fills every missing field back in with its
    default.  A steady-state reply is therefore just its ``results``.
    Both directions stay compatible: a full nine-field reply from an
    older server decodes unchanged, and an older client rebuilds a lean
    reply through the same dataclass defaults.
    """

    results: Dict = field(default_factory=dict)
    exceptions: Dict = field(default_factory=dict)
    cursor_lengths: Dict = field(default_factory=dict)
    cursor_results: Dict = field(default_factory=dict)
    cursor_exceptions: Dict = field(default_factory=dict)
    not_executed: Tuple = ()
    break_seq: int = NONE_ID
    session_id: int = NONE_ID
    restarts: int = 0

    def __post_init__(self):
        object.__setattr__(self, "not_executed", tuple(self.not_executed))

    def to_wire(self) -> Dict:
        """Wire dict of the non-default fields only."""
        fields = {}
        if self.results:
            fields["results"] = self.results
        if self.exceptions:
            fields["exceptions"] = self.exceptions
        if self.cursor_lengths:
            fields["cursor_lengths"] = self.cursor_lengths
        if self.cursor_results:
            fields["cursor_results"] = self.cursor_results
        if self.cursor_exceptions:
            fields["cursor_exceptions"] = self.cursor_exceptions
        if self.not_executed:
            fields["not_executed"] = self.not_executed
        if self.break_seq != NONE_ID:
            fields["break_seq"] = self.break_seq
        if self.session_id != NONE_ID:
            fields["session_id"] = self.session_id
        if self.restarts:
            fields["restarts"] = self.restarts
        return fields

    @classmethod
    def from_wire(cls, fields: Dict) -> "BatchResponse":
        return cls(**fields)

    def break_exception(self):
        """The exception that broke the batch, or None."""
        if self.break_seq == NONE_ID:
            return None
        exc = self.exceptions.get(self.break_seq)
        if exc is not None:
            return exc
        # The break happened inside a cursor sub-batch; the executor also
        # mirrors it into ``exceptions``, but be defensive.
        per_element = self.cursor_exceptions.get(self.break_seq, {})
        for _index, element_exc in sorted(per_element.items()):
            return element_exc
        return None
