"""Golden-bytes tests: the wire format is frozen, byte for byte.

The hex strings below were captured from the pre-optimization codec (the
PR-4 seed state).  The zero-copy codec must keep producing exactly these
bytes and keep decoding them to exactly these values — any drift here is
a wire-format break, not an optimization.

``GOLDEN_REPLY_*`` pin the lean ``BatchResponse`` reply (only non-default
fields travel); ``FULL_REPLY_*`` are nine-field replies from the older
encoder, which must keep decoding.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recording import NONE_ID, BatchResponse
from repro.rmi.protocol import CallRequest, CallResponse
from repro.wire import decode, encode, encode_framed, frame
from repro.wire.plans import ParamSlot
from repro.wire.refs import RemoteRef

#: name -> (value-builder, canned hex from the seed codec)
GOLDEN = {
    "none": (lambda: None, "4e"),
    "bools": (lambda: (True, False), "55000000025446"),
    "int_small": (lambda: 42, "49000000000000002a"),
    "int_neg": (lambda: -7, "49fffffffffffffff9"),
    "int_big": (lambda: 2**80, "4a0000000b000100000000000000000000"),
    "float": (lambda: 3.5, "44400c000000000000"),
    "str": (lambda: "unié中", "5300000008756e69c3a9e4b8ad"),
    "bytes": (lambda: b"\x00\xff", "420000000200ff"),
    "empty_str": (lambda: "", "5300000000"),
    "empty_bytes": (lambda: b"", "4200000000"),
    "list": (
        lambda: [1, "two", None],
        "4c00000003490000000000000001530000000374776f4e",
    ),
    "nested": (
        lambda: {"a": (1, 2), "b": [True, {"c": set()}]},
        "4d0000000253000000016155000000024900000000000000014900000000"
        "000000025300000001624c00000002544d000000015300000001634500000000",
    ),
    "set": (
        lambda: {3, 1, 2},
        "4500000003490000000000000001490000000000000002490000000000000003",
    ),
    "ref": (
        lambda: RemoteRef("sim://h:1", 42, ("a.B", "c.D")),
        "52530000000973696d3a2f2f683a3149000000000000002a5500000002"
        "5300000003612e425300000003632e44",
    ),
    "slot": (
        lambda: ParamSlot(5),
        "4f530000001a726570726f2e776972652e706c616e732e506172616d536c6f74"
        "4d000000015300000005696e646578490000000000000005",
    ),
}

#: frame(encode([1, "x"])) from the seed codec.
GOLDEN_FRAMED = "000000144c00000002490000000000000001530000000178"

#: CallRequest(7, 'work', (1, 'x'), {'k': 2.5}, 'tok:1') — captured
#: BEFORE the optional trace-context fields existed.  An untraced
#: request must keep producing these exact bytes.
GOLDEN_REQUEST = (
    "4f530000001e726570726f2e726d692e70726f746f636f6c2e43616c6c52657175"
    "6573744d0000000553000000096f626a6563745f6964490000000000000007"
    "53000000066d6574686f645300000004776f726b53000000046172677355000000"
    "0249000000000000000153000000017853000000066b77617267734d0000000153"
    "000000016b444004000000000000530000000763616c6c5f69645300000005746f"
    "6b3a31"
)

#: Same request without a call_id (identical prefix, empty token).
GOLDEN_REQUEST_NO_CALL_ID = (
    GOLDEN_REQUEST[: -len("5300000005746f6b3a31")] + "5300000000"
)

#: Same request stamped with trace context ('t-1', 's-2', 's-1'): the
#: untraced bytes with the dict header bumped 5 -> 8 fields and the
#: three trace fields appended.
GOLDEN_REQUEST_TRACED = GOLDEN_REQUEST.replace(
    "4d00000005", "4d00000008", 1
) + (
    "530000000874726163655f69645300000003742d31"
    "53000000077370616e5f69645300000003732d32"
    "5300000009706172656e745f69645300000003732d31"
)

#: CallResponse('ok', False) from the seed codec.
GOLDEN_RESPONSE = (
    "4f530000001f726570726f2e726d692e70726f746f636f6c2e43616c6c52657370"
    "6f6e73654d00000002530000000576616c756553000000026f6b53000000086973"
    "5f6572726f7246"
)

#: BatchResponse(results={1: 'ok', 2: None}) — a lean reply carries only
#: its non-default fields, here a one-field dict.
GOLDEN_REPLY_RESULTS = (
    "4f5300000022726570726f2e636f72652e7265636f7264696e672e4261746368"
    "526573706f6e73654d000000015300000007726573756c74734d000000024900"
    "0000000000000153000000026f6b4900000000000000024e"
)

#: BatchResponse(results={1: 3}, exceptions={2: ValueError('nope')},
#: not_executed=(3, 4), break_seq=2) — a BREAK reply.
GOLDEN_REPLY_BREAK = (
    "4f5300000022726570726f2e636f72652e7265636f7264696e672e4261746368"
    "526573706f6e73654d000000045300000007726573756c74734d000000014900"
    "00000000000001490000000000000003530000000a657863657074696f6e734d"
    "000000014900000000000000025853000000136275696c74696e732e56616c75"
    "654572726f72550000000153000000046e6f7065530000000c6e6f745f657865"
    "6375746564550000000249000000000000000349000000000000000453000000"
    "09627265616b5f736571490000000000000002"
)

#: BatchResponse(cursor_lengths={1: 2}, cursor_results={2: ['a', 'b']},
#: session_id=7) — a cursor reply that keeps a chained session.
GOLDEN_REPLY_CURSOR = (
    "4f5300000022726570726f2e636f72652e7265636f7264696e672e4261746368"
    "526573706f6e73654d00000003530000000e637572736f725f6c656e67746873"
    "4d00000001490000000000000001490000000000000002530000000e63757273"
    "6f725f726573756c74734d000000014900000000000000024c00000002530000"
    "000161530000000162530000000a73657373696f6e5f69644900000000000000"
    "07"
)

#: Replies as the full nine-field encoder wrote them before replies went
#: lean: GOLDEN_REPLY_RESULTS' value, and BatchResponse(results={1: 3},
#: cursor_lengths={2: 2}, cursor_results={3: [10, None]},
#: not_executed=(4, 5), break_seq=3, session_id=9, restarts=1).
FULL_REPLY_RESULTS = (
    "4f5300000022726570726f2e636f72652e7265636f7264696e672e4261746368"
    "526573706f6e73654d000000095300000007726573756c74734d000000024900"
    "0000000000000153000000026f6b4900000000000000024e530000000a657863"
    "657074696f6e734d00000000530000000e637572736f725f6c656e677468734d"
    "00000000530000000e637572736f725f726573756c74734d0000000053000000"
    "11637572736f725f657863657074696f6e734d00000000530000000c6e6f745f"
    "657865637574656455000000005300000009627265616b5f73657149ffffffff"
    "ffffffff530000000a73657373696f6e5f696449ffffffffffffffff53000000"
    "087265737461727473490000000000000000"
)
FULL_REPLY_MIXED = (
    "4f5300000022726570726f2e636f72652e7265636f7264696e672e4261746368"
    "526573706f6e73654d000000095300000007726573756c74734d000000014900"
    "00000000000001490000000000000003530000000a657863657074696f6e734d"
    "00000000530000000e637572736f725f6c656e677468734d0000000149000000"
    "0000000002490000000000000002530000000e637572736f725f726573756c74"
    "734d000000014900000000000000034c0000000249000000000000000a4e5300"
    "000011637572736f725f657863657074696f6e734d00000000530000000c6e6f"
    "745f657865637574656455000000024900000000000000044900000000000000"
    "055300000009627265616b5f736571490000000000000003530000000a736573"
    "73696f6e5f696449000000000000000953000000087265737461727473490000"
    "000000000001"
)


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encodes_to_canned_bytes(self, name):
        builder, canned = GOLDEN[name]
        assert encode(builder()).hex() == canned

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_canned_bytes_decode_to_value(self, name):
        builder, canned = GOLDEN[name]
        assert decode(bytes.fromhex(canned)) == builder()

    def test_exception_golden(self):
        canned = (
            "5853000000136275696c74696e732e56616c75654572726f72"
            "550000000253000000046e6f7065490000000000000003"
        )
        assert encode(ValueError("nope", 3)).hex() == canned
        decoded = decode(bytes.fromhex(canned))
        assert isinstance(decoded, ValueError)
        assert decoded.args == ("nope", 3)

    def test_framed_golden(self):
        assert frame(encode([1, "x"])).hex() == GOLDEN_FRAMED
        assert encode_framed([1, "x"]).hex() == GOLDEN_FRAMED


class TestProtocolGoldenBytes:
    """The RMI messages themselves are pinned: adding the optional trace
    context must not move a single byte of an untraced request."""

    REQUEST = CallRequest(7, "work", (1, "x"), {"k": 2.5}, "tok:1")

    def test_untraced_request_bytes_are_frozen(self):
        assert encode(self.REQUEST).hex() == GOLDEN_REQUEST

    def test_untraced_request_without_call_id(self):
        request = CallRequest(7, "work", (1, "x"), {"k": 2.5})
        assert encode(request).hex() == GOLDEN_REQUEST_NO_CALL_ID

    def test_pre_trace_bytes_decode_with_default_context(self):
        decoded = decode(bytes.fromhex(GOLDEN_REQUEST))
        assert decoded == self.REQUEST
        assert decoded.trace_id == ""
        assert decoded.span_id == ""
        assert decoded.parent_id == ""

    def test_traced_request_golden(self):
        traced = CallRequest(
            7, "work", (1, "x"), {"k": 2.5}, "tok:1",
            trace_id="t-1", span_id="s-2", parent_id="s-1",
        )
        assert encode(traced).hex() == GOLDEN_REQUEST_TRACED
        assert decode(bytes.fromhex(GOLDEN_REQUEST_TRACED)) == traced

    def test_response_bytes_are_frozen(self):
        response = CallResponse("ok", False)
        assert encode(response).hex() == GOLDEN_RESPONSE
        assert decode(bytes.fromhex(GOLDEN_RESPONSE)) == response


def _plain(value):
    """Exceptions compare by identity; compare them by class and args."""
    if isinstance(value, BaseException):
        return type(value), value.args
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _reply_fields(reply):
    return {f.name: _plain(getattr(reply, f.name))
            for f in dataclasses.fields(reply)}


_seqs = st.integers(min_value=1, max_value=64)
_values = st.one_of(st.none(), st.integers(), st.text(max_size=8))
_errors = st.builds(ValueError, st.text(max_size=8))
_replies = st.builds(
    BatchResponse,
    results=st.dictionaries(_seqs, _values, max_size=3),
    exceptions=st.dictionaries(_seqs, _errors, max_size=2),
    cursor_lengths=st.dictionaries(_seqs, st.integers(0, 5), max_size=2),
    cursor_results=st.dictionaries(
        _seqs, st.lists(_values, max_size=3), max_size=2),
    cursor_exceptions=st.dictionaries(
        _seqs, st.dictionaries(st.integers(0, 4), _errors, max_size=2),
        max_size=2),
    not_executed=st.lists(_seqs, max_size=3).map(tuple),
    break_seq=st.one_of(st.just(NONE_ID), _seqs),
    session_id=st.one_of(st.just(NONE_ID), st.integers(0, 2**31)),
    restarts=st.integers(0, 3),
)


class TestLeanBatchReply:
    """A BatchResponse ships only its non-default fields, and a reply in
    the older full nine-field form still decodes."""

    def test_results_only_reply_bytes(self):
        reply = BatchResponse(results={1: "ok", 2: None})
        assert encode(reply).hex() == GOLDEN_REPLY_RESULTS
        assert decode(bytes.fromhex(GOLDEN_REPLY_RESULTS)) == reply

    def test_break_reply_bytes(self):
        reply = BatchResponse(
            results={1: 3}, exceptions={2: ValueError("nope")},
            not_executed=(3, 4), break_seq=2,
        )
        assert encode(reply).hex() == GOLDEN_REPLY_BREAK
        decoded = decode(bytes.fromhex(GOLDEN_REPLY_BREAK))
        assert _reply_fields(decoded) == _reply_fields(reply)
        assert decoded.break_exception().args == ("nope",)

    def test_cursor_session_reply_bytes(self):
        reply = BatchResponse(
            cursor_lengths={1: 2}, cursor_results={2: ["a", "b"]},
            session_id=7,
        )
        assert encode(reply).hex() == GOLDEN_REPLY_CURSOR
        assert decode(bytes.fromhex(GOLDEN_REPLY_CURSOR)) == reply

    def test_default_reply_is_an_empty_field_dict(self):
        assert BatchResponse().to_wire() == {}
        assert decode(encode(BatchResponse())) == BatchResponse()

    @pytest.mark.parametrize("canned, reply", [
        (FULL_REPLY_RESULTS, BatchResponse(results={1: "ok", 2: None})),
        (FULL_REPLY_MIXED, BatchResponse(
            results={1: 3}, cursor_lengths={2: 2},
            cursor_results={3: [10, None]}, not_executed=(4, 5),
            break_seq=3, session_id=9, restarts=1,
        )),
    ], ids=["results", "mixed"])
    def test_full_field_reply_still_decodes(self, canned, reply):
        assert decode(bytes.fromhex(canned)) == reply
        assert len(encode(reply)) < len(bytes.fromhex(canned))

    @given(_replies)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_ships_exactly_the_non_default_fields(self, reply):
        default = BatchResponse()
        differing = [f.name for f in dataclasses.fields(reply)
                     if getattr(reply, f.name) != getattr(default, f.name)]
        assert list(reply.to_wire()) == differing
        decoded = decode(encode(reply))
        assert type(decoded) is BatchResponse
        assert _reply_fields(decoded) == _reply_fields(reply)


class TestRemoteRefSubclasses:
    """A RemoteRef subclass crosses the wire as a plain RemoteRef —
    the wire has no subclass notion (and the dispatch-table refactor
    replaced the old dead second isinstance branch with exactly one
    subclass check in the fallback path)."""

    class TracedRef(RemoteRef):
        pass

    def test_subclass_encodes_as_plain_ref(self):
        ref = self.TracedRef("sim://h:1", 7, ("a.B",))
        plain = RemoteRef("sim://h:1", 7, ("a.B",))
        assert encode(ref) == encode(plain)

    def test_subclass_roundtrips_to_base_class(self):
        ref = self.TracedRef("sim://h:1", 7, ("a.B",))
        decoded = decode(encode(ref))
        assert type(decoded) is RemoteRef
        assert decoded == RemoteRef("sim://h:1", 7, ("a.B",))

    def test_subclass_nested_in_containers(self):
        ref = self.TracedRef("sim://h:1", 3)
        value = {"refs": [ref, (ref,)]}
        decoded = decode(encode(value))
        assert decoded == {
            "refs": [RemoteRef("sim://h:1", 3), (RemoteRef("sim://h:1", 3),)]
        }
