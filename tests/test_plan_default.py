"""Plan reuse is the default: the paper's §5.1 session, planned.

``create_batch`` ships a repeated unchained shape as a plan invocation
unless told ``reuse_plans=False``.  The purchase session must stay
indistinguishable from the inline batch and from naive RMI — outcomes,
credit lines, one request per flush — including the lookup that BREAKs,
and a lost response to a plan install or invocation must replay from
the server's dedup window rather than charge a purchase twice.
"""

import pytest

from repro.apps.bank import (
    AccountNotFoundException,
    CreditManagerImpl,
    InsufficientCreditError,
    bank_policy,
)
from repro.core import create_batch
from repro.net import LAN, FaultSchedule, FaultyNetwork, SimNetwork
from repro.plan import PlanningBatchProxy
from repro.rmi import RMIClient, RMIServer, RetryPolicy

LIMIT = 1000.0

#: (customer, amounts): the third session's lookup fails (BREAK), the
#: fourth overdraws alice's line midway (CONTINUE past the failure).
SESSIONS = (
    ("alice", (12.5, 40.0, 7.25)),
    ("bob", (100.0, 0.5, 99.5)),
    ("mallory", (1.0, 2.0, 3.0)),
    ("alice", (300.0, 900.0, 20.0)),
    ("bob", (5.0, 6.0, 7.0)),
)


def _bank():
    manager = CreditManagerImpl(default_limit=LIMIT)
    for customer in ("alice", "bob"):
        manager.create_credit_account(customer)
    return manager


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - outcomes are compared
        return ("raised", type(exc))


def session_rmi(stub, customer, amounts):
    """Naive RMI: a failed lookup fails every call that needs the card."""
    lookup = _outcome(lambda: stub.find_credit_account(customer))
    if lookup[0] == "raised":
        return lookup, [lookup] * len(amounts), lookup
    card = lookup[1]
    purchases = [_outcome(lambda a=a: card.make_purchase(a)) for a in amounts]
    return ("ok", None), purchases, _outcome(card.get_credit_line)


def session_batch(stub, customer, amounts, **options):
    manager = create_batch(stub, policy=bank_policy(), **options)
    card = manager.find_credit_account(customer)
    purchases = [card.make_purchase(a) for a in amounts]
    line = card.get_credit_line()
    manager.flush()
    lookup = _outcome(card.ok)
    return (lookup, [_outcome(f.get) for f in purchases], _outcome(line.get))


@pytest.fixture
def bank_world():
    network = SimNetwork(conditions=LAN)
    opened = []

    def serve(address):
        server = RMIServer(network, address).start()
        server.bind("bank", _bank())
        client = RMIClient(network, address)
        opened.extend((client, server))
        return client

    yield serve
    for endpoint in opened:
        endpoint.close()
    network.close()


class TestPurchaseSessionEquivalence:
    def test_default_matches_inline_and_naive_rmi(self, bank_world):
        naive = bank_world("sim://naive:1")
        inline = bank_world("sim://inline:1")
        planned = bank_world("sim://planned:1")
        stubs = {c: c.lookup("bank") for c in (naive, inline, planned)}
        memo = planned.plan_memo
        strategies = []
        outcomes = []
        for customer, amounts in SESSIONS:
            expected = session_rmi(stubs[naive], customer, amounts)
            sent = {}
            got = {}
            for client, options in ((inline, {"reuse_plans": False}),
                                    (planned, {})):
                before = client.stats.snapshot()
                got[client] = session_batch(
                    stubs[client], customer, amounts, **options
                )
                after = client.stats.snapshot()
                assert after.requests - before.requests == 1
                sent[client] = after.bytes_sent - before.bytes_sent
            assert got[inline] == expected
            assert got[planned] == expected
            outcomes.append(expected)
            strategies.append((memo.inline_flushes, memo.plan_installs,
                               memo.plan_invocations))
            if strategies[-1][2]:
                assert sent[planned] < sent[inline] / 4
        # Inline once, install on the first repeat, invoke from then on.
        assert strategies == [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 1, 2),
                              (1, 1, 3)]
        # The BREAK and CONTINUE paths both ran as plan invocations.
        assert outcomes[2][2] == ("raised", AccountNotFoundException)
        assert outcomes[3][1][1:] == [("raised", InsufficientCreditError),
                                      ("ok", None)]

    def test_default_is_planning_and_opt_out_is_inline(self, bank_world):
        client = bank_world("sim://kinds:1")
        stub = client.lookup("bank")
        assert isinstance(create_batch(stub), PlanningBatchProxy)
        assert not isinstance(create_batch(stub, reuse_plans=False),
                              PlanningBatchProxy)


@pytest.fixture
def aio_bank():
    from repro.aio import AioNetwork

    network = AioNetwork()
    server = RMIServer(network, "tcp://127.0.0.1:0").start()
    manager = _bank()
    server.bind("bank", manager)
    yield network, server, manager
    server.close()
    network.close()


class TestLostPlanResponses:
    def test_install_and_invoke_replay_exactly_once(self, aio_bank):
        network, server, manager = aio_bank
        # Requests: lookup, inline flush, install (response lost), its
        # retry, invoke (response lost), its retry, invoke.
        schedule = FaultSchedule.scripted(
            [None, None, "drop-response", None, "drop-response", None, None]
        )
        client = RMIClient(
            FaultyNetwork(network, schedule), server.address,
            retry=RetryPolicy(max_attempts=5, backoff_s=0.0),
            sleep=lambda _s: None,
        )
        try:
            stub = client.lookup("bank")
            amounts = (10.0, 20.0, 30.0)
            lines = []
            for _ in range(4):
                _lookup, purchases, line = session_batch(
                    stub, "alice", amounts
                )
                assert purchases == [("ok", None)] * len(amounts)
                lines.append(line)
        finally:
            client.close()
        charged = sum(amounts)
        assert lines == [("ok", LIMIT - charged * n) for n in range(1, 5)]
        card = manager.find_credit_account("alice")
        assert card.get_credit_line() == LIMIT - 4 * charged
        memo = client.plan_memo
        assert (memo.inline_flushes, memo.plan_installs,
                memo.plan_invocations) == (1, 1, 2)
        assert schedule.injected == 2
        assert server.dedup.hits == 2
        assert server.plan_cache.stats.snapshot().installs == 1
