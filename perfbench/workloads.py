"""The benchmark's workloads: inputs from a seed, one action, its check.

Each workload is a closed loop of ``CALLERS`` callers, each on its own
``RMIClient`` connection; an *action* is one iteration of a caller's
client code.  The seed decides every input; the server receives only
the generated fixture (customers, file contents), never the seed.

Why these three (also recorded in ``BENCHMARK.json``):

- ``bank-session`` — the paper's §5.1 purchase session: many cheap ops
  on the serial write path under a custom policy, through the dedup
  window.  Per-op executor cost, policy handling and recording dominate.
- ``fanout-plans`` — wide read-only batches of a few repeated shapes:
  the plan layer and the DAG scheduler's parallel path carry the work.
- ``files-bulk`` — the paper's §5.4 macro: two chained flushes moving
  file contents, so the wire codec, framing and aio transport carry
  most bytes (the cursor ops' executor cost still sets the rate).

An action's outcome is checked against a model kept by the caller.  An
unexpected exception or a failed check counts the action as failed;
the application exceptions the model predicts do not.
"""

from __future__ import annotations

import base64
import hashlib
import random

from repro.aio import LoadTarget  # noqa: F401  (registers the interface)
from repro.apps.bank import (
    AccountNotFoundException,
    CreditCard,  # noqa: F401  (registers the interface)
    bank_policy,
)
from repro.apps.fileserver import RemoteFile  # noqa: F401
from repro.core import ContinuePolicy, create_batch
from repro.rmi import RetryPolicy, RMIClient

#: Callers per workload: one per core of the 2-core machine it was sized on.
CALLERS = 2


class CheckFailed(Exception):
    """An action's outcome disagrees with the caller's model."""


class Caller:
    """One closed-loop caller: its connection, input stream and model."""

    def __init__(self, index: int, client: RMIClient, stub, rng):
        self.index = index
        self.client = client
        self.stub = stub
        self.rng = rng


class Workload:
    """Base: subclasses define the fixture, the action and its check."""

    name = ""
    service = ""
    retry = False

    def __init__(self, seed: int):
        self.seed = seed

    def caller_rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:caller{index}")

    def fixture(self) -> dict:
        raise NotImplementedError

    def connect(self, network, address: str, index: int) -> Caller:
        retry = RetryPolicy() if self.retry else None
        client = RMIClient(network, address, retry=retry)
        caller = Caller(index, client, client.lookup(self.service),
                        self.caller_rng(index))
        self.prepare(caller)
        return caller

    def prepare(self, caller: Caller) -> None:
        """Set up the caller's model (after connecting)."""

    def next_input(self, caller: Caller):
        """Draw the next action's input from the caller's stream."""
        raise NotImplementedError

    def act(self, caller: Caller, inputs):
        """The timed client code: record, flush, read the results."""
        raise NotImplementedError

    def check(self, caller: Caller, inputs, outcome) -> None:
        """Raise CheckFailed unless *outcome* matches the model."""
        raise NotImplementedError

    def abandon(self, caller: Caller, inputs) -> None:
        """An action failed with an exception: its effect is unknown."""

    def end_check(self, callers, network, address) -> list:
        """Whole-run checks; returns a list of problems."""
        return []


def _outcome(future):
    """``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return ("ok", future.get())
    except Exception as exc:  # noqa: BLE001 - the check judges it
        return ("raised", type(exc))


class BankSession(Workload):
    """§5.1: find_credit_account + 24 × make_purchase + get_credit_line."""

    name = "bank-session"
    service = "bank"
    retry = True
    PURCHASES = 24
    CUSTOMERS_PER_CALLER = 32
    MISSING_SHARE = 0.02
    LIMIT = 1e12  # purchases never exhaust a credit line

    def customers(self, index: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:customers{index}")
        return [f"c{index}-{rng.getrandbits(40):010x}"
                for _ in range(self.CUSTOMERS_PER_CALLER)]

    def fixture(self) -> dict:
        names = [c for i in range(CALLERS) for c in self.customers(i)]
        return {"app": "bank", "limit": self.LIMIT, "customers": names}

    def prepare(self, caller):
        caller.owned = self.customers(caller.index)
        caller.balance = dict.fromkeys(caller.owned, 0.0)
        caller.missing = 0

    def next_input(self, caller):
        rng = caller.rng
        if not caller.owned:
            raise CheckFailed("every customer's balance became unknown")
        if rng.random() < self.MISSING_SHARE:
            caller.missing += 1
            customer = f"missing{caller.index}-{caller.missing}"
        else:
            customer = rng.choice(caller.owned)
        amounts = [rng.randint(100, 20000) / 100
                   for _ in range(self.PURCHASES)]
        return customer, amounts

    def act(self, caller, inputs):
        customer, amounts = inputs
        manager = create_batch(caller.stub, policy=bank_policy())
        account = manager.find_credit_account(customer)
        purchases = [account.make_purchase(a) for a in amounts]
        line = account.get_credit_line()
        manager.flush()
        try:
            account.ok()
            lookup = ("ok", None)
        except Exception as exc:  # noqa: BLE001 - the check judges it
            lookup = ("raised", type(exc))
        return lookup, [_outcome(f) for f in purchases], _outcome(line)

    def check(self, caller, inputs, outcome):
        customer, amounts = inputs
        lookup, purchases, line = outcome
        if customer not in caller.balance:
            # The policy BREAKs on the failed lookup: every op depends on
            # it, so each surfaces the lookup's exception (an op that did
            # not depend on it would surface BatchAbortedError instead).
            expected = ("raised", AccountNotFoundException)
            if lookup != expected or line != expected or any(
                p != expected for p in purchases
            ):
                raise CheckFailed(f"missing {customer}: {outcome!r}")
            return
        if lookup != ("ok", None):
            raise CheckFailed(f"lookup of {customer}: {lookup!r}")
        if any(p != ("ok", None) for p in purchases):
            raise CheckFailed(f"purchases for {customer}: {purchases!r}")
        balance = caller.balance[customer]
        for amount in amounts:  # the server's order of float additions
            balance += amount
        caller.balance[customer] = balance
        if line != ("ok", self.LIMIT - balance):
            raise CheckFailed(
                f"credit line of {customer}: {line!r}, ledger says "
                f"{self.LIMIT - balance!r}"
            )

    def abandon(self, caller, inputs):
        # The purchases may or may not have run: stop predicting.
        caller.balance.pop(inputs[0], None)
        if inputs[0] in caller.owned:
            caller.owned.remove(inputs[0])


class FanoutPlans(Workload):
    """A ContinuePolicy batch of width {4, 8, 16} ``work`` calls, planned."""

    name = "fanout-plans"
    service = "load"
    WIDTHS = (4, 8, 16)
    DELAY_S = 0.002

    def fixture(self) -> dict:
        return {"app": "load"}

    def prepare(self, caller):
        caller.issued = 0  # work() calls of checked actions
        caller.unsure = 0  # work() calls of failed actions: ran or not
        caller.seen = []

    def next_input(self, caller):
        return caller.rng.choice(self.WIDTHS)

    def act(self, caller, width):
        batch = create_batch(caller.stub, policy=ContinuePolicy(),
                             reuse_plans=True)
        futures = [batch.work(self.DELAY_S) for _ in range(width)]
        batch.flush()
        return [f.get() for f in futures]

    def check(self, caller, width, values):
        caller.issued += width
        caller.seen.extend(values)
        if len(values) != width or not all(
            type(v) is int for v in values
        ):
            raise CheckFailed(f"width {width}: {values!r}")

    def abandon(self, caller, width):
        caller.unsure += width

    def end_check(self, callers, network, address):
        client = RMIClient(network, address)
        try:
            total = client.lookup(self.service).total()
        finally:
            client.close()
        issued = sum(c.issued for c in callers)
        unsure = sum(c.unsure for c in callers)
        seen = sorted(v for c in callers for v in c.seen)
        problems = []
        if not issued <= total <= issued + unsure:
            problems.append(
                f"LoadTarget.total() {total} outside [{issued}, "
                f"{issued + unsure}] issued"
            )
        if len(set(seen)) != len(seen) or (seen and seen[-1] > total):
            problems.append("work() returned a repeated or unissued count")
        return problems


class FilesBulk(Workload):
    """§5.4: metadata cursor, then a chained flush for k files' contents.

    The first flush reads three metadata fields of every file in the
    directory, each a cursor op for the server's executor; these ops
    cost it more than the codec spends on the contents, so the
    directory's size, not its bytes, sets the rate.
    Eight files (k up to 8) keep a run at well over 1000 actions, and
    16 KiB each keep contents above 90% of wire bytes.
    """

    name = "files-bulk"
    service = "files"
    FILES = 8
    FILE_SIZE = 16384  # fixed, so bytes per action do not vary by seed
    K_RANGE = (4, 8)
    BASE_MTIME = 1_230_000_000

    def directory(self) -> list:
        """``(name, mtime, contents)`` in name order, from the seed."""
        rng = random.Random(f"{self.name}:{self.seed}:directory")
        return [
            (f"file{i:02d}.dat", self.BASE_MTIME + i,
             rng.randbytes(self.FILE_SIZE))
            for i in range(self.FILES)
        ]

    def fixture(self) -> dict:
        return {
            "app": "files", "mtime": self.BASE_MTIME,
            "files": [
                {"name": name, "mtime": mtime,
                 "data": base64.b64encode(data).decode("ascii")}
                for name, mtime, data in self.directory()
            ],
        }

    def prepare(self, caller):
        caller.expected = [
            (name, mtime, len(data), hashlib.sha256(data).digest())
            for name, mtime, data in self.directory()
        ]

    def next_input(self, caller):
        return caller.rng.randint(*self.K_RANGE)

    def act(self, caller, k):
        # fetch_files_brmi (repro.apps.fileserver), op for op, keeping
        # the contents so the check can hash them.
        root = create_batch(caller.stub)
        cursor = root.list_files()
        name = cursor.get_name()
        mtime = cursor.last_modified()
        size = cursor.length()
        root.flush_and_continue()
        meta = []
        contents = []
        while len(contents) < k and cursor.next():
            meta.append((name.get(), mtime.get(), size.get()))
            contents.append(cursor.read_contents())
        root.flush()
        return meta, [f.get() for f in contents]

    def check(self, caller, k, outcome):
        meta, contents = outcome
        got = [
            (n, m, s, hashlib.sha256(data).digest())
            for (n, m, s), data in zip(meta, contents)
        ]
        if len(contents) != k or got != caller.expected[:k]:
            raise CheckFailed(f"k={k}: contents differ from the directory")


WORKLOADS = {cls.name: cls for cls in (BankSession, FanoutPlans, FilesBulk)}
