"""The memoized plan lift agrees with a fresh compile, shape for shape.

``PlanMemo.lift`` compiles and hashes each shape once and answers every
repeat from its structural key.  Over the recordings of the fuzz corpus
it must return exactly what ``compile_plan``/``plan_hash`` would: the
same plan bytes, the same digest and the same parameters.  Recordings
that differ only in argument values share a memo entry; recordings that
differ in anything the plan keeps do not.
"""

import dataclasses

import pytest

from repro.core.policies import AbortPolicy, CustomPolicy, ExceptionAction
from repro.core.recording import ArgRef, InvocationData
from repro.fuzz.execute import run_batched
from repro.fuzz.generate import generate_corpus, policies_for
from repro.fuzz.runner import World
from repro.plan import PlanMemo, compile_plan, plan_hash
from repro.plan.model import lift_shape
from repro.wire import encode


def record_corpus(seed, programs):
    """Every segment the batch recorder ships for a fuzz corpus."""
    world = World("lan")
    recorded = []

    def capture(recorder):
        ship = recorder._ship

        def shipping(invocations, keep_session):
            recorded.append((invocations, recorder._policy))
            return ship(invocations, keep_session)

        recorder._ship = shipping

    try:
        for program in generate_corpus(seed, programs):
            for policy in policies_for(program).values():
                client = world.fresh_client()
                name, _reader = world.bind_fresh(program.domain)
                run_batched(program, client.lookup(name), policy,
                            reuse_plans=False, inject=capture)
                client.close()
    finally:
        world.close()
    return recorded


@pytest.fixture(scope="module")
def recordings():
    recorded = record_corpus(seed=0, programs=25)
    assert len(recorded) >= 100
    return recorded


def fresh(invocations, policy):
    plan, params = compile_plan(invocations, policy)
    return plan, plan_hash(plan), params


def perturbed(value):
    """A different value of the same kind (the lift sees no difference)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    return value


def has_set(invocations):
    def walk(value):
        if isinstance(value, (set, frozenset)):
            return True
        if isinstance(value, (list, tuple)):
            return any(walk(v) for v in value)
        if isinstance(value, dict):
            return any(walk(v) for v in value.values())
        return False

    return any(walk(inv.args) or walk(inv.kwargs) for inv in invocations)


class TestMemoMatchesCompile:
    def test_every_corpus_segment(self, recordings):
        memo = PlanMemo(capacity=len(recordings) + 1)
        for invocations, policy in recordings:
            plan, digest, params = memo.lift(invocations, policy)
            again = memo.lift(invocations, policy)
            assert again[0] is plan and again[1] == digest  # a memo hit
            want_plan, want_digest, want_params = fresh(invocations, policy)
            assert digest == want_digest
            assert encode(plan) == encode(want_plan)
            assert encode(params) == encode(want_params)
            assert encode(again[2]) == encode(want_params)

    def test_value_only_changes_share_the_entry(self, recordings):
        memo = PlanMemo(capacity=len(recordings) + 1)
        checked = 0
        for invocations, policy in recordings:
            if has_set(invocations):
                continue
            plan, digest, params = memo.lift(invocations, policy)
            values = tuple(perturbed(p) for p in params)
            rebound = plan.bind(values)
            again, again_digest, again_params = memo.lift(rebound, policy)
            assert again is plan and again_digest == digest
            assert encode(again_params) == encode(values)
            assert fresh(rebound, policy)[1] == digest
            checked += 1
        assert checked >= 100


def op(seq, method="m", args=(), kwargs=None, target=0):
    return InvocationData(seq=seq, target=ArgRef(target), method=method,
                          args=args, kwargs=kwargs or {})


BASE = (op(1, args=("x", [1, 2]), kwargs={"k": 1.5}),)

#: Each differs from BASE in one thing the plan keeps.
VARIANTS = {
    "method": (op(1, method="n", args=("x", [1, 2]), kwargs={"k": 1.5}),),
    "target": (op(1, args=("x", [1, 2]), kwargs={"k": 1.5}, target=1),),
    "list length": (op(1, args=("x", [1, 2, 3]), kwargs={"k": 1.5}),),
    "list vs tuple": (op(1, args=("x", (1, 2)), kwargs={"k": 1.5}),),
    "nesting": (op(1, args=(["x"], [1, 2]), kwargs={"k": 1.5}),),
    "dict key": (op(1, args=("x", [1, 2]), kwargs={"j": 1.5}),),
    "arg ref": (op(1, args=(ArgRef(0), [1, 2]), kwargs={"k": 1.5}),),
    "extra op": BASE + (op(2, target=1),),
}


class TestShapeKeys:
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_structural_differences_split(self, name):
        policy = AbortPolicy()
        variant = VARIANTS[name]
        assert lift_shape(variant, policy)[0] != lift_shape(BASE, policy)[0]
        assert fresh(variant, policy)[1] != fresh(BASE, policy)[1]
        memo = PlanMemo()
        assert memo.lift(variant, policy)[1] == fresh(variant, policy)[1]
        assert memo.lift(BASE, policy)[1] == fresh(BASE, policy)[1]

    def test_dict_keys_are_typed(self):
        """``1 == True`` but the two keys encode, and hash, differently."""
        policy = AbortPolicy()
        one = (op(1, args=({1: "a"},)),)
        true = (op(1, args=({True: "a"},)),)
        memo = PlanMemo()
        assert memo.lift(one, policy)[1] == fresh(one, policy)[1]
        assert memo.lift(true, policy)[1] == fresh(true, policy)[1]
        assert fresh(one, policy)[1] != fresh(true, policy)[1]

    def test_set_arguments_key_by_value(self):
        """Slot numbering in a set follows its values' canonical order,
        so sets never share a memo entry unless they encode alike."""
        policy = AbortPolicy()
        a = (op(1, args=({(1, 2), (3,)},)),)
        b = (op(1, args=({(1,), (2, 3)},)),)
        c = (op(1, args=({(4, 5), (6,)},)),)
        keys = {lift_shape(r, policy)[0] for r in (a, b, c)}
        assert len(keys) == 3
        memo = PlanMemo()
        for recording in (a, b, c, a):
            plan, digest, params = memo.lift(recording, policy)
            want_plan, want_digest, want_params = fresh(recording, policy)
            assert digest == want_digest and params == want_params
            assert encode(plan) == encode(want_plan)
        assert fresh(a, policy)[1] != fresh(b, policy)[1]
        assert fresh(a, policy)[1] == fresh(c, policy)[1]

    def test_policy_is_keyed_by_value(self):
        memo = PlanMemo()
        first = CustomPolicy(default_action=ExceptionAction.CONTINUE)
        equal = CustomPolicy(default_action=ExceptionAction.CONTINUE)
        plan, digest, _ = memo.lift(BASE, first)
        assert memo.lift(BASE, equal)[0] is plan
        changed = dataclasses.replace(first, default_action="break")
        assert memo.lift(BASE, changed)[1] == fresh(BASE, changed)[1] != digest
        ruled = CustomPolicy(default_action=ExceptionAction.CONTINUE)
        ruled.set_action(ValueError, ExceptionAction.BREAK)
        assert memo.lift(BASE, ruled)[1] == fresh(BASE, ruled)[1] != digest

    def test_mutating_a_policy_after_a_flush(self):
        """A memoized plan keeps the policy it was compiled under."""
        memo = PlanMemo()
        policy = CustomPolicy(default_action=ExceptionAction.CONTINUE)
        plan, digest, _ = memo.lift(BASE, policy)
        policy.set_action(ValueError, ExceptionAction.BREAK)
        assert plan_hash(plan) == digest
        assert memo.lift(BASE, policy)[1] == fresh(BASE, policy)[1] != digest

    def test_memo_is_bounded(self):
        memo = PlanMemo(capacity=2)
        policy = AbortPolicy()
        for name in ("a", "b", "c"):
            memo.lift((op(1, method=name),), policy)
        assert len(memo._plans) == 2
