"""Smoke-scale tests of the benchmark itself (sub-second windows).

They check the benchmark's contract, not the system's speed: every
metric in ``BENCHMARK.json`` comes out with its unit, a wrong answer is
counted as a failure, and span wrappers exist only in traced slices.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import ledger
import run
import workloads
from metrics import END_TO_END, LAYER_MAP, PER_LAYER, UNGATED

SMOKE_S = 0.5
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec():
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def _cli(workload: str, trace: int):
    """(result line, detail line) of one smoke-scale run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", "3",
         "--seconds", str(SMOKE_S), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("# detail ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("# detail "):])


def test_benchmark_json_matches_the_metric_tables():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    mapped = {name for names, *_ in LAYER_MAP for name in names}
    assert mapped == set(PER_LAYER)
    for _, moves, on, _ in LAYER_MAP:
        assert set(moves) <= set(END_TO_END) | set(UNGATED)
        assert set(on) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_emits_every_metric_with_its_unit(workload, trace):
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result, detail = _cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    reported = detail["ungated"]
    expected = UNGATED if not trace else {"error_rate": "ratio"}
    assert {k: v["unit"] for k, v in reported.items()} == expected
    assert reported["error_rate"]["value"] == 0


def _corrupt_first_hash(self, caller):
    original_prepare(self, caller)
    name, mtime, size, digest = caller.expected[0]
    caller.expected[0] = (name, mtime, size, bytes(32))


original_prepare = workloads.FilesBulk.prepare


def test_a_corrupted_expected_value_is_counted_as_a_failure(monkeypatch):
    # Every action reads file00 first, so every check must now fail.
    monkeypatch.setattr(workloads.FilesBulk, "prepare", _corrupt_first_hash)
    out = run.run("files-bulk", 3, SMOKE_S, False)
    result = out["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert out["detail"]["wrong"] == result["attempted"]


def test_a_ledger_that_drifts_from_the_server_fails_the_run(monkeypatch):
    prepare = workloads.BankSession.prepare

    def drifted(self, caller):
        prepare(self, caller)
        caller.balance = dict.fromkeys(caller.owned, 0.01)

    monkeypatch.setattr(workloads.BankSession, "prepare", drifted)
    result = run.run("bank-session", 3, SMOKE_S, False)["result"]
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_lost_work_calls_fail_the_end_check(monkeypatch):
    check = workloads.FanoutPlans.check

    def undercount(self, caller, width, values):
        check(self, caller, width, values)
        caller.issued -= 1

    monkeypatch.setattr(workloads.FanoutPlans, "check", undercount)
    out = run.run("fanout-plans", 3, SMOKE_S, False)
    assert out["result"]["correct"] is False
    assert any("total()" in p for p in out["detail"]["problems"])


def test_a_fault_in_the_check_is_counted_as_wrong(monkeypatch):
    def broken(self, caller, width, values):
        raise KeyError("fault in the check")

    monkeypatch.setattr(workloads.FanoutPlans, "check", broken)
    out = run.run("fanout-plans", 3, SMOKE_S, False)
    result = out["result"]
    assert result["correct"] is False
    assert result["failed"] >= result["attempted"] >= 1
    assert out["detail"]["wrong"] == result["attempted"]


def test_a_caller_whose_inputs_fail_is_counted_not_lost(monkeypatch):
    def exhausted(self, caller):
        raise IndexError("no input left")

    monkeypatch.setattr(workloads.FanoutPlans, "next_input", exhausted)
    out = run.run("fanout-plans", 3, SMOKE_S, False)
    result = out["result"]
    assert result["correct"] is False
    # Each slice starts the callers afresh; each stops at once again.
    assert out["detail"]["wrong"] == result["failed"] >= workloads.CALLERS
    assert all("stopped" in f for f in out["detail"]["failures"])


def test_abandoned_work_calls_widen_the_end_check(monkeypatch):
    act = workloads.FanoutPlans.act

    def flaky(self, caller, width):
        values = act(self, caller, width)
        if caller.rng.random() < 0.3:
            raise ConnectionError("reply lost")  # the calls did run
        return values

    monkeypatch.setattr(workloads.FanoutPlans, "act", flaky)
    out = run.run("fanout-plans", 3, SMOKE_S, False)
    assert out["result"]["failed"] >= 1
    assert out["detail"]["wrong"] == 0
    assert out["detail"]["problems"] == []


def _watch_wrappers(monkeypatch, seen):
    act = workloads.FanoutPlans.act

    def watched(self, caller, width):
        seen.append(ledger.client_wrappers())
        return act(self, caller, width)

    monkeypatch.setattr(workloads.FanoutPlans, "act", watched)


def test_the_untraced_run_has_no_wrapper_installed(monkeypatch):
    seen = []
    _watch_wrappers(monkeypatch, seen)
    out = run.run("fanout-plans", 3, SMOKE_S, False)
    assert out["result"]["correct"] is True
    assert seen and not any(seen)
    assert out["detail"]["client_wrappers"] == 0
    assert out["detail"]["server_wrappers"] == 0


def test_the_traced_run_wraps_only_its_traced_slices(monkeypatch):
    seen = []
    _watch_wrappers(monkeypatch, seen)
    out = run.run("fanout-plans", 3, SMOKE_S, True)
    assert out["result"]["correct"] is True, out["detail"]["problems"]
    assert any(seen) and not all(seen)  # wrapped in traced slices only
    assert max(seen) == len(ledger.client_targets())
    assert out["detail"]["client_wrappers"] == 0
    assert out["detail"]["server_wrappers"] == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (1, None, "core.exec", 0, 100, 1),
        (2, 1, "apps.method", 10, 60, 1),
        (3, 1, "apps.method", 40, 90, 1),
    ]
    times, roots = ledger.self_times(spans)
    assert roots == [1]
    assert times[1][1] == 100 - 80
    # The two children overlap: together they block for 80 of their 100.
    assert times[2][2] + times[3][2] == pytest.approx(80)
    assert sum(block for _, _, block in times.values()) == pytest.approx(100)
