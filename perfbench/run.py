"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bank-session --seed 1 \
        --seconds 35 --trace 0

One load-generator process (this one) drives one server process
(``server.py``) over aio TCP loopback.  ``CALLERS`` callers run a closed
loop, each on its own ``RMIClient`` connection.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``; names and units in ``metrics.py``).  Two ``#`` lines
before it carry the run's metadata and details; the details hold the
figures that are reported but not gated (``metrics.UNGATED``).

``--trace 0`` measures one window of ``--seconds`` with no wrapper
installed anywhere.  ``--trace 1`` splits the window into four slices,
untraced-traced-traced-untraced, and installs the span wrappers
(``ledger.py``) in both processes for the traced slices only; the
untraced slices give the tracing overhead.  Tracing is switched only
while both callers are idle, so every span belongs to a traced action.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from repro.aio import AioNetwork  # noqa: E402
from repro.obs.bridge import bind_client  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402

import ledger  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END, FALLBACK_REASONS, PER_LAYER, UNGATED,
)
from workloads import CALLERS, WORKLOADS  # noqa: E402

#: Slices of the untraced window; its rates are medians over them.
SLICES = 10
#: Set-ups per run; ``setup_s`` is their median and the last one serves.
SETUPS = 7
#: Unmeasured actions before the window (pools, plan caches, allocator),
#: capped by the window length so smoke-scale runs stay short.
WARMUP_S = 2.0
#: Where the traced run writes its spans (inside the checkout).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Longest a slice may overrun before the run is declared stuck.
STUCK_S = 60.0
#: ``ledger.coverage`` must land within this band for the run to pass.
COVERAGE_BAND = (0.95, 1.01)


# -- the machine ---------------------------------------------------------

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process *pid* (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def proc_exec_s(pid: int) -> float:
    """CPU seconds the live threads of process *pid* have run, to the ns.

    From ``/proc/<pid>/task/*/schedstat``: time on a CPU only, so neither
    waiting for a core nor time stolen by the hypervisor counts.
    """
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat",
                      encoding="ascii") as fh:
                total += int(fh.read().split()[0])
        except OSError:  # the thread ended meanwhile
            pass
    return total / 1e9


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of process *pid*, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_times() -> list:
    """The aggregate ``cpu`` line of /proc/stat (jiffies per state)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def steal_share(before: list, after: list) -> float:
    """Share of CPU time stolen by the hypervisor between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already inside user time
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def calibration_ms() -> float:
    """Median of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


# -- the server process --------------------------------------------------


class ServerProcess:
    """``server.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, fixture: dict, traced: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        argv = [sys.executable, os.path.join(HERE, "server.py")]
        if traced:
            argv.append("--traced")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env, cwd=ROOT,
        )
        try:
            self.proc.stdin.write(json.dumps(fixture) + "\n")
            self.proc.stdin.flush()
            line = self._readline()
            if not line.startswith("ADDRESS "):
                raise RuntimeError(f"server said {line!r}, not ADDRESS")
            self.address = line.split()[1]
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with {self.proc.wait(timeout=10)}"
            )
        return line.strip()

    def command(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = self._readline()
        if reply.startswith("ERROR"):
            raise RuntimeError(f"server: {reply}")
        return reply

    def counters(self) -> dict:
        return json.loads(self.command("counters"))

    def stop(self) -> None:
        """Close stdin (graceful drain), then reap; kill if it hangs."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Session:
    """One set-up: a server, a client network and the connected callers."""

    def __init__(self, workload, traced: bool):
        self.server = ServerProcess(workload.fixture(), traced)
        self.network = AioNetwork()
        self.callers = []
        self.registry = MetricsRegistry()
        try:
            for index in range(CALLERS):
                caller = workload.connect(
                    self.network, self.server.address, index
                )
                self.callers.append(caller)
                bind_client(self.registry, caller.client)
        except BaseException:
            self.close()
            raise

    def traffic(self) -> dict:
        """The callers' summed client counters (requests, bytes, plans)."""
        return self.registry.collected()

    def close(self) -> None:
        for caller in self.callers:
            caller.client.close()
        self.network.close()
        self.server.stop()


# -- the closed loop -----------------------------------------------------


class SliceStats:
    """What the callers did in one slice."""

    def __init__(self):
        self.latencies = []
        self.completed = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []
        self.elapsed = 0.0

    def merge(self, other: "SliceStats") -> None:
        self.latencies.extend(other.latencies)
        self.completed += other.completed
        self.failed += other.failed
        self.wrong += other.wrong
        self.failures.extend(other.failures)
        self.elapsed += other.elapsed

    @property
    def attempted(self) -> int:
        return self.completed + self.failed


def caller_loop(workload, caller, deadline, stats, recorder, numbering):
    """Run actions back to back until *deadline*.

    Every exception is counted: one from the action fails it, one from
    its check (a failed check or a fault in the check itself) fails it
    as wrong, and one anywhere else ends this caller as wrong.
    """
    try:
        while time.perf_counter() < deadline:
            inputs = workload.next_input(caller)
            start = time.perf_counter()
            try:
                if recorder is None:
                    outcome = workload.act(caller, inputs)
                else:
                    outcome = recorder.span(
                        "action", lambda: workload.act(caller, inputs),
                        action=next(numbering),
                    )
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                stats.failed += 1
                stats.failures.append(f"caller {caller.index}: {exc!r}")
                workload.abandon(caller, inputs)
                continue
            latency = time.perf_counter() - start
            try:
                workload.check(caller, inputs, outcome)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                stats.failed += 1
                stats.wrong += 1
                stats.failures.append(f"caller {caller.index}: {exc!r}")
                continue
            stats.completed += 1
            stats.latencies.append(latency)
    except Exception as exc:  # noqa: BLE001 - this caller cannot go on
        stats.failed += 1
        stats.wrong += 1
        stats.failures.append(f"caller {caller.index} stopped: {exc!r}")


def run_slice(workload, session, seconds, recorder=None, numbering=None):
    """All callers for *seconds*; returns once every caller is idle."""
    deadline = time.perf_counter() + seconds
    per_caller = [SliceStats() for _ in session.callers]
    threads = [
        threading.Thread(
            target=caller_loop, daemon=True, name=f"caller{caller.index}",
            args=(workload, caller, deadline, stats, recorder, numbering),
        )
        for caller, stats in zip(session.callers, per_caller)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + STUCK_S)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} stuck past its slice")
    merged = SliceStats()
    for stats in per_caller:
        merged.merge(stats)
    merged.elapsed = time.perf_counter() - start
    return merged


# -- one run -------------------------------------------------------------


def set_up(workload, traced: bool):
    """``SETUPS`` set-ups in a row; returns (CPU s, wall s, last session).

    A set-up runs from spawning the server to both callers having looked
    up their service.  Its cost is the CPU time both processes spend on
    it: server start, imports and fixture build, connects and lookups.
    On a shared host, wall time adds whatever other tenants take; CPU
    time does not, and it still shows any work moved into set-up.
    """
    cpu, wall = [], []
    session = None
    for _ in range(SETUPS):
        if session is not None:
            session.close()
            session = None
        start = time.perf_counter()
        own = time.process_time()
        session = Session(workload, traced)
        wall.append(time.perf_counter() - start)
        cpu.append(time.process_time() - own
                   + proc_exec_s(session.server.pid))
    return cpu, wall, session


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced_figures(session, slices, per_slice, traffic) -> dict:
    """The untraced figures: slice medians for rates, CPU and p50.

    The host shares its cores with other tenants, and how much of them
    it leaves us changes over seconds to minutes.  The median over
    slices keeps a burst in a few slices from moving the run's figure;
    p99 pools all slices so that at least ten samples lie beyond it.
    """
    actions = max(1, sum(s.completed for s in slices))
    pooled = [v * 1e3 for s in slices for v in s.latencies] or [0.0]
    rates, server_ms, client_ms = zip(*per_slice)
    return {
        "actions_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(
            statistics.median(s.latencies) * 1e3 if s.latencies else 0.0
            for s in slices),
        "latency_p99_ms": percentile(pooled, 99) if len(pooled) > 1
        else pooled[0],
        "server_cpu_ms_per_action": statistics.median(server_ms),
        "client_cpu_ms_per_action": statistics.median(client_ms),
        "round_trips_per_action": traffic.get("client.requests", 0) / actions,
        "wire_bytes_per_action": (
            traffic.get("client.bytes_sent", 0)
            + traffic.get("client.bytes_received", 0)
        ) / actions,
        "server_peak_rss_mb": proc_hwm_mb(session.server.pid),
    }


def delta(before: dict, after: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def ratio(num, den) -> float:
    return num / den if den else 0.0


def measure_untraced(workload, session, seconds):
    """``SLICES`` back-to-back slices; returns (all stats, metrics, checks)."""
    server_pid = session.server.pid
    traffic0 = session.traffic()
    slices, cpus = [], []
    totals = SliceStats()
    for _ in range(SLICES):
        cpu0 = (proc_cpu_s(server_pid), time.process_time())
        stats = run_slice(workload, session, seconds / SLICES)
        cpu1 = (proc_cpu_s(server_pid), time.process_time())
        slices.append(stats)
        cpus.append((cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]))
        totals.merge(stats)
    traffic = delta(traffic0, session.traffic())
    # (actions/s, server CPU ms/action, client CPU ms/action) per slice
    per_slice = [
        [s.completed / s.elapsed, cpu[0] * 1e3 / max(1, s.completed),
         cpu[1] * 1e3 / max(1, s.completed)]
        for s, cpu in zip(slices, cpus)
    ]
    return totals, untraced_figures(session, slices, per_slice, traffic), {
        "slices": per_slice}


def measure_traced(workload, session, seconds):
    """ABBA slices; returns (all stats, per-layer metrics, checks)."""
    recorder = ledger.SpanRecorder()
    numbering = itertools.count(1)
    counters0 = session.server.counters()
    traffic0 = session.traffic()
    totals = SliceStats()
    untraced = SliceStats()
    traced = SliceStats()
    for on in (False, True, True, False):
        patches = None
        if on:
            session.server.command("trace on")
            patches = ledger.install_client(recorder, ("workloads",))
        try:
            stats = run_slice(workload, session, seconds / 4,
                              recorder if on else None, numbering)
        finally:
            if patches is not None:
                recorder.active = False
                patches.uninstall()
                session.server.command("trace off")
        totals.merge(stats)
        (traced if on else untraced).merge(stats)
    counters = delta(counters0, session.server.counters())
    traffic = delta(traffic0, session.traffic())

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, workload.name)
    recorder.write_jsonl(f"{stem}.client.jsonl")
    session.server.command(f"spans {stem}.server.jsonl")
    client_spans = recorder.spans
    server_spans = ledger.read_jsonl(f"{stem}.server.jsonl")
    # Failed actions leave spans too; the ledger divides by every
    # traced action that ran, failed or not.
    layers = ledger.layer_metrics(client_spans, server_spans,
                                  traced.attempted)

    actions = max(1, totals.attempted)
    calls = sum(1 for s in client_spans if s[2] == "rmi.call")
    attempts = sum(1 for s in client_spans if s[2] == "aio.request")
    plan_flushes = sum(
        traffic.get(f"client.plan.{k}", 0)
        for k in ("inline_flushes", "invocations", "installs")
    )
    hits = counters.get("server.plan_cache.hits", 0)
    batches = counters.get("server.scheduler.parallel_batches", 0) \
        + counters.get("server.scheduler.serial_batches", 0)
    untraced_rate = ratio(untraced.completed, untraced.elapsed)
    traced_rate = ratio(traced.completed, traced.elapsed)
    metrics = {name: layers[name] for name in PER_LAYER if name in layers}
    metrics.update({
        "plan.memo.invoke_ratio": ratio(
            traffic.get("client.plan.invocations", 0), plan_flushes),
        "rmi.retries": (attempts - calls) / max(1, traced.attempted),
        "wire.bytes_up": traffic.get("client.bytes_sent", 0) / actions,
        "wire.bytes_down": traffic.get("client.bytes_received", 0) / actions,
        "aio.shed": counters.get("server.runtime.shed", 0) / actions,
        "rmi.dedup.executed":
            counters.get("server.dedup.executed", 0) / actions,
        "rmi.dedup.replayed": counters.get("server.dedup.hits", 0) / actions,
        "core.dag.parallel_ratio": ratio(
            counters.get("server.scheduler.parallel_batches", 0), batches),
        "plan.cache.hit_ratio": ratio(
            hits, hits + counters.get("server.plan_cache.misses", 0)),
        "plan.cache.installs":
            counters.get("server.plan_cache.installs", 0) / actions,
        "plan.cache.evictions":
            counters.get("server.plan_cache.evictions", 0) / actions,
        "obs.trace_overhead_pct":
            100.0 * ratio(untraced_rate - traced_rate, untraced_rate),
    })
    for reason in FALLBACK_REASONS:
        metrics[f"core.dag.fallback.{reason}"] = counters.get(
            f"server.scheduler.fallback.{reason}", 0) / actions
    checks = {
        "ledger.coverage": layers["ledger.coverage"],
        "ledger.server_identity": layers["ledger.server_identity"],
        "aio.wait_us": layers["aio.wait_us"],
        "traced_actions": traced.attempted,
        "untraced_actions_per_s": untraced_rate,
        "traced_actions_per_s": traced_rate,
    }
    return totals, metrics, checks


def ledger_problems(checks: dict) -> list:
    problems = []
    low, high = COVERAGE_BAND
    if not low <= checks["ledger.coverage"] <= high:
        problems.append(
            f"ledger.coverage {checks['ledger.coverage']:.4f} outside "
            f"[{low}, {high}]"
        )
    if abs(checks["ledger.server_identity"] - 1.0) > 1e-6:
        problems.append("server spans escaped their request's tree")
    if checks["aio.wait_us"] < 0:
        problems.append("server time exceeds client request time")
    if checks["traced_actions"] < 1:
        problems.append("no traced action")
    return problems


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name](seed)
    # Cache the program's bytecode first, even where the environment
    # stops imports from writing it, so that every set-up loads it as a
    # deployed server would and none compiles the sources.
    for tree in (SRC, HERE):
        if not compileall.compile_dir(tree, quiet=1):
            raise RuntimeError(f"cannot compile {tree}")
    setups, setups_wall, session = set_up(workload, trace)
    try:
        run_slice(workload, session, min(WARMUP_S, seconds))
        before = session.server.counters()
        steal0 = cpu_times()
        if trace:
            stats, metrics, checks = measure_traced(workload, session, seconds)
        else:
            stats, metrics, checks = measure_untraced(
                workload, session, seconds)
        steal1 = cpu_times()
        after = session.server.counters()
        metrics["setup_s"] = statistics.median(setups)
        problems = workload.end_check(
            session.callers, session.network, session.server.address)
    finally:
        session.close()
    # A retrying caller absorbs a shed and succeeds on a later attempt;
    # the shed still counts.  Without retry the shed fails its action.
    sheds = after.get("server.runtime.shed", 0) \
        - before.get("server.runtime.shed", 0)
    absorbed_sheds = sheds if workload.retry else 0
    checks["server_wrappers"] = after["wrappers"]
    checks["client_wrappers"] = ledger.client_wrappers()
    if checks["server_wrappers"] or checks["client_wrappers"]:
        problems.append("span wrappers still installed after the window")
    if trace:
        problems += ledger_problems(checks)
    wanted = PER_LAYER if trace else END_TO_END
    meta = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "callers": CALLERS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "calibration_ms": calibration_ms(),
        "steal_share": steal_share(steal0, steal1),
        "loadavg": list(os.getloadavg()), "setups_s": setups,
        "setups_wall_s": setups_wall,
    }
    failed = stats.failed + absorbed_sheds + len(problems)
    metrics["error_rate"] = ratio(failed, stats.attempted)
    detail = {
        "ungated": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in UNGATED.items() if name in metrics
        },
        "setup_wall_s": statistics.median(setups_wall),
        "latency_samples": len(stats.latencies),
        "wrong": stats.wrong, "sheds": sheds, "problems": problems,
        "failures": stats.failures[:5], **checks,
    }
    return {
        "meta": meta, "detail": detail,
        "result": {
            "correct": stats.wrong == 0 and not problems,
            "attempted": max(1, stats.attempted),
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in wanted.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# meta " + json.dumps(out["meta"]), flush=True)
    print("# detail " + json.dumps(out["detail"]), flush=True)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
