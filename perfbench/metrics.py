"""Metric names, units, and which end-to-end figure each layer should move.

Later changes cite these names.  ``BENCHMARK.json`` lists the same
metrics with their bounds; ``test_perfbench.py`` checks the two agree.
"""

#: Untraced run (``--trace 0``): what a user of the system pays, gated
#: by the bounds in ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": "s",                      # CPU s: spawn server -> callers looked up
    "round_trips_per_action": "count",   # client TrafficStats.requests
    "wire_bytes_per_action": "B",        # bytes up + down
    "server_peak_rss_mb": "MB",          # server VmHWM at the end
}

#: Untraced run, reported on the ``# detail`` line but not gated.  On a
#: shared 2-core VM, other tenants take 1-35% of the CPU (steal) and
#: this share drifts over minutes.  Wall-clock figures follow it, and so
#: does CPU time per action: a run at 30% steal cost up to 1.5 times the
#: CPU per action of one at 1%, and ten-seed medians of the same code
#: moved by up to 37% between two sets, beyond any bound a gate may use.
#: The detail line also carries ``setup_wall_s``, the wall time of set-up.
UNGATED = {
    "actions_per_s": "1/s",              # completed actions / window
    "latency_p50_ms": "ms",              # per-action wall time
    "latency_p99_ms": "ms",
    "server_cpu_ms_per_action": "ms",    # server user+sys CPU / actions
    "client_cpu_ms_per_action": "ms",    # load-generator CPU / actions
    "error_rate": "ratio",               # failed / attempted actions
}

FALLBACK_REASONS = (
    "policy", "unsafe_method", "single_chain", "session", "shape", "disabled",
)

#: Traced run (``--trace 1``): per action unless the unit says otherwise.
PER_LAYER = {
    "core.record_us": "us",
    "core.flush_self_us": "us",
    "plan.lift_us": "us",
    "plan.memo.invoke_ratio": "ratio",
    "rmi.call_self_us": "us",
    "rmi.retries": "count",
    "wire.client_encode_us": "us",
    "wire.client_decode_us": "us",
    "wire.server_decode_us": "us",
    "wire.server_encode_us": "us",
    "wire.bytes_up": "B",
    "wire.bytes_down": "B",
    "aio.request_us": "us",
    "aio.wait_us": "us",
    "aio.shed": "count",
    "rmi.handle_self_us": "us",
    "rmi.dedup_self_us": "us",
    "rmi.dedup.executed": "count",
    "rmi.dedup.replayed": "count",
    "core.exec_self_us": "us",
    "core.exec_us_per_op": "us",
    "core.ops_per_action": "count",
    "core.dag.analyze_us": "us",
    "core.dag.parallel_ratio": "ratio",
    **{f"core.dag.fallback.{reason}": "count" for reason in FALLBACK_REASONS},
    "plan.invoke_self_us": "us",
    "plan.install_self_us": "us",
    "plan.cache.hit_ratio": "ratio",
    "plan.cache.installs": "count",
    "plan.cache.evictions": "count",
    "apps.method_us": "us",
    "ledger.coverage": "ratio",
    "obs.trace_overhead_pct": "%",
}

#: Which end-to-end figures (gated or not) each layer metric should
#: move, and on which workloads: ``(layer metrics, figures, workloads,
#: note)``.  Later changes state their predictions in these terms.
LAYER_MAP = (
    (("core.exec_self_us", "core.exec_us_per_op", "core.ops_per_action",
      "core.dag.analyze_us"),
     ("server_cpu_ms_per_action", "latency_p50_ms", "actions_per_s"),
     ("bank-session",), "small on fanout-plans"),
    (("core.record_us", "core.flush_self_us", "rmi.call_self_us"),
     ("client_cpu_ms_per_action",), ("bank-session",), ""),
    (("plan.lift_us", "plan.memo.invoke_ratio", "plan.invoke_self_us",
      "plan.install_self_us", "plan.cache.hit_ratio", "plan.cache.installs",
      "plan.cache.evictions"),
     ("wire_bytes_per_action", "client_cpu_ms_per_action"),
     ("fanout-plans",), "zero elsewhere"),
    (("core.dag.parallel_ratio",)
     + tuple(f"core.dag.fallback.{r}" for r in FALLBACK_REASONS),
     ("latency_p50_ms", "actions_per_s"), ("fanout-plans",), ""),
    (("wire.client_encode_us", "wire.client_decode_us",
      "wire.server_decode_us", "wire.server_encode_us"),
     ("server_cpu_ms_per_action", "client_cpu_ms_per_action",
      "latency_p50_ms"), ("files-bulk",), ""),
    (("wire.bytes_up", "wire.bytes_down"),
     ("wire_bytes_per_action",),
     ("bank-session", "fanout-plans", "files-bulk"), ""),
    (("aio.request_us", "aio.wait_us", "aio.shed"),
     ("latency_p99_ms", "error_rate"), ("files-bulk",), "mostly"),
    (("rmi.dedup_self_us", "rmi.dedup.executed", "rmi.dedup.replayed",
      "rmi.retries"),
     ("server_cpu_ms_per_action", "error_rate"), ("bank-session",),
     "bank-session only"),
    (("rmi.handle_self_us",),
     ("server_cpu_ms_per_action",),
     ("bank-session", "fanout-plans", "files-bulk"), ""),
    (("apps.method_us",), (), (), "the floor: moves under no middleware change"),
    (("ledger.coverage", "obs.trace_overhead_pct"), (), (),
     "run-level: the ledger's own checks"),
)
