"""CLI entry points for the load harness.

Two subcommands, composable across processes so client and server don't
share a GIL:

``serve`` — stand up a load-target server and print its address::

    python -m repro.aio serve --transport aio --workers 64 --queue-depth 256

  The first stdout line is ``ADDRESS <tcp://...>``; the process serves
  until stdin reaches EOF **or a SIGTERM/SIGINT arrives** — either way
  it drains gracefully (in-flight requests finish) before printing a
  final ``METRICS <snapshot>`` line for the aio transport.

  ``--procs N`` (N > 1) switches to multi-core serving: a supervisor
  spawns N worker processes sharing the port via ``SO_REUSEPORT`` (one
  ``PROCS`` line reports the effective mode — platforms without the
  option fall back to a single acceptor).  On shutdown the supervisor
  forwards SIGTERM to the workers, reaps them, and merges their per-pid
  metrics dumps into ``--metrics-json``.

``load`` — drive an address with the multi-client harness::

    python -m repro.aio load --address tcp://127.0.0.1:5001 \
        --transport aio --clients 32 --streams 6 --duration 2 --delay 0.05

  Prints one JSON object (a :class:`~repro.aio.loadgen.LoadReport`).
  Omitting ``--address`` stands up an in-process server (same transport)
  for the run — handy for single-command smoke runs and for producing a
  *connected* client+server trace.  ``--procs N`` stands up a
  supervised N-process reuseport server instead and folds its merged
  server metrics into ``--metrics-json`` next to the client's.

  ``--admin-port PORT|auto`` (serve only) turns on the live
  introspection plane: a side-port admin endpoint
  (:mod:`repro.obs.live`) announced as a second stdout line ``ADMIN
  tcp://...``.  With ``--procs`` the supervisor aggregates every
  worker's endpoint behind one cluster address.  Poll either with
  ``python -m repro.obs top|health|snapshot``.

Observability (both subcommands): ``--trace FILE`` installs a tracer and
exports every recorded span to *FILE* as JSON lines when the run ends
(``--trace-sample`` sets the head-sampling rate); ``--metrics-json
FILE`` dumps a mergeable metrics-registry snapshot (a literal ``{pid}``
in *FILE* is replaced with the process id — how supervised workers get
per-pid files).  Inspect either with ``python -m repro.obs``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os

from repro.aio.loadgen import SERVICE_NAME, LoadTargetImpl, run_load
from repro.aio.network import AioNetwork
from repro.aio.supervisor import (
    Supervisor,
    parse_admin_port,
    serve_group,
    shutdown_event,
    wait_for_stop,
    write_metrics_json,
)
from repro.net.tcp import TcpNetwork
from repro.rmi import RMIServer


def _network(kind: str, args) -> object:
    reuse_port = getattr(args, "reuseport", False)
    if kind == "aio":
        return AioNetwork(
            max_workers=args.workers, queue_depth=args.queue_depth,
            reuse_port=reuse_port,
        )
    if kind == "tcp":
        return TcpNetwork(reuse_port=reuse_port)
    raise SystemExit(f"unknown transport {kind!r}; want aio or tcp")


def _tracer_for(args):
    """Install a tracer when ``--trace`` asks for one; returns it or None."""
    if not args.trace:
        return None
    from repro.obs import Tracer, install_tracer

    return install_tracer(Tracer(sample_rate=args.trace_sample))


def _finish_tracing(tracer, args) -> None:
    if tracer is None:
        return
    from repro.obs import uninstall_tracer

    uninstall_tracer()
    count = tracer.export_jsonl(args.trace)
    print(f"TRACE {args.trace} {count} spans", flush=True)


def _metrics_path(args) -> str:
    """The ``--metrics-json`` path with ``{pid}`` resolved (or None)."""
    if not args.metrics_json:
        return None
    return args.metrics_json.replace("{pid}", str(os.getpid()))


def _dump_metrics(registry, args) -> None:
    path = _metrics_path(args)
    if registry is not None and path is not None:
        write_metrics_json(registry, path)


def _registry_for(args):
    if not args.metrics_json:
        return None
    from repro.obs.metrics import MetricsRegistry

    return MetricsRegistry()


def _shard_identity(args):
    """``--shard i/N`` resolved to (label, shard_home) or (\"\", None).

    The returned *shard_home* is the cluster's stable name->label
    placement: the server stamps its label into every minted ref and
    its registry rejects binds/lookups of names homed elsewhere with a
    typed ``WrongShardError``.
    """
    label = getattr(args, "shard", None)
    if not label:
        return "", None
    from repro.cluster import ShardMap, parse_shard_label, shard_label

    try:
        index, shards = parse_shard_label(label)
    except ValueError as exc:
        raise SystemExit(f"--shard: {exc}")
    return shard_label(index, shards), ShardMap(shards).home_of


def _serve(args) -> int:
    if args.procs > 1:
        if getattr(args, "shard", None):
            raise SystemExit(
                "--shard and --procs are different planes: shards are "
                "spawned by python -m repro.cluster serve; --procs "
                "multiplies one shard's acceptors"
            )
        return _serve_procs(args)
    shard, shard_home = _shard_identity(args)
    admin_port = parse_admin_port(args.admin_port)
    tracer = _tracer_for(args)
    auto_tracer = None
    if admin_port is not None and tracer is None:
        # The flight recorder must be live even without --trace: a
        # rate-0 tracer creates spans (feeding in-flight/completed
        # rings and the slow log) but records none, so the sampled
        # export stays empty and the steady-state cost stays flat.
        from repro.obs import Tracer, install_tracer

        auto_tracer = install_tracer(Tracer(sample_rate=0.0))
    registry = _registry_for(args)
    if admin_port is not None and registry is None:
        # Live metrics need books regardless of any shutdown dump.
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    network = _network(args.transport, args)
    server = RMIServer(
        network, f"tcp://127.0.0.1:{args.port}",
        shard=shard, shard_home=shard_home,
        exec_workers=args.exec_workers,
    ).start()
    service_name = SERVICE_NAME
    if shard:
        # The home guard allows only names this shard owns; every shard
        # serves its own load-target instance under the canonical homed
        # name, which cluster clients derive the same way.
        from repro.cluster import ShardMap, parse_shard_label

        index, shards = parse_shard_label(shard)
        service_name = ShardMap(shards).homed_name(SERVICE_NAME, index)
    server.bind(service_name, LoadTargetImpl())
    if registry is not None:
        from repro.obs.bridge import bind_process, bind_server

        bind_server(registry, server)
        bind_process(registry)
    admin = None
    if admin_port is not None:
        from repro.obs.live import AdminServer, worker_commands

        def health():
            payload = {"ready": server.serving, "address": server.address,
                       "transport": args.transport}
            if shard:
                payload["shard"] = shard
            loop_thread = getattr(network, "_loop_thread", None)
            if loop_thread is not None:
                payload["loop_tasks"] = loop_thread.task_count()
            return payload

        admin = AdminServer(worker_commands(
            registry=registry, tracer=tracer or auto_tracer, health=health,
        ), port=admin_port)
    stop_event = shutdown_event()
    print(f"ADDRESS {server.address}", flush=True)
    if admin is not None:
        print(f"ADMIN {admin.address}", flush=True)
    wait_for_stop(stop_event)
    # Graceful drain first, books second: the final metrics dump must
    # account for every request the drain let finish.  The admin
    # endpoint outlives the drain (health reports ready=false during
    # it) and closes only after the final books are written.
    server.stop()
    metrics = server.metrics
    network.close()
    _dump_metrics(registry, args)
    if admin is not None:
        admin.close()
    if auto_tracer is not None:
        from repro.obs import uninstall_tracer

        uninstall_tracer()
    if metrics is not None:
        print(f"METRICS {metrics}", flush=True)
    _finish_tracing(tracer, args)
    return 0


def _serve_procs(args) -> int:
    if args.trace:
        raise SystemExit(
            "--trace is per-process; with --procs run workers directly "
            "(serve --reuseport --port N --trace FILE) to trace one"
        )
    admin_port = parse_admin_port(args.admin_port)
    supervisor = Supervisor(
        procs=args.procs, transport=args.transport, port=args.port,
        workers=args.workers, queue_depth=args.queue_depth,
        exec_workers=args.exec_workers,
        metrics_dir=args.procs_metrics_dir or None,
        admin=admin_port,
    ).start()
    lines = [f"ADDRESS {supervisor.address}"]
    if admin_port is not None:
        lines.append(f"ADMIN {supervisor.admin_address}")
    mode = "reuseport" if supervisor.reuseport else "single-acceptor"
    pids = ",".join(str(pid) for pid in supervisor.pids)
    lines.append(f"PROCS {supervisor.procs} mode={mode} pids={pids}")
    return serve_group(supervisor, lines, _metrics_path(args), "WORKER_DIED")


def _load(args) -> int:
    tracer = _tracer_for(args)
    registry = _registry_for(args)
    network = _network(args.transport, args)
    server = None
    supervisor = None
    address = args.address
    if address is None and args.procs > 1:
        supervisor = Supervisor(
            procs=args.procs, transport=args.transport,
            workers=args.workers, queue_depth=args.queue_depth,
        ).start()
        address = supervisor.address
    elif address is None:
        # In-process server: one command, one process, one connected
        # trace covering both halves of every exchange.
        server = RMIServer(network, "tcp://127.0.0.1:0").start()
        server.bind(SERVICE_NAME, LoadTargetImpl())
        address = server.address
        if registry is not None:
            from repro.obs.bridge import bind_server

            bind_server(registry, server)
    report = run_load(
        network, address,
        clients=args.clients, streams=args.streams,
        duration=args.duration, delay=args.delay, warmup=args.warmup,
        registry=registry,
    )
    if supervisor is not None:
        report = dataclasses.replace(report, procs=supervisor.procs)
        merged = supervisor.stop()
        if registry is not None:
            # One dump covering both sides: the supervisor's merged
            # server-side registries fold into the client's.
            registry.merge(merged.to_dict())
    _dump_metrics(registry, args)
    if server is not None:
        server.stop()
    network.close()
    print(json.dumps(report.as_dict()), flush=True)
    _finish_tracing(tracer, args)
    return 0


def _add_obs_flags(subparser) -> None:
    subparser.add_argument("--trace", default=None, metavar="FILE",
                           help="export a JSONL span trace to FILE")
    subparser.add_argument("--trace-sample", type=float, default=1.0,
                           help="head-sampling rate in [0, 1] (default 1)")
    subparser.add_argument("--metrics-json", default=None, metavar="FILE",
                           help="dump a mergeable metrics registry to FILE "
                                "({pid} in FILE expands to the process id)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.aio",
        description="load harness for the BRMI server runtimes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a load-target server")
    serve.add_argument("--transport", default="aio", choices=("aio", "tcp"))
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--workers", type=int, default=64)
    serve.add_argument("--queue-depth", type=int, default=256)
    serve.add_argument("--exec-workers", type=int, default=None,
                       metavar="N",
                       help="DAG-scheduler pool for parallel batch "
                            "execution: unset = shared default pool, "
                            "0 = serial only, N = private pool of N")
    serve.add_argument("--procs", type=int, default=1,
                       help="worker processes sharing the port via "
                            "SO_REUSEPORT (default 1: serve in-process)")
    serve.add_argument("--shard", default=None, metavar="i/N",
                       help="serve as shard i of an N-shard cluster: mint "
                            "shard-stamped refs, guard the registry with "
                            "the cluster placement, and bind the load "
                            "target under its shard-homed name")
    serve.add_argument("--reuseport", action="store_true",
                       help="join the port's reuseport listener group "
                            "(what supervised workers do)")
    serve.add_argument("--procs-metrics-dir", default=None, metavar="DIR",
                       help="keep per-pid worker metrics dumps in DIR "
                            "(default: a temp dir removed after the merge)")
    serve.add_argument("--admin-port", default=None, metavar="PORT",
                       help="serve the live admin endpoint on this side "
                            "port ('auto' picks an ephemeral one); the "
                            "second stdout line becomes ADMIN tcp://...")
    _add_obs_flags(serve)
    serve.set_defaults(func=_serve)

    load = sub.add_parser("load", help="drive a server with batch load")
    load.add_argument("--address", default=None,
                      help="server to drive (omit to serve in-process)")
    load.add_argument("--transport", default="aio", choices=("aio", "tcp"))
    load.add_argument("--workers", type=int, default=64,
                      help="(aio) pool size for the in-process server")
    load.add_argument("--queue-depth", type=int, default=256,
                      help="(aio) queue depth for the in-process server")
    load.add_argument("--procs", type=int, default=1,
                      help="with no --address: serve from this many "
                           "supervised reuseport worker processes")
    load.add_argument("--clients", type=int, default=8)
    load.add_argument("--streams", type=int, default=4)
    load.add_argument("--duration", type=float, default=2.0)
    load.add_argument("--delay", type=float, default=0.05)
    load.add_argument("--warmup", type=float, default=0.5)
    _add_obs_flags(load)
    load.set_defaults(func=_load)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
