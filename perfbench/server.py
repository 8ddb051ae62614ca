"""The benchmark's server process: one aio RMI server bound to one app.

Run by ``run.py``, never by hand::

    python perfbench/server.py [--traced]

Protocol on stdin/stdout, one line each way:

- the first stdin line is the workload's fixture (JSON, see
  ``workloads.py``); the server builds the app from it, binds it and
  prints ``ADDRESS tcp://127.0.0.1:<port>``;
- then commands, each answered by one line: ``counters`` (the server's
  own counters through ``repro.obs.bridge``, as JSON), and with
  ``--traced`` also ``trace on``, ``trace off`` and ``spans PATH``
  (write the recorded spans as JSON lines);
- end of stdin stops the server (graceful drain) and the process exits.

Without ``--traced`` the ledger module is not even imported: the
untraced run has no wrapper installed anywhere.
"""

from __future__ import annotations

import base64
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro.aio import AioNetwork, LoadTargetImpl  # noqa: E402
from repro.apps.bank import CreditManagerImpl, CreditCardImpl  # noqa: E402
from repro.apps.fileserver import FileNode, RemoteFileImpl  # noqa: E402
from repro.obs.bridge import bind_server  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.rmi import RMIServer  # noqa: E402


def build_app(fixture: dict):
    """(service name, bound object, app classes) for one fixture."""
    kind = fixture["app"]
    if kind == "bank":
        manager = CreditManagerImpl(default_limit=fixture["limit"])
        for customer in fixture["customers"]:
            manager.create_credit_account(customer)
        return "bank", manager, (CreditManagerImpl, CreditCardImpl)
    if kind == "load":
        return "load", LoadTargetImpl(), (LoadTargetImpl,)
    if kind == "files":
        root = FileNode("root", directory=True, mtime=fixture["mtime"])
        for entry in fixture["files"]:
            root.add(FileNode(
                entry["name"], contents=base64.b64decode(entry["data"]),
                mtime=entry["mtime"],
            ))
        return "files", RemoteFileImpl(root), (RemoteFileImpl,)
    raise SystemExit(f"unknown app {kind!r}")


def main(argv) -> int:
    traced = "--traced" in argv
    fixture = json.loads(sys.stdin.readline())
    name, app, app_classes = build_app(fixture)
    network = AioNetwork()
    server = RMIServer(network, "tcp://127.0.0.1:0")
    recorder = patches = None
    if traced:
        import ledger

        recorder = ledger.SpanRecorder()
        # The listener keeps the handler it is given at start(); route it
        # through the class so a wrapper installed later is seen.
        server.handle = lambda payload: type(server).handle(server, payload)
    server.start()
    server.bind(name, app)
    registry = MetricsRegistry()
    bind_server(registry, server)
    print(f"ADDRESS {server.address}", flush=True)
    try:
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command == ["counters"]:
                reply = dict(registry.collected())
                reply["wrappers"] = patches.installed if patches else 0
                print(json.dumps(reply), flush=True)
            elif traced and command == ["trace", "on"]:
                patches = ledger.install_server(recorder, app_classes)
                print("OK", flush=True)
            elif traced and command == ["trace", "off"]:
                recorder.active = False
                patches.uninstall()
                print("OK", flush=True)
            elif traced and command[0] == "spans" and len(command) == 2:
                print(f"OK {recorder.write_jsonl(command[1])}", flush=True)
            else:
                print(f"ERROR unknown command {line.strip()!r}", flush=True)
    finally:
        if patches is not None:
            recorder.active = False
            patches.uninstall()
        server.stop()
        network.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
