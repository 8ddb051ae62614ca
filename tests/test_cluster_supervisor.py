"""The cluster deployment plane: ``ClusterSupervisor`` and its CLI.

A 2-shard group of ``python -m repro.aio serve --shard i/N`` processes:
addresses in shard order, each shard serving its homed load target,
the tolerant per-shard dump merge counted under ``cluster.dump_errors``,
and ``python -m repro.cluster serve`` draining on SIGTERM into one
merged ``--metrics-json`` or exiting 1 with ``SHARD_DIED`` when a shard
dies under it.  The last class pins the edges both process-group
flavours share: ``metrics_files()`` before ``start()`` and a malformed
``--admin-port`` on either CLI.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.aio import SERVICE_NAME, AioNetwork, Supervisor
from repro.cluster import ClusterClient, ShardMap
from repro.cluster.supervisor import ClusterSupervisor
from repro.core import create_batch
from repro.obs.metrics import MetricsRegistry
from repro.rmi import RMIClient

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _drive(addresses, *, calls=3):
    """Per shard: 1 lookup of its homed load target + *calls* one-call
    batches.  Returns the request count a merged registry must hold."""
    shard_map = ShardMap(len(addresses))
    network = AioNetwork()
    try:
        for index, address in enumerate(addresses):
            client = RMIClient(network, address)
            stub = client.lookup(shard_map.homed_name(SERVICE_NAME, index))
            for _ in range(calls):
                batch = create_batch(stub)
                future = batch.work(0.0)
                batch.flush()
                assert future.get() >= 1
            client.close()
    finally:
        network.close()
    return len(addresses) * (1 + calls)


@pytest.fixture(scope="module")
def cluster():
    supervisor = ClusterSupervisor(shards=2, workers=8, queue_depth=64)
    with supervisor:
        yield supervisor


class TestClusterSupervisor:
    def test_two_shards_distinct_addresses_in_shard_order(self, cluster):
        addresses = cluster.addresses
        assert len(addresses) == 2
        assert len(set(addresses)) == 2
        assert cluster.labels == ShardMap(2).labels == ("0/2", "1/2")
        assert cluster.shard_map.labels == cluster.labels
        assert len(cluster.pids) == 2
        assert cluster.alive()
        # Each connection reports the label of its position: the
        # address list is in shard order.
        network = AioNetwork()
        try:
            with ClusterClient(network, addresses) as client:
                client.verify_shards()
        finally:
            network.close()

    def test_each_shard_answers_its_homed_load_target(self, cluster):
        shard_map = cluster.shard_map
        network = AioNetwork()
        try:
            for index, address in enumerate(cluster.addresses):
                name = shard_map.homed_name(SERVICE_NAME, index)
                assert shard_map.index_of(name) == index
                client = RMIClient(network, address)
                stub = client.lookup(name)
                batch = create_batch(stub)
                future = batch.work(0.0)
                batch.flush()
                assert future.get() >= 1
                client.close()
        finally:
            network.close()

    def test_truncated_shard_dump_is_skipped_warned_and_counted(
            self, tmp_path, capsys):
        supervisor = ClusterSupervisor(
            shards=2, workers=8, queue_depth=64, metrics_dir=str(tmp_path)
        )
        with supervisor:
            expected = _drive(supervisor.addresses)
            # The wreckage of a shard killed mid-dump, planted beside
            # the real shards' files before the merge runs.
            (tmp_path / "metrics-shard9-99999.json").write_text(
                '{"counters": {"server.requ'
            )
            merged = supervisor.stop()
        snapshot = merged.snapshot()
        assert snapshot["server.requests"] == expected
        assert snapshot["procs.up"] == 2
        assert snapshot["cluster.dump_errors"] == 1
        assert "procs.dump_errors" not in snapshot
        assert supervisor.dump_errors == 1
        assert "metrics-shard9-99999.json" in capsys.readouterr().err


class TestClusterServeCLI:
    def _spawn(self, *extra):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster", "serve",
             "--shards", "2", "--workers", "8", "--queue-depth", "64",
             *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=_env(),
        )
        shards_line = proc.stdout.readline().strip()
        assert shards_line == "SHARDS 2", shards_line
        line = proc.stdout.readline().strip()
        assert line.startswith("ADDRESSES "), line
        return proc, line.split(" ", 1)[1].split(",")

    def test_sigterm_writes_the_merged_metrics_json(self, tmp_path):
        metrics = tmp_path / "merged.json"
        proc, addresses = self._spawn("--metrics-json", str(metrics))
        try:
            expected = _drive(addresses)
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, stdout
        assert f"METRICS_JSON {metrics}" in stdout.splitlines()
        assert "SHARD_DIED" not in stdout
        registry = MetricsRegistry()
        registry.merge(json.loads(metrics.read_text()))
        snapshot = registry.snapshot()
        assert snapshot["procs.up"] == 2
        assert snapshot["server.requests"] == expected

    def test_a_dead_shard_prints_shard_died_and_exits_1(self):
        from repro.obs.live import admin_request

        proc, addresses = self._spawn("--admin-port", "auto")
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("ADMIN "), line
            snapshot = admin_request(line.split(" ", 1)[1], "snapshot")
            pids = [shard["health"]["pid"] for shard in snapshot["shards"]]
            assert len(pids) == 2
            os.kill(pids[0], signal.SIGKILL)
            # wait(), not communicate(): closing stdin is itself a
            # clean stop request and would race the death check.
            proc.wait(timeout=60)
            stdout = proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 1, stdout
        assert stdout.splitlines()[-1] == "SHARD_DIED"


class TestProcessGroupEdges:
    @pytest.mark.parametrize("make", [
        lambda: Supervisor(procs=2),
        lambda: ClusterSupervisor(shards=2),
    ], ids=["procs", "cluster"])
    def test_metrics_files_before_start_is_empty(self, make):
        group = make()
        assert group.metrics_files() == []
        assert group.stop().snapshot() == {}
        assert group.metrics_files() == []

    @pytest.mark.parametrize("argv", [
        ["repro.aio", "serve", "--procs", "2"],
        ["repro.cluster", "serve", "--shards", "2"],
    ], ids=["procs", "cluster"])
    def test_bad_admin_port_exits_with_a_message(self, argv):
        result = subprocess.run(
            [sys.executable, "-m", *argv, "--admin-port", "abc"],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            env=_env(), timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.strip() == (
            "--admin-port wants a port number or 'auto', got 'abc'"
        )
