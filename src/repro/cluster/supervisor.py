"""Cluster deployment: one serve process per shard, one control plane.

Where :class:`repro.aio.supervisor.Supervisor` multiplies *acceptors* of
one logical server behind a shared ``SO_REUSEPORT`` port, the
:class:`ClusterSupervisor` stands up *shards*: N independent
``python -m repro.aio serve --shard i/N`` processes, each with its own
port, its own object table, and a registry guarded by the shared
:class:`~repro.cluster.shardmap.ShardMap` placement.  A
:class:`~repro.cluster.client.ClusterClient` pointed at
:attr:`~ClusterSupervisor.addresses` talks to all of them.

Both are the same :class:`~repro.aio.supervisor.ProcessGroup` with a
different per-child argv, so everything else is shared: the startup
handshake, the aggregated admin endpoint (``python -m repro.obs
top|health`` against a sharded cluster needs no new verbs), the TERM
drain, and the merge of per-shard metrics dumps into one cluster-wide
report (unreadable dumps counted under ``cluster.dump_errors``).
"""

from __future__ import annotations

import os

from repro.aio.supervisor import DEFAULT_START_TIMEOUT, ProcessGroup
from repro.cluster.shardmap import ShardMap


class ClusterSupervisor(ProcessGroup):
    """Spawn and manage the serve processes of an N-shard cluster.

    *shards* is the cluster size; the other parameters are
    :class:`~repro.aio.supervisor.ProcessGroup`'s, applied to every
    shard.
    """

    dump_counter = "cluster.dump_errors"

    def __init__(self, *, shards: int, transport: str = "aio",
                 host: str = "127.0.0.1", workers: int = 64,
                 queue_depth: int = 256, exec_workers: int = None,
                 metrics_dir=None,
                 start_timeout: float = DEFAULT_START_TIMEOUT,
                 admin: bool = False):
        if shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        self.shard_map = ShardMap(shards)
        super().__init__(
            shards, transport=transport, host=host, workers=workers,
            queue_depth=queue_depth, exec_workers=exec_workers,
            metrics_dir=metrics_dir, start_timeout=start_timeout,
            admin=admin,
        )

    @property
    def shards(self) -> int:
        return self._count

    @property
    def labels(self) -> tuple:
        return self.shard_map.labels

    def _child_argvs(self) -> list:
        return [
            ["--port", "0", "--shard", label, "--metrics-json",
             os.path.join(self._metrics_dir,
                          f"metrics-shard{index}-{{pid}}.json")]
            for index, label in enumerate(self.labels)
        ]

    def _health_extra(self) -> dict:
        return {"shards": self._count, "shards_alive": self._alive_count()}
