"""The cluster-facing client: N shard connections behind one facade.

A :class:`ClusterClient` owns one RMI client per shard (built over a
shared network, or handed in pre-built — e.g. the ``.sync`` facades of
:class:`~repro.aio.AioRMIClient` connections) plus the
:class:`~repro.cluster.shardmap.ShardMap` that places names.  ``lookup``
routes to the owning shard, ``create_batch`` opens a scatter-gather
:class:`~repro.cluster.batch.ClusterBatch`, and every ref/stub that
enters the client is validated against the layout — a ref stamped with a
foreign shard label (or an endpoint the cluster does not serve) raises a
typed :class:`~repro.rmi.exceptions.WrongShardError` instead of being
dispatched to the wrong server.

Plan-cache entries are naturally per-shard: each shard connection keeps
its own :class:`~repro.plan.client.PlanMemo`, and every server its own
content-addressed cache, so a plan installs on first repeat *per shard*
and a hash never crosses shard boundaries.
"""

from __future__ import annotations

from repro.cluster.batch import ClusterBatch
from repro.cluster.shardmap import ShardMap, parse_shard_label, shard_label
from repro.rmi.client import RMIClient
from repro.rmi.exceptions import WrongShardError
from repro.rmi.protocol import REGISTRY_OBJECT_ID
from repro.rmi.stub import Stub


class ClusterClient:
    """One logical client over a sharded cluster."""

    def __init__(self, network=None, addresses=(), *, retry=None,
                 clients=None, concurrent_flush: bool = True):
        addresses = tuple(addresses)
        if not addresses:
            raise ValueError("a cluster needs at least one shard address")
        if clients is None:
            if network is None:
                raise ValueError("pass a network (or pre-built clients=)")
            clients = [
                RMIClient(network, address, retry=retry)
                for address in addresses
            ]
            self._own_clients = True
        else:
            clients = list(clients)
            if len(clients) != len(addresses):
                raise ValueError(
                    f"{len(clients)} clients for {len(addresses)} addresses"
                )
            self._own_clients = False
        self._clients = clients
        self._addresses = addresses
        self._shard_map = ShardMap(len(addresses))
        #: Whether scatter-gather flushes may run shards in parallel
        #: threads.  Turned off for the deterministic sim transports
        #: (virtual time is not thread-safe); on for real transports.
        self.concurrent_flush = concurrent_flush

    # -- layout ------------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        return self._shard_map

    @property
    def shards(self) -> int:
        return len(self._clients)

    @property
    def addresses(self):
        return self._addresses

    def label_for(self, index: int) -> str:
        return shard_label(index, len(self._clients))

    def client_for(self, index: int):
        return self._clients[index]

    def shard_index_of(self, ref_or_stub) -> int:
        """Which shard owns this ref/stub; raise on a misrouted one."""
        ref = (ref_or_stub.remote_ref
               if isinstance(ref_or_stub, Stub) else ref_or_stub)
        if ref.shard:
            index, shards = parse_shard_label(ref.shard)
            if shards != len(self._clients):
                raise WrongShardError(
                    repr(ref), f"cluster of {len(self._clients)}", ref.shard
                )
            if ref.endpoint != self._addresses[index]:
                raise WrongShardError(
                    repr(ref), self._endpoint_label(ref.endpoint), ref.shard
                )
            return index
        try:
            return self._addresses.index(ref.endpoint)
        except ValueError:
            raise WrongShardError(
                repr(ref), "outside this cluster", "one of its shards"
            ) from None

    def _endpoint_label(self, endpoint: str) -> str:
        try:
            return self.label_for(self._addresses.index(endpoint))
        except ValueError:
            return "outside this cluster"

    # -- naming ------------------------------------------------------------

    def lookup(self, name: str) -> Stub:
        """Resolve *name* on its home shard (placement via the ShardMap)."""
        return self._clients[self._shard_map.index_of(name)].lookup(name)

    def bind(self, name: str, stub_or_obj) -> None:
        """Bind *name* on its home shard."""
        self._clients[self._shard_map.index_of(name)].bind(name, stub_or_obj)

    def verify_shards(self) -> None:
        """Ask every shard for its placement label and cross-check.

        A connection wired to the wrong server — shard i answering with
        a different label, or not part of an N-shard cluster at all —
        raises :class:`WrongShardError` before any real traffic flows.
        """
        for index, client in enumerate(self._clients):
            expected = self.label_for(index)
            reported = client.call(REGISTRY_OBJECT_ID, "shard_info", ())
            if reported != expected:
                raise WrongShardError(
                    f"shard connection {client.address!r}",
                    reported, expected,
                )

    # -- batching ----------------------------------------------------------

    def create_batch(self, policy=None,
                     reuse_plans: bool = True) -> ClusterBatch:
        """Open a scatter-gather batch across this cluster's shards."""
        return ClusterBatch(self, policy=policy, reuse_plans=reuse_plans)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._own_clients:
            for client in self._clients:
                client.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
