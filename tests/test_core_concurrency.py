"""Concurrency rules (paper §4.5): one batch per stub; per-thread batches."""

import threading

from repro.core import create_batch
from repro.rmi import RMIClient

from tests.support import CounterImpl


class TestPerThreadBatches:
    def test_threads_with_own_clients_and_batches(self, network, server):
        """'client threads must obtain individual BRMI stubs' — with one
        client+batch per thread, all results are consistent."""
        impl = CounterImpl()
        server.bind("shared-counter", impl)
        errors = []
        totals = []
        lock = threading.Lock()

        def worker():
            try:
                client = RMIClient(network, "sim://server:1099")
                batch = create_batch(client.lookup("shared-counter"))
                futures = [batch.increment(1) for _ in range(10)]
                batch.flush()
                with lock:
                    totals.append(futures[-1].get())
                client.close()
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert impl.value == 40
        assert sorted(totals)[-1] == 40

    def test_sequential_batches_on_one_stub(self, env):
        """A new batch may wrap the same stub once the previous chain is
        flushed."""
        stub = env.client.lookup("counter")
        first = create_batch(stub)
        a = first.increment(1)
        first.flush()
        second = create_batch(stub)
        b = second.increment(1)
        second.flush()
        assert (a.get(), b.get()) == (1, 2)

    def test_interleaved_recorders_are_independent(self, env):
        """Two live batches over the same stub record independently (the
        paper requires separate stubs for *concurrent* recording; the
        failure mode it guards against is shared mutable recording
        state, which separate recorders avoid)."""
        stub = env.client.lookup("counter")
        first = create_batch(stub)
        second = create_batch(stub)
        fa = first.increment(10)
        fb = second.increment(100)
        second.flush()
        first.flush()
        assert fb.get() == 100
        assert fa.get() == 110  # flushed after: sees second's effect


class TestServerSideConcurrency:
    def test_batches_from_many_threads_keep_order(self, network, server):
        """Paper §4.5 promises order *within* a batch, not isolation
        between batches: concurrent batches may interleave on the
        server, but every op runs exactly once and each batch's ops run
        in the order they were recorded."""
        impl = CounterImpl()
        server.bind("audit-counter", impl)
        observed = []
        original = impl.increment

        def recording_increment(amount):
            result = original(amount)
            observed.append(amount)
            return result

        impl.increment = recording_increment
        # Distinct amounts per op: batch *tag* records tag*100 + 0..4.
        batches = [[tag * 100 + op for op in range(5)] for tag in (1, 2, 3)]

        def worker(amounts):
            client = RMIClient(network, "sim://server:1099")
            batch = create_batch(client.lookup("audit-counter"))
            for amount in amounts:
                batch.increment(amount)
            batch.flush()
            client.close()

        threads = [threading.Thread(target=worker, args=(amounts,))
                   for amounts in batches]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        every_op = [amount for amounts in batches for amount in amounts]
        assert sorted(observed) == sorted(every_op)  # each op exactly once
        for amounts in batches:
            assert [a for a in observed if a in amounts] == amounts
