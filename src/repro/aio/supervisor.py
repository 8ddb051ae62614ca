"""Multi-process serving: one supervised group of serve processes.

One Python process — however pipelined — tops out at one core: the
benchmarks are delay/GIL-bound on a single event loop.  A
:class:`ProcessGroup` forks the serving plane across processes instead.
Every child is an ordinary ``python -m repro.aio serve`` process running
the unchanged aio runtime (worker pool, admission control, plan cache,
dedup window); the group differs only in each child's argv.  Two argv
shapes use it:

- :class:`Supervisor` (``serve --procs N``) — N *acceptors* of one
  logical server: it **reserves a port** with a bound-but-not-listening
  ``SO_REUSEPORT`` placeholder socket (a non-listening member of a
  reuseport group never receives SYNs, so it holds the port against
  unrelated binders without stealing connections) and spawns N workers
  that join the listener group with ``--reuseport``; the kernel
  load-balances incoming *connections* across the group.
- :class:`repro.cluster.supervisor.ClusterSupervisor` (``python -m
  repro.cluster serve``) — N *shards*, one ``--shard i/N`` process per
  shard, each on its own port.

Written once for both: spawning, reading each child's ``ADDRESS`` (and
``ADMIN``) startup line under a timeout, the aggregated admin endpoint
(:func:`repro.obs.live.cluster_commands`), and :meth:`~ProcessGroup.stop`
— TERM every child so it **drains** (finishes its in-flight requests,
dumps its per-process :class:`~repro.obs.metrics.MetricsRegistry` to a
per-pid JSON file, and exits), kill what outlives the timeout, then
**merge** the per-pid dumps through the registry's cross-process merge
semantics into one report.  The serve-until-stopped CLI plumbing both
``serve`` commands share lives here too (:func:`shutdown_event`,
:func:`serve_group`).

**Sharding semantics.**  Reuseport workers share nothing but the port.
Each has its own plan cache and its own dedup window, scoped per
process: a ``call_id`` retry that reconnects and lands on a *different*
shard will not find the token recorded there and re-executes.  That is
safe — the request is idempotency-tokened and exactly-once still holds
*per worker* — but callers must not assume global exactly-once across
shards (see DESIGN.md, and ``tests/test_chaos_procs.py`` which pins
the tolerated behavior).  Plan installs likewise repeat per shard: a
plan that is hot on one worker is a cache miss on another until that
worker sees its install.

**Platform fallback.**  Where ``SO_REUSEPORT`` does not exist (exotic
platforms; see :data:`repro.net.tcp.HAS_REUSEPORT`) the supervisor
degrades to a documented *single-acceptor* mode: one worker owns the
listening socket outright and ``procs`` is forced to 1, keeping the CLI
and metrics plumbing identical so callers need no platform branches.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading

from repro.aio.listener import DEFAULT_MAX_WORKERS, DEFAULT_QUEUE_DEPTH
from repro.net.tcp import HAS_REUSEPORT, reserve_reuseport

#: Seconds stop() gives each child to drain before escalating to kill.
DEFAULT_STOP_TIMEOUT = 30.0

#: Seconds start() waits for each child to report its address.
DEFAULT_START_TIMEOUT = 30.0


class SupervisorError(RuntimeError):
    """A child failed to start, or died while being supervised."""


class ProcessGroup:
    """Spawn, watch, drain and merge a group of ``repro.aio serve``
    children.

    Subclasses supply each child's argv (:meth:`_child_argvs`) and the
    extra health keys of the aggregated admin endpoint
    (:meth:`_health_extra`), and name the counter that tallies
    unreadable dumps (:attr:`dump_counter`).  *transport*, *workers*
    (pool size **per process**) and *queue_depth* (per process)
    configure every child like ``python -m repro.aio serve``.
    *metrics_dir* is where per-pid registry dumps land (a temp dir by
    default, removed after the merge).  *admin* turns on the live
    introspection plane (:mod:`repro.obs.live`): each child serves its
    own admin endpoint, the group learns the addresses
    (:attr:`admin_addresses`) and serves a cluster aggregation at
    :attr:`admin_address` — ``True`` for an ephemeral port, an int for a
    fixed one, ``False``/``None`` for none.
    """

    #: Counter the merge bumps once per unreadable per-child dump.
    dump_counter = "procs.dump_errors"

    def __init__(self, count: int, *, transport: str, host: str,
                 workers: int, queue_depth: int, exec_workers,
                 metrics_dir, start_timeout: float, admin):
        self._count = count
        self._host = host
        self._start_timeout = start_timeout
        self._metrics_dir = metrics_dir
        self._own_metrics_dir = metrics_dir is None
        # A socket held for the group's lifetime (the reuseport port
        # reservation); closed on release.
        self._placeholder = None
        self._children = []
        self._addresses = []
        self._merged = None
        self._lock = threading.Lock()
        self._stopped = False
        self._admin_on = admin is not False and admin is not None
        self._admin_port = 0 if admin is True else (admin or 0)
        self._admin_server = None
        self._admin_addresses = []
        self._dump_errors = 0
        # The argv every child shares, ahead of its own _child_argvs().
        self._serve_argv = [
            sys.executable, "-m", "repro.aio", "serve",
            "--transport", transport,
            "--workers", str(workers),
            "--queue-depth", str(queue_depth),
        ]
        if exec_workers is not None:
            self._serve_argv += ["--exec-workers", str(exec_workers)]
        if self._admin_on:
            # Children always take ephemeral admin ports; any requested
            # port belongs to the group's aggregation endpoint.
            self._serve_argv += ["--admin-port", "0"]

    # -- introspection ---------------------------------------------------

    @property
    def addresses(self) -> tuple:
        """Every child's ``tcp://...`` address, in spawn order."""
        if not self._addresses:
            raise RuntimeError("supervisor is not started")
        return tuple(self._addresses)

    @property
    def pids(self) -> tuple:
        return tuple(child.pid for child in self._children)

    @property
    def admin_addresses(self) -> tuple:
        """Each child's admin-endpoint address (admin mode only)."""
        return tuple(self._admin_addresses)

    @property
    def admin_address(self) -> str:
        """The group's own cluster-aggregation admin endpoint."""
        if self._admin_server is None:
            raise RuntimeError("supervisor has no admin endpoint "
                               "(pass admin=True)")
        return self._admin_server.address

    @property
    def dump_errors(self) -> int:
        """Per-child metrics dumps that could not be merged on stop."""
        return self._dump_errors

    def alive(self) -> bool:
        """True while every child is still running."""
        return bool(self._children) and self._alive_count() == len(
            self._children
        )

    def _alive_count(self) -> int:
        return sum(1 for child in self._children if child.poll() is None)

    # -- hooks -----------------------------------------------------------

    def _child_argvs(self) -> list:
        """One ``serve`` argv tail per child (called once, by start)."""
        raise NotImplementedError

    def _health_extra(self) -> dict:
        """Extra keys for the aggregated admin endpoint's health."""
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------

    def start(self):
        """Spawn every child and wait for each to report its address."""
        if self._children:
            raise RuntimeError("supervisor already started")
        if self._metrics_dir is None:
            self._metrics_dir = tempfile.mkdtemp(prefix="repro-procs-")
        self._metrics_dir = str(self._metrics_dir)
        try:
            for argv in self._child_argvs():
                self._children.append(self._spawn(argv))
            self._addresses = [self._read_line(child, "ADDRESS")
                               for child in self._children]
            if self._admin_on:
                self._admin_addresses = [self._read_line(child, "ADMIN")
                                         for child in self._children]
                self._start_admin()
        except Exception:
            self._kill_all()
            self._release()
            raise
        return self

    def _start_admin(self) -> None:
        from repro.obs.live import AdminServer, cluster_commands

        self._admin_server = AdminServer(cluster_commands(
            lambda: list(self._admin_addresses), health=self._health_extra,
        ), host=self._host, port=self._admin_port)

    def _spawn(self, argv: list) -> subprocess.Popen:
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parent.parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [*self._serve_argv, *argv], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env,
        )

    def _read_line(self, child: subprocess.Popen, tag: str) -> str:
        """Read one ``TAG value`` stdout line from a starting child
        (``ADDRESS`` first; ``ADMIN`` next when the admin plane is on)."""
        timer = threading.Timer(self._start_timeout, child.kill)
        timer.start()
        try:
            line = child.stdout.readline().strip()
        finally:
            timer.cancel()
        if not line.startswith(tag + " "):
            raise SupervisorError(
                f"child pid={child.pid} failed to start "
                f"(said {line!r} instead of a {tag} line)"
            )
        return line.split(" ", 1)[1]

    def stop(self, timeout: float = DEFAULT_STOP_TIMEOUT):
        """Drain the group: TERM every child, reap, merge their metrics.

        Returns the merged :class:`~repro.obs.metrics.MetricsRegistry`
        (idempotent — repeated calls return the same merge).  Children
        that outlive *timeout* are killed; their metrics dump (written
        only on a graceful exit) is then simply absent from the merge.
        """
        with self._lock:
            if self._stopped:
                return self._merged
            self._stopped = True
        if self._admin_server is not None:
            # Stop aggregating before the shards go away: a poll racing
            # the drain would count its dead shards as errors.
            self._admin_server.close()
            self._admin_server = None
        for child in self._children:
            if child.poll() is None:
                try:
                    child.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        for child in self._children:
            try:
                child.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate(timeout=10.0)
        self._merged = self._merge_metrics()
        self._release()
        return self._merged

    def _merge_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        merged = MetricsRegistry()
        for path in self.metrics_files():
            # A child killed mid-dump leaves a truncated file; a child
            # with a naming bug leaves a kind-conflicting one.  Validate
            # each dump on a scratch registry first (merge is not
            # atomic), and never let one bad file lose the other
            # shards' books — skip it, warn, and count it.
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    dump = json.load(fh)
                MetricsRegistry.from_dict(dump)
            except (ValueError, OSError) as exc:
                self._dump_errors += 1
                print(f"WARNING: skipping unreadable metrics dump "
                      f"{os.path.basename(path)}: {exc}",
                      file=sys.stderr, flush=True)
                continue
            merged.merge(dump)
        if self._dump_errors:
            merged.counter(self.dump_counter).inc(self._dump_errors)
        return merged

    def metrics_files(self) -> list:
        """The per-pid dump paths currently on disk (for inspection or
        ``python -m repro.obs metrics``); empty before :meth:`start`."""
        if self._metrics_dir is None:
            return []
        return sorted(
            str(p) for p in pathlib.Path(self._metrics_dir).glob(
                "metrics-*.json"
            )
        )

    def _kill_all(self) -> None:
        for child in self._children:
            if child.poll() is None:
                child.kill()
        for child in self._children:
            try:
                child.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass

    def _release(self) -> None:
        if self._admin_server is not None:
            self._admin_server.close()
            self._admin_server = None
        if self._placeholder is not None:
            try:
                self._placeholder.close()
            except OSError:
                pass
            self._placeholder = None
        if self._own_metrics_dir and self._metrics_dir is not None:
            import shutil

            shutil.rmtree(self._metrics_dir, ignore_errors=True)

    def __enter__(self):
        return self.start() if not self._children else self

    def __exit__(self, *exc_info):
        self.stop()
        return False


class Supervisor(ProcessGroup):
    """A reuseport group of serve workers behind one shared port.

    *procs* is the requested worker count; :attr:`procs` reports the
    effective one (1 in single-acceptor fallback).  *host*/*port* pick
    the shared address (port 0 reserves an ephemeral one).
    *force_single_acceptor* opts into the no-reuseport fallback even
    where the option exists (tests).  The other parameters are
    :class:`ProcessGroup`'s.
    """

    def __init__(self, *, procs: int, transport: str = "aio",
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = DEFAULT_MAX_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 exec_workers: int = None,
                 metrics_dir=None, start_timeout: float = DEFAULT_START_TIMEOUT,
                 force_single_acceptor: bool = False, admin: bool = False):
        if procs < 1:
            raise ValueError(f"procs must be >= 1: {procs}")
        self._port = port
        self._reuseport = HAS_REUSEPORT and not force_single_acceptor
        super().__init__(
            procs if self._reuseport else 1, transport=transport,
            host=host, workers=workers, queue_depth=queue_depth,
            exec_workers=exec_workers, metrics_dir=metrics_dir,
            start_timeout=start_timeout, admin=admin,
        )

    @property
    def address(self) -> str:
        """The shared ``tcp://host:port`` address (after :meth:`start`).

        In fallback mode (or port 0 without reuseport) the single worker
        resolved the real port; this is whatever it bound.
        """
        return self.addresses[0]

    @property
    def procs(self) -> int:
        """Effective worker count (1 in single-acceptor fallback)."""
        return self._count

    @property
    def reuseport(self) -> bool:
        """Whether the group actually shards the port across processes."""
        return self._reuseport

    def _child_argvs(self) -> list:
        port, argv = self._port, []
        if self._reuseport:
            # The placeholder stays bound (not listening) for the whole
            # run: it pins the port for late (re)joiners without ever
            # receiving a connection itself.
            self._placeholder, port = reserve_reuseport(self._host, port)
            argv.append("--reuseport")
        argv += ["--port", str(port), "--metrics-json",
                 os.path.join(self._metrics_dir, "metrics-{pid}.json")]
        return [argv] * self._count

    def _health_extra(self) -> dict:
        return {"workers_alive": self._alive_count()}


# -- serve-until-stopped CLI plumbing -----------------------------------


def parse_admin_port(value):
    """``--admin-port`` resolved: None when off, 0 for ``auto``."""
    if value is None:
        return None
    if value == "auto":
        return 0
    try:
        return int(value)
    except ValueError:
        raise SystemExit(f"--admin-port wants a port number or 'auto', "
                         f"got {value!r}")


def _install_shutdown_signals(stop_event: threading.Event) -> None:
    """Route SIGTERM/SIGINT into a graceful drain.

    Without this, a TERM kills the event loop mid-request; with it, the
    serve loop wakes, calls the server's draining ``stop()``, and dumps
    its metrics before exiting.  Best-effort: off the main thread (or on
    platforms without the signal) the stdin-EOF path still works.
    """

    def request_stop(signum, frame):
        stop_event.set()

    for name in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, name, None)
        if signum is None:
            continue
        try:
            signal.signal(signum, request_stop)
        except (ValueError, OSError):
            pass  # not the main thread / unsupported platform


def _watch_stdin(stop_event: threading.Event) -> None:
    """Set *stop_event* when stdin reaches EOF (the legacy stop path)."""

    def drain():
        try:
            sys.stdin.read()
        except Exception:  # noqa: BLE001 - any stdin failure means "stop"
            pass
        stop_event.set()

    threading.Thread(target=drain, name="serve-stdin-eof",
                     daemon=True).start()


def shutdown_event() -> threading.Event:
    """An event that SIGTERM, SIGINT or stdin EOF sets."""
    stop_event = threading.Event()
    _install_shutdown_signals(stop_event)
    _watch_stdin(stop_event)
    return stop_event


def wait_for_stop(stop_event: threading.Event, alive=None) -> bool:
    """Block until a stop is requested; False if *alive* failed first."""
    while not stop_event.wait(0.2):
        if alive is not None and not alive():
            return False
    return True


def write_metrics_json(registry, path: str) -> None:
    """Dump *registry* to *path* and announce it on stdout."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(registry.to_dict(), fh, sort_keys=True)
    print(f"METRICS_JSON {path}", flush=True)


def serve_group(group: ProcessGroup, lines, metrics_path, died: str) -> int:
    """Serve a started *group* from a CLI until asked to stop.

    Prints *lines* (the deployment announcement), waits for a stop
    request or a child's death, drains the group, writes the merged
    registry to *metrics_path* (when set), and returns the exit code: 0,
    or 1 after printing *died* when a child died unasked.
    """
    stop_event = shutdown_event()
    for line in lines:
        print(line, flush=True)
    clean = wait_for_stop(stop_event, alive=group.alive)
    merged = group.stop()
    if metrics_path:
        write_metrics_json(merged, metrics_path)
    if not clean:
        print(died, flush=True)
        return 1
    return 0
