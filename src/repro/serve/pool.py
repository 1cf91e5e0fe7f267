"""Multi-process parallel serving over the shared mmap snapshot.

The PR 4 frontend multiplexes sessions on one interpreter thread, so
the GIL caps throughput no matter how many cores the box has.  This
module removes that ceiling: :class:`PoolFrontend` forks N worker
processes that each ``mmap`` the *same* snapshot file — the kernel
shares the physical pages, so N workers cost one copy of the data —
and serves every session quantum on a worker through the existing
``run_quantum`` / continuation-token protocol.

Division of labour:

- The **parent** keeps all serving *policy*: admission control,
  deadlines, retry/backoff, open-loop arrivals.  It routes each
  session's next quantum to a worker by **session affinity** (a
  consistent-hash ring over worker slots, so a session's plan cache
  stays warm on one worker) with **work stealing** when the affinity
  slot is overloaded this round.
- Each **worker** opens the snapshot with ``verify=False`` — the
  parent CRC-checked the payload once before spawning, and re-hashing
  79 MB per worker would serialise exactly the boot the mmap made
  O(1) — and executes quanta on a plain
  :class:`~repro.endpoint.local.LocalEndpoint`.

Because continuation tokens are self-contained and byte-stable across
stores (PR 5/6), any worker can resume any session's token: rebalanced
and crash-respawned sessions produce byte-identical pages, which the
tests assert.  Worker death is detected at the pipe (EOF) or by the
heartbeat; the slot is respawned and in-flight requests are re-issued
from their last token on another worker (``route="respawn_requeue"``).

Simulated-time accounting: each worker bills quanta on its own
:class:`~repro.endpoint.clock.SimClock`; the parent advances *its*
clock once per scheduler round by the **maximum** per-worker busy time
of that round — the honest cost of a round when workers run in
parallel — so wall latencies reflect N-way parallel capacity while
each session's ``billed_ms`` stays its own work only.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from collections import deque
from multiprocessing.connection import wait as mp_wait
from typing import Dict, List, Optional, Tuple

from ..endpoint.base import EndpointResponse
from ..endpoint.clock import SimClock
from ..endpoint.wire import TransientWireError
from ..obs.metrics import REGISTRY
from ..sparql.executor import (
    ExpiredTokenError,
    InvalidBudgetError,
    MalformedTokenError,
    TokenVersionError,
)
from ..sparql.results import SelectResult, term_from_json, term_to_json
from .breaker import CircuitOpenError
from .frontend import ServeConfig, ServeFrontend

__all__ = ["PoolFrontend", "WorkerError"]

_POOL_WORKERS = REGISTRY.gauge(
    "repro_pool_workers",
    "Worker processes currently alive in the serving pool",
)
_POOL_QUANTA = REGISTRY.counter(
    "repro_pool_quanta_total",
    "Quanta executed by pool workers, by worker slot",
    labelnames=("worker",),
)
_POOL_DISPATCHES = REGISTRY.counter(
    "repro_pool_dispatches_total",
    "Quantum dispatches, by routing decision",
    labelnames=("route",),
)
_DISPATCH_AFFINITY = _POOL_DISPATCHES.labels(route="affinity")
_DISPATCH_STEAL = _POOL_DISPATCHES.labels(route="steal")
_DISPATCH_REQUEUE = _POOL_DISPATCHES.labels(route="respawn_requeue")
_POOL_RESTARTS = REGISTRY.counter(
    "repro_pool_worker_restarts_total",
    "Worker processes respawned after a crash or failed health check",
)
_POOL_HEARTBEATS = REGISTRY.counter(
    "repro_pool_heartbeats_total",
    "Worker health checks, by result",
    labelnames=("result",),
)
_POOL_ROUND_BUSY_MS = REGISTRY.histogram(
    "repro_pool_round_busy_ms",
    "Per-round parallel cost: max per-worker busy simulated ms "
    "(what the parent clock advances by)",
)
_POOL_REQUEUED = REGISTRY.counter(
    "repro_pool_inflight_requeued_total",
    "In-flight quanta re-issued from their last token after the "
    "executing worker died",
)


class WorkerError(RuntimeError):
    """A pool worker failed in a way the retry ladder cannot absorb."""


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

#: Errors a worker tunnels to the parent by name, to be re-raised there
#: and folded through the frontend's one retry/restart policy path.
_TUNNELLED = {
    "TransientWireError": TransientWireError,
    "CircuitOpenError": CircuitOpenError,
    "MalformedTokenError": MalformedTokenError,
    "TokenVersionError": TokenVersionError,
    "ExpiredTokenError": ExpiredTokenError,
    "InvalidBudgetError": InvalidBudgetError,
}


def _worker_main(conn, snapshot_path: str, worker_id: int) -> None:
    """Entry point of one pool worker (top-level: spawn-safe).

    Opens the shared snapshot (``verify=False`` — the parent already
    CRC-checked it), builds a local endpoint, and answers a strict
    request/reply protocol on ``conn``: ``quantum``, ``ping``,
    ``metrics``, ``crash`` (test hook), ``shutdown``.
    """
    from ..rdf.snapshot import open_snapshot

    graph = open_snapshot(snapshot_path, verify=False)
    from ..endpoint.local import LocalEndpoint

    endpoint = LocalEndpoint(graph, clock=SimClock())
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            op = message[0]
            if op == "quantum":
                _, query_text, continuation, quantum_ms, page_size = message
                conn.send(
                    _run_worker_quantum(
                        endpoint, query_text, continuation,
                        quantum_ms, page_size,
                    )
                )
            elif op == "ping":
                conn.send(("pong", worker_id, graph.snapshot_stale()))
            elif op == "metrics":
                conn.send(("metrics", REGISTRY.export_state()))
            elif op == "crash":
                os._exit(1)
            elif op == "shutdown":
                conn.send(("bye",))
                break
            else:  # pragma: no cover - protocol misuse
                conn.send(("fatal", f"unknown op {op!r}"))
                break
    finally:
        graph.close()
        conn.close()


def _run_worker_quantum(
    endpoint, query_text, continuation, quantum_ms, page_size
) -> Tuple:
    try:
        response = endpoint.query(
            query_text,
            quantum_ms=quantum_ms,
            page_size=page_size,
            continuation=continuation,
        )
    except tuple(_TUNNELLED.values()) as error:
        extra = {}
        if isinstance(error, CircuitOpenError):
            extra["retry_after_ms"] = error.retry_after_ms
        return ("err", type(error).__name__, str(error), extra)
    except Exception as error:  # pragma: no cover - engine bug surface
        return ("fatal", f"{type(error).__name__}: {error}")
    # Rows cross the pipe as SPARQL-JSON term blobs — the exact codec
    # the wire uses, so parent-side pages are byte-identical to pages
    # served in-process.
    rows = [
        {name: term_to_json(value) for name, value in row.items()}
        for row in response.result.rows
    ]
    return (
        "ok",
        {
            "vars": list(response.result.vars),
            "rows": rows,
            "continuation": response.continuation,
            "complete": response.complete,
            "elapsed_ms": response.elapsed_ms,
            "source": response.source,
        },
    )


# ----------------------------------------------------------------------
# Parent-side pool management
# ----------------------------------------------------------------------


def _hash_point(value: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest(), "big"
    )


class _HashRing:
    """Consistent-hash ring over worker *slots* (stable across respawn:
    a crashed worker's replacement inherits its slot, so routing never
    churns on failures)."""

    def __init__(self, slots: int, virtual_nodes: int = 64):
        self._points: List[Tuple[int, int]] = sorted(
            (_hash_point(f"slot-{slot}:vnode-{vnode}"), slot)
            for slot in range(slots)
            for vnode in range(virtual_nodes)
        )

    def slot_for(self, key: str) -> int:
        point = _hash_point(key)
        lo, hi = 0, len(self._points)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._points[mid][0] < point:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self._points):
            lo = 0
        return self._points[lo][1]


class _Worker:
    """One slot's live process + control pipe, with restart bookkeeping."""

    __slots__ = ("slot", "process", "conn", "epoch", "quanta", "prev_metrics")

    def __init__(self, slot: int):
        self.slot = slot
        self.process = None
        self.conn = None
        self.epoch = 0
        self.quanta = _POOL_QUANTA.labels(worker=str(slot))
        self.prev_metrics: Optional[Dict] = None


class PoolFrontend(ServeFrontend):
    """A :class:`ServeFrontend` whose quanta execute on forked workers.

    All policy hooks (``_begin_turn`` / ``_apply``) are inherited — this
    class only overrides *where* a turn executes (``_run_round``) and
    adds worker lifecycle management.  Use as a context manager or call
    :meth:`close`; workers are daemonic either way.
    """

    def __init__(
        self,
        snapshot_path: str,
        workers: int = 2,
        clock: Optional[SimClock] = None,
        config: Optional[ServeConfig] = None,
        steal_threshold: int = 4,
        heartbeat_every: int = 16,
        verify: bool = True,
    ):
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        super().__init__(
            endpoint=None, clock=clock or SimClock(), config=config
        )
        self.snapshot_path = snapshot_path
        self.steal_threshold = steal_threshold
        self.heartbeat_every = heartbeat_every
        if verify:
            # Verify the CRC exactly once, in the parent; workers then
            # open with verify=False and share the already-validated
            # pages.
            from ..rdf.snapshot import open_snapshot

            open_snapshot(snapshot_path, verify=True).close()
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            self._ctx = multiprocessing.get_context("spawn")
        self._workers = [_Worker(slot) for slot in range(workers)]
        self._ring = _HashRing(workers)
        self._rounds = 0
        self._closed = False
        #: EWMA of observed quantum cost keyed by (query text, is the
        #: session's first quantum of that query) — the balancer's cost
        #: model.  First quanta of blocking plans (charts) bill orders
        #: of magnitude more than continuation quanta, so the two
        #: populations are tracked separately.
        self._quantum_cost: Dict[Tuple[str, bool], float] = {}
        for worker in self._workers:
            self._spawn(worker, restart=False)
        _POOL_WORKERS.set(self.alive_count())

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, worker: _Worker, restart: bool) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.snapshot_path, worker.slot),
            daemon=True,
            name=f"repro-pool-worker-{worker.slot}",
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.epoch += 1
        # A forked worker inherits the parent's registry values as its
        # starting point, and a respawn discards the dead predecessor's
        # baseline either way — so prime the delta baseline with the
        # fresh process's boot-time state.  collect_metrics then folds
        # in only what the worker did itself.
        worker.prev_metrics = None
        try:
            reply = self._rpc(worker, ("metrics",))
            if reply[0] == "metrics":
                worker.prev_metrics = reply[1]
        except WorkerError:  # pragma: no cover - died during boot
            pass
        if restart:
            _POOL_RESTARTS.inc()
        _POOL_WORKERS.set(self.alive_count())

    def _respawn(self, worker: _Worker) -> None:
        if worker.conn is not None:
            worker.conn.close()
        if worker.process is not None:
            worker.process.join(timeout=5)
        self._spawn(worker, restart=True)

    def alive_count(self) -> int:
        return sum(
            1
            for worker in self._workers
            if worker.process is not None and worker.process.is_alive()
        )

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("shutdown",))
                worker.conn.recv()
            except (OSError, EOFError, BrokenPipeError):
                pass
            worker.conn.close()
        for worker in self._workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5)
        _POOL_WORKERS.set(0)

    def __enter__(self) -> "PoolFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker RPC -----------------------------------------------------

    def _rpc(self, worker: _Worker, message: Tuple):
        """One request/reply exchange; raises WorkerError on death."""
        try:
            worker.conn.send(message)
            return worker.conn.recv()
        except (OSError, EOFError, BrokenPipeError) as error:
            raise WorkerError(
                f"worker slot {worker.slot} died mid-exchange"
            ) from error

    def crash_worker(self, slot: int) -> None:
        """Test hook: make one worker exit hard (as a real crash would)."""
        worker = self._workers[slot]
        try:
            worker.conn.send(("crash",))
        except (OSError, BrokenPipeError):
            pass
        worker.process.join(timeout=5)

    def heartbeat(self) -> Dict[int, str]:
        """Health-check every slot; dead workers are respawned.

        Returns slot -> "ok" | "stale" | "dead" (the *pre-respawn*
        state, so callers can see what the check found).
        """
        results: Dict[int, str] = {}
        for worker in self._workers:
            if not worker.process.is_alive():
                results[worker.slot] = "dead"
            else:
                try:
                    reply = self._rpc(worker, ("ping",))
                except WorkerError:
                    results[worker.slot] = "dead"
                else:
                    results[worker.slot] = (
                        "stale" if reply[2] else "ok"
                    )
            _POOL_HEARTBEATS.labels(result=results[worker.slot]).inc()
            if results[worker.slot] == "dead":
                self._respawn(worker)
        return results

    def collect_metrics(self) -> None:
        """Pull each worker's registry and fold the deltas into the
        parent's — ``repro metrics`` then reports fleet-wide numbers."""
        for worker in self._workers:
            try:
                reply = self._rpc(worker, ("metrics",))
            except WorkerError:
                self._respawn(worker)
                continue
            if reply[0] != "metrics":  # pragma: no cover - protocol skew
                continue
            state = reply[1]
            REGISTRY.merge_exported(state, worker.prev_metrics)
            worker.prev_metrics = state

    # -- routing --------------------------------------------------------

    def _route(self, key, loads: List[float], scale: float = 1.0) -> Tuple[int, str]:
        """Pick the slot for one dispatch: session affinity unless the
        affinity slot is ``steal_threshold`` quanta deeper than the
        shallowest queue this round, in which case the least-loaded slot
        steals.  ``loads`` may be quantum counts (``scale=1``) or
        predicted milliseconds with ``scale`` the typical per-quantum
        cost — the threshold is always in quanta-equivalents."""
        affinity = self._ring.slot_for(str(key))
        best = min(range(len(loads)), key=lambda slot: loads[slot])
        if loads[affinity] - loads[best] >= self.steal_threshold * scale:
            return best, "steal"
        return affinity, "affinity"

    # -- the round ------------------------------------------------------

    def _run_round(self) -> None:
        """One fair round, multiplexed: every runnable session is routed
        up front, then each worker is kept running exactly one quantum
        at a time while the parent collects whichever reply lands first
        (:func:`multiprocessing.connection.wait`).  One-in-flight per
        worker loses nothing — a worker executes serially regardless —
        and bounds what sits in each pipe, so a round's worth of large
        replies can never fill both directions of a pipe and deadlock
        the pair.  The round costs max-per-worker (parallel) instead of
        sum (serial) time."""
        self._rounds += 1
        if self.heartbeat_every and self._rounds % self.heartbeat_every == 0:
            self.heartbeat()
        entries = list(self.scheduler._sessions.items())
        quantum_ms = self.scheduler.quantum_ms
        page_size = self.scheduler.page_size
        dispatches = []
        for key, task in entries:
            page, query_text = self._begin_turn(task)
            if page is not None:
                if page.complete:
                    self.scheduler.cancel(key)
                continue
            predicted = self._quantum_cost.get(
                (query_text, task.continuation is None)
            )
            dispatches.append((key, task, query_text, predicted))
        known = sorted(
            entry[3] for entry in dispatches if entry[3] is not None
        )
        typical = known[len(known) // 2] if known else 1.0
        # Longest-predicted-first (LPT): place the expensive quanta
        # while queues are level and let the cheap ones fill the tail —
        # the round bills max-per-worker, so balance in *milliseconds*
        # is what shortens it.
        loads = [0.0] * len(self._workers)
        pending: List[deque] = [deque() for _ in self._workers]
        for key, task, query_text, predicted in sorted(
            dispatches,
            key=lambda entry: -(
                entry[3] if entry[3] is not None else typical
            ),
        ):
            cost = predicted if predicted is not None else typical
            slot, route = self._route(key, loads, typical)
            (_DISPATCH_STEAL if route == "steal" else _DISPATCH_AFFINITY).inc()
            loads[slot] += cost
            pending[slot].append((key, task, query_text, cost))
        busy = [0.0] * len(self._workers)
        outstanding: Dict[int, Tuple] = {}
        while outstanding or any(pending):
            for worker in self._workers:
                if worker.slot in outstanding:
                    continue
                queue = pending[worker.slot]
                source = worker.slot
                if not queue:
                    # Work stealing proper: a worker that drained its
                    # own queue takes the most expensive item still
                    # waiting on the most loaded peer instead of
                    # idling (queues are in descending predicted cost,
                    # so that is the victim's head).
                    source = max(
                        range(len(pending)), key=lambda s: loads[s]
                    )
                    queue = pending[source]
                    if not queue:
                        continue
                    _DISPATCH_STEAL.inc()
                key, task, query_text, cost = queue.popleft()
                loads[source] -= cost
                request = (
                    "quantum", query_text, task.continuation,
                    quantum_ms, page_size,
                )
                try:
                    worker.conn.send(request)
                except (OSError, BrokenPipeError):
                    # Crashed before it even took the request: respawn
                    # the slot and send to the fresh process (same slot
                    # — the ring stays stable).
                    self._respawn(worker)
                    worker.conn.send(request)
                outstanding[worker.slot] = (
                    key, task, query_text, worker.epoch,
                )
            by_conn = {
                worker.conn: worker
                for worker in self._workers
                if worker.slot in outstanding
            }
            for conn in mp_wait(list(by_conn)):
                worker = by_conn[conn]
                key, task, query_text, epoch = outstanding.pop(worker.slot)
                reply = self._collect(task, worker, epoch, query_text)
                page = self._fold(task, worker, reply, busy)
                if page.complete:
                    self.scheduler.cancel(key)
        round_ms = max(busy, default=0.0)
        if round_ms > 0.0:
            _POOL_ROUND_BUSY_MS.observe(round_ms)
            self.clock.advance(round_ms)

    def _collect(self, task, worker: _Worker, epoch: int, query_text: str):
        """Await one dispatched quantum, riding out worker death.

        If the worker died holding our request (or died before our
        request reached it — detectable because the slot's epoch moved
        on), the session is requeued *from its last token* on a live
        worker: the token is self-contained, so any worker resumes it
        byte-identically.
        """
        request = (
            "quantum", query_text, task.continuation,
            self.scheduler.quantum_ms, self.scheduler.page_size,
        )
        for _ in range(len(self._workers) + 1):
            if worker.epoch != epoch:
                # The process our request went to is gone; re-issue.
                _POOL_REQUEUED.inc()
                _DISPATCH_REQUEUE.inc()
                epoch = worker.epoch
                try:
                    worker.conn.send(request)
                except (OSError, BrokenPipeError):
                    self._respawn(worker)
                    continue
            try:
                return worker.conn.recv()
            except (EOFError, OSError):
                self._respawn(worker)
        raise WorkerError(
            f"worker slot {worker.slot} kept dying; giving up on "
            f"session {task.key!r}"
        )

    def _fold(self, task, worker: _Worker, reply, busy: List[float]):
        """Turn one worker reply into the session's next page via the
        shared :meth:`_apply` policy path."""
        kind = reply[0]
        if kind == "ok":
            payload = reply[1]
            worker.quanta.inc()
            busy[worker.slot] += payload["elapsed_ms"]
            cost_key = (
                task.queries[task.index], task.continuation is None,
            )
            prior = self._quantum_cost.get(cost_key)
            self._quantum_cost[cost_key] = (
                payload["elapsed_ms"]
                if prior is None
                else 0.7 * prior + 0.3 * payload["elapsed_ms"]
            )
            rows = [
                {
                    name: term_from_json(blob)
                    for name, blob in row.items()
                }
                for row in payload["rows"]
            ]
            response = EndpointResponse(
                result=SelectResult(payload["vars"], rows),
                elapsed_ms=payload["elapsed_ms"],
                source=payload["source"],
                query_text=None,
                continuation=payload["continuation"],
                complete=payload["complete"],
            )
            return self._apply(task, response=response)
        if kind == "err":
            _, name, message, extra = reply
            error_type = _TUNNELLED[name]
            if error_type is CircuitOpenError:
                error = CircuitOpenError(
                    message, retry_after_ms=extra.get("retry_after_ms", 0.0)
                )
            else:
                error = error_type(message)
            return self._apply(task, error=error)
        raise WorkerError(f"worker slot {worker.slot} failed: {reply[1]}")

    def run(self):
        """Drive every session to an outcome, then fold worker metrics
        into the parent registry."""
        try:
            return super().run()
        finally:
            if not self._closed:
                self.collect_metrics()
