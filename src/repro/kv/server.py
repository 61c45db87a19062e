"""Disaggregated KV store: shard servers on the simulated fabric.

Each shard is an :class:`LsmEngine` behind an RPC endpoint.  Service times and
thread-pool limits are charged on the simulated clock, so the store has real
saturation behaviour — this is what lets KVFS "easily scale with
high-performance KV stores" (paper §4.2) while still having the backend
bandwidth ceilings the paper reports in Table 2.

Supported operations (request payload tuples):

``("get", key)``                       -> value bytes or None
``("put", key, value)``                -> "ok"
``("delete", key)``                    -> "ok"
``("scan", prefix, limit)``            -> list[(key, value)]
``("cas", key, expected, new)``        -> bool  (expected None = create-only)
``("batch", [ops...])``                -> "ok"  (atomic on this shard)
``("prepare", txid, [ops...])``        -> bool  (2PC phase 1: lock + stage)
``("commit", txid)``                   -> "ok"
``("abort", txid)``                    -> "ok"
``("ingest", [(key, value|None)...])`` -> "ok"  (migration bulk apply)

With ``kv_elastic`` on, clients wrap requests as ``("vr", version, op)``;
a server holding a newer ring answers ``("__stale_ring__", state)`` instead
of executing, and the client re-routes (see :mod:`repro.kv.ring`).

Mutating ops (``put``/``delete``/``cas``/``batch``/``ingest``) may carry a
trailing *idempotency token*: the server memoises the response per token, so
a retried or fabric-duplicated mutation applies exactly once.  ``prepare``
is naturally idempotent on its txid (a re-sent prepare for an already-staged
transaction acks instead of deadlocking on its own locks); ``commit`` and
``abort`` already pop-with-default.

A shard can :meth:`~KvShardServer.crash`: requests (and replies in flight)
vanish, the memtable is lost, staged 2PC state evaporates.
:meth:`~KvShardServer.restart` replays the engine WAL on one lane per
service thread, charging the longest lane's per-record cost on the simulated
clock before serving resumes.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..fault.idempotency import PENDING, IdempotencyFilter
from ..obsv.quantiles import NULL_HUB
from ..params import SystemParams
from ..sim.core import Environment, Event
from ..sim.network import Fabric, Message, RpcEndpoint
from ..sim.resources import Resource, TokenBucket
from .engine import LsmEngine
from .flash import FlashKvModel
from .ring import HashRing

__all__ = ["KvShardServer", "KvCluster", "STALE_RING"]

#: fixed per-message header bytes on the wire
MSG_OVERHEAD = 64

#: reply marker: the client's ring version is stale; payload carries the
#: authority ring state to install before re-routing
STALE_RING = "__stale_ring__"

#: base tuple arity of ops that may carry a trailing idempotency token
#: ("puth"/"cash" are the inline-hinted variants of put/cas)
_BASE_ARITY = {
    "put": 3,
    "puth": 3,
    "delete": 2,
    "cas": 4,
    "cash": 4,
    "batch": 2,
    "ingest": 2,
}


def _split_token(op: tuple) -> tuple[tuple, Optional[str]]:
    """Split ``op`` into (bare op, idempotency token or None)."""
    base = _BASE_ARITY.get(op[0])
    if base is not None and len(op) > base:
        return op[:base], op[base]
    return op, None


class KvShardServer:
    """One shard: an LSM engine served by a small thread pool."""

    #: quantile-sketch hook; builders replace this with a live SketchHub
    sketches = NULL_HUB

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        name: str,
        params: SystemParams,
        read_bw: Optional[TokenBucket] = None,
        write_bw: Optional[TokenBucket] = None,
        threads: Optional[int] = None,
        flash: Optional[FlashKvModel] = None,
        ring: Optional[HashRing] = None,
    ):
        if threads is None:
            threads = params.kv_server_threads
        self.env = env
        self.fabric = fabric
        self.name = name
        self.params = params
        self.engine = LsmEngine(memtable_limit_bytes=params.kv_memtable_bytes)
        self.endpoint: RpcEndpoint = fabric.attach(name, params.kv_server_bandwidth)
        self.threads = Resource(env, threads)
        self.read_bw = read_bw
        self.write_bw = write_bw
        #: flash device model (None: the historical fixed-cost service times)
        self.flash = flash
        #: shared authority ring when the store runs elastic (None: static)
        self.ring = ring
        # 2PC state: txid -> (ops, locked keys)
        self._staged: dict[str, list[tuple]] = {}
        self._locks: set[bytes] = set()
        #: per-key parked waiters, woken when the lock is released (replaces
        #: the historical 5 us busy-poll that charged phantom service time)
        self._lock_waiters: dict[bytes, list[Event]] = {}
        self._idem = IdempotencyFilter(
            params.kv_idem_capacity,
            ttl=params.kv_idem_ttl,
            now_fn=lambda: self.env.now,
        )
        # live-migration state (driven by the rebalancer)
        self._move_pred: Optional[Callable[[bytes], bool]] = None
        self._tap: Optional[dict[bytes, Optional[bytes]]] = None
        self._freeze_evt: Optional[Event] = None
        self.failed = False
        self.crashes = 0
        self.ops_served = 0
        self.stale_bounces = 0
        #: requests dropped unanswered because a tied-request cancel
        #: marked their rid abandoned before service
        self.cancel_drops = 0
        #: cumulative seconds requests spent queued for a service thread —
        #: the scale-out experiments read this to locate shard saturation
        self.queue_wait_total = 0.0
        # One process per request, so the thread pool, not the inbox, is
        # the concurrency limiter.
        self.endpoint.serve(self._handle, f"{name}-req")

    # -- fault hooks ----------------------------------------------------------
    def crash(self) -> None:
        """Go down hard: requests vanish, volatile state is lost.

        The memtable stays as-is until :meth:`restart` replays the WAL over
        it — nothing reads the engine while ``failed`` is set.  Staged 2PC
        transactions and their locks are volatile and evaporate (clients
        re-prepare on retry); parked lock waiters are woken so no request
        process is stranded on a lock that no longer exists.
        """
        self.failed = True
        self.crashes += 1
        self._staged.clear()
        self._locks.clear()
        for waiters in self._lock_waiters.values():
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()
        self._lock_waiters.clear()

    #: :class:`~repro.fault.FaultPlane` scripts call ``fail()`` when no
    #: reply-with-error hook exists; for a KV shard that is the same outage.
    fail = crash

    def restart(self) -> Generator[Event, None, int]:
        """Come back up: replay the WAL on every service thread, then serve.

        The engine splits the log into one lane per service thread (by key
        hash, log order kept within a lane) and the restart charges the
        longest lane at ``kv_wal_replay_per_entry`` per record.  The replay
        takes no pool slot: nothing is served while ``failed`` is set.
        Returns the total number of records replayed.
        """
        per_lane = self.engine.crash_recover(self.threads.capacity)
        if max(per_lane):
            yield self.env.timeout(max(per_lane) * self.params.kv_wal_replay_per_entry)
        self.failed = False
        return sum(per_lane)

    recover = restart

    # -- live migration hooks (rebalancer-driven) ------------------------------
    def begin_migration(self, pred: Callable[[bytes], bool]) -> None:
        """Start tapping mutations of the moving key range."""
        self._move_pred = pred
        self._tap = {}

    def freeze_migration(self) -> None:
        """Park further mutations of the moving range until cutover."""
        if self._freeze_evt is None:
            self._freeze_evt = self.env.event()

    def end_migration(self) -> None:
        """Cutover done: bounce parked writers (they re-route via the new
        ring) and stop tapping."""
        evt, self._freeze_evt = self._freeze_evt, None
        self._move_pred = None
        self._tap = None
        if evt is not None and not evt.triggered:
            evt.succeed()

    def take_tap(self) -> list[tuple[bytes, Optional[bytes]]]:
        """Drain the delta buffer (key -> latest value, None = delete)."""
        if not self._tap:
            return []
        items = sorted(self._tap.items())
        self._tap = {}
        return items

    def tap_bytes(self) -> int:
        if not self._tap:
            return 0
        return sum(
            len(k) + (len(v) if v is not None else 0) for k, v in self._tap.items()
        )

    def has_staged_moving(self) -> bool:
        """Any staged 2PC transaction touching the moving range?"""
        if self._move_pred is None:
            return False
        return any(
            self._move_pred(sub[1]) for ops in self._staged.values() for sub in ops
        )

    # -- request handling ----------------------------------------------------
    def _handle(self, msg: Message) -> Generator[Event, None, None]:
        if self.failed:
            return  # crashed: the request vanishes; only a timeout saves the caller
        if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
            # Tied-request loser, cancelled on the wire before admission:
            # drop it unanswered without ever taking a service thread.
            self.cancel_drops += 1
            return
        enq = self.env.now
        req = self.threads.request()
        yield req
        self.queue_wait_total += self.env.now - enq
        self.sketches.observe("kv.shard.wait", self.env.now - enq)
        try:
            if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
                # The cancel landed while this request was queued: free the
                # thread immediately instead of paying service time.
                self.cancel_drops += 1
                return
            payload = msg.payload
            stale = False
            version = None
            if payload[0] == "vr":
                version, payload = payload[1], payload[2]
                stale = self.ring is not None and version != self.ring.version
            if stale:
                # The client routed with an outdated ring: answer with the
                # authority state instead of executing against the wrong shard.
                self.stale_bounces += 1
                yield self.env.timeout(self.params.kv_meta_get_service)
                resp, resp_size = (STALE_RING, self.ring.state()), MSG_OVERHEAD
            else:
                op, token = _split_token(payload)
                seen, cached = self._idem.check(token)
                while seen and cached is PENDING:
                    # A same-token execution is in flight (fabric duplicate):
                    # park until its response is memoised, then replay it.
                    yield self.env.timeout(self.params.kv_meta_get_service)
                    seen, cached = self._idem.check(token)
                if seen:
                    # Duplicate / retried mutation: replay the memoised response
                    # at lookup cost instead of re-applying.
                    yield self.env.timeout(self.params.kv_meta_get_service)
                    resp, resp_size = cached
                else:
                    self._idem.put(token, PENDING)
                    resp, resp_size = yield from self._execute(op, version)
                    if type(resp) is tuple and resp[:1] == (STALE_RING,):
                        # A bounce is not a result: the re-routed retry carries
                        # the same token and must execute, not replay it.
                        self._idem.release(token)
                    else:
                        self._idem.put(token, (resp, resp_size))
        finally:
            self.threads.release(req)
        if self.failed:
            return  # crashed mid-service: the reply is lost with the node
        self.ops_served += 1
        yield from self.fabric.reply(msg, resp, resp_size)

    # -- operation execution ---------------------------------------------------
    def _stale_reply(self) -> tuple[Any, int]:
        self.stale_bounces += 1
        return (STALE_RING, self.ring.state()), MSG_OVERHEAD

    def _stale_now(self, version: Optional[int]) -> bool:
        """Re-check the client's ring version at apply time.

        The admission check in :meth:`_handle` runs before service time is
        charged; a cutover can complete while a mutation sleeps in its
        service yield, after which its keys may no longer belong here.  Any
        version-stamped mutation that outslept a ring bump is bounced
        instead of applied — the client re-routes under the new ring.
        """
        return (
            version is not None
            and self.ring is not None
            and version != self.ring.version
        )

    def _execute(
        self, op: tuple, version: Optional[int] = None
    ) -> Generator[Event, None, tuple[Any, int]]:
        p = self.params
        kind = op[0]
        # Hinted variants: the client declared this value an inline candidate
        # (attr/dentry/small-file shape).  Identical semantics; the flash
        # model inlines it even above the size-derived threshold.
        inline_hint = kind in ("puth", "cash")
        if inline_hint:
            kind = "put" if kind == "puth" else "cas"
            op = (kind,) + op[1:]
        if kind == "get":
            # Peek at the value to pick the service tier: small (metadata)
            # values sit in the store's cache tier; data blocks hit media.
            value = self.engine.get(op[1])
            small = value is None or len(value) < p.kv_meta_value_limit
            if self.flash is not None:
                yield from self.flash.charge_get(op[1], value)
            else:
                yield self.env.timeout(
                    p.kv_meta_get_service if small else p.kv_get_service
                )
            if value is not None and not small and self.read_bw is not None:
                yield self.read_bw.transfer(len(value))
            size = MSG_OVERHEAD + (len(value) if value is not None else 0)
            return value, size
        if kind == "put":
            small = len(op[2]) < p.kv_meta_value_limit
            if self.flash is None:
                yield self.env.timeout(
                    p.kv_meta_put_service if small else p.kv_put_service
                )
            if not small and self.write_bw is not None:
                yield self.write_bw.transfer(len(op[2]))
            yield from self._wait_unlocked(op[1])
            if (yield from self._migration_gate(op[1])):
                return self._stale_reply()
            if self.flash is not None:
                yield from self.flash.charge_put(op[1], op[2], hint=inline_hint)
            if self._stale_now(version):
                return self._stale_reply()
            self._apply_put(op[1], op[2])
            return "ok", MSG_OVERHEAD
        if kind == "delete":
            if self.flash is None:
                yield self.env.timeout(p.kv_put_service)
            yield from self._wait_unlocked(op[1])
            if (yield from self._migration_gate(op[1])):
                return self._stale_reply()
            if self.flash is not None:
                yield from self.flash.charge_delete(op[1])
            if self._stale_now(version):
                return self._stale_reply()
            self._apply_delete(op[1])
            return "ok", MSG_OVERHEAD
        if kind == "scan":
            _, prefix, limit = op
            items = self.engine.scan_prefix(prefix, limit)
            if self.flash is not None:
                yield from self.flash.charge_scan(items)
                yield self.env.timeout(p.kv_scan_service_per_item * len(items))
            else:
                yield self.env.timeout(
                    p.kv_get_service + p.kv_scan_service_per_item * len(items)
                )
            # Large scanned values pull from backend media like gets do.
            big = sum(len(v) for _, v in items if len(v) >= p.kv_meta_value_limit)
            if big and self.read_bw is not None:
                yield self.read_bw.transfer(big)
            size = MSG_OVERHEAD + sum(len(k) + len(v) for k, v in items)
            return items, size
        if kind == "cas":
            _, key, expected, new = op
            if self.flash is None:
                yield self.env.timeout(p.kv_put_service)
            yield from self._wait_unlocked(key)
            if (yield from self._migration_gate(key)):
                return self._stale_reply()
            current = self.engine.get(key)
            if self.flash is not None:
                yield from self.flash.charge_get(key, current)
            if current == expected:
                if new is None:
                    if self.flash is not None:
                        yield from self.flash.charge_delete(key)
                    if self._stale_now(version):
                        return self._stale_reply()
                    self._apply_delete(key)
                else:
                    if self.flash is not None:
                        yield from self.flash.charge_put(key, new, hint=inline_hint)
                    if self._stale_now(version):
                        return self._stale_reply()
                    self._apply_put(key, new)
                return True, MSG_OVERHEAD
            if self._stale_now(version):
                return self._stale_reply()
            return False, MSG_OVERHEAD
        if kind == "batch":
            _, ops = op
            yield self.env.timeout(p.kv_put_service + 0.2e-6 * len(ops))
            for sub in ops:
                yield from self._wait_unlocked(sub[1])
            if (yield from self._migration_gate(*[sub[1] for sub in ops])):
                return self._stale_reply()
            if self.flash is not None:
                yield from self._charge_flash_batch(ops)
            if self._stale_now(version):
                return self._stale_reply()
            self._apply_all(ops)
            return "ok", MSG_OVERHEAD
        if kind == "ingest":
            _, items = op
            nbytes = sum(
                len(k) + (len(v) if v is not None else 0) for k, v in items
            )
            yield self.env.timeout(
                p.kv_put_service + p.kv_scan_service_per_item * len(items)
            )
            if nbytes and self.write_bw is not None:
                yield self.write_bw.transfer(nbytes)
            if self.flash is not None:
                yield from self._charge_flash_batch(
                    [("put", k, v) if v is not None else ("delete", k) for k, v in items]
                )
            for k, v in items:
                if v is None:
                    self._apply_delete(k)
                else:
                    self._apply_put(k, v)
            return "ok", MSG_OVERHEAD
        if kind == "prepare":
            _, txid, ops = op
            yield self.env.timeout(p.kv_put_service)
            if self._stale_now(version):
                # A cutover completed while this prepare slept: its keys may
                # have moved, so staging them here would straddle ownership.
                return self._stale_reply()
            if txid in self._staged:
                return True, MSG_OVERHEAD  # retried prepare: already staged, ack
            keys = [sub[1] for sub in ops]
            if any(k in self._locks for k in keys):
                return False, MSG_OVERHEAD
            if self._move_pred is not None and any(self._move_pred(k) for k in keys):
                # Keys mid-migration: refuse so no staged write can straddle
                # the cutover (the client aborts and retries on the new ring).
                return False, MSG_OVERHEAD
            self._locks.update(keys)
            self._staged[txid] = ops
            return True, MSG_OVERHEAD
        if kind == "commit":
            _, txid = op
            yield self.env.timeout(p.kv_put_service)
            ops = self._staged.pop(txid, [])
            if self.flash is not None and ops:
                yield from self._charge_flash_batch(ops)
            self._apply_all(ops)
            self._release_locks([sub[1] for sub in ops])
            return "ok", MSG_OVERHEAD
        if kind == "abort":
            _, txid = op
            yield self.env.timeout(p.kv_get_service)
            ops = self._staged.pop(txid, [])
            self._release_locks([sub[1] for sub in ops])
            return "ok", MSG_OVERHEAD
        raise ValueError(f"unknown KV op {kind!r}")

    # -- locks ------------------------------------------------------------------
    def _wait_unlocked(self, key: bytes) -> Generator[Event, None, None]:
        """Park behind an in-flight transaction holding ``key``; the lock
        release (or a crash) wakes every parked waiter."""
        while key in self._locks:
            ev = self.env.event()
            self._lock_waiters.setdefault(key, []).append(ev)
            yield ev

    def _release_locks(self, keys: list[bytes]) -> None:
        for key in keys:
            self._locks.discard(key)
            for ev in self._lock_waiters.pop(key, []):
                if not ev.triggered:
                    ev.succeed()

    # -- migration gate ----------------------------------------------------------
    def _migration_gate(self, *keys: bytes) -> Generator[Event, None, bool]:
        """Before applying a mutation: park if its keys are in a frozen
        moving range.  Returns True when the mutation must be bounced with a
        stale-ring reply (cutover happened while parked)."""
        if (
            self._freeze_evt is not None
            and self._move_pred is not None
            and any(self._move_pred(k) for k in keys)
        ):
            yield self._freeze_evt
            return True
        return False

    # -- engine apply (tap-aware) --------------------------------------------------
    def _apply_put(self, key: bytes, value: bytes) -> None:
        self.engine.put(key, value)
        if self._tap is not None and self._move_pred is not None and self._move_pred(key):
            self._tap[key] = value

    def _apply_delete(self, key: bytes) -> None:
        self.engine.delete(key)
        if self._tap is not None and self._move_pred is not None and self._move_pred(key):
            self._tap[key] = None

    def _charge_flash_batch(self, ops: list[tuple]) -> Generator[Event, None, None]:
        for sub in ops:
            if sub[0] == "put":
                yield from self.flash.charge_put(sub[1], sub[2])
            else:
                yield from self.flash.charge_delete(sub[1])

    def _apply_all(self, ops: list[tuple]) -> None:
        for sub in ops:
            if sub[0] == "put":
                self._apply_put(sub[1], sub[2])
            elif sub[0] == "delete":
                self._apply_delete(sub[1])
            else:  # pragma: no cover - defensive
                raise ValueError(f"batch may contain put/delete only, got {sub[0]!r}")


class KvCluster:
    """The whole disaggregated store: N shards + shared backend bandwidth.

    With ``kv_flash_model`` each shard gets a :class:`FlashKvModel`; with
    ``kv_elastic`` the cluster owns the authority :class:`HashRing` shared
    by every shard (clients hold cloned replicas) and
    :meth:`add_shard_server` lets the rebalancer grow the store live.
    """

    def __init__(self, env: Environment, fabric: Fabric, params: SystemParams):
        self.env = env
        self.fabric = fabric
        self.params = params
        # Shared media bandwidth behind all shards (Table 2's ceiling).
        self.read_bw = TokenBucket(env, params.kv_backend_read_bw, "kv-read-bw")
        self.write_bw = TokenBucket(env, params.kv_backend_write_bw, "kv-write-bw")
        names = [f"kv{i}" for i in range(params.kv_shards)]
        self.ring: Optional[HashRing] = (
            HashRing(names, vnodes=params.kv_ring_vnodes) if params.kv_elastic else None
        )
        self.shards = [self._make_shard(name) for name in names]

    def _make_shard(self, name: str) -> KvShardServer:
        flash = (
            FlashKvModel(self.env, self.params, name=f"{name}.flash")
            if self.params.kv_flash_model
            else None
        )
        return KvShardServer(
            self.env,
            self.fabric,
            name,
            self.params,
            read_bw=self.read_bw,
            write_bw=self.write_bw,
            flash=flash,
            ring=self.ring,
        )

    def add_shard_server(self, name: str) -> KvShardServer:
        """Grow the store by one (empty) shard — rebalancer entry point.

        The new server shares the backend bandwidth buckets and the
        authority ring; the caller is responsible for placing it on the
        ring and migrating its key range.
        """
        shard = self._make_shard(name)
        self.shards.append(shard)
        return shard

    def shard_names(self) -> list[str]:
        return [s.name for s in self.shards]

    def total_ops(self) -> int:
        return sum(s.ops_served for s in self.shards)

    def total_queue_wait(self) -> float:
        """Aggregate seconds spent queued for shard threads across the store."""
        return sum(s.queue_wait_total for s in self.shards)
