"""Elastic rebalancer: queue-wait-driven shard splits + live migration.

The scale-out sweeps showed the KV store is the first wall at 8 hosts:
per-shard thread queues build on the hottest shards while cold shards idle.
The rebalancer watches exactly that signal — each shard's
``queue_wait_total`` delta per observation interval — and when the hottest
shard's wait runs ``kv_rebalance_threshold`` seconds past the cross-shard
mean, it splits that shard:

1. **place** — clone the authority ring, add a new shard stealing the
   midpoints of the victim's largest arcs.  The moving key range is now a
   pure function of the candidate ring (``lookup(route(key)) == new``).
2. **tap** — the source shard starts recording every mutation of the
   moving range (latest value per key) while continuing to serve it.
3. **stream** — an atomic engine snapshot of the moving range is chunked
   and pushed to the new shard over the fabric at ``kv_migrate_bw``, each
   chunk stamped with an idempotency token and retried under a deadline —
   a destination crash mid-stream is re-driven to exactly-once by the
   server's WAL replay + token memoisation.
4. **drain + freeze** — tapped deltas are streamed until the residue fits
   one chunk; then the source *freezes* the moving range (writers park),
   the residue is drained, and
5. **cutover** — the candidate ring is installed into the authority ring
   (version bump).  Parked writers bounce with a stale-ring reply and
   re-route to the new shard; the source purges the moved range from every
   LSM level (no tombstones — the range no longer routes there).

2PC interplay: from tap-start the source refuses *new* prepares touching
the moving range (clients abort and retry against the post-cutover ring),
and the freeze waits for already-staged moving transactions to resolve —
so no staged write can straddle the cutover.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..fault.requests import RequestEngine
from ..fault.retry import RetryPolicy
from ..params import SystemParams
from ..sim.core import Environment, Event
from ..sim.network import Fabric
from .server import MSG_OVERHEAD, KvCluster, KvShardServer

__all__ = ["Rebalancer", "MigrationRecord"]


class MigrationRecord:
    """One completed split, for tests and the experiment tables."""

    __slots__ = ("at", "src", "dst", "keys", "bytes", "chunks", "duration")

    def __init__(self, at: float, src: str, dst: str):
        self.at = at
        self.src = src
        self.dst = dst
        self.keys = 0
        self.bytes = 0
        self.chunks = 0
        self.duration = 0.0


class Rebalancer:
    """Watches shard queue waits; splits the hottest shard live."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        cluster: KvCluster,
        params: SystemParams,
        route_fn: Optional[Callable[[bytes], bytes]] = None,
        plane=None,
        name: str = "kv-rebalancer",
    ):
        if cluster.ring is None:
            raise ValueError("rebalancer requires kv_elastic (a ring-backed cluster)")
        self.env = env
        self.fabric = fabric
        self.cluster = cluster
        self.params = params
        self.route_fn = route_fn or (lambda key: key[:8])
        self.plane = plane
        self.name = name
        self.endpoint = fabric.attach(name)
        #: chunk RPCs must survive a destination crash window even when the
        #: global rpc_timeout is off, so the migration path always retries
        self.retry = RetryPolicy(
            timeout=max(params.rpc_timeout, 500e-6),
            max_attempts=12,
            backoff_base=params.rpc_backoff_base,
            backoff_mult=params.rpc_backoff_mult,
            jitter=0.0,  # migration pacing stays seed-independent
        )
        # Migration chunks go through the shared request engine with no
        # hedging, no adaptive policy and no sketch hub (so every attempt
        # waits the fixed timeout): the stream is paced and seed-independent
        # regardless of system config.
        self._req = RequestEngine(env, fabric, name, self.retry, plane=plane, rng=None)
        self.splits = 0
        self.migrations: list[MigrationRecord] = []
        self._last_waits: dict[str, float] = {}
        self._mig_seq = 0
        self._busy = False
        self.proc = env.process(self._run(), name=name)

    # -- monitoring loop -------------------------------------------------------
    def _run(self) -> Generator[Event, None, None]:
        p = self.params
        while True:
            yield self.env.timeout(p.kv_rebalance_interval)
            if self._busy or len(self.cluster.shards) >= p.kv_max_shards:
                continue
            deltas = {}
            for s in self.cluster.shards:
                deltas[s.name] = s.queue_wait_total - self._last_waits.get(s.name, 0.0)
                self._last_waits[s.name] = s.queue_wait_total
            if len(deltas) < 1:
                continue
            mean = sum(deltas.values()) / len(deltas)
            # Hottest by wait delta; ties break by name for determinism.
            hot_name = max(deltas, key=lambda n: (deltas[n], n))
            if deltas[hot_name] - mean <= p.kv_rebalance_threshold:
                continue
            src = next(s for s in self.cluster.shards if s.name == hot_name)
            if src.failed:
                continue
            self._busy = True
            try:
                yield from self._split(src)
            finally:
                self._busy = False

    # -- split + live migration --------------------------------------------------
    def _split(self, src: KvShardServer) -> Generator[Event, None, None]:
        p = self.params
        ring = self.cluster.ring
        dst_name = f"kv{len(self.cluster.shards)}"
        candidate = ring.clone()
        candidate.add_shard(dst_name, steal_from=src.name)
        route_fn = self.route_fn

        def moving(key: bytes) -> bool:
            return candidate.lookup(route_fn(key)) == dst_name

        rec = MigrationRecord(self.env.now, src.name, dst_name)
        self.cluster.add_shard_server(dst_name)
        if self.plane is not None:
            self.plane.record("kv-split", src.name, dst_name)

        # 2. tap: mutations of the moving range are recorded from here on;
        # new prepares touching it are refused.
        src.begin_migration(moving)
        while src.has_staged_moving():
            yield self.env.timeout(50e-6)

        # 3. stream an atomic snapshot (scan is synchronous: no clock
        # advance between building it and the tap being live).
        snapshot = [
            (k, v) for k, v in src.engine.scan_range(b"", None) if moving(k)
        ]
        yield from self._stream(dst_name, snapshot, rec)

        # 4. drain deltas until the residue fits one chunk, then freeze.
        while src.tap_bytes() > p.kv_migrate_chunk:
            yield from self._stream(dst_name, src.take_tap(), rec)
        src.freeze_migration()
        yield from self._stream(dst_name, src.take_tap(), rec)

        # 5. cutover: publish the candidate ring, release parked writers,
        # purge the moved range from the source.
        ring.install(candidate.state())
        src.end_migration()
        purged = src.engine.purge(moving)
        # Purge cost: the source drops moved data during its next compaction
        # pass; charge it at migration bandwidth like the stream.
        if purged:
            yield self.env.timeout(rec.bytes / p.kv_migrate_bw * 0.5)
        rec.duration = self.env.now - rec.at
        self.splits += 1
        self.migrations.append(rec)
        if self.plane is not None:
            self.plane.record("kv-cutover", src.name, f"{dst_name}:{rec.keys}keys")

    def _stream(
        self, dst: str, items: list, rec: MigrationRecord
    ) -> Generator[Event, None, None]:
        """Push (key, value|None) items to ``dst`` in costed, idempotent,
        retried chunks."""
        p = self.params
        self._mig_seq += 1
        chunk: list = []
        chunk_bytes = 0
        chunk_no = 0
        for item in items:
            k, v = item
            nb = len(k) + (len(v) if v is not None else 0)
            if chunk and chunk_bytes + nb > p.kv_migrate_chunk:
                yield from self._send_chunk(dst, chunk, chunk_bytes, chunk_no, rec)
                chunk, chunk_bytes = [], 0
                chunk_no += 1
            chunk.append(item)
            chunk_bytes += nb
        if chunk:
            yield from self._send_chunk(dst, chunk, chunk_bytes, chunk_no, rec)

    def _send_chunk(
        self, dst: str, chunk: list, nbytes: int, chunk_no: int, rec: MigrationRecord
    ) -> Generator[Event, None, None]:
        p = self.params
        # Pace the stream at the migration bandwidth budget (the fabric
        # additionally charges endpoint bandwidth on the wire).
        yield self.env.timeout(nbytes / p.kv_migrate_bw)
        token = f"mig:{self._mig_seq}:{chunk_no}"
        payload = ("ingest", chunk, token)
        size = MSG_OVERHEAD + nbytes
        yield from self._req.call(
            dst,
            payload,
            size,
            retry_kind="kv-mig-retry",
            on_exhausted="raise-timeout",
        )
        rec.keys += len(chunk)
        rec.bytes += nbytes
        rec.chunks += 1

    @property
    def chunk_retries(self) -> int:
        return self._req.retries

    # -- obsv --------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        return {
            "kv.rebalance.splits": self.splits,
            "kv.rebalance.migrated_keys": sum(m.keys for m in self.migrations),
            "kv.rebalance.migrated_bytes": sum(m.bytes for m in self.migrations),
            "kv.rebalance.chunk_retries": self.chunk_retries,
            "kv.rebalance.shards": len(self.cluster.shards),
        }
