"""Metadata servers (MDS) for the distributed file system.

The namespace is hash-partitioned: a file's attributes and layout live on
its *home* MDS (``ino % n_mds``); directory entries live on the parent's
home.  A request landing on the wrong MDS is **forwarded**: the entry MDS
pays proxy CPU and an extra fabric hop before relaying — the cost the
fs-client's cached *metadata view* eliminates (paper §2.1 "Client-side I/O
forwarding").

The standard-NFS data path also terminates here: ``write_small`` packs data
with metadata in one message and the MDS performs the EC read-modify-write
against the data servers itself (server-side EC), while ``read_via_mds``
relays reads — both through the shared :class:`StripeIO` engine with MDS
service time attached.

Delegations: an MDS grants a directory or file delegation to one client at
a time; a directory grant carries an inode-number lease so the client can
create files locally and batch-commit them (BatchFS-style).  Grants are
**time-bounded**: a delegation expires ``deleg_lease`` simulated seconds
after acquisition, so a crashed or silent client cannot pin a directory
forever — the next contender's acquire recalls the stale grant.
:meth:`MdsServer.expire_client` force-revokes everything a known-dead
client held.

Failure handling: clients may wrap any mutating op as
``("idem", token, op)``; the home MDS memoises the response per token so a
timeout-retried or fabric-duplicated mutation (create, unlink, size
update, packed write) applies exactly once.  The entry MDS forwards the
*wrapped* payload, so dedupe always happens at the single home authority.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, Optional

from ..ec import StripeLayout
from ..fault.idempotency import PENDING, IdempotencyFilter
from ..fault.requests import RequestEngine
from ..fault.retry import RetryPolicy
from ..params import SystemParams
from ..proto.filemsg import FileAttr
from ..sim.core import Environment, Event
from ..sim.network import Fabric, Message
from ..sim.resources import Resource
from .stripeio import StripeIO

__all__ = ["MdsServer", "MdsCluster", "mds_name", "S_IFDIR", "S_IFREG", "DFS_ROOT_INO"]

MSG_OVERHEAD = 64
S_IFDIR = 0o040000
S_IFREG = 0o100000
DFS_ROOT_INO = 0


def mds_name(index: int) -> str:
    return f"mds{index}"


class MdsServer:
    """One metadata server."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        index: int,
        n_mds: int,
        layout: StripeLayout,
        params: SystemParams,
    ):
        self.env = env
        self.fabric = fabric
        self.index = index
        self.n_mds = n_mds
        self.name = mds_name(index)
        self.params = params
        self.endpoint = fabric.attach(self.name, params.mds_bandwidth)
        self.threads = Resource(env, params.mds_threads)
        self.stripeio = StripeIO(
            env, fabric, layout, params, self.name, ec_charge=self._ec_service
        )
        # Partitioned state.
        self.dentries: dict[tuple[int, bytes], int] = {}
        self.attrs: dict[int, FileAttr] = {}
        #: delegation key -> (owner client name, lease expiry sim-time)
        self.delegations: dict[tuple, tuple[str, float]] = {}
        self._idem = IdempotencyFilter()
        #: stale/forced delegation revocations
        self.recalls = 0
        #: inode allocator for this MDS's id space (ino % n_mds == index)
        self._next_ino = index if index != DFS_ROOT_INO % n_mds else index + n_mds
        if index == DFS_ROOT_INO % n_mds:
            self.attrs[DFS_ROOT_INO] = FileAttr(
                ino=DFS_ROOT_INO, mode=S_IFDIR | 0o755, nlink=2
            )
        self.ops_served = 0
        self.forwards = 0
        #: requests dropped unanswered after a tied-request wire cancel
        self.cancel_drops = 0
        # Delegation recalls are single-shot with a fixed deadline: the
        # shared request engine with no hedging, no retries and no sketches.
        self._req = RequestEngine(
            env,
            fabric,
            self.name,
            RetryPolicy(timeout=params.deleg_recall_timeout, max_attempts=1),
        )
        self.endpoint.serve(self._handle, f"{self.name}-req")

    # -- home routing ---------------------------------------------------------
    def home_of_ino(self, ino: int) -> int:
        return ino % self.n_mds

    def _home_of_op(self, op: tuple) -> int:
        kind = op[0]
        if kind in ("lookup", "create", "batch_create", "readdir", "unlink", "deleg_acquire", "deleg_release"):
            return self.home_of_ino(op[1])  # parent/directory ino
        # getattr, setsize, batch target the file's ino
        if kind == "batch_setsize":
            return self.home_of_ino(op[1][0][0])
        return self.home_of_ino(op[1])

    def _ec_service(self, nbytes: int) -> Generator[Event, None, None]:
        yield self.env.timeout(
            self.params.mds_ec_service * max(1, nbytes // 8192) * 0.25
        )

    def _alloc_ino(self) -> int:
        ino = self._next_ino
        self._next_ino += self.n_mds
        return ino

    def _alloc_ino_range(self, count: int) -> list[int]:
        return [self._alloc_ino() for _ in range(count)]

    # -- request handling ---------------------------------------------------------
    def _handle(self, msg: Message) -> Generator[Event, None, None]:
        if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
            # Tied-request loser cancelled on the wire: drop unanswered.
            self.cancel_drops += 1
            return
        op = msg.payload
        token = None
        if isinstance(op, tuple) and op and op[0] == "idem":
            _wrap, token, op = msg.payload
        home = self._home_of_op(op)
        if home != self.index:
            # Entry-MDS proxying: pay forward CPU, relay to the home MDS,
            # and relay the response back (paper §2.1).  The *wrapped*
            # payload is forwarded so the home authority does the dedupe.
            self.forwards += 1
            yield self.env.timeout(self.params.mds_forward_cost)
            resp = yield from self.fabric.rpc(
                self.name, mds_name(home), msg.payload, msg.size
            )
            yield from self.fabric.reply(msg, resp, MSG_OVERHEAD)
            return
        req = self.threads.request()
        yield req
        try:
            if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
                # Cancel landed while queued: free the thread, skip service.
                self.cancel_drops += 1
                return
            seen, cached = self._idem.check(token)
            while seen and cached is PENDING:
                # Same-token execution in flight (fabric duplicate): park
                # until the response lands, then replay it.
                yield self.env.timeout(self.params.mds_service)
                seen, cached = self._idem.check(token)
            if seen:
                # Retried / duplicated mutation: replay the memoised answer.
                yield self.env.timeout(self.params.mds_service)
                resp, size = cached
            else:
                self._idem.put(token, PENDING)
                resp, size = yield from self._execute(op, msg.src)
                self._idem.put(token, (resp, size))
        finally:
            self.threads.release(req)
        self.ops_served += 1
        yield from self.fabric.reply(msg, resp, size)

    # -- operations ------------------------------------------------------------------
    def _execute(self, op: tuple, client: str) -> Generator[Event, None, tuple]:
        p = self.params
        kind = op[0]
        yield self.env.timeout(p.mds_service)
        if kind == "lookup":
            _, p_ino, name = op
            ino = self.dentries.get((p_ino, name))
            if ino is None:
                return None, MSG_OVERHEAD
            # The attr may be remote; resolve it internally if so.
            attr = yield from self._fetch_attr(ino)
            return attr, MSG_OVERHEAD + 64
        if kind == "create":
            _, p_ino, name, mode = op
            if (p_ino, name) in self.dentries:
                return ("err", "EEXIST"), MSG_OVERHEAD
            ino = self._alloc_ino()
            self.dentries[(p_ino, name)] = ino
            attr = FileAttr(ino=ino, mode=mode, nlink=1)
            self.attrs[ino] = attr  # ino % n_mds == self.index by construction
            return attr, MSG_OVERHEAD + 64
        if kind == "batch_create":
            _, p_ino, entries = op  # [(name, ino, mode)] from a delegation lease
            yield self.env.timeout(p.mds_service * 0.1 * len(entries))
            created = []
            for name, ino, mode in entries:
                if (p_ino, name) not in self.dentries:
                    self.dentries[(p_ino, name)] = ino
                    self.attrs.setdefault(ino, FileAttr(ino=ino, mode=mode, nlink=1))
                    created.append(ino)
            return created, MSG_OVERHEAD
        if kind == "getattr":
            _, ino = op
            attr = self.attrs.get(ino)
            return attr, MSG_OVERHEAD + 64
        if kind == "setsize":
            _, ino, size = op
            attr = self.attrs.get(ino)
            if attr is not None and size > attr.size:
                self.attrs[ino] = dataclasses.replace(attr, size=size)
            return "ok", MSG_OVERHEAD
        if kind == "batch_setsize":
            _, updates = op
            for ino, size in updates:
                attr = self.attrs.get(ino)
                if attr is not None and size > attr.size:
                    self.attrs[ino] = dataclasses.replace(attr, size=size)
            return "ok", MSG_OVERHEAD
        if kind == "readdir":
            _, p_ino = op
            entries = sorted(
                (name, ino) for (pi, name), ino in self.dentries.items() if pi == p_ino
            )
            yield self.env.timeout(1e-6 * len(entries) * 0.2)
            return entries, MSG_OVERHEAD + sum(len(n) + 8 for n, _ in entries)
        if kind == "unlink":
            _, p_ino, name = op
            ino = self.dentries.pop((p_ino, name), None)
            if ino is None:
                return ("err", "ENOENT"), MSG_OVERHEAD
            self.attrs.pop(ino, None)
            return "ok", MSG_OVERHEAD
        if kind == "deleg_acquire":
            _, key_ino, key_kind = op
            key = (key_kind, key_ino)
            entry = self.delegations.get(key)
            now = self.env.now
            if entry is not None and entry[0] != client:
                if entry[1] > now:
                    return ("denied", []), MSG_OVERHEAD
                # Lease expired: recall the stale grant from its (crashed or
                # silent) owner and hand the delegation to the contender.
                # The recall makes a live owner push pending state (batched
                # creates, lazy sizes) and drop the inode from its hybrid
                # cache (cross-client coherence); a dead owner costs at most
                # the recall deadline — the expired lease is authoritative.
                self.recalls += 1
                yield from self._recall(key_kind, key_ino, entry[0])
            self.delegations[key] = (client, now + p.deleg_lease)
            lease = self._alloc_ino_range(64) if key_kind == "dir" else []
            return ("granted", lease), MSG_OVERHEAD
        if kind == "deleg_release":
            _, key_ino, key_kind = op
            self.delegations.pop((key_kind, key_ino), None)
            return "ok", MSG_OVERHEAD
        if kind == "write_small":
            # Standard-NFS path: data packed with metadata; the MDS performs
            # server-side EC against the data servers.
            _, ino, offset, data = op
            yield self.env.timeout(p.mds_ec_service)
            yield from self.stripeio.write(ino, offset, data)
            attr = self.attrs.get(ino)
            if attr is not None and offset + len(data) > attr.size:
                self.attrs[ino] = dataclasses.replace(attr, size=offset + len(data))
            return ("ok", len(data)), MSG_OVERHEAD
        if kind == "read_via_mds":
            _, ino, offset, length = op
            data = yield from self.stripeio.read(ino, offset, length)
            return data, MSG_OVERHEAD + len(data)
        raise ValueError(f"unknown MDS op {kind!r}")

    def _recall(self, kind: str, ino: int, owner: str) -> Generator[Event, None, None]:
        """Synchronously recall a delegation from ``owner`` with a deadline.

        The owner's client serves ``("deleg_recall", kind, ino)`` on its
        fabric endpoint (see ``OffloadedDfsClient._serve_recalls``) and acks
        once pending metadata is committed and cached pages are dropped.
        """
        if owner not in self.fabric.endpoints:
            return  # owner never attached (or a test stub): nothing to recall
        # One deadline-bounded attempt; a timeout means the owner crashed or
        # is unreachable — proceed on lease expiry.
        yield from self._req.call(
            owner,
            ("deleg_recall", kind, ino),
            MSG_OVERHEAD,
            on_exhausted="return",
            exhaust_kind=None,
        )

    def expire_client(self, client: str) -> int:
        """Force-revoke every delegation ``client`` holds (client failure).

        Returns the number of delegations recalled.  Used by fault scripts
        when a client is declared dead before its leases run out.
        """
        gone = [k for k, (owner, _exp) in self.delegations.items() if owner == client]
        for key in gone:
            del self.delegations[key]
        self.recalls += len(gone)
        return len(gone)

    def _fetch_attr(self, ino: int) -> Generator[Event, None, Optional[FileAttr]]:
        home = self.home_of_ino(ino)
        if home == self.index:
            yield from ()
            return self.attrs.get(ino)
        resp = yield from self.fabric.rpc(
            self.name, mds_name(home), ("getattr", ino), MSG_OVERHEAD
        )
        return resp


class MdsCluster:
    """All metadata servers plus shared geometry."""

    def __init__(
        self, env: Environment, fabric: Fabric, layout: StripeLayout, params: SystemParams
    ):
        self.params = params
        self.layout = layout
        self.servers = [
            MdsServer(env, fabric, i, params.n_mds, layout, params)
            for i in range(params.n_mds)
        ]

    def names(self) -> list[str]:
        return [s.name for s in self.servers]

    def home_of(self, ino: int) -> str:
        return mds_name(ino % self.params.n_mds)

    def total_forwards(self) -> int:
        return sum(s.forwards for s in self.servers)

    def total_ops(self) -> int:
        return sum(s.ops_served for s in self.servers)
