"""The three fs-clients of the paper's evaluation (Figures 1 and 9).

* :class:`StandardNfsClient` — the thin baseline: every operation goes to a
  fixed *entry* MDS (which may forward), data rides through the MDS
  (server-side EC), no delegations.  Low CPU, low performance.
* :class:`OffloadedDfsClient` — the optimized client: cached metadata view
  (direct routing to home MDSes), client-side EC + direct I/O to data
  servers, delegation caching with batched creates and lazy size updates.
  A directory grant carries the directory's names, so under it creates and
  lookups are answered locally until the batch commits or is recalled;
  other clients see the new names only after the commit (BatchFS).
  The *same class* serves two roles:

  - instantiated over the **host** CPU pool with
    ``opt_client_cpu_read/write`` → the paper's "optimized host fs-client"
    (fast but 6-15x the CPU);
  - instantiated over the **DPU** CPU pool with ``dpc_dfs_cpu_read/write``
    and hardware-assisted EC → the client stack DPC runs behind nvme-fs.

  That symmetry is the paper's thesis made literal: DPC moves the identical
  optimization logic to the DPU.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, Optional

from ..ec import StripeLayout
from ..fault.requests import RequestConfig, RequestEngine
from ..fault.retry import RetryPolicy
from ..obsv.quantiles import NULL_HUB
from ..obsv.tracer import NULL_TRACER
from ..params import SystemParams
from ..proto.filemsg import Errno, FileAttr
from ..sim.core import Environment, Event
from ..sim.cpu import CpuPool
from ..sim.network import Fabric
from .dataserver import MSG_OVERHEAD
from .mds import S_IFREG, mds_name
from .stripeio import StripeIO

__all__ = ["StandardNfsClient", "OffloadedDfsClient", "DfsError"]


class DfsError(RuntimeError):
    """A DFS server rejected the operation.

    Carries the structured :class:`Errno` alongside the server's message so
    dispatch layers never have to substring-match ``str(e)``; the message
    itself is preserved verbatim (``str(e)`` stays the raw server string).
    """

    def __init__(self, message: str, errno_code: Optional[Errno] = None):
        super().__init__(message)
        if errno_code is None:
            try:
                errno_code = Errno[str(message)]
            except KeyError:
                errno_code = Errno.EIO
        self.errno_code = errno_code


class _FailureAwareRpc:
    """Shared MDS RPC machinery: deadlines, backoff, idempotency stamping.

    With ``retry=None`` every call degenerates to a bare ``fabric.rpc`` —
    the fail-free fast path, byte-identical to the pre-fault-plane clients.
    With a policy, each attempt is raced against a deadline and mutations
    are wrapped as ``("idem", token, op)`` with a token that stays constant
    across retries, so the home MDS applies them exactly once.
    """

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER
    #: quantile-sketch hook; builders replace this with a live SketchHub
    sketches = NULL_HUB

    def _init_fault(self, retry: Optional[RetryPolicy], plane) -> None:
        self.retry = retry
        self.plane = plane
        self._req = RequestEngine(
            self.fabric.env,
            self.fabric,
            self.src,
            retry,
            plane=plane,
            rng=self.fabric.env.substream(f"dfs-retry:{self.src}"),
            hub_fn=lambda: self.sketches,
            config=RequestConfig.from_params(self.params),
        )

    @property
    def retries(self) -> int:
        return self._req.retries

    @property
    def timeouts_exhausted(self) -> int:
        return self._req.timeouts_exhausted

    def _mds_call(
        self, dst: str, op: tuple, size: int, mutating: bool = False
    ) -> Generator[Event, None, object]:
        t0 = self.fabric.env.now
        with self.tracer.span("mds.rpc", track="net", dst=dst, op=str(op[0])):
            resp = yield from self._mds_call_impl(dst, op, size, mutating)
        self.sketches.observe("mds.rpc", self.fabric.env.now - t0)
        return resp

    def _mds_call_impl(
        self, dst: str, op: tuple, size: int, mutating: bool
    ) -> Generator[Event, None, object]:
        payload = op
        if mutating and self.retry is not None:
            payload = ("idem", self._req.next_token(), op)
        # Hedge target: the same home MDS.  Reads are naturally idempotent;
        # mutations carry the token above, so the home dedupes the loser.
        hedge_to = (lambda: dst) if self._req.config.hedging else None
        resp = yield from self._req.call(
            dst, payload, size, op_label=op[0], hedge_to=hedge_to
        )
        return resp


class StandardNfsClient(_FailureAwareRpc):
    """Baseline NFS-like client: everything through the entry MDS."""

    #: NFS rsize/wsize: larger I/O is split into these chunks
    MAX_RPC = 1 << 20

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        src: str,
        n_mds: int,
        host_cpu: CpuPool,
        params: SystemParams,
        entry_mds: int = 0,
        retry: Optional[RetryPolicy] = None,
        plane=None,
    ):
        self.env = env
        self.fabric = fabric
        self.src = src
        self.entry = mds_name(entry_mds % n_mds)
        self.cpu = host_cpu
        self.params = params
        self.ops = 0
        self._init_fault(retry, plane)

    def _charge(self, write: bool = True) -> Generator[Event, None, None]:
        cost = (
            self.params.std_client_cpu_write if write else self.params.std_client_cpu_read
        )
        yield from self.cpu.execute(cost, tag="nfs-std")

    def _rpc(
        self, op: tuple, size: int, mutating: bool = False
    ) -> Generator[Event, None, object]:
        resp = yield from self._mds_call(self.entry, op, size, mutating)
        return resp

    # -- namespace ----------------------------------------------------------------
    def create(self, p_ino: int, name: bytes, mode: int = S_IFREG | 0o644) -> Generator[Event, None, FileAttr]:
        self.ops += 1
        yield from self._charge()
        resp = yield from self._rpc(
            ("create", p_ino, name, mode), MSG_OVERHEAD + len(name), mutating=True
        )
        if isinstance(resp, tuple) and resp and resp[0] == "err":
            raise DfsError(resp[1])
        return resp

    def lookup(self, p_ino: int, name: bytes) -> Generator[Event, None, Optional[FileAttr]]:
        self.ops += 1
        yield from self._charge(write=False)
        return (yield from self._rpc(("lookup", p_ino, name), MSG_OVERHEAD + len(name)))

    def getattr(self, ino: int) -> Generator[Event, None, Optional[FileAttr]]:
        self.ops += 1
        yield from self._charge(write=False)
        return (yield from self._rpc(("getattr", ino), MSG_OVERHEAD))

    def readdir(self, p_ino: int) -> Generator[Event, None, list]:
        self.ops += 1
        yield from self._charge(write=False)
        return (yield from self._rpc(("readdir", p_ino), MSG_OVERHEAD))

    def unlink(self, p_ino: int, name: bytes) -> Generator[Event, None, None]:
        self.ops += 1
        yield from self._charge()
        resp = yield from self._rpc(
            ("unlink", p_ino, name), MSG_OVERHEAD + len(name), mutating=True
        )
        if isinstance(resp, tuple) and resp and resp[0] == "err":
            raise DfsError(resp[1])

    # -- data ----------------------------------------------------------------------
    def write(self, ino: int, offset: int, data: bytes) -> Generator[Event, None, int]:
        """Packed write through the MDS (which does the EC server-side)."""
        with self.tracer.span("dfs.write", track="dfs", ino=ino, length=len(data)):
            return (yield from self._write_impl(ino, offset, data))

    def _write_impl(self, ino: int, offset: int, data: bytes) -> Generator[Event, None, int]:
        pos = 0
        while pos < len(data):
            chunk = data[pos : pos + self.MAX_RPC]
            self.ops += 1
            yield from self._charge()
            yield from self._rpc(
                ("write_small", ino, offset + pos, chunk),
                MSG_OVERHEAD + len(chunk),
                mutating=True,
            )
            pos += len(chunk)
        return len(data)

    def read(self, ino: int, offset: int, length: int) -> Generator[Event, None, bytes]:
        with self.tracer.span("dfs.read", track="dfs", ino=ino, length=length):
            return (yield from self._read_impl(ino, offset, length))

    def _read_impl(self, ino: int, offset: int, length: int) -> Generator[Event, None, bytes]:
        out = bytearray()
        pos = 0
        while pos < length:
            n = min(self.MAX_RPC, length - pos)
            self.ops += 1
            yield from self._charge(write=False)
            data = yield from self._rpc(("read_via_mds", ino, offset + pos, n), MSG_OVERHEAD)
            out += data
            pos += n
        return bytes(out)


class OffloadedDfsClient(_FailureAwareRpc):
    """The optimized fs-client (host or DPU resident).

    Optimizations implemented, mirroring §2.1:

    * **metadata view** — requests routed straight to the home MDS;
    * **client-side EC + DIO** — data moves between this endpoint and the
      data servers only, with EC math charged to this client's CPU pool;
    * **delegations** — directory delegations carry inode leases so creates
      are local and batch-committed; file size updates are batched lazily.
    """

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        src: str,
        n_mds: int,
        layout: StripeLayout,
        cpu: CpuPool,
        params: SystemParams,
        cpu_read: float,
        cpu_write: float,
        ec_scale: float = 1.0,
        cpu_tag: str = "opt-client",
        use_delegations: bool = True,
        retry: Optional[RetryPolicy] = None,
        plane=None,
        degraded_reads: bool = True,
    ):
        self.env = env
        self.fabric = fabric
        self.src = src
        self.n_mds = n_mds
        self.layout = layout
        self.cpu = cpu
        self.params = params
        self.cpu_read = cpu_read
        self.cpu_write = cpu_write
        self.ec_scale = ec_scale
        self.cpu_tag = cpu_tag
        #: ablation switch: False forces synchronous MDS creates/locks
        self.use_delegations = use_delegations
        self._init_fault(retry, plane)
        self.stripeio = StripeIO(
            env,
            fabric,
            layout,
            params,
            src,
            ec_charge=self._ec,
            retry=retry,
            plane=plane,
            degraded_reads=degraded_reads,
        )
        # Directory delegations: dir ino -> leased inode numbers, the names
        # the MDS holds there (grant listing plus landed commits), and when
        # this client stops trusting both (no later than the MDS's lease).
        self._dir_lease: dict[int, list[int]] = {}
        self._dir_names: dict[int, set[bytes]] = {}
        self._dir_until: dict[int, float] = {}
        #: dir ino -> name -> create the MDS has not acknowledged yet (pending
        #: or in flight); ``_unacked`` holds their inode numbers
        self._pending_creates: dict[int, dict[bytes, FileAttr]] = {}
        self._unacked: set[int] = set()
        #: dir ino -> fires when the directory's batch in flight has landed
        self._committing: dict[int, Event] = {}
        #: batched creates the MDS skipped because the name was taken
        self.batch_skips = 0
        self._file_deleg: set[int] = set()
        #: lazy size updates: ino -> size
        self._dirty_sizes: dict[int, int] = {}
        self._attr_cache: dict[int, FileAttr] = {}
        self.ops = 0
        self.deleg_hits = 0
        #: cross-client coherence hook: ``cache_invalidate(ino)`` is a
        #: generator that flushes and drops this node's cached pages for the
        #: inode (the cluster builder wires it to
        #: ``IoDispatch.invalidate_dfs_file``); None for cache-less clients
        self.cache_invalidate = None
        self.recalls_served = 0
        # Serve MDS delegation recalls on this client's fabric endpoint.
        # RPC replies resume their caller directly, so the endpoint inbox
        # is otherwise idle; the listener parks on a get() immediately and
        # never perturbs seeded runs where no recall fires.
        if src in fabric.endpoints:
            env.process(self._serve_recalls(), name=f"{src}-recall")

    # -- cost hooks ---------------------------------------------------------------
    def _charge(
        self, fraction: float = 1.0, write: bool = True
    ) -> Generator[Event, None, None]:
        base = self.cpu_write if write else self.cpu_read
        yield from self.cpu.execute(base * fraction, tag=self.cpu_tag)

    def _ec(self, nbytes: int) -> Generator[Event, None, None]:
        pages = max(1, nbytes // 4096)
        yield from self.cpu.execute(
            self.params.ec_encode_per_4k * pages * self.ec_scale, tag=self.cpu_tag
        )

    def _home(self, ino: int) -> str:
        return mds_name(ino % self.n_mds)

    def _rpc(
        self, home_ino: int, op: tuple, size: int, mutating: bool = False
    ) -> Generator[Event, None, object]:
        # Metadata view: no entry-MDS forwarding, straight to the home.
        resp = yield from self._mds_call(self._home(home_ino), op, size, mutating)
        return resp

    # -- namespace -------------------------------------------------------------------
    def create(
        self, p_ino: int, name: bytes, mode: int = S_IFREG | 0o644
    ) -> Generator[Event, None, FileAttr]:
        """Create under a directory delegation when possible."""
        self.ops += 1
        yield from self._charge()
        self._listing(p_ino)  # drops an expired grant
        if self.use_delegations and not self._dir_lease.get(p_ino):
            asked = self.env.now
            resp = yield from self._rpc(
                p_ino, ("deleg_acquire", p_ino, "dir"), MSG_OVERHEAD, mutating=True
            )
            if resp[0] == "granted":
                # A grant that lands on a held lease (two first creates
                # raced) extends it and merges the listing.
                self._dir_lease.setdefault(p_ino, []).extend(resp[1])
                self._dir_names.setdefault(p_ino, set()).update(resp[2])
                self._dir_until[p_ino] = asked + self.params.deleg_lease
        if self.use_delegations and p_ino in self._dir_lease:
            # Local create under the delegation (BatchFS-style).
            yield from self.cpu.execute(self.params.delegation_local_cost, tag=self.cpu_tag)
        lease = self._dir_lease.get(p_ino)
        if not lease:
            # No delegation (ablation, contended or just recalled directory):
            # synchronous create at the MDS.
            resp = yield from self._rpc(
                p_ino, ("create", p_ino, name, mode), MSG_OVERHEAD + len(name),
                mutating=True,
            )
            if isinstance(resp, tuple) and resp and resp[0] == "err":
                raise DfsError(resp[1])
            self._attr_cache[resp.ino] = resp
            return resp
        pending = self._pending_creates.setdefault(p_ino, {})
        if name in pending or name in self._dir_names[p_ino]:
            raise DfsError("EEXIST")
        self.deleg_hits += 1
        attr = FileAttr(ino=lease.pop(0), mode=mode, nlink=1)
        self._attr_cache[attr.ino] = attr
        pending[name] = attr
        self._unacked.add(attr.ino)
        if len(pending) >= self.params.deleg_batch and p_ino not in self._committing:
            yield from self._commit_creates(p_ino)
        return attr

    def _listing(self, p_ino: int) -> Optional[set[bytes]]:
        """The directory's names while this client's grant on it is live;
        an expired grant is dropped (the MDS no longer recalls it)."""
        until = self._dir_until.get(p_ino)
        if until is not None and self.env.now >= until:
            self._drop_grant(p_ino)
        return self._dir_names.get(p_ino)

    def _drop_grant(self, p_ino: int) -> None:
        for held in (self._dir_lease, self._dir_names, self._dir_until):
            held.pop(p_ino, None)

    def _commit_creates(self, p_ino: int) -> Generator[Event, None, None]:
        """Send the directory's pending creates in one batch; on return
        every create pending at the call is at the MDS.  Entries stay
        pending (seen by lookup and getattr) until the reply lands, and a
        directory has one batch in flight: a later commit waits for it."""
        while p_ino in self._committing:
            yield self._committing[p_ino]
        pending = self._pending_creates.get(p_ino)
        if not pending:
            return
        batch = [(name, a.ino, a.mode) for name, a in pending.items()]
        landed = self._committing[p_ino] = self.env.event()
        try:
            skipped = yield from self._rpc(
                p_ino,
                ("batch_create", p_ino, batch),
                MSG_OVERHEAD + sum(len(n) + 16 for n, _i, _m in batch),
                mutating=True,
            )
            self.batch_skips += len(skipped)
            names = self._dir_names.get(p_ino, set())
            for name, ino, _mode in batch:
                pending.pop(name, None)
                self._unacked.discard(ino)
                names.add(name)
        finally:
            del self._committing[p_ino]
            landed.succeed()

    def flush_metadata(self) -> Generator[Event, None, None]:
        """Push pending batched creates and size updates to the MDSes."""
        for p_ino in list(self._pending_creates):
            yield from self._commit_creates(p_ino)
        yield from self._flush_sizes()

    def _flush_sizes(self) -> Generator[Event, None, None]:
        # Only files the MDS knows: an unacknowledged create's size waits
        # for its batch, so a full lazy-size table commits no directory.
        by_home: dict[int, list[tuple[int, int]]] = {}
        for ino in [i for i in self._dirty_sizes if i not in self._unacked]:
            by_home.setdefault(ino % self.n_mds, []).append((ino, self._dirty_sizes.pop(ino)))
        for home, updates in by_home.items():
            yield from self._mds_call(
                mds_name(home), ("batch_setsize", updates), MSG_OVERHEAD, mutating=True
            )

    def lookup(self, p_ino: int, name: bytes) -> Generator[Event, None, Optional[FileAttr]]:
        self.ops += 1
        yield from self._charge(0.6, write=False)
        # Under a delegation a pending name and an absent one are answered
        # here; only a committed name asks the MDS for its current attr.
        pending = self._pending_creates.get(p_ino, {}).get(name)
        names = self._listing(p_ino)
        if pending is not None or (names is not None and name not in names):
            self.deleg_hits += 1
            return pending and self._attr_cache.get(pending.ino, pending)
        attr = yield from self._rpc(p_ino, ("lookup", p_ino, name), MSG_OVERHEAD + len(name))
        if attr is not None:
            self._attr_cache[attr.ino] = attr
        return attr

    def getattr(self, ino: int) -> Generator[Event, None, Optional[FileAttr]]:
        self.ops += 1
        cached = self._attr_cache.get(ino)
        if cached is not None and (
            ino in self._file_deleg or ino in self._dirty_sizes or ino in self._unacked
        ):
            # Served from the delegation-backed cache.
            yield from self.cpu.execute(
                self.params.delegation_local_cost, tag=self.cpu_tag
            )
            self.deleg_hits += 1
            size = max(cached.size, self._dirty_sizes.get(ino, 0))
            return dataclasses.replace(cached, size=size)
        yield from self._charge(0.4, write=False)
        attr = yield from self._rpc(ino, ("getattr", ino), MSG_OVERHEAD)
        if attr is not None:
            self._attr_cache[ino] = attr
        return attr

    def readdir(self, p_ino: int) -> Generator[Event, None, list]:
        self.ops += 1
        yield from self._charge(0.6, write=False)
        yield from self._commit_creates(p_ino)
        return (yield from self._rpc(p_ino, ("readdir", p_ino), MSG_OVERHEAD))

    def unlink(self, p_ino: int, name: bytes) -> Generator[Event, None, None]:
        self.ops += 1
        yield from self._charge()
        yield from self._commit_creates(p_ino)
        resp = yield from self._rpc(
            p_ino, ("unlink", p_ino, name), MSG_OVERHEAD + len(name), mutating=True
        )
        if isinstance(resp, tuple) and resp and resp[0] == "err":
            raise DfsError(resp[1])
        self._dir_names.get(p_ino, set()).discard(name)

    def acquire_file_delegation(self, ino: int) -> Generator[Event, None, bool]:
        """Cache a file lock/delegation (paper: lock acquire acceleration)."""
        if ino in self._file_deleg:
            yield from self.cpu.execute(
                self.params.delegation_local_cost, tag=self.cpu_tag
            )
            self.deleg_hits += 1
            return True
        resp = yield from self._rpc(
            ino, ("deleg_acquire", ino, "file"), MSG_OVERHEAD, mutating=True
        )
        if resp[0] == "granted":
            self._file_deleg.add(ino)
            return True
        return False

    # -- delegation recalls (cross-client coherence) -----------------------------------
    def _serve_recalls(self) -> Generator[Event, None, None]:
        inbox = self.fabric.endpoint(self.src).inbox
        while True:
            msg = yield inbox.get()
            op = msg.payload
            if not (isinstance(op, tuple) and op and op[0] == "deleg_recall"):
                continue  # nothing else targets a client inbox; drop
            self.env.process(
                self._handle_recall(msg), name=f"{self.src}-recall-req"
            )

    def _handle_recall(self, msg) -> Generator[Event, None, None]:
        """Serve one MDS recall: push pending state, drop cached views.

        A *dir* recall commits the batched creates and surrenders the lease;
        a *file* recall pushes the lazy size, forgets the delegation and
        cached attrs, and — on a DPU-resident client — flushes and drops the
        file's pages from the node's hybrid cache, so a subsequent read
        refetches whatever the new delegation owner writes.
        """
        _, kind, ino = msg.payload
        self.recalls_served += 1
        if kind == "dir":
            self._drop_grant(ino)
            yield from self._commit_creates(ino)
        else:
            self._file_deleg.discard(ino)
            self._attr_cache.pop(ino, None)
            size = self._dirty_sizes.pop(ino, None)
            if size is not None:
                yield from self._mds_call(
                    self._home(ino), ("setsize", ino, size), MSG_OVERHEAD,
                    mutating=True,
                )
            if self.cache_invalidate is not None:
                yield from self.cache_invalidate(ino)
        yield from self.fabric.reply(msg, "ok", MSG_OVERHEAD)

    # -- data ---------------------------------------------------------------------------
    def write(self, ino: int, offset: int, data: bytes) -> Generator[Event, None, int]:
        """Client-side EC + direct I/O; size updates are lazy/batched."""
        with self.tracer.span("dfs.write", track="dfs", ino=ino, length=len(data)):
            self.ops += 1
            yield from self._charge()
            yield from self.stripeio.write(ino, offset, data)
            end = offset + len(data)
            cached = self._attr_cache.get(ino)
            if cached is None or end > max(cached.size, self._dirty_sizes.get(ino, 0)):
                self._dirty_sizes[ino] = max(end, self._dirty_sizes.get(ino, 0))
                if len(self._dirty_sizes) >= self.params.deleg_batch:
                    yield from self._flush_sizes()
            return len(data)

    def read(self, ino: int, offset: int, length: int) -> Generator[Event, None, bytes]:
        with self.tracer.span("dfs.read", track="dfs", ino=ino, length=length):
            self.ops += 1
            yield from self._charge(write=False)
            return (yield from self.stripeio.read(ino, offset, length))
