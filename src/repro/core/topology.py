"""Cluster topology: explicit host/DPU node wiring and the N-client builder.

The paper deploys DPC as *one* client of a disaggregated backend, but its
point is that many DPU-offloaded clients share the KV store and DFS.  This
module makes that wiring explicit:

* :class:`HostNode` — everything resident on one host server: the host
  :class:`CpuPool`, DMA-visible :class:`MemoryArena`, :class:`PcieLink`,
  the nvme-fs initiator, the VFS with its fs-adapter mounts, and the host
  half of the hybrid cache.
* :class:`DpuNode` — everything running on that host's DPU: the DPU
  :class:`CpuPool`, nvme-fs target, IO_Dispatch, KVFS + KV client, the
  cache control plane, and (optionally) the offloaded DFS client.
* :class:`ClusterNode` — one host/DPU pair plus its per-node
  :class:`Registry` and optional :class:`Tracer`.
* :class:`Cluster` — N nodes over **one shared** :class:`Environment`,
  :class:`Fabric`, :class:`KvCluster`, MDS cluster, and data servers.

Endpoint naming goes through :func:`node_endpoint`: node 0 keeps the
legacy bare role name (``"dpc"``), node *i>0* gets ``"dpc1"``,
``"dpc2"``, …  That convention — plus a construction order that matches
the historical ``build_dpc_system`` exactly for node 0 — is what keeps
``build_cluster(n_hosts=1)`` bit-identical to the pre-topology
single-host builder at a fixed seed (verified by golden signatures in
``tests/integration/test_cluster_topology.py``).

Cross-client coherence: each node's DFS client serves ``deleg_recall``
messages on its fabric endpoint; a file recall flushes the node's dirty
cached pages for that inode and drops them from the hybrid cache via
``IoDispatch.invalidate_dfs_file``, so a write by client A after recalling
client B's delegation is observed by B's next read (DESIGN.md §12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cache.control import CacheControlPlane
from ..cache.hostplane import HostCachePlane
from ..cache.layout import CacheLayout
from ..dfs import MdsCluster, OffloadedDfsClient, build_dfs
from ..dpu.dispatch import FLAG_LOCAL, IoDispatch
from ..dpu.striping import StripedNvme, build_nvme_array
from ..fault import CircuitBreaker, FaultPlane, RequestConfig, retry_policy_from
from ..host.adapters import Ext4Adapter
from ..host.fsadapter import DpcAdapter
from ..host.vfs import Vfs
from ..kv.client import KvClient
from ..kv.server import KvCluster
from ..kvfs import schema as kvfs_schema
from ..kvfs.fs import Kvfs
from ..localfs.ext4sim import Ext4Fs
from ..obsv import get_context
from ..obsv.metrics import Registry
from ..obsv.quantiles import SketchHub
from ..obsv.tracer import TailSampler, Tracer
from ..params import SystemParams, default_params
from ..proto.nvme.ini import NvmeFsInitiator
from ..proto.nvme.sqe import ReqType
from ..proto.nvme.tgt import NvmeFsTarget
from ..sim.core import Environment
from ..sim.cpu import CpuPool
from ..sim.memory import MemoryArena
from ..sim.network import Fabric
from ..sim.pcie import PcieLink

__all__ = [
    "ROLE_DPC",
    "ROLE_HOST",
    "ROLE_DPU",
    "ROLE_STD_CLIENT",
    "ROLE_OPT_CLIENT",
    "node_endpoint",
    "HostNode",
    "DpuNode",
    "ClusterNode",
    "Cluster",
    "build_cluster",
]

#: canonical role names; node 0 of each role keeps the bare name
ROLE_DPC = "dpc"
ROLE_HOST = "host"
ROLE_DPU = "dpu"
ROLE_STD_CLIENT = "std-client"
ROLE_OPT_CLIENT = "opt-client"


def node_endpoint(role: str, idx: int) -> str:
    """Canonical fabric-endpoint / pool / registry name for node ``idx``.

    Node 0 keeps the bare legacy name (``"dpc"``, ``"host"``, …) so every
    single-host experiment, golden signature, and trace stays byte-stable;
    additional nodes get an index suffix (``"dpc1"``, ``"host2"``, …).
    """
    if idx < 0:
        raise ValueError(f"node index must be >= 0, got {idx}")
    return role if idx == 0 else f"{role}{idx}"


def _host_cpu(env: Environment, p: SystemParams, idx: int = 0) -> CpuPool:
    return CpuPool(
        env,
        p.host_cores,
        name=node_endpoint(ROLE_HOST, idx),
        switch_cost=p.host_switch_cost,
    )


def _dpu_cpu(env: Environment, p: SystemParams, idx: int = 0) -> CpuPool:
    return CpuPool(
        env,
        p.dpu_cores,
        name=node_endpoint(ROLE_DPU, idx),
        perf=p.dpu_perf,
        switch_cost=p.dpu_switch_cost,
    )


# -- observability wiring ---------------------------------------------------------
#
# Each node gets one Registry and hangs *collectors* on it: zero-arg
# closures that read the existing hot-path stats objects at snapshot time.
# The hot paths keep their plain attribute increments — nothing about the
# simulation changes — but every experiment reads through the registry.


def _collect_cpu(pool: CpuPool):
    def fn() -> dict:
        out = {
            f"cpu.{pool.name}.busy": pool.busy_seconds,
            f"cpu.{pool.name}.cores": pool.cores,
            f"cpu.{pool.name}.window_cores": pool.window_cores_used(),
        }
        for tag, busy in pool.busy_by_tag.items():
            out[f"cpu.{pool.name}.busy.{tag}"] = busy
        return out

    return fn


def _collect_pcie(link: PcieLink):
    def fn() -> dict:
        s = link.stats
        out = {
            "pcie.reads": s.reads,
            "pcie.writes": s.writes,
            "pcie.atomics": s.atomics,
            "pcie.doorbells": s.doorbells,
            "pcie.interrupts": s.interrupts,
            "pcie.bytes_read": s.bytes_read,
            "pcie.bytes_written": s.bytes_written,
            "pcie.ops": s.ops(),
            "pcie.control_tlps": s.control_tlps(),
        }
        for tag, n in s.by_tag.items():
            out[f"pcie.by_tag.{tag}"] = n
        for tag, (txns, entries) in s.burst_by_tag.items():
            out[f"pcie.burst.{tag}.txns"] = txns
            out[f"pcie.burst.{tag}.entries"] = entries
        return out

    return fn


def _collect_cache(cache_host: HostCachePlane):
    def fn() -> dict:
        s = cache_host.stats
        return {
            "cache.read_hits": s.read_hits,
            "cache.read_misses": s.read_misses,
            "cache.write_hits": s.write_hits,
            "cache.write_inserts": s.write_inserts,
            "cache.evict_waits": s.evict_waits,
            "cache.seqlock_hits": s.seqlock_hits,
            "cache.seqlock_retries": s.seqlock_retries,
            "cache.seqlock_fallbacks": s.seqlock_fallbacks,
            "cache.read_atomics": s.read_atomics,
            "cache.write_lock_retries": s.write_lock_retries,
            "cache.hit_rate": s.hit_rate(),
            "cache.atomics_per_hit": s.atomics_per_hit(),
        }

    return fn


def _collect_kv(cluster: KvCluster, client: KvClient, rebalancer=None):
    def fn() -> dict:
        out = {
            "kv.client.ops_issued": client.ops_issued,
            "kv.client.retries": client.retries,
            "kv.client.timeouts_exhausted": client.timeouts_exhausted,
        }
        for key in (
            "puts",
            "gets",
            "deletes",
            "scans",
            "flushes",
            "compactions",
            "bytes_flushed",
            "bytes_compacted",
        ):
            out[f"kv.engine.{key}"] = sum(
                getattr(sh.engine.stats, key) for sh in cluster.shards
            )
        # Flash / elastic keys only exist when the features are on, so
        # default-params snapshots (and their golden signatures) stay
        # byte-identical.
        if cluster.params.kv_flash_model:
            flashes = [sh.flash for sh in cluster.shards if sh.flash is not None]
            agg: dict[str, float] = {}
            for flash in flashes:
                for k, v in flash.metrics("kv.flash").items():
                    agg[k] = agg.get(k, 0) + v
            agg.pop("kv.flash.inline_threshold", None)
            out.update(agg)
            if flashes:
                # a cluster-wide peak, not a sum of per-device peaks
                out["kv.flash.gc_backlog_max"] = max(
                    f.stats.gc_backlog_max for f in flashes
                )
                out["kv.flash.inline_threshold.max"] = max(
                    f.inline_threshold for f in flashes
                )
        if cluster.ring is not None:
            out["kv.ring.version"] = cluster.ring.version
            out["kv.ring.shards"] = len(cluster.ring.shards)
            out["kv.client.stale_reroutes"] = client.stale_reroutes
            out["kv.server.stale_bounces"] = sum(
                sh.stale_bounces for sh in cluster.shards
            )
        if rebalancer is not None:
            out.update(rebalancer.metrics())
        return out

    return fn


def _collect_nvme(ini: NvmeFsInitiator, tgt: NvmeFsTarget):
    def fn() -> dict:
        return {
            "nvme.transient_retries": ini.transient_retries,
            "nvme.commands_processed": tgt.commands_processed,
        }

    return fn


def _collect_dispatch(dispatch: IoDispatch):
    def fn() -> dict:
        out = {
            "dispatch.standalone_ops": dispatch.standalone_ops,
            "dispatch.distributed_ops": dispatch.distributed_ops,
        }
        # Only emitted when a local plane exists, so pre-striping registry
        # snapshots (and their golden signatures) stay byte-identical.
        if dispatch.local_fs is not None:
            out["dispatch.local_ops"] = dispatch.local_ops
        return out

    return fn


def _collect_ssd(device):
    """SSD collector: the legacy aggregate keys always; per-device keys
    (queue depth, busy time, bytes, utilisation, aggregate bandwidth) only
    for striped arrays, so single-device snapshots stay byte-identical."""

    def fn() -> dict:
        out = {"ssd.reads": device.reads, "ssd.writes": device.writes}
        if not isinstance(device, StripedNvme):
            return out
        elapsed = device.env.now
        out["ssd.n_devices"] = device.n_devices
        out["ssd.bytes_read"] = device.bytes_read
        out["ssd.bytes_written"] = device.bytes_written
        total = device.bytes_read + device.bytes_written
        out["ssd.agg_bandwidth"] = total / elapsed if elapsed > 0 else 0.0
        for d in device.devices:
            pre = f"ssd.{d.name}"
            out[f"{pre}.reads"] = d.reads
            out[f"{pre}.writes"] = d.writes
            out[f"{pre}.bytes_read"] = d.bytes_read
            out[f"{pre}.bytes_written"] = d.bytes_written
            out[f"{pre}.busy_seconds"] = d.busy_seconds
            out[f"{pre}.inflight"] = d.inflight
            out[f"{pre}.qd_peak"] = d.qd_peak
            out[f"{pre}.utilisation"] = d.utilisation(elapsed)
        return out

    return fn


def _collect_dfs(prefix: str, client):
    stripeio = getattr(client, "stripeio", None)

    def fn() -> dict:
        out = {
            f"{prefix}.ops": client.ops,
            f"{prefix}.retries": client.retries,
            f"{prefix}.timeouts_exhausted": client.timeouts_exhausted,
        }
        if hasattr(client, "deleg_hits"):
            out[f"{prefix}.deleg_hits"] = client.deleg_hits
        if stripeio is not None:
            out[f"{prefix}.stripe.units_read"] = stripeio.units_read
            out[f"{prefix}.stripe.units_written"] = stripeio.units_written
            out[f"{prefix}.stripe.retries"] = stripeio.retries
            out[f"{prefix}.stripe.degraded_stripes"] = stripeio.degraded_stripes
            out[f"{prefix}.stripe.rebuilt_units"] = stripeio.rebuilt_units
        return out

    return fn


def _collect_req(engines):
    """Request-engine counters, keyed ``req.<endpoint>.<counter>``.

    Only registered when hedging/adaptive retry is on (the engine records
    per-endpoint stats either way, but default snapshots must keep their
    golden key set).  Engines on one node (KV client, DFS client, stripe
    IO) are summed per destination endpoint.
    """

    def fn() -> dict:
        out: dict[str, float] = {}
        for eng in engines:
            if eng is None:
                continue
            for ep, st in eng.stats.items():
                for k, v in st.as_dict().items():
                    key = f"req.{ep}.{k}"
                    out[key] = out.get(key, 0) + v
        return out

    return fn


def _collect_fault(plane: FaultPlane):
    def fn() -> dict:
        out = {"fault.events": len(plane.trace)}
        for kind, n in plane.counts().items():
            out[f"fault.kind.{kind}"] = n
        return out

    return fn


def _attach_tracer(
    env: Environment,
    trace: Optional[bool],
    components,
    params: Optional[SystemParams] = None,
) -> Optional[Tracer]:
    """Give every instrumented component a live tracer when tracing is on.

    ``trace=None`` defers to the process-wide context (``REPRO_TRACE=1`` or
    :func:`repro.obsv.enable_tracing`); the default off path leaves the
    class-level ``NULL_TRACER`` in place everywhere.  With
    ``params.obsv_tail_sample`` the tracer gets a :class:`TailSampler`, so
    only baseline and above-quantile client ops keep their span trees.
    """
    enabled = get_context().enabled if trace is None else trace
    if not enabled:
        return None
    sampler = None
    if params is not None and params.obsv_tail_sample:
        sampler = TailSampler(
            quantile=params.obsv_tail_quantile,
            baseline=params.obsv_tail_baseline,
            warmup=params.obsv_tail_warmup,
            alpha=params.obsv_sketch_alpha,
        )
    tracer = Tracer(env, sampler=sampler)
    for c in components:
        if c is not None:
            c.tracer = tracer
    return tracer


def _attach_sketches(
    env: Environment,
    p: SystemParams,
    registry: Registry,
    components,
) -> Optional[SketchHub]:
    """Feed per-endpoint quantile sketches when ``params.obsv_sketches``.

    One :class:`SketchHub` per node: every instrumented component's
    class-level ``sketches = NULL_HUB`` is swapped for the live hub, and
    the hub's collector joins the node registry so snapshots carry
    ``lat.<endpoint>.p50/p95/p99/p999``.  Off by default — the extra keys
    would break the golden snapshot signatures.
    """
    if not p.obsv_sketches:
        return None
    hub = SketchHub(alpha=p.obsv_sketch_alpha, now_fn=lambda: env.now)
    registry.collect(hub.collect)
    for c in components:
        if c is not None:
            c.sketches = hub
    return hub


# -- node dataclasses -------------------------------------------------------------


@dataclass
class HostNode:
    """Everything resident on one host server."""

    index: int
    cpu: CpuPool
    arena: MemoryArena
    link: PcieLink
    ini: NvmeFsInitiator
    vfs: Vfs
    kvfs_adapter: DpcAdapter
    dfs_adapter: Optional[DpcAdapter] = None
    cache_layout: Optional[CacheLayout] = None
    cache_host: Optional[HostCachePlane] = None
    #: adapter for the "/local" mount (DPU-local striped NVMe plane)
    local_adapter: Optional[DpcAdapter] = None


@dataclass
class DpuNode:
    """Everything running on that host's DPU."""

    index: int
    cpu: CpuPool
    tgt: NvmeFsTarget
    dispatch: IoDispatch
    kvfs: Kvfs
    kv_client: KvClient
    dfs_client: Optional[OffloadedDfsClient] = None
    cache_ctrl: Optional[CacheControlPlane] = None
    breaker: Optional[CircuitBreaker] = None
    #: the node's NVMe data plane (bare NvmeSsd or StripedNvme array)
    nvme: Optional[object] = None
    #: ext4-sim over :attr:`nvme`, running on the DPU cores
    local_fs: Optional[Ext4Fs] = None


@dataclass
class ClusterNode:
    """One host/DPU pair with its fabric identity and observability."""

    index: int
    endpoint: str
    host: HostNode
    dpu: DpuNode
    registry: Optional[Registry] = None
    tracer: Optional[Tracer] = None
    sketches: Optional[SketchHub] = None

    # convenience pass-throughs used by workload drivers
    @property
    def vfs(self) -> Vfs:
        return self.host.vfs

    @property
    def host_cpu(self) -> CpuPool:
        return self.host.cpu

    @property
    def dpu_cpu(self) -> CpuPool:
        return self.dpu.cpu


@dataclass
class Cluster:
    """N host/DPU pairs over one shared environment and backend."""

    env: Environment
    params: SystemParams
    fault_plane: FaultPlane
    fabric: Fabric
    kv_cluster: KvCluster
    nodes: list[ClusterNode] = field(default_factory=list)
    mds: Optional[MdsCluster] = None
    dataservers: Optional[list] = None
    layout: Optional[object] = None
    #: elastic KV rebalancer (only with kv_elastic + kv_rebalance)
    rebalancer: Optional[object] = None

    @property
    def n_hosts(self) -> int:
        return len(self.nodes)

    def node(self, i: int) -> ClusterNode:
        return self.nodes[i]

    def run_until(self, gen):
        """Drive one simulation process to completion; return its value."""
        return self.env.run(until=self.env.process(gen))

    def snapshot(self) -> dict:
        """Per-node registry snapshots keyed by endpoint name."""
        return {
            n.endpoint: n.registry.snapshot()
            for n in self.nodes
            if n.registry is not None
        }


def build_cluster(
    n_hosts: int = 1,
    params: Optional[SystemParams] = None,
    with_dfs: bool = False,
    with_cache: bool = True,
    prefetch: bool = True,
    num_queues: Optional[int] = None,
    trace: Optional[bool] = None,
    with_local_nvme: bool = False,
) -> Cluster:
    """Assemble ``n_hosts`` DPC host/DPU pairs over one shared backend.

    Shared across the cluster: the :class:`Environment` (one clock, one
    seed), the :class:`Fabric`, the :class:`FaultPlane`, the
    :class:`KvCluster`, and — with ``with_dfs`` — the MDS cluster and data
    servers.  Per node: host/DPU CPU pools, memory arena, PCIe link,
    nvme-fs initiator/target, IO_Dispatch, KVFS instance, hybrid-cache
    planes, VFS + adapters, and a Registry/Tracer pair registered on the
    observability context under the node's endpoint name.

    The construction order for node 0 replicates the historical
    ``build_dpc_system`` step for step, so ``build_cluster(1)`` is
    bit-identical to the legacy single-host builder at a fixed seed.

    ``with_local_nvme`` adds a DPU-local data plane per node: an array of
    ``params.nvme_devices_per_node`` NVMe SSDs (striped RAID0-style for
    N >= 2) under an ext4-sim running on the DPU cores, mounted at
    ``"/local"`` on the host VFS and reached over the same nvme-fs
    transport via ``FLAG_LOCAL``-tagged requests.  Off by default: no
    construction step, process, or registry key is added, keeping the
    default wiring bit-identical.
    """
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
    p = params or default_params()
    env = Environment(seed=p.seed)
    plane = FaultPlane(env)
    retry = retry_policy_from(p)
    req_config = RequestConfig.from_params(p)

    fabric: Optional[Fabric] = None
    kv_cluster: Optional[KvCluster] = None
    rebalancer = None
    mds = dataservers = layout = None
    nodes: list[ClusterNode] = []

    for i in range(n_hosts):
        # Per-node hardware first: for node 0 this precedes the shared
        # backend exactly as the legacy builder did.
        host_cpu = _host_cpu(env, p, i)
        dpu_cpu = _dpu_cpu(env, p, i)
        arena = MemoryArena(p.host_arena_bytes)
        link = PcieLink.from_params(env, arena, p)
        if i == 0:
            fabric = Fabric(
                env, latency=p.net_latency, default_bandwidth=p.net_bandwidth
            )
            fabric.fault_plane = plane
            # Disaggregated backends, shared by every node.
            kv_cluster = KvCluster(env, fabric, p)
            if p.kv_rebalance and p.kv_elastic:
                from ..kv.rebalance import Rebalancer

                rebalancer = Rebalancer(
                    env,
                    fabric,
                    kv_cluster,
                    p,
                    route_fn=kvfs_schema.routing_key,
                    plane=plane,
                )
        ep = node_endpoint(ROLE_DPC, i)
        fabric.attach(ep)
        kv_client = KvClient(
            fabric,
            ep,
            kv_cluster.shard_names(),
            route_fn=kvfs_schema.routing_key,
            scan_route_fn=kvfs_schema.scan_routing,
            retry=retry,
            plane=plane,
            ring=kv_cluster.ring.clone() if kv_cluster.ring is not None else None,
            config=req_config,
            inline_hints=p.kv_inline_hints,
        )
        kvfs = Kvfs(env, kv_client, dpu_cpu, p)
        dfs_client = None
        if with_dfs:
            if i == 0:
                mds, dataservers, layout = build_dfs(env, fabric, p)
            dfs_client = OffloadedDfsClient(
                env,
                fabric,
                ep,
                p.n_mds,
                layout,
                dpu_cpu,
                p,
                cpu_read=p.dpc_dfs_cpu_read,
                cpu_write=p.dpc_dfs_cpu_write,
                ec_scale=0.3,  # hardware-assisted EC on the DPU
                cpu_tag="dpc-dfs",
                retry=retry,
                plane=plane,
            )
        # nvme-fs transport.
        ini = NvmeFsInitiator(env, arena, link, host_cpu, p, num_queues=num_queues)
        # Hybrid cache.
        cache_layout = cache_host = cache_ctrl = breaker = None
        dispatch = IoDispatch(env, dpu_cpu, p, kvfs=kvfs, dfs_client=dfs_client)
        if with_cache:
            from ..sim.resources import Store

            cache_layout = CacheLayout(
                arena, p.cache_pages, p.cache_page_size, p.cache_buckets
            )
            mailbox = Store(env)
            cache_host = HostCachePlane(env, cache_layout, host_cpu, p, mailbox)
            breaker = CircuitBreaker(
                env,
                p.breaker_failures,
                p.breaker_reset,
                name=node_endpoint("cache-wb", i),
                plane=plane,
            )
            cache_ctrl = CacheControlPlane(
                env,
                link,
                dpu_cpu,
                p,
                cache_layout,
                mailbox,
                writeback=dispatch.cache_writeback,
                fetch=dispatch.cache_fetch,
                prefetch_enabled=prefetch,
                fetch_run=dispatch.cache_fetch_run,
                breaker=breaker,
            )
            dispatch.cache_ctrl = cache_ctrl
        if dfs_client is not None and cache_ctrl is not None:
            # Cross-client coherence: a delegation recall flushes and drops
            # this node's cached pages for the recalled inode.
            dfs_client.cache_invalidate = dispatch.invalidate_dfs_file
        tgt = NvmeFsTarget(env, link, dpu_cpu, p, ini.queues, dispatch.backend)
        tgt.fault_plane = plane
        # Host VFS with the fs-adapter mounts.
        vfs = Vfs(env, host_cpu, p)
        kvfs_adapter = DpcAdapter(
            env,
            ini,
            host_cpu,
            p,
            cache=cache_host,
            req_type=ReqType.STANDALONE,
            breaker=breaker,
        )
        vfs.mount("/kvfs", kvfs_adapter)
        dfs_adapter = None
        if with_dfs:
            dfs_adapter = DpcAdapter(
                env,
                ini,
                host_cpu,
                p,
                cache=cache_host,
                req_type=ReqType.DISTRIBUTED,
                breaker=breaker,
            )
            vfs.mount("/dfs", dfs_adapter)
        # DPU-local striped NVMe data plane (flag-gated for bit-identity).
        local_nvme = local_ext4 = local_adapter = None
        if with_local_nvme:
            local_nvme = build_nvme_array(
                env, p, capacity_blocks=1 << 22, node_idx=i
            )
            local_ext4 = Ext4Fs(env, local_nvme, dpu_cpu, p)
            dispatch.local_fs = Ext4Adapter(local_ext4)
            local_adapter = DpcAdapter(
                env,
                ini,
                host_cpu,
                p,
                cache=None,
                req_type=ReqType.STANDALONE,
                base_flags=FLAG_LOCAL,
            )
            # Local-plane inos are the ext4-sim's own (root is EXT4 ino 1,
            # not the KVFS 0): point the VFS mount at the right root.
            local_adapter.root_ino = dispatch.local_fs.root_ino
            vfs.mount("/local", local_adapter)
        registry = Registry(ep)
        registry.collect(_collect_cpu(host_cpu))
        registry.collect(_collect_cpu(dpu_cpu))
        registry.collect(_collect_pcie(link))
        registry.collect(_collect_kv(kv_cluster, kv_client, rebalancer))
        registry.collect(_collect_nvme(ini, tgt))
        registry.collect(_collect_dispatch(dispatch))
        if local_nvme is not None:
            registry.collect(_collect_ssd(local_nvme))
        if req_config.enabled:
            registry.collect(
                _collect_req(
                    [
                        kv_client._req,
                        getattr(dfs_client, "_req", None),
                        getattr(
                            getattr(dfs_client, "stripeio", None), "_req", None
                        ),
                    ]
                )
            )
        registry.collect(_collect_fault(plane))
        if cache_host is not None:
            registry.collect(_collect_cache(cache_host))
        if dfs_client is not None:
            registry.collect(_collect_dfs("dfs", dfs_client))
        tracer = _attach_tracer(
            env,
            trace,
            [
                link,
                plane,
                ini,
                tgt,
                dispatch,
                cache_host,
                cache_ctrl,
                kv_client,
                kvfs_adapter,
                dfs_adapter,
                local_adapter,
                dfs_client,
                getattr(dfs_client, "stripeio", None),
            ],
            params=p,
        )
        sketch_components = [
            dispatch,
            cache_ctrl,
            kv_client,
            dfs_client,
            getattr(dfs_client, "stripeio", None),
        ]
        if i == 0:
            # Cluster-shared components report into the node-0 hub.
            sketch_components.append(fabric)
            sketch_components.extend(kv_cluster.shards)
        hub = _attach_sketches(env, p, registry, sketch_components)
        get_context().register(ep, tracer, registry)
        nodes.append(
            ClusterNode(
                index=i,
                endpoint=ep,
                host=HostNode(
                    index=i,
                    cpu=host_cpu,
                    arena=arena,
                    link=link,
                    ini=ini,
                    vfs=vfs,
                    kvfs_adapter=kvfs_adapter,
                    dfs_adapter=dfs_adapter,
                    cache_layout=cache_layout,
                    cache_host=cache_host,
                    local_adapter=local_adapter,
                ),
                dpu=DpuNode(
                    index=i,
                    cpu=dpu_cpu,
                    tgt=tgt,
                    dispatch=dispatch,
                    kvfs=kvfs,
                    kv_client=kv_client,
                    dfs_client=dfs_client,
                    cache_ctrl=cache_ctrl,
                    breaker=breaker,
                    nvme=local_nvme,
                    local_fs=local_ext4,
                ),
                registry=registry,
                tracer=tracer,
                sketches=hub,
            )
        )

    return Cluster(
        env=env,
        params=p,
        fault_plane=plane,
        fabric=fabric,
        kv_cluster=kv_cluster,
        nodes=nodes,
        mds=mds,
        dataservers=dataservers,
        layout=layout,
        rebalancer=rebalancer,
    )
